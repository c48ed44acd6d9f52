"""The gate counters of scripts/bench_pair.py on one cold sweep_fresh_x
operation, counted in a fresh interpreter as the script counts them."""

import importlib.util
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "bench_pair", _ROOT / "scripts" / "bench_pair.py")
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)


def test_gate_counters_of_the_seed_1_sweep():
    counts = bench_pair._counters(_ROOT, "sweep_fresh_x", 1)
    gate = ("gate_requests", "gate_distinct_requests", "gate_slab_comparisons",
            "gate_implied")
    # the implied count holds only if each comparison is attributed to the
    # request that made it, whatever map the gate scans for its pair
    assert [counts[key] for key in gate] == [24, 12, 81, 3]
