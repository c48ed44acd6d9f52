"""Measure a change against its parent commit and write a BENCH_<name>.json.

Run from the root of the changed checkout, with a checkout of the parent
commit elsewhere:

    python3 scripts/bench_pair.py --parent PATH --name row_loop \
        --workload suite_default --pairs 10

For each workload it runs ``bench/run.py --trace 0`` in the two checkouts as
alternating pairs: even pairs run the parent first, odd pairs the change.
Every run uses the same seed and run length. It records each side's op_s,
setup_s and peak_rss_mb per run with their median and quartiles, and how many
pairs the change won on op_s and on peak_rss_mb.

It also runs four cold operations once per checkout, each in a fresh
interpreter that imports that checkout's hhbound, so every memo starts cold:
the bundled suite, the suite of one sweep_fresh_x operation (rep 0 of the
seed, from bench/workloads.sweep_specs), and one pass of each identities
workload. For each suite it records deterministic counters of that run with
the sha256 of both reports:

- moment evaluations: calls of absolute_moment, trapezoid_moment and
  midpoint_moment;
- float-to-text conversions made writing the reports: the calls of
  format_real, which renders each real once for both reports;
- integrand calls: calls of RealFunction.__call__, and the points they
  evaluated (one for a scalar, the size of an array);
- oracle memo hits and misses: what quadrature._integrate_cached's
  cache_info() gained over the run;
- oracle batches: the calls of quadrature._integrate_batch, the intervals
  they integrated, and the deep batches among them: those of more than one
  interval that called their integrand more than once, so that their panels
  went through the multi-interval levels past the nested grids;
- oracle result objects: the quadrature.IntegralResult instances built over
  the run, wherever they were built; the oracle's own results are plain
  triples, so this counts the public results asked for;
- gate requests: the combinations of the run, each of which its hypothesis
  gate decides, and the distinct requests among them: the (pair, m, q,
  alpha) entries of the plan that the run hands to convexity._gate;
- gate slab comparisons: the calls of convexity._slab_violation, one per
  (q, alpha) and x-slab that the gate compared. Without witnesses the gate
  compares a q of an alpha only once every smaller q of that alpha in its
  (pair, m) group has violated, so a q above one that holds is compared in
  no slab;
- gate implied: the plan entries that hold and were compared in no slab,
  admitted by the power-mean step from a smaller q. Each _slab_violation
  call is attributed to its (pair, m, q, alpha) through the local variables
  of the convexity._gate frame that scans the (pair, m) group and of the
  convexity._scan frame that made the call, so the attribution holds
  whatever map the gate hands _scan for a pair;
- minor page faults: what resource.getrusage's ru_minflt gained over the
  run, the cost of touching freshly allocated memory;
- peak RSS: resource.getrusage's ru_maxrss (KiB) at the end of the run, the
  high-water mark of the fresh interpreter, import included;
- tracemalloc peak (KiB): the most memory that tracemalloc saw allocated at
  once during a second run_suite of the same config in the same
  interpreter, started with the oracle memo cleared after every other
  counter was read, so it moves none of them. It counts only what the run
  allocates, Python objects and numpy buffers alike, and repeats from run to
  run where RSS and page faults follow the allocator's layout.

For each identities pass it records the integrand calls and points, the
oracle memo hits and misses, the oracle batches and result objects, the
minor page faults, the peak RSS, the worst residual, and whether numpy.ma
was loaded by the end of the pass.

The result goes to BENCH_<name>.json in the current directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

_REPORTS = ("report.csv", "report.json")
_COUNTED = ("suite_default", "sweep_fresh_x", "identities_nonsmooth",
            "identities_smooth")


def count(out_dir: str, workload: str, seed: int) -> dict:
    """Deterministic counters of one cold operation of workload with the
    hhbound on sys.path.

    For suite_default and sweep_fresh_x, the counters and report digests of
    one run_suite: the bundled suite, or the suite of the sweep_fresh_x
    operation of rep 0 of seed. For an identities workload, the integrand,
    oracle memo, oracle batch and result object counters of one pass over
    its cases, its worst residual and whether numpy.ma was loaded by the end
    of it. Both
    record the minor page faults of the counted run and the interpreter's
    peak RSS after it; a suite also records the tracemalloc peak of a second,
    memo-cleared run.
    """
    import hhbound.bounds as bounds
    import hhbound.convexity as convexity
    import hhbound.core as core
    import hhbound.harness as harness
    import hhbound.quadrature as quadrature
    import numpy as np
    import workloads

    memo = quadrature._integrate_cached
    memo0 = memo.cache_info()

    def memo_counts() -> dict:
        info = memo.cache_info()
        return {"oracle_hits": info.hits - memo0.hits,
                "oracle_misses": info.misses - memo0.misses}

    counts: Counter = Counter()
    evaluate = core.RealFunction.__call__

    def counted(self, t):
        counts["integrand_calls"] += 1
        counts["points_evaluated"] += int(np.size(t))
        return evaluate(self, t)

    core.RealFunction.__call__ = counted

    # _ResultMemo.results calls _integrate_batch through the module global
    batch = quadrature._integrate_batch

    def counted_batch(fn, ranges, tol):
        calls = 0

        def observed(t):
            nonlocal calls
            calls += 1
            return fn(t)

        counts["oracle_batches"] += 1
        counts["oracle_intervals"] += len(ranges)
        results = batch(observed, ranges, tol)
        counts["oracle_deep_batches"] += len(ranges) > 1 and calls > 1
        return results

    quadrature._integrate_batch = counted_batch

    counts["oracle_result_objects"] = 0
    result_init = quadrature.IntegralResult.__init__

    def counted_result(self, *args, **kwargs):
        counts["oracle_result_objects"] += 1
        result_init(self, *args, **kwargs)

    quadrature.IntegralResult.__init__ = counted_result

    def minor_faults() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

    def peak_rss_kb() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if workload.startswith("identities_"):
        faults0 = minor_faults()
        result = workloads.WORKLOADS[workload](seed).run(0, Path(out_dir), True)
        counts["minor_page_faults"] = minor_faults() - faults0
        counts["peak_rss_kb"] = peak_rss_kb()
        return {"cases": result["units"], **counts, **memo_counts(),
                "worst_residual": result["info"]["worst_residual"],
                "numpy_ma_loaded": "numpy.ma" in sys.modules}

    if workload == "suite_default":
        config = harness.default_suite(out_dir)
    else:
        config = harness.SuiteConfig(cases=workloads.sweep_specs(seed, 0),
                                     output_dir=out_dir)

    def rebind(module, name: str, key: str) -> None:
        # calls through `from .x import y` bindings are counted too
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hhbound" or mod_name.startswith("hhbound."):
                if getattr(mod, name, None) is original:
                    setattr(mod, name, wrapped)

    for name in ("absolute_moment", "trapezoid_moment", "midpoint_moment"):
        rebind(bounds, name, "moment_evaluations")
    rebind(harness, "format_real", "text_conversions")
    # (pair, m, q, alpha) of every request compared in some slab
    compared = set()
    slab_violation = convexity._slab_violation

    def counted_comparison(rhs, gap, mask):
        scan = gate_frame = sys._getframe(1)
        while gate_frame.f_code is not convexity._gate.__code__:
            gate_frame = gate_frame.f_back
        group, here = gate_frame.f_locals, scan.f_locals
        compared.add((group["pair"], group["m"], here["q"], here["alpha"]))
        counts["gate_slab_comparisons"] += 1
        return slab_violation(rhs, gap, mask)

    # run_suite makes one gate call, on the plan of the whole run
    gate = harness._gate

    def counted_gate(plan, grid, witnesses):
        verdicts = gate(plan, grid, witnesses)
        for (pair, m), alphas_by_q in plan.items():
            for q, alphas in alphas_by_q.items():
                for alpha in alphas:
                    counts["gate_distinct_requests"] += 1
                    counts["gate_implied"] += (
                        verdicts[pair, m][q, alpha].holds
                        and (pair, m, q, alpha) not in compared)
        return verdicts

    counts["gate_requests"] = sum(
        len(spec.theorems) * len(spec.q_values) * len(spec.alpha_values)
        * len(spec.m_values) for spec in config.cases)
    for key in ("gate_distinct_requests", "gate_slab_comparisons", "gate_implied"):
        counts[key] = 0
    convexity._slab_violation = counted_comparison
    harness._gate = counted_gate

    faults0 = minor_faults()
    result = harness.run_suite(config)
    counts["minor_page_faults"] = minor_faults() - faults0
    counts["peak_rss_kb"] = peak_rss_kb()
    digests = {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
               for name in _REPORTS}
    record = {"rows": len(result.reports), **counts, **memo_counts(), "sha256": digests}
    memo.cache_clear()
    tracemalloc.start()
    harness.run_suite(config)
    record["tracemalloc_peak_kb"] = tracemalloc.get_traced_memory()[1] // 1024
    tracemalloc.stop()
    return record


def _src_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _counters(root: Path, workload: str, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), str(root / "bench"), str(Path(__file__).resolve().parent)])}
    with tempfile.TemporaryDirectory() as out_dir:
        code = ("import json, bench_pair; print(json.dumps("
                f"bench_pair.count({out_dir!r}, {workload!r}, {seed})))")
        proc = subprocess.run([sys.executable, "-c", code], cwd=out_dir, env=env,
                              check=True, capture_output=True, text=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, check=True, capture_output=True, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{root}: {workload} failed its output checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="root of a checkout of the parent commit")
    p.add_argument("--name", required=True, help="the file is BENCH_<name>.json")
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args()

    sides = {"parent": args.parent.resolve(), "change": Path.cwd()}
    record = {
        "name": args.name,
        "command": (f"python3 bench/run.py --workload W --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace 0"),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "src_sha256": {side: _src_digest(root) for side, root in sides.items()},
        "counters": {side: {workload: _counters(root, workload, args.seed)
                            for workload in _COUNTED}
                     for side, root in sides.items()},
        "workloads": {},
    }
    for workload in args.workload:
        runs: dict = {side: [] for side in sides}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(_bench(sides[side], workload, args.seed,
                                         args.seconds))
                print(f"{workload} pair {k} {side}: op_s "
                      f"{runs[side][-1]['op_s']:.4g}", file=sys.stderr)
        won = {f"change_won_{metric}": sum(
                   c[metric] < p[metric] for p, c in zip(runs["parent"], runs["change"]))
               for metric in ("op_s", "peak_rss_mb")}
        record["workloads"][workload] = {
            "pairs": args.pairs,
            **won,
            **{side: {metric: _summary([r[metric] for r in rs])
                      for metric in ("op_s", "setup_s", "peak_rss_mb")}
               for side, rs in runs.items()},
        }
    out = Path(f"BENCH_{args.name}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
