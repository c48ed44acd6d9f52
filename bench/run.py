"""hhbound benchmark: one entry point for every workload and metric.

Run from the repository root:

    python3 bench/run.py --workload suite_default --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
layer-to-metric-to-workload map is in ``bench/layer_map.json``.

``--trace 0`` measures the end-to-end metrics with tracing off. Every
repetition starts from cold memo caches: each operation runs in a child
forked from a worker interpreter that has only imported hhbound and built the
inputs (``cli_case`` starts a fresh ``hhbound`` interpreter instead).
``setup_s`` is timed from outside, from starting an interpreter to its
``ready`` line, over several fresh interpreters. ``op_s`` and ``setup_s``
are reported in reference seconds, scaled by the calibration kernel of
``calibrate.py``; the per-layer times of ``--trace 1`` are raw seconds.

``--trace 1`` runs the workload's operation 0 twice with the tracer of
``bench/tracer.py`` installed, and once without it. It reports the per-layer
metrics, checks that the two traced runs give identical counts and that the
layer self times account for the traced ``run_suite`` time, and reports the
tracing overhead.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. The lines before it give every metric by its
name in the workload's terms, with sample counts and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

SETUP_PROBES = 3          # fresh interpreters timed for setup_s
RUN_DEADLINE_S = 170.0    # every worker is killed by then
ACCOUNTING_TOL = 0.02     # share of traced run_suite time the spans may miss

# each workload's op_s under its own name (bench/layer_map.json), with unit
OP_NAMES = {
    "suite_default": ("suite_s", "s"),
    "sweep_fresh_x": ("sweep_rows_per_s", "rows/s"),
    "cli_case": ("cli_case_p50_s", "s"),
    "identities_nonsmooth": ("identity_nonsmooth_case_s", "s"),
    "identities_smooth": ("identity_smooth_case_s", "s"),
}
# workloads whose operation is one run_suite call, so spans must account for it
SUITE_WORKLOADS = ("suite_default", "sweep_fresh_x")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _tail(values, better: str):
    """Highest percentile with at least ten samples beyond it on the worse
    side, else the worst sample."""
    n = len(values)
    for p in (99, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            return f"p{p}", cuts[p - 1] if better == "lower" else cuts[99 - p]
    return "worst", max(values) if better == "lower" else min(values)


class Bench:
    def __init__(self, root: Path, args) -> None:
        self.root = root
        self.args = args
        self.started = time.monotonic()
        self.work = root / ".bench_work" / f"run-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        # single-threaded numeric libraries: the worker forks its operations
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"

    # -- processes --------------------------------------------------------

    def _remaining(self) -> float:
        left = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError("out of time")
        return left

    def worker(self, mode: str, importtime: bool = False,
               seconds: float = 0.0) -> tuple[float, dict, str]:
        """Start a worker; return (set-up seconds, its result, its stderr)."""
        self.work.mkdir(parents=True, exist_ok=True)
        op_dir = self.work / f"{mode}-{time.monotonic_ns()}"
        err_path = op_dir.with_suffix(".stderr")
        cmd = [sys.executable]
        if importtime:
            cmd += ["-X", "importtime"]
        cmd += [str(self.root / "bench" / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--mode", mode, "--seconds", str(seconds),
                "--work-dir", str(op_dir)]
        with open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err,
                                    text=True, start_new_session=True)
            try:
                ready = self._read_line(proc)
                setup_s = time.perf_counter() - t0
                result = self._read_line(proc) if mode != "setup" else {}
                proc.wait(timeout=self._remaining())
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
                proc.stdout.close()
        stderr = err_path.read_text()
        if proc.returncode != 0 or ready.get("event") != "ready":
            raise BenchError(f"worker ({mode}) failed with code "
                             f"{proc.returncode}:\n{stderr[-4000:]}")
        return setup_s, result, stderr

    def _read_line(self, proc) -> dict:
        ready, _, _ = select.select([proc.stdout], [], [], self._remaining())
        line = proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker ended or stalled without output")
        return json.loads(line)

    # -- runs -------------------------------------------------------------

    def setup_sample(self) -> tuple[float, float]:
        """One fresh interpreter's set-up time: (raw seconds, scale)."""
        before = calibrate.kernel_s()
        setup_s = self.worker("setup")[0]
        return setup_s, calibrate.scale(before, calibrate.kernel_s())

    def measure(self) -> tuple[dict, dict]:
        setup = [self.setup_sample() for _ in range(SETUP_PROBES)]
        _, result, _ = self.worker("measure", seconds=self.args.seconds)
        samples = result["samples"]
        per_unit = [(s["seconds"] / s["units"], s["scale"]) for s in samples]
        rss_mb = [s["maxrss_kb"] * 1024 / 1e6 for s in samples]

        name, unit = OP_NAMES[self.args.workload]
        lines = [_stat_line("setup_s", setup, "s")]
        if name == "sweep_rows_per_s":
            lines.append(_stat_line(name, [(1.0 / v, 1.0 / k) for v, k in per_unit],
                                    unit, better="higher"))
        else:
            lines.append(_stat_line(name, per_unit, unit))
        lines.append(_stat_line("peak_rss_mb", [(v, 1.0) for v in rss_mb], "MB"))
        metrics = {"setup_s": statistics.median(v * k for v, k in setup),
                   "op_s": statistics.median(v * k for v, k in per_unit),
                   "peak_rss_mb": statistics.median(rss_mb)}
        return metrics, {"samples": samples, "lines": lines}

    def trace(self) -> tuple[dict, dict]:
        traced = [self.worker("trace", importtime=True) for _ in range(2)]
        _, plain, _ = self.worker("once")
        runs = [r["samples"][0] for _, r, _ in traced]
        imports = [_import_seconds(stderr) for _, _, stderr in traced]
        lines, failures = [], []

        counts = [_counts(run) for run in runs]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            failures.append(f"traced counts differ between runs: {diff}")

        def mean(key):
            return statistics.fmean(run["layers"][key] for run in runs)

        metrics = dict(runs[0]["layers"])
        for key in metrics:
            if key.endswith("_s"):
                metrics[key] = mean(key)
        metrics["harness.report_bytes"] = runs[0]["info"].get("report_bytes", 0)
        metrics["cli.import_s"] = statistics.fmean(i["hhbound"] for i in imports)
        metrics["cli.import_scipy_s"] = statistics.fmean(i["scipy"] for i in imports)
        op_s = statistics.fmean(run["seconds"] for run in runs)
        metrics["cli.verify_s"] = op_s if self.args.workload == "cli_case" else 0.0
        metrics["trace.op_s"] = op_s
        metrics["trace.overhead_s"] = op_s - plain["samples"][0]["seconds"]

        if self.args.workload in SUITE_WORKLOADS:
            for run in runs:
                missing = run["seconds"] - run["span_total_s"]
                if abs(missing) > ACCOUNTING_TOL * run["seconds"]:
                    failures.append(f"spans cover {run['span_total_s']:.4f} s "
                                    f"of a {run['seconds']:.4f} s run_suite call")
            lines.append(f"traced run_suite: {op_s:.4f} s, untraced "
                         f"{plain['samples'][0]['seconds']:.4f} s; self time by layer:")
            for key in ("convexity.gate_s", "core.case_build_s",
                        "quadrature.lhs_s", "bounds.rhs_s", "harness.self_s"):
                lines.append(f"  {key:<22} {metrics[key]:8.4f} s "
                             f"{100 * metrics[key] / op_s:5.1f}%")
        return metrics, {"samples": runs + plain["samples"], "lines": lines,
                         "failures": failures}


def _counts(run) -> dict:
    return {k: v for k, v in run["layers"].items() if not k.endswith("_s")}


def _import_seconds(stderr: str) -> dict:
    """Cumulative import time of the outermost hhbound and scipy modules,
    from ``-X importtime`` output (printed children first)."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    totals = {"hhbound": 0.0, "scipy": 0.0}
    stack: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):  # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for _, a in stack):
            totals[top] += seconds
        stack.append((depth, name))
    return totals


def _stat_line(name: str, pairs, unit: str, better: str = "lower") -> str:
    """Median and tail of ``raw * scale`` over (raw, scale) pairs, with the
    raw median beside them."""
    values = [v * k for v, k in pairs]
    label, tail = _tail(values, better)
    raw = statistics.median(v for v, _ in pairs)
    return (f"{name}: p50={statistics.median(values):.6g} {label}={tail:.6g} "
            f"n={len(values)} unit={unit} better={better} raw_p50={raw:.6g}")


def _environment(root: Path) -> str:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    commit = "none"
    if (root / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=30)
        commit = git.stdout.strip() or "none"
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return (f"env: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={version('numpy')} scipy={version('scipy')} "
            f"commit={commit} src_sha256={digest.hexdigest()[:16]}")


def main() -> int:
    p = argparse.ArgumentParser(description="hhbound benchmark")
    p.add_argument("--workload", required=True, choices=sorted(OP_NAMES))
    p.add_argument("--seed", type=int, required=True,
                   help="input seed; sweep_fresh_x draws its split points from it")
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hhbound" / "__init__.py").is_file():
        print("bench: no hhbound sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    bench = Bench(root, args)
    try:
        # byte-compile up front so no timed interpreter pays for it
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"],
                       cwd=root, check=True, capture_output=True,
                       timeout=bench._remaining())
        metrics, detail = bench.trace() if args.trace else bench.measure()
        reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared}
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    samples = detail["samples"]
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    failures = detail.get("failures", [])
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(_environment(root))
    for line in detail["lines"]:
        print(line)
    for s in samples:
        print("sample: " + json.dumps({k: s[k] for k in ("seconds", "units", "failed", "info")}))
    print(f"failed_ratio: {failed / max(1, attempted):.6g} ({failed}/{attempted}) unit=ratio")
    for failure in failures:
        print(f"check failed: {failure}")
    for name, m in reported.items():
        print(f"metric {name}: {m['value']:.6g} {m['unit']}")

    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed + len(failures),
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
