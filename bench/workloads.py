"""The benchmark's workloads: inputs, one timed operation, output checks.

Imported only inside a worker interpreter (``worker.py``). Program functions
are looked up through their module at call time, so the tracer's wrappers
apply. Every operation returns a dict with its wall ``seconds``, the
``scale`` from the calibration kernels around the timed work, the number of
``units`` the operation's time is divided by for ``op_s``, the number of
outputs it ``attempted`` and ``failed`` to verify, and ``info`` for the log.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import hhbound.cli
import hhbound.core as core
import hhbound.harness as harness
import hhbound.quadrature as quadrature
import numpy as np

import calibrate  # after hhbound, so -X importtime charges numpy to hhbound

# ---------------------------------------------------------------------------
# suite_default: the bundled suite, cold

# recorded from the bundled suite; lhs and rhs are column sums (math.fsum)
SUITE_EXPECTED = {
    "rows": 17372,
    "rejections": 1236,
    "violations": 0,
    "max_tightness": 0.9999990000010002,
    "lhs_sum": 2895.3607022298634,
    "rhs_sum": 18277.17950588919,
}
SUITE_REL_TOL = 1e-12


def _report_bytes(out_dir: Path) -> int:
    return sum((out_dir / name).stat().st_size
               for name in ("report.csv", "report.json")
               if (out_dir / name).exists())


class SuiteDefault:
    forks = True

    def __init__(self, seed: int) -> None:
        self.config = harness.default_suite("reports")

    def run(self, rep: int, out_dir: Path, in_process: bool) -> dict:
        config = dataclasses.replace(self.config, output_dir=str(out_dir))
        result, seconds, scale = calibrate.timed(lambda: harness.run_suite(config))
        got = {
            "rows": len(result.reports),
            "rejections": result.hypothesis_rejections,
            "violations": result.violations,
            "max_tightness": result.max_tightness,
            "lhs_sum": math.fsum(r.lhs for r in result.reports),
            "rhs_sum": math.fsum(r.rhs for r in result.reports),
        }
        bad = [k for k, want in SUITE_EXPECTED.items()
               if not _matches(got[k], want)]
        csv = out_dir / "report.csv"
        info = {"rows": got["rows"], "mismatches": bad,
                "report_csv_sha256": hashlib.sha256(csv.read_bytes()).hexdigest(),
                "report_bytes": _report_bytes(out_dir)}
        return {"seconds": seconds, "scale": scale, "units": 1, "attempted": 1,
                "failed": int(bool(bad)), "info": info}


def _matches(got, want) -> bool:
    if isinstance(want, int):
        return got == want
    return abs(got - want) <= SUITE_REL_TOL * abs(want)


# ---------------------------------------------------------------------------
# sweep_fresh_x: the bundled (f, g) pairs at split points drawn from the seed

# one (q, alpha, m) from the bundled levels per pair; each is admitted both
# by the gate on [a, b] = [0, 1] and by the class check on [0, b_star], so the
# row count does not depend on which of the two the program gates with
SWEEP_PLAN = (
    ("monomial:2", "const:1", 2.0, 0.75, 0.75),
    ("monomial:2", "monomial:1", 1.5, 0.5, 0.25),
    ("monomial:2", "poly:0:1:-1", 3.0, 0.25, 0.5),
    ("monomial:2", "sin", 1.0, 1.0, 0.75),
    ("monomial:3", "const:1", 1.0, 0.25, 0.25),
    ("monomial:3", "monomial:1", 1.5, 0.75, 0.5),
    ("monomial:3", "poly:0:1:-1", 2.0, 0.5, 0.75),
    ("monomial:3", "sin", 3.0, 1.0, 0.25),
    ("exp", "const:1", 1.0, 1.0, 1.0),
    ("exp", "monomial:1", 1.5, 1.0, 1.0),
    ("exp", "poly:0:1:-1", 2.0, 1.0, 1.0),
    ("exp", "sin", 3.0, 1.0, 1.0),
)
SWEEP_THEOREMS = ("T21", "T22")
SWEEP_X_PER_SPEC = 64
SWEEP_LHS_TOL = 1e-9

# the check's own quadrature: Gauss-Legendre on each smooth piece
_F = {"monomial:2": lambda t: t ** 2, "monomial:3": lambda t: t ** 3,
      "exp": np.exp}
_G = {"const:1": np.ones_like, "monomial:1": lambda t: t,
      "poly:0:1:-1": lambda t: t - t * t, "sin": np.sin}
_GL_T, _GL_W = np.polynomial.legendre.leggauss(24)


def _gauss(fn, lo, hi):
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    t = (0.5 * (hi + lo))[..., None] + half[..., None] * _GL_T
    return half * (fn(t) @ _GL_W)


def sweep_specs(seed: int, rep: int) -> tuple:
    rng = np.random.default_rng([seed % 2 ** 64, rep])
    specs = []
    for f, g, q, alpha, m in SWEEP_PLAN:
        xs = np.sort(rng.uniform(0.0, 1.0, SWEEP_X_PER_SPEC))
        specs.append(harness.CaseSpec(
            f=f, g=g, a=0.0, b=1.0, q_values=(q,), alpha_values=(alpha,),
            m_values=(m,), theorems=SWEEP_THEOREMS,
            x_values=tuple(float(x) for x in xs), b_star=4.0))
    return tuple(specs)


def sweep_lhs_errors(specs, reports) -> int:
    """Rows whose lhs, theorem or split point disagree with the inputs."""
    failed = 0
    at = 0
    for spec in specs:
        f, g = _F[spec.f], _G[spec.g]
        xs = np.asarray(spec.x_values)
        whole_g = _gauss(g, 0.0, 1.0)
        whole_fg = _gauss(lambda t: f(t) * g(t), 0.0, 1.0)
        endpoint = np.abs(f(0.0) * _gauss(g, 0.0 * xs, xs)
                          + f(1.0) * _gauss(g, xs, 0.0 * xs + 1.0) - whole_fg)
        point = np.abs(f(xs) * whole_g - whole_fg)
        for tid, want in zip(spec.theorems, (endpoint, point)):
            rows = reports[at:at + len(xs)]
            at += len(xs)
            for row, x, ref in zip(rows, xs, want):
                if (row.theorem_id != tid or row.x != x or not row.holds
                        or not abs(row.lhs - ref) <= SWEEP_LHS_TOL):
                    failed += 1
            failed += len(xs) - len(rows)
    return failed + max(0, len(reports) - at)


class SweepFreshX:
    forks = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.first = sweep_specs(seed, 0)

    def run(self, rep: int, out_dir: Path, in_process: bool) -> dict:
        specs = self.first if rep == 0 else sweep_specs(self.seed, rep)
        config = harness.SuiteConfig(cases=specs, output_dir=str(out_dir))
        expected_rows = sum(len(s.x_values) * len(s.theorems) for s in specs)
        result, seconds, scale = calibrate.timed(lambda: harness.run_suite(config))
        # a rejected or violated case shows as a missing or failed row
        failed = sweep_lhs_errors(specs, result.reports)
        info = {"rows": len(result.reports), "expected_rows": expected_rows,
                "rejections": result.hypothesis_rejections,
                "violations": result.violations,
                "report_bytes": _report_bytes(out_dir)}
        return {"seconds": seconds, "scale": scale,
                "units": max(1, len(result.reports)),
                "attempted": expected_rows, "failed": min(failed, expected_rows),
                "info": info}


# ---------------------------------------------------------------------------
# cli_case: one `hhbound verify` case, the README example

CLI_ARGS = ("verify", "--f", "monomial:2", "--g", "const:1", "--a", "0",
            "--b", "1", "--x", "0.25", "--q", "2", "--alpha", "0.75",
            "--m", "0.75", "--theorem", "T21")
# lhs = |f(0) * 0.25 + f(1) * 0.75 - 1/3| = 5/12 exactly; rhs as recorded
CLI_EXPECTED = {"lhs": 5.0 / 12.0, "rhs": 0.56130327304336114}


def cli_output_ok(code: int, stdout: str) -> bool:
    if code != 0:
        return False
    rows = [line for line in stdout.splitlines() if line.startswith("T21 ")]
    if len(rows) != 1 or "holds=true" not in rows[0].split():
        return False
    fields = dict(tok.split("=", 1) for tok in rows[0].split()[1:])
    return all(abs(float(fields[k]) - v) <= 1e-12 * v
               for k, v in CLI_EXPECTED.items())


class CliCase:
    forks = False  # each invocation is its own interpreter

    def __init__(self, seed: int) -> None:
        self.argv = list(CLI_ARGS)

    def run(self, rep: int, out_dir: Path, in_process: bool) -> dict:
        argv = self.argv + ["--out", str(out_dir)]
        if in_process:
            buf = io.StringIO()

            def invoke():
                with contextlib.redirect_stdout(buf):
                    return hhbound.cli.main(argv), None

            (code, maxrss_kb), seconds, scale = calibrate.timed(invoke)
            out = buf.getvalue()
        else:
            def invoke():
                proc = subprocess.Popen(
                    [sys.executable, "-m", "hhbound.cli"] + argv,
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
                text = proc.stdout.read().decode()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return text, proc.returncode, usage.ru_maxrss

            (out, code, maxrss_kb), seconds, scale = calibrate.timed(invoke)
        ok = cli_output_ok(code, out)
        result = {"seconds": seconds, "scale": scale, "units": 1, "attempted": 1,
                  "failed": int(not ok),
                  "info": {"exit_code": code,
                           "report_bytes": _report_bytes(out_dir)}}
        if maxrss_kb is not None:
            result["maxrss_kb"] = maxrss_kb
        return result


# ---------------------------------------------------------------------------
# identities: residuals and envelope over a fixed f x x grid per weight

IDENTITY_FS = ("monomial:2", "monomial:3", "exp")
IDENTITY_XS = (0.2, 0.4, 0.6, 0.8)
# the gates of `hhbound identities`
RESIDUAL_GATE = 1e-7
ENVELOPE_GATE = 1e-10


class Identities:
    forks = True
    weights: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.cases = [(core.parse_function(f), core.parse_function(g), x)
                      for g in self.weights for f in IDENTITY_FS
                      for x in IDENTITY_XS]

    def run(self, rep: int, out_dir: Path, in_process: bool) -> dict:
        iv = core.Interval(0.0, 1.0)
        failed = 0
        worst = 0.0
        seconds = scaled = 0.0
        for f, g, x in self.cases:
            def one_case():
                # the case `hhbound identities --a 0 --b 1` builds
                pair = core.DifferentiablePair.from_family(f, core.DomainSpec(1.0))
                g_sup = quadrature.sup_norm(g, iv) * harness.SUP_SAFETY_FACTOR
                case = core.BoundCase(pair, g, iv, x, 1.0,
                                      core.ConvexityParams(1.0, 1.0), g_sup)
                return (quadrature.residual_endpoint_identity(case),
                        quadrature.residual_point_identity(case),
                        quadrature.envelope_excess(g, iv, x, 1001))

            # calibrating around each case, not the whole pass, follows the
            # host's speed through a pass that takes several seconds; the
            # kernel between cases leaves the memo caches as they were
            (r_end, r_pt, excess), dt, scale = calibrate.timed(one_case)
            seconds += dt
            scaled += dt * scale
            worst = max(worst, r_end, r_pt)
            if not (r_end <= RESIDUAL_GATE and r_pt <= RESIDUAL_GATE
                    and excess <= ENVELOPE_GATE):
                failed += 1
        return {"seconds": seconds, "scale": scaled / seconds,
                "units": len(self.cases),
                "attempted": len(self.cases), "failed": failed,
                "info": {"cases": len(self.cases), "worst_residual": worst}}


class IdentitiesNonsmooth(Identities):
    weights = ("pwlinear:0:0:0.5:1:1:0",)


class IdentitiesSmooth(Identities):
    weights = ("sin", "poly:0:1:-1")


WORKLOADS = {
    "suite_default": SuiteDefault,
    "sweep_fresh_x": SweepFreshX,
    "cli_case": CliCase,
    "identities_nonsmooth": IdentitiesNonsmooth,
    "identities_smooth": IdentitiesSmooth,
}
