"""Verification harness: evaluate inequality suites and persist reports.

A suite is a list of case specs, each expanding into a cartesian product of
theorems, exponents q, class parameters (alpha, m) and split points x. For
every combination the |f'|**q hypothesis is checked first on a grid over the
working domain [0, b_star]; rejected combinations are counted and skipped,
never reported as violations. Admitted combinations are evaluated by an
oracle left-hand side against the closed-form right-hand side.

run_suite plans a run before evaluating it. All gate verdicts come from one
batched check_hypotheses call. Every check a BoundCase and evaluate_bound
make runs once per spec, per (q, alpha, m) or per x, whichever it depends
on; each lhs is computed once per (rule, x) and each derivative magnitude
once per spec and m. Every row equals what verify_case gives for the
corresponding BoundCase.

Reports are written as a CSV with 17-significant-digit reals plus a sibling
JSON file echoing the configuration and the seed. The JSON is streamed row
by row, byte-equal to json.dump(payload, indent=1); a row of finite floats
is laid out in one formatting pass. Two runs of the same config produce
byte-identical files; nothing time-dependent is serialized.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .bounds import (
    _check_class_params,
    _check_midpoint,
    _check_symmetric_weight,
    _closed_form_rhs,
    _derivative_magnitude,
    classical_symmetric_rhs,
    evaluate_bound,
    midpoint_rhs,
    midpoint_rhs_convex,
    midpoint_rhs_midsplit,
    trapezoid_rhs,
    trapezoid_rhs_convex,
    trapezoid_rhs_midsplit,
)
from .convexity import GridSpec, Verdict, check_hypotheses
from .core import (
    BoundCase,
    BoundReport,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    Interval,
    InvalidCaseError,
    RealFunction,
    TheoremId,
    parse_function,
    sup_norm,
    validate_case_params,
    validate_g_sup,
    validate_split_point,
)
from .quadrature import lhs_endpoint_at, lhs_point_at

__all__ = [
    "SUP_SAFETY_FACTOR",
    "CSV_HEADER",
    "CaseSpec",
    "SuiteConfig",
    "CaseReport",
    "SuiteResult",
    "verify_case",
    "reduction_check",
    "run_suite",
    "default_suite",
    "format_real",
]

# a computed g_sup is inflated by this factor before it enters a right-hand
# side; explicit g_sup values bypass it. sup_norm is exact, so the factor no
# longer guards against sampling error. It stays because dropping it shrinks
# every rhs by 1/(1 + 1e-6), which changes the bundled report bytes and the
# rhs sums the benchmark checks; the two must be re-recorded together.
SUP_SAFETY_FACTOR = 1.0 + 1e-6

_HOLDS_ABS = 1e-9
_HOLDS_REL = 1e-9

CSV_HEADER = "theorem_id,family_f,family_g,a,b,x,q,alpha,m,lhs,rhs,slack,tightness,holds"


_REAL_FORMAT = "%.17g"


def format_real(v: float) -> str:
    """Render a float with 17 significant digits (round-trip safe)."""
    return _REAL_FORMAT % v


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class CaseSpec:
    """One block of a suite: a function pair, a weight, and parameter grids.

    Exactly one of x_sweep (n equally spaced points), x_values (explicit) or
    x_random (n seeded uniform draws) selects the split points.
    """

    f: str
    g: str
    a: float
    b: float
    q_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    m_values: tuple[float, ...]
    theorems: tuple[str, ...]
    x_sweep: int | None = None
    x_values: tuple[float, ...] | None = None
    x_random: int | None = None
    b_star: float | None = None
    g_sup: float | None = None

    def __post_init__(self) -> None:
        chosen = sum(v is not None for v in (self.x_sweep, self.x_values, self.x_random))
        if chosen != 1:
            raise InvalidCaseError("exactly one of x_sweep, x_values, x_random is required")
        if self.x_sweep is not None and self.x_sweep < 2:
            raise InvalidCaseError("x sweep needs at least 2 points")
        for tid in self.theorems:
            TheoremId(tid)  # raises ValueError on unknown ids
        for x in self.x_values or ():
            validate_split_point(Interval(self.a, self.b), x)
        if self.g_sup is not None and not math.isfinite(self.g_sup):
            raise InvalidCaseError(f"g_sup must be finite, got {self.g_sup}")
        if 0.0 in self.m_values:
            raise InvalidCaseError("m = 0 leaves no evaluable scaled endpoint b/m")

    def effective_b_star(self) -> float:
        if self.b_star is not None:
            return self.b_star
        return max(self.b, self.b / min(self.m_values))

    def to_dict(self) -> dict:
        x: dict = {}
        if self.x_sweep is not None:
            x = {"sweep": self.x_sweep}
        elif self.x_values is not None:
            x = {"values": list(self.x_values)}
        else:
            x = {"random": self.x_random}
        return {
            "f": self.f,
            "g": self.g,
            "a": self.a,
            "b": self.b,
            "x": x,
            "q": list(self.q_values),
            "alpha": list(self.alpha_values),
            "m": list(self.m_values),
            "theorems": list(self.theorems),
            "b_star": self.b_star,
            "g_sup": self.g_sup,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CaseSpec":
        x = d.get("x", {})
        return cls(
            f=d["f"],
            g=d["g"],
            a=float(d["a"]),
            b=float(d["b"]),
            q_values=tuple(float(v) for v in d["q"]),
            alpha_values=tuple(float(v) for v in d["alpha"]),
            m_values=tuple(float(v) for v in d["m"]),
            theorems=tuple(d["theorems"]),
            x_sweep=x.get("sweep"),
            x_values=tuple(float(v) for v in x["values"]) if "values" in x else None,
            x_random=x.get("random"),
            b_star=None if d.get("b_star") is None else float(d["b_star"]),
            g_sup=None if d.get("g_sup") is None else float(d["g_sup"]),
        )


@dataclass(frozen=True)
class SuiteConfig:
    """Suite-level settings; mirrors the JSON config format field for field.

    from_dict ignores keys it does not know, such as the "jobs" of older
    config files.
    """

    cases: tuple[CaseSpec, ...]
    seed: int = 20260815
    output_dir: str = "reports"
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self) -> None:
        if not self.cases:
            raise InvalidCaseError("suite config needs at least one case")

    def to_dict(self) -> dict:
        return {
            "cases": [c.to_dict() for c in self.cases],
            "seed": self.seed,
            "output_dir": self.output_dir,
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny, "nt": self.grid.nt},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteConfig":
        grid = d.get("grid", {})
        return cls(
            cases=tuple(CaseSpec.from_dict(c) for c in d["cases"]),
            seed=int(d.get("seed", 20260815)),
            output_dir=str(d.get("output_dir", "reports")),
            grid=GridSpec(int(grid.get("nx", 51)), int(grid.get("ny", 51)),
                          int(grid.get("nt", 51))),
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports


_CSV_ROW_FORMAT = "%s,%s,%s," + ",".join([_REAL_FORMAT] * 10) + ",%s"


@dataclass(frozen=True)
class CaseReport:
    """One CSV row: the case coordinates plus the bound-check outcome."""

    theorem_id: str
    family_f: str
    family_g: str
    a: float
    b: float
    x: float
    q: float
    alpha: float
    m: float
    lhs: float
    rhs: float
    slack: float
    tightness: float
    holds: bool

    def to_csv_row(self) -> str:
        # one formatting pass; every real is rendered as format_real does
        return _CSV_ROW_FORMAT % (
            self.theorem_id, self.family_f, self.family_g, self.a, self.b,
            self.x, self.q, self.alpha, self.m, self.lhs, self.rhs, self.slack,
            self.tightness, "true" if self.holds else "false")

    def to_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "family_f": self.family_f,
            "family_g": self.family_g,
            "a": self.a,
            "b": self.b,
            "x": self.x,
            "q": self.q,
            "alpha": self.alpha,
            "m": self.m,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "tightness": self.tightness,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class SuiteResult:
    """Aggregated outcome of a suite run.

    wall_time lives only on this in-memory object; it is deliberately not
    serialized so that report files are byte-identical across runs.
    """

    reports: tuple[CaseReport, ...]
    violations: int
    hypothesis_rejections: int
    max_tightness: float
    wall_time: float
    csv_path: Path | None = None
    json_path: Path | None = None


# ---------------------------------------------------------------------------
# single-case verification


def verify_case(case: BoundCase, theorem_id: TheoremId | str) -> BoundReport:
    """Evaluate one inequality instance and compare the two sides.

    The left-hand side comes from oracle quadrature (endpoint rule for
    T13/T21/C11/C21, point rule for T14/T22/C12/C22), the right-hand side
    from the closed forms. ``holds`` allows the oracle's own error estimate
    plus max(1e-9, 1e-9 * |rhs|).

    The |f'|**q hypothesis is a precondition here; the suite runner gates on
    check_hypotheses before evaluating a combination.
    """
    tid = TheoremId(theorem_id)
    lhs, lhs_err = _lhs(tid.uses_endpoint_rule, case.pair.f, case.g,
                        case.interval, case.x)
    rhs = float(evaluate_bound(case, tid))
    return BoundReport(tid, lhs, rhs, *_compare(lhs, lhs_err, rhs))


def _lhs(endpoint_rule: bool, f: RealFunction, g: RealFunction, iv: Interval,
         x: float) -> tuple[float, float]:
    if endpoint_rule:
        lhs, lhs_err = lhs_endpoint_at(f, g, iv, x)
    else:
        lhs, lhs_err = lhs_point_at(f, g, iv, x)
    return float(lhs), lhs_err


def _compare(lhs: float, lhs_err: float, rhs: float) -> tuple[float, float, bool]:
    """slack, tightness and the holds verdict of one lhs/rhs pair."""
    slack = rhs - lhs
    if rhs != 0.0:
        tightness = lhs / rhs
    else:
        tightness = 0.0 if lhs == 0.0 else math.inf
    holds = bool(lhs <= rhs + max(_HOLDS_ABS, _HOLDS_REL * abs(rhs)) + lhs_err)
    return slack, tightness, holds


# ---------------------------------------------------------------------------
# reduction identities


def reduction_check(iv: Interval, n_cases: int, seed: int = 20260815) -> float:
    """Max deviation between the general-class bounds at (1, 1) and their
    plain-convex counterparts over seeded random admissible cases.

    Each draw compares four pairs: the two general-x forms against their
    cubic-coefficient versions, and the two midpoint-split forms against the
    shared classical bound. Exact algebra says every deviation is zero.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        x = float(rng.uniform(iv.a, iv.b))
        q = float(rng.uniform(1.0, 3.0))
        fp_a = float(rng.uniform(0.0, 3.0))
        fp_b = float(rng.uniform(0.0, 3.0))
        g_sup = float(rng.uniform(0.5, 2.0))
        pairs = (
            (trapezoid_rhs(iv, x, q, 1.0, 1.0, fp_a, fp_b, g_sup),
             trapezoid_rhs_convex(iv, x, q, fp_a, fp_b, g_sup)),
            (midpoint_rhs(iv, x, q, 1.0, 1.0, fp_a, fp_b, g_sup),
             midpoint_rhs_convex(iv, x, q, fp_a, fp_b, g_sup)),
            (trapezoid_rhs_midsplit(iv, q, 1.0, 1.0, fp_a, fp_b, g_sup),
             classical_symmetric_rhs(iv, q, fp_a, fp_b, g_sup)),
            (midpoint_rhs_midsplit(iv, q, 1.0, 1.0, fp_a, fp_b, g_sup),
             classical_symmetric_rhs(iv, q, fp_a, fp_b, g_sup)),
        )
        for general, special in pairs:
            worst = max(worst, abs(general - special))
    return worst


# ---------------------------------------------------------------------------
# suite runner

_GATE_PLAIN = ConvexityParams(1.0, 1.0)

# one hypothesis gate request: check_hypothesis's (pair, q, params, iv)
_GateRequest = tuple[DifferentiablePair, float, ConvexityParams, Interval]


def _resolve_xs(spec: CaseSpec, rng: np.random.Generator) -> tuple[float, ...]:
    if spec.x_sweep is not None:
        return tuple(np.linspace(spec.a, spec.b, spec.x_sweep).tolist())
    if spec.x_values is not None:
        return spec.x_values
    return tuple(sorted(float(v) for v in rng.uniform(spec.a, spec.b, spec.x_random)))


class _SpecRun:
    """One CaseSpec of a suite run, with its checks and hoisted values.

    A check that does not depend on x runs once per admitted (q, alpha, m),
    or once per spec when it does not depend on those either; a check on x
    runs once per x. As with one BoundCase per row, case checks run only
    for combinations the gate admits: the g_sup check at the first one, the
    midpoint-split checks at the first one per theorem. CaseSpec checks
    x_values; swept and seeded split points lie in [a, b] by construction.
    """

    def __init__(self, spec: CaseSpec, xs: tuple[float, ...],
                 lhs_memo: dict) -> None:
        self.spec = spec
        self.xs = xs
        self.f = parse_function(spec.f)
        self.g = parse_function(spec.g)
        self.iv = Interval(spec.a, spec.b)
        self.pair = DifferentiablePair.from_family(
            self.f, DomainSpec(spec.effective_b_star()))
        self.pair.validate_finite_difference(self.iv)
        if spec.g_sup is not None:
            self.g_sup = spec.g_sup
        else:
            self.g_sup = sup_norm(self.g, self.iv) * SUP_SAFETY_FACTOR
        # lhs values of this (f, g, [a, b]), shared with other specs of the run
        self._lhs = lhs_memo.setdefault((self.f, self.g, self.iv), {})
        self._fp_ends: tuple[float, float] | None = None
        self._fp_scaled: dict[float, float] = {}
        self._midsplit_checked: set[TheoremId] = set()

    def combinations(self) -> Iterator[tuple[TheoremId, float, ConvexityParams,
                                             _GateRequest]]:
        """(theorem, q, params, gate request) in report order."""
        spec = self.spec
        for tid_str in spec.theorems:
            tid = TheoremId(tid_str)
            for q in spec.q_values:
                for alpha in spec.alpha_values:
                    for m in spec.m_values:
                        params = ConvexityParams(alpha, m)
                        gate = params if tid.uses_class_params else _GATE_PLAIN
                        yield tid, q, params, (self.pair, q, gate, self.iv)

    def evaluate(self, verdicts: dict[_GateRequest, Verdict],
                 out: list[CaseReport]) -> int:
        """Append the rows of every admitted combination; return the number
        of gate rejections."""
        spec, iv, xs, g_sup = self.spec, self.iv, self.xs, self.g_sup
        rejections = 0
        for tid, q, params, gate in self.combinations():
            if not verdicts[gate].holds:
                rejections += 1
                continue
            fp_a, fp_b, fp_scaled = self._check_template(tid, q, params)
            endpoint_rule = tid.uses_endpoint_rule
            for x in xs:
                lhs, lhs_err = self._lhs_at(endpoint_rule, x)
                rhs = float(_closed_form_rhs(tid, iv, x, q, params, fp_a, fp_b,
                                             fp_scaled, g_sup))
                out.append(CaseReport(
                    tid.value, spec.f, spec.g, iv.a, iv.b, x, q, params.alpha,
                    params.m, lhs, rhs, *_compare(lhs, lhs_err, rhs)))
        return rejections

    def _check_template(self, tid: TheoremId, q: float, params: ConvexityParams
                        ) -> tuple[float, float, float | None]:
        """The BoundCase and evaluate_bound checks of one admitted
        combination; returns |f'(a)|, |f'(b)| and, for class forms, |f'(b/m)|."""
        iv, fp = self.iv, self.pair.f_prime
        validate_case_params(iv, q, params, self.pair.domain.b_star)
        if self._fp_ends is None:  # the spec's first admitted combination
            validate_g_sup(self.g, iv, self.g_sup)
            self._fp_ends = (_derivative_magnitude(fp, iv.a),
                             _derivative_magnitude(fp, iv.b))
        if tid.requires_midpoint and tid not in self._midsplit_checked:
            for x in self.xs:
                _check_midpoint(tid, iv, x)
            if tid.requires_symmetric_weight:
                _check_symmetric_weight(tid, self.g, iv)
            self._midsplit_checked.add(tid)
        fp_scaled = None
        if tid.uses_class_params:
            _check_class_params(tid, params)
            fp_scaled = self._fp_scaled.get(params.m)
            if fp_scaled is None:
                fp_scaled = _derivative_magnitude(fp, iv.b / params.m)
                self._fp_scaled[params.m] = fp_scaled
        return (*self._fp_ends, fp_scaled)

    def _lhs_at(self, endpoint_rule: bool, x: float) -> tuple[float, float]:
        hit = self._lhs.get((endpoint_rule, x))
        if hit is None:
            hit = _lhs(endpoint_rule, self.f, self.g, self.iv, x)
            self._lhs[(endpoint_rule, x)] = hit
        return hit


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every case of the config and persist CSV and JSON reports.

    Report order is the config order. Random split points are drawn up
    front from the config seed. The gate verdicts of the whole run come from
    one check_hypotheses call; lhs values are shared between the specs of
    a run and live only as long as the run.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    resolved = [_resolve_xs(spec, rng) for spec in config.cases]
    lhs_memo: dict = {}
    runs = [_SpecRun(spec, xs, lhs_memo)
            for spec, xs in zip(config.cases, resolved)]

    requests = list(dict.fromkeys(gate for run in runs
                                  for *_, gate in run.combinations()))
    verdicts = dict(zip(requests, check_hypotheses(requests, config.grid)))

    reports: list[CaseReport] = []
    rejections = 0
    for run in runs:
        rejections += run.evaluate(verdicts, reports)

    violations = sum(1 for r in reports if not r.holds)
    finite = [r.tightness for r in reports if math.isfinite(r.tightness)]
    max_tightness = max(finite) if finite else 0.0

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            fh.write(r.to_csv_row() + "\n")
    # where the report went is not part of the result; dropping it keeps
    # report bytes run-independent
    config_echo = config.to_dict()
    del config_echo["output_dir"]
    head = {
        "config": config_echo,
        "seed": config.seed,
        "violations": violations,
        "hypothesis_rejections": rejections,
        "max_tightness": max_tightness,
    }
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        _stream_json_report(fh, head, reports)

    return SuiteResult(tuple(reports), violations, rejections, max_tightness,
                       time.perf_counter() - start, csv_path, json_path)


# ---------------------------------------------------------------------------
# streamed JSON report
#
# json.dump(payload, fh, indent=1) runs the pure-Python encoder (the C one
# only serves indent=None), and building the payload holds every row as a
# dict at once. The writer below emits the same bytes one row at a time.

_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_scalar(v) -> str:
    """json.dumps(v) for a scalar, including float.__repr__ of float
    subclasses such as numpy floats and Infinity/NaN for non-finite ones."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _JSON_NONFINITE.get(text, text)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is True:
        return "true"
    if v is False:
        return "false"
    return json.dumps(v)


_ROW_KEYS = {name: "   " + encode_basestring_ascii(name) + ": "
             for name in CaseReport.__dataclass_fields__}


def _json_row(row: dict) -> str:
    """One report row as json.dump(..., indent=1) lays it out in the list."""
    return ("{\n" + ",\n".join([_ROW_KEYS[k] + _json_scalar(v)
                                for k, v in row.items()])
            + "\n  }")


# one row as _json_row lays it out when every number is a finite float:
# json.dumps renders those, numpy floats included, with float.__repr__
_JSON_ROW_FORMAT = ("{\n" + ",\n".join([key + "%s" for key in _ROW_KEYS.values()])
                    + "\n  }")


def _fast_json_row(r: CaseReport) -> str | None:
    """_json_row(r.to_dict()) in one formatting pass, or None when a field
    needs the general path: a number that is not a float, a text field that
    is not a str, a holds that is not a bool, or a non-finite number. A
    finite row whose sum overflows also takes the general path."""
    # x last: x_values may hold numpy floats, so the sum runs on Python
    # floats until the final term
    nums = (r.a, r.b, r.q, r.alpha, r.m, r.lhs, r.rhs, r.slack, r.tightness,
            r.x)
    if type(r.holds) is not bool:
        return None
    try:
        a, b, q, alpha, m, lhs, rhs, slack, tightness, x = map(float.__repr__,
                                                               nums)
        tid, family_f, family_g = map(encode_basestring_ascii, (
            r.theorem_id, r.family_f, r.family_g))
    except TypeError:
        return None
    if not math.isfinite(sum(nums)):
        return None
    return _JSON_ROW_FORMAT % (tid, family_f, family_g, a, b, x, q, alpha, m,
                               lhs, rhs, slack, tightness,
                               "true" if r.holds else "false")


def _stream_json_report(fh, head: dict, reports: list[CaseReport]) -> None:
    """Write head plus a final "reports" list, as json.dump with indent=1
    and a trailing newline would."""
    text = json.dumps({**head, "reports": []}, indent=1)
    if not reports:
        fh.write(text + "\n")
        return
    fh.write(text[:-len("[]\n}")] + "[\n  ")
    # numpy float sums that overflow would warn; the row falls back instead
    with np.errstate(over="ignore", invalid="ignore"):
        for k, r in enumerate(reports):
            if k:
                fh.write(",\n  ")
            row = _fast_json_row(r)
            fh.write(_json_row(r.to_dict()) if row is None else row)
    fh.write("\n ]\n}\n")


# ---------------------------------------------------------------------------
# bundled suite


def default_suite(output_dir: str = "reports") -> SuiteConfig:
    """The bundled verification suite.

    Sweeps the two general-class forms over f in {t^2, t^3, e^t}, weights
    {1, s, s(1-s), sin s}, q in {1, 1.5, 2, 3} and a 4x4 (alpha, m) grid with
    21 split points on [0, 1]; adds the plain-convex sweeps and the
    midpoint-split forms for the symmetric weights. b_star = 4 keeps b/m
    evaluable down to m = 0.25.
    """
    fs = ("monomial:2", "monomial:3", "exp")
    gs = ("const:1", "monomial:1", "poly:0:1:-1", "sin")
    symmetric_gs = ("const:1", "poly:0:1:-1")
    qs = (1.0, 1.5, 2.0, 3.0)
    levels = (0.25, 0.5, 0.75, 1.0)
    cases: list[CaseSpec] = []
    for f in fs:
        for g in gs:
            cases.append(CaseSpec(
                f=f, g=g, a=0.0, b=1.0, q_values=qs, alpha_values=levels,
                m_values=levels, theorems=("T21", "T22"), x_sweep=21,
                b_star=4.0))
            cases.append(CaseSpec(
                f=f, g=g, a=0.0, b=1.0, q_values=qs, alpha_values=(1.0,),
                m_values=(1.0,), theorems=("T13", "T14"), x_sweep=21,
                b_star=4.0))
    for f in fs:
        for g in symmetric_gs:
            cases.append(CaseSpec(
                f=f, g=g, a=0.0, b=1.0, q_values=qs, alpha_values=levels,
                m_values=levels, theorems=("C21", "C22"), x_values=(0.5,),
                b_star=4.0))
            cases.append(CaseSpec(
                f=f, g=g, a=0.0, b=1.0, q_values=qs, alpha_values=(1.0,),
                m_values=(1.0,), theorems=("C11", "C12"), x_values=(0.5,),
                b_star=4.0))
    return SuiteConfig(cases=tuple(cases), output_dir=output_dir)
