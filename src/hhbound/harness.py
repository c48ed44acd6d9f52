"""Verification harness: evaluate inequality suites and persist reports.

A suite is a list of case specs, each expanding into a cartesian product of
theorems, exponents q, class parameters (alpha, m) and split points x. For
every combination the |f'|**q hypothesis is checked on a grid over the
working domain [0, b_star] before evaluation; rejected combinations are
counted and skipped, never reported as violations. Admitted combinations
are evaluated by an oracle left-hand side against the closed-form
right-hand side.

run_suite plans a run before evaluating it. Every check a BoundCase and
evaluate_bound make runs for every combination of every spec before the
gate, once per spec, per (q, m) or per theorem, whichever it depends on, so
an invalid combination is an error even where the gate would reject it.
Each spec adds its gate requests to one plan for the run, the alphas of
each q per (pair, m) group, so the plan holds each distinct request once.
All gate verdicts come from one convexity._gate call on that plan, keyed as
the plan, and each spec reads its own back by key. The run reads only
whether each verdict holds, so the gate decides without witnesses: a
rejected request stops at its first violating x-slab, and a request is
admitted on the grid at the smallest q of its (pair, alpha, m) that holds
there and, by the power-mean step (convexity._gate), above it. The specs of a run share one
DifferentiablePair per (f, b_star), so the gate groups equal pairs by
identity. A block's lhs values come from one batched oracle call, which
integrates the weight over [a, x] and [x, b] at every x together and reads
f(a) and f(b) once; a block that repeats an (f, g, [a, b]) of an earlier one
finds its integrals in the oracle's memo.
A spec's right-hand sides come from one bounds._BlockRhs, which reads each
derivative magnitude once per point and the moments of the general forms
once per rule, x and alpha, after the gate. The block's lhs, error estimate
and terms magnitude arrive as float64 columns, and one call of the verdict
function, _verdicts, turns them and the block's right-hand sides, a row per
admitted (q, alpha, m), into slack, tightness and holds for every row of
the block. _evaluate_block builds every block, verify_case's one-row block
too, so a suite row is verify_case's row for its BoundCase, but with the
spec strings where verify_case has the labels of f and g. run_suite counts
violations and takes the largest finite tightness from those arrays.

A run keeps its rows as those columns to the end. Each (spec, theorem)
block holds its text fields, a and b, the split points, the lhs column, the
admitted (q, params) list, and rhs, slack, tightness and holds as 2-D
arrays, a row per admitted combination. SuiteResult.reports is a read-only
view over the blocks that builds a new CaseReport on each access, so a run
never holds a row object of its own.

CaseSpec normalizes a case where it enters, so every row holds Python
floats, str text fields and a bool verdict. Reports are a CSV plus a
sibling JSON file echoing the configuration and the seed; the JSON is
byte-equal to json.dump(payload, indent=1). Each real is its shortest
round-trip text, format_real, and a row's CSV line and JSON object share
it; only the JSON spells a non-finite one Infinity, -Infinity or NaN. Both
files are written in one walk over the blocks, rendered from their columns
one list of rows, an admitted (q, alpha, m), at a time. Each text a block's
rows share is rendered once, so a row renders only its rhs, slack and
tightness.
Two runs of the same config produce byte-identical files; nothing
time-dependent is serialized.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import numbers
import operator
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .bounds import (
    _BlockRhs,
    _check_theorem,
    classical_symmetric_rhs,
    evaluate_bound,
    midpoint_rhs,
    midpoint_rhs_convex,
    midpoint_rhs_midsplit,
    trapezoid_rhs,
    trapezoid_rhs_convex,
    trapezoid_rhs_midsplit,
)
from .convexity import GridSpec, _Plan, _gate
from .core import (
    _check_g_sup,
    BoundCase,
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
    validate_split_point,
)
from .quadrature import _lhs_block

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

_HOLDS_REL = 1e-9
# the absolute slack is this many ulps of the magnitude of the lhs terms
_HOLDS_ULPS = 4


def format_real(v: float) -> str:
    """Render a real as float.__repr__ does: the shortest text that reads
    back as the same float, with inf, -inf and nan for the non-finite ones.
    Every real of the reports and of the CLI's value lines is this text."""
    return repr(float(v))


# ---------------------------------------------------------------------------
# configuration


def _scalar(kind: type, convert, what: str):
    def normalize(name: str, v):
        if isinstance(v, bool) or not isinstance(v, kind):
            raise InvalidCaseError(f"{name} must be {what}, got {v!r}")
        return convert(v)
    return normalize


_family = _scalar(str, str, "a family spec string")
_real = _scalar(numbers.Real, float, "a number")
_count = _scalar(numbers.Integral, operator.index, "an integer")


def _list_of(normalize):
    def normalize_list(name: str, values) -> tuple:
        if isinstance(values, str) or not isinstance(values, Iterable):
            raise InvalidCaseError(f"{name} must be a list, got {values!r}")
        items = tuple(normalize(name, v) for v in values)
        if not items:
            raise InvalidCaseError(f"{name} must not be empty")
        return items
    return normalize_list


def _optional(normalize):
    return lambda name, v: None if v is None else normalize(name, v)


# how CaseSpec normalizes each field, called with the field name and value
_CASE_FIELDS = {
    "f": _family, "g": _family, "a": _real, "b": _real,
    "q_values": _list_of(_real), "alpha_values": _list_of(_real),
    "m_values": _list_of(_real),
    "theorems": _list_of(lambda name, tid: TheoremId(tid)),
    "x_sweep": _optional(_count), "x_values": _optional(_list_of(_real)),
    "x_random": _optional(_count),
    "b_star": _optional(_real), "g_sup": _optional(_real),
}


@dataclass(frozen=True)
class CaseSpec:
    """One block of a suite: a function pair, a weight, and parameter grids.

    Exactly one of x_sweep (n equally spaced points), x_values (explicit) or
    x_random (n seeded uniform draws) selects the split points.

    Construction normalizes every field: numbers become Python floats,
    x_sweep and x_random Python ints, theorems TheoremIds. A wrong type or an
    empty list raises InvalidCaseError, an unknown theorem id ValueError.
    """

    f: str
    g: str
    a: float
    b: float
    q_values: tuple[float, ...]
    alpha_values: tuple[float, ...]
    m_values: tuple[float, ...]
    theorems: tuple[TheoremId, ...]
    x_sweep: int | None = None
    x_values: tuple[float, ...] | None = None
    x_random: int | None = None
    b_star: float | None = None
    g_sup: float | None = None

    def __post_init__(self) -> None:
        for name, normalize in _CASE_FIELDS.items():
            object.__setattr__(self, name, normalize(name, getattr(self, name)))
        chosen = sum(v is not None for v in (self.x_sweep, self.x_values, self.x_random))
        if chosen != 1:
            raise InvalidCaseError("exactly one of x_sweep, x_values, x_random is required")
        if self.x_sweep is not None and self.x_sweep < 2:
            raise InvalidCaseError("x sweep needs at least 2 points")
        if self.x_random is not None and self.x_random < 1:
            raise InvalidCaseError("x random needs at least 1 point")
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
            "theorems": [t.value for t in self.theorems],
            "b_star": self.b_star,
            "g_sup": self.g_sup,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CaseSpec":
        x = d.get("x", {})
        return cls(
            f=d["f"], g=d["g"], a=d["a"], b=d["b"], q_values=d["q"],
            alpha_values=d["alpha"], m_values=d["m"], theorems=d["theorems"],
            x_sweep=x.get("sweep"), x_values=x.get("values"),
            x_random=x.get("random"), b_star=d.get("b_star"),
            g_sup=d.get("g_sup"))


_DEFAULT_SEED = 20260815


@dataclass(frozen=True)
class SuiteConfig:
    """Suite-level settings; mirrors the JSON config format field for field.

    Construction makes cases a tuple and seed a Python int; a seed that is
    not a non-negative integer, or an output_dir that is not a string,
    raises InvalidCaseError. from_dict ignores keys it does not know, such
    as the "jobs" of older config files, and raises InvalidCaseError on a
    config of the wrong shape: a missing key, a grid count that is not an
    integer, or a container where a mapping or list belongs.
    """

    cases: tuple[CaseSpec, ...]
    seed: int = _DEFAULT_SEED
    output_dir: str = "reports"
    grid: GridSpec = field(default_factory=GridSpec)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cases", tuple(self.cases))
        object.__setattr__(self, "seed", _count("seed", self.seed))
        if not self.cases:
            raise InvalidCaseError("suite config needs at least one case")
        if self.seed < 0:
            raise InvalidCaseError(f"seed must be non-negative, got {self.seed}")
        if not isinstance(self.output_dir, str):
            raise InvalidCaseError(
                f"output_dir must be a path string, got {self.output_dir!r}")

    def to_dict(self) -> dict:
        return {
            "cases": [c.to_dict() for c in self.cases],
            "seed": self.seed,
            "output_dir": self.output_dir,
            "grid": {"nx": self.grid.nx, "ny": self.grid.ny, "nt": self.grid.nt},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SuiteConfig":
        try:
            grid = d.get("grid", {})
            return cls(
                cases=tuple(CaseSpec.from_dict(c) for c in d["cases"]),
                seed=d.get("seed", cls.seed),
                output_dir=d.get("output_dir", cls.output_dir),
                grid=GridSpec(*(_count(f"grid.{n}", grid.get(n, getattr(GridSpec, n)))
                                for n in ("nx", "ny", "nt"))),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise InvalidCaseError(
                f"malformed suite config: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def from_json(cls, path: str | Path) -> "SuiteConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# reports


@dataclass(slots=True)
class CaseReport:
    """One CSV row: the case coordinates plus the bound-check outcome.

    A slotted record: fields can be reassigned, and instances compare by
    value but are not hashable, so they cannot go in a set or key a dict.
    """

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


CSV_HEADER = ",".join(CaseReport.__dataclass_fields__)


class _Block:
    """The rows of one spec and theorem as columns, in report order: a list
    of rows per admitted (q, params) of combos, each with one row per split
    point of xs. lhs is a float64 column over xs; rhs, slack and tightness
    are float64 and holds bool arrays of shape (len(combos), len(xs))."""

    __slots__ = ("theorem_id", "family_f", "family_g", "a", "b", "xs", "lhs",
                 "combos", "rhs", "slack", "tightness", "holds")

    def __init__(self, theorem_id: str, family_f: str, family_g: str, a: float,
                 b: float, xs: Sequence[float], lhs: np.ndarray,
                 combos: Sequence[tuple[float, ConvexityParams]], rhs: np.ndarray,
                 slack: np.ndarray, tightness: np.ndarray, holds: np.ndarray) -> None:
        self.theorem_id, self.family_f, self.family_g = theorem_id, family_f, family_g
        self.a, self.b, self.xs, self.lhs, self.combos = a, b, xs, lhs, combos
        self.rhs, self.slack, self.tightness, self.holds = rhs, slack, tightness, holds

    def __len__(self) -> int:
        return len(self.combos) * len(self.xs)

    def row(self, k: int) -> CaseReport:
        """A new CaseReport of the block's row k, 0 <= k < len(self)."""
        i, j = divmod(k, len(self.xs))
        q, params = self.combos[i]
        return CaseReport(self.theorem_id, self.family_f, self.family_g, self.a,
                          self.b, self.xs[j], q, params.alpha, params.m,
                          self.lhs.item(j), self.rhs.item(i, j),
                          self.slack.item(i, j), self.tightness.item(i, j),
                          self.holds.item(i, j))


class _ReportRows(Sequence):
    """The rows of a run's blocks in report order, read-only: len, int and
    slice indexing, and iteration. Each access builds a new CaseReport, and
    a slice is a tuple of new ones."""

    __slots__ = ("_blocks", "_starts")

    def __init__(self, blocks: Sequence[_Block]) -> None:
        self._blocks = tuple(blocks)
        # _starts[i] is the index of block i's first row; the last, the length
        self._starts = list(itertools.accumulate(map(len, self._blocks), initial=0))

    def __len__(self) -> int:
        return self._starts[-1]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[k] for k in range(*index.indices(len(self))))
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("report row index out of range")
        at = bisect.bisect_right(self._starts, k) - 1
        return self._blocks[at].row(k - self._starts[at])

    def __iter__(self) -> Iterator[CaseReport]:
        for block in self._blocks:
            yield from map(block.row, range(len(block)))


@dataclass(frozen=True)
class SuiteResult:
    """Aggregated outcome of a suite run.

    reports is a read-only sequence of the rows in report order. It is a
    view over the run's columns: each access builds a new CaseReport, so
    reassigning a field of one changes that copy alone.

    wall_time lives only on this in-memory object; it is deliberately not
    serialized so that report files are byte-identical across runs.
    """

    reports: Sequence[CaseReport]
    violations: int
    hypothesis_rejections: int
    max_tightness: float
    wall_time: float
    csv_path: Path | None = None
    json_path: Path | None = None


# ---------------------------------------------------------------------------
# single-case verification


def verify_case(case: BoundCase, theorem_id: TheoremId | str) -> CaseReport:
    """Evaluate one inequality instance and return the row a suite reports
    for it: the case's a, b, x, q, alpha and m, the labels of f and g, the
    oracle left-hand side (endpoint rule for T13/T21/C11/C21, point rule for
    T14/T22/C12/C22), the closed-form right-hand side and _verdicts' slack,
    tightness and holds. ``holds`` allows the oracle's own error estimate
    plus max(4 ulps of the magnitude of the lhs terms, 1e-9 * |rhs|): the
    terms are |f(a)| |I_g[a,x]| + |f(b)| |I_g[x,b]| + |I_fg| for the endpoint
    rule and |f(x)| |I_g| + |I_fg| for the point rule.

    The |f'|**q hypothesis is a precondition here; the suite runner gates
    each combination on check_hypotheses' verdict before evaluating it.
    """
    f, tid, params = case.pair.f, TheoremId(theorem_id), case.params
    combo = (float(case.q), ConvexityParams(float(params.alpha), float(params.m)))
    block = _evaluate_block(tid, f.label, case.g.label, f, case.g, case.interval,
                            (float(case.x),), (combo,),
                            np.array([[evaluate_bound(case, tid)]]))
    return block.row(0)


def _evaluate_block(tid: TheoremId, family_f: str, family_g: str, f: RealFunction,
                    g: RealFunction, iv: Interval, xs: Sequence[float],
                    combos: Sequence[tuple[float, ConvexityParams]],
                    rhs: np.ndarray) -> _Block:
    """The block of theorem tid's rows at the split points xs, a list of
    rows per (q, params) of combos, whose right-hand sides are the rows of
    rhs, one per combination."""
    lhs, lhs_err, terms = _lhs_block(tid.uses_endpoint_rule, f, g, iv, xs)
    return _Block(tid.value, family_f, family_g, iv.a, iv.b, xs, lhs, combos, rhs,
                  *_verdicts(lhs, lhs_err, terms, rhs))


# np.spacing is math.ulp below the top binade, whose spacing math.ulp gives
# up to the largest float
_TOP_BINADE = 2.0 ** 1023


def _verdicts(lhs: np.ndarray, lhs_err: np.ndarray, terms: np.ndarray,
              rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """slack, tightness and holds of each lhs against its rhs, where lhs_err
    is the oracle's error estimate and terms the magnitude of the lhs terms.
    The one statement of the holds rule. lhs, lhs_err and terms are columns
    over the split points; rhs is a column like them, or a 2-D array with a
    row of them per list of rows, and the results take its shape.

    slack is rhs - lhs; tightness is lhs / rhs, or where rhs is 0, 0.0 for
    lhs 0 and inf otherwise; holds is lhs <= rhs + max(4 ulps of terms,
    1e-9 |rhs|) + lhs_err. Each element is what the same expression gives
    on Python floats: no warning, math.ulp's ulp (inf at inf), and max's
    first argument unless the second is larger.
    """
    with np.errstate(all="ignore"):
        slack = rhs - lhs
        tightness = np.where(rhs != 0.0, lhs / rhs,
                             np.where(lhs == 0.0, 0.0, math.inf))
        ulp = np.where(terms == math.inf, math.inf,
                       np.spacing(np.minimum(terms, _TOP_BINADE)))
        floor = _HOLDS_ULPS * ulp
        rel = _HOLDS_REL * np.abs(rhs)
        holds = lhs <= rhs + np.where(rel > floor, rel, floor) + lhs_err
    return slack, tightness, holds


# ---------------------------------------------------------------------------
# reduction identities


def reduction_check(iv: Interval, n_cases: int) -> float:
    """Max deviation between the general-class bounds at (1, 1) and their
    plain-convex counterparts over random admissible cases drawn from the
    default suite seed.

    Each draw compares four pairs: the two general-x forms against their
    cubic-coefficient versions, and the two midpoint-split forms against the
    shared classical bound. Exact algebra says every deviation is zero.
    """
    rng = np.random.default_rng(_DEFAULT_SEED)
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


def _resolve_xs(spec: CaseSpec, rng: np.random.Generator | None) -> tuple[float, ...]:
    if spec.x_sweep is not None:
        return tuple(np.linspace(spec.a, spec.b, spec.x_sweep).tolist())
    if spec.x_values is not None:
        return spec.x_values
    return tuple(sorted(rng.uniform(spec.a, spec.b, spec.x_random).tolist()))


class _SpecRun:
    """One CaseSpec of a suite run, with its checks and hoisted values.

    Construction runs every check a BoundCase and evaluate_bound make, for
    every combination of the spec, before the gate sees any of them: the
    g_sup check once, the q, [a, b] and b/m checks once per (q, m), and the
    theorem checks once per theorem. So an invalid combination is an error
    whether or not the gate would admit it. Then the spec adds its gate
    requests to plan, the run's: per gate m, each q with the alphas of that
    m, where a class theorem gates its own (alpha, m) and a plain one
    (1, 1). A (pair, m) group and its q values keep the order in which
    they first appear in report order. sup|g| is computed once per
    spec: g_sup is the explicit one or that sup times SUP_SAFETY_FACTOR, and
    the g_sup check reads the same sup. The pair is the one in pairs equal
    to this spec's, added there when there is none, so the specs of a run
    share one pair object per (f, b_star). CaseSpec checks x_values; swept
    and seeded split points lie in [a, b] by construction. The right-hand
    sides of every combination come from one bounds._BlockRhs over xs,
    which owns the reuse of the |f'| values and the general forms' moments.
    evaluate reads the spec's verdicts from the gate's answer to the plan,
    by (pair, m) once per gate m and then by (q, alpha), in report order,
    and emits a block per theorem with _evaluate_block. A spec that
    repeats the (f, g, [a, b]) of another gets its integrals back from the
    oracle's memo.
    """

    def __init__(self, spec: CaseSpec, xs: tuple[float, ...],
                 pairs: dict[DifferentiablePair, DifferentiablePair],
                 plan: _Plan) -> None:
        self.spec = spec
        self.xs = xs
        self.f = parse_function(spec.f)
        self.g = parse_function(spec.g)
        self.iv = Interval(spec.a, spec.b)
        pair = DifferentiablePair.from_family(
            self.f, DomainSpec(spec.effective_b_star()))
        self.pair = pairs.setdefault(pair, pair)
        self.pair.validate_finite_difference(self.iv)
        exact_sup = sup_norm(self.g, self.iv)
        self.g_sup = (exact_sup * SUP_SAFETY_FACTOR if spec.g_sup is None
                      else spec.g_sup)
        _check_g_sup(self.g_sup, exact_sup)
        self.params = tuple(ConvexityParams(alpha, m) for alpha in spec.alpha_values
                            for m in spec.m_values)
        # validate_case_params reads m and not alpha
        by_m = {p.m: p for p in self.params}.values()
        for q in spec.q_values:
            for params in by_m:
                validate_case_params(self.iv, q, params, self.pair.domain.b_star)
        for tid in spec.theorems:
            _check_theorem(tid, self.g, self.iv, xs, self.params)
        # the alphas the spec gates at each m, in report order
        self.gated: dict[float, set[float]] = {}
        for tid in spec.theorems:
            for params in self.params if tid.uses_class_params else (_GATE_PLAIN,):
                self.gated.setdefault(params.m, set()).add(params.alpha)
        for m, alphas in self.gated.items():
            group = plan.setdefault((self.pair, m), {})
            for q in spec.q_values:
                group.setdefault(q, set()).update(alphas)
        self._rhs = _BlockRhs(self.pair.f_prime, self.iv, xs, self.g_sup)

    def evaluate(self, verdicts: dict[tuple[DifferentiablePair, float], dict],
                 out: list[_Block]) -> int:
        """Append a block per theorem with an admitted combination to out;
        return the number of gate rejections. verdicts is _gate's answer
        to the run's plan. A theorem listed twice adds its rows, and its
        rejections, twice."""
        found = {m: verdicts[self.pair, m] for m in self.gated}
        admitted: dict[TheoremId, list[tuple[float, ConvexityParams]]] = {}
        rejections = 0
        for tid in self.spec.theorems:
            for q in self.spec.q_values:
                for params in self.params:
                    gate = params if tid.uses_class_params else _GATE_PLAIN
                    if found[gate.m][q, gate.alpha].holds:
                        admitted.setdefault(tid, []).append((q, params))
                    else:
                        rejections += 1
        for tid, combos in admitted.items():
            rhs = np.array([self._rhs.at(tid, q, params) for q, params in combos])
            out.append(_evaluate_block(tid, self.spec.f, self.spec.g, self.f, self.g,
                                       self.iv, self.xs, combos, rhs))
        return rejections


def run_suite(config: SuiteConfig) -> SuiteResult:
    """Run every case of the config and persist CSV and JSON reports.

    Report order is the config order. Random split points are drawn up
    front from the config seed. The specs add their gate requests to one
    plan as they are set up, and the gate verdicts of the whole run come
    from one convexity._gate call on it without witnesses: it asks each
    distinct (f, b_star, m, q, alpha) once, admits it on the grid at the
    smallest q of its f, b_star, m and alpha that holds there and by
    implication above it, and compares a rejected one in no x-slab after
    its first violation. Specs that share an f and b_star share one
    DifferentiablePair. Specs that share an (f, g, [a, b]) share the oracle
    integrals behind their lhs values through the oracle's bounded memo.
    """
    start = time.perf_counter()
    # numpy.random, with the secrets and hmac modules it imports, loads only
    # for a run that draws
    rng = (np.random.default_rng(config.seed)
           if any(spec.x_random is not None for spec in config.cases) else None)
    resolved = [_resolve_xs(spec, rng) for spec in config.cases]
    pairs: dict[DifferentiablePair, DifferentiablePair] = {}
    plan: _Plan = {}
    runs = [_SpecRun(spec, xs, pairs, plan) for spec, xs in zip(config.cases, resolved)]

    # the run reads only whether each verdict holds, so it asks for no witness
    verdicts = _gate(plan, config.grid, witnesses=False)

    blocks: list[_Block] = []
    rejections = 0
    for run in runs:
        rejections += run.evaluate(verdicts, blocks)

    violations = sum(int(np.count_nonzero(~b.holds)) for b in blocks)
    tightness = np.concatenate([b.tightness.ravel() for b in blocks] or [np.empty(0)])
    finite = tightness[np.isfinite(tightness)]
    # argmax takes the first of equal maxima, as max() does
    max_tightness = float(finite[finite.argmax()]) if finite.size else 0.0

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"
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
    with (open(csv_path, "w", encoding="utf-8", newline="") as csv_fh,
          open(json_path, "w", encoding="utf-8", newline="") as json_fh):
        _write_reports(csv_fh, json_fh, head, blocks)

    return SuiteResult(_ReportRows(blocks), violations, rejections, max_tightness,
                       time.perf_counter() - start, csv_path, json_path)


# ---------------------------------------------------------------------------
# report writers
#
# _write_reports renders each block from its columns, one admitted
# (q, alpha, m) at a time: each real once, with format_real, and a row's CSV
# line and JSON object from the same texts; only JSON spells a non-finite one
# Infinity, -Infinity or NaN, decided row by row. The texts a block's rows
# share are rendered once: a, b and the x and lhs texts per block, and q,
# alpha and m per list of rows. Texts are never keyed by float value: 0.0 and
# -0.0 are equal but render as 0.0 and -0.0.
#
# json.dump(payload, fh, indent=1) runs the pure-Python encoder (the C one
# only serves indent=None), and building the payload holds every row as a
# dict at once. The writer emits the same bytes one list of rows at a time.

_JSON_NONFINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


def _json_text(text: str) -> str:
    """The JSON spelling of a format_real text."""
    return _JSON_NONFINITE.get(text, text)


# one report row as json.dump(..., indent=1) lays it out in the list, cut
# into the lead before x, the middle between x and lhs, and the rest
_JSON_SLOTS = ("{\n" + ",\n".join(["   " + encode_basestring_ascii(name) + ": %s"
                                   for name in CaseReport.__dataclass_fields__])
               + "\n  }").split("%s")
_JSON_LEAD = "%s".join(_JSON_SLOTS[:6])
_JSON_MIDDLE = "%s".join(_JSON_SLOTS[6:10])
_JSON_ROW = "%s%s%s%s" + "%s".join(_JSON_SLOTS[10:])


def _write_reports(csv_fh, json_fh, head: dict, blocks: Sequence[_Block]) -> None:
    """Write CSV_HEADER and one line per row to csv_fh, and head plus a
    final "reports" list of the rows to json_fh, as json.dump with indent=1
    and a trailing newline would. The rows are those of run_suite's column
    blocks: str text fields, Python float a, b, x, q, alpha and m."""
    csv_fh.write(CSV_HEADER + "\n")
    text = json.dumps({**head, "reports": []}, indent=1)
    if not blocks:
        json_fh.write(text + "\n")
        return
    json_fh.write(text[:-len("[]\n}")] + "[\n  ")
    real = format_real
    sep = ""
    for block in blocks:
        names = (block.theorem_id, block.family_f, block.family_g)
        ends = (real(block.a), real(block.b))
        csv_lead = ",".join((*names, *ends))
        json_lead = _JSON_LEAD % (*map(encode_basestring_ascii, names),
                                  *map(_json_text, ends))
        xs = [real(x) for x in block.xs]
        lhs = [real(v) for v in block.lhs.tolist()]
        shared = list(zip(xs, map(_json_text, xs), lhs, map(_json_text, lhs)))
        for (q, params), *row in zip(block.combos, block.rhs, block.slack,
                                     block.tightness, block.holds):
            middle = (real(q), real(params.alpha), real(params.m))
            csv_middle = ",".join(middle)
            json_middle = _JSON_MIDDLE % tuple(map(_json_text, middle))
            lines, objects = [], []
            for (x, json_x, v, json_v), r, d, t, h in zip(
                    shared, *(c.tolist() for c in row)):
                rhs, slack, tightness = real(r), real(d), real(t)
                holds = "true" if h else "false"
                lines.append(f"{csv_lead},{x},{csv_middle},{v},{rhs},{slack},"
                             f"{tightness},{holds}\n")
                # only a row whose numbers do not sum to a finite value can
                # hold a non-finite one
                if not math.isfinite(r + d + t):
                    rhs, slack, tightness = map(_json_text, (rhs, slack, tightness))
                objects.append(_JSON_ROW % (json_lead, json_x, json_middle, json_v,
                                            rhs, slack, tightness, holds))
            csv_fh.write("".join(lines))
            json_fh.write(sep + ",\n  ".join(objects))
            sep = ",\n  "
    json_fh.write("\n ]\n}\n")


# ---------------------------------------------------------------------------
# bundled suite


def default_suite(output_dir: str = SuiteConfig.output_dir) -> SuiteConfig:
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
