"""Domain types and the built-in function registry.

Everything downstream (the quadrature oracle, convexity-class checks, the
closed-form bounds, the verification harness) works in terms of the small
immutable types defined here: intervals, registry-backed real functions with
analytic derivatives, convexity-class parameters, and fully specified bound
cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

__all__ = [
    "HHBoundError",
    "InvalidIntervalError",
    "UnknownFamilyError",
    "InvalidParamsError",
    "EvalDomainError",
    "InvalidCaseError",
    "Interval",
    "DomainSpec",
    "RealFunction",
    "parse_function",
    "registry_eval",
    "derivative",
    "DifferentiablePair",
    "ConvexityParams",
    "TheoremId",
    "BoundCase",
    "BoundReport",
    "validate_split_point",
    "validate_q",
    "validate_case_params",
    "validate_g_sup",
    "sup_norm",
]


class HHBoundError(Exception):
    """Base class for all library errors."""


class InvalidIntervalError(HHBoundError):
    """Interval endpoints are not finite or not strictly ordered."""


class UnknownFamilyError(HHBoundError):
    """Requested function family is not in the registry."""


class InvalidParamsError(HHBoundError):
    """Family or convexity parameters outside their admissible range."""


class EvalDomainError(HHBoundError):
    """Evaluation point outside a function's natural domain."""


class InvalidCaseError(HHBoundError):
    """A bound case violates one of its construction invariants."""


# ---------------------------------------------------------------------------
# intervals and domains


@dataclass(frozen=True)
class Interval:
    """Closed interval [a, b] with finite endpoints and a < b, stored as
    floats."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidIntervalError(f"endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise InvalidIntervalError(f"need a < b, got [{self.a}, {self.b}]")
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)

    def grid(self, n: int) -> np.ndarray:
        """n equally spaced points from a to b inclusive."""
        return np.linspace(self.a, self.b, n)

    def contains(self, t: float) -> bool:
        return self.a <= t <= self.b


@dataclass(frozen=True)
class DomainSpec:
    """Right endpoint b_star > 0 of the working domain [0, b_star]."""

    b_star: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b_star) and self.b_star > 0):
            raise InvalidParamsError(f"b_star must be positive and finite, got {self.b_star}")


# ---------------------------------------------------------------------------
# function registry
#
# Families are closed under differentiation: every public family's derivative
# is again a registry function (possibly of an internal family), so analytic
# derivatives never leave the registry.

_PUBLIC_FAMILIES = (
    "const",
    "affine",
    "poly",
    "monomial",
    "negmonomial",
    "exp",
    "sin",
    "pwlinear",
)


def _validate_params(family_id: str, params: tuple[float, ...]) -> None:
    n = len(params)
    if family_id == "const":
        ok = n == 1
    elif family_id == "affine":
        ok = n == 2
    elif family_id == "poly":
        ok = n >= 1
    elif family_id in ("monomial", "negmonomial"):
        ok = n == 1 and params[0] >= 1.0
        if n == 1 and not ok:
            raise InvalidParamsError(f"{family_id} exponent must be >= 1, got {params[0]}")
    elif family_id == "cmonomial":
        ok = n == 2 and params[1] >= 0.0
    elif family_id == "exp":
        ok = n == 1
    elif family_id == "cexp":
        ok = n == 2
    elif family_id in ("sinw", "coswave"):
        ok = n == 2
    elif family_id == "sin":
        ok = n == 1
    elif family_id == "pwlinear":
        ok = n >= 4 and n % 2 == 0 and np.all(np.diff(params[0::2]) > 0)
    elif family_id == "pwconst":
        ok = n >= 3 and n % 2 == 1 and np.all(np.diff(params[: (n + 1) // 2]) > 0)
    else:
        raise UnknownFamilyError(f"unknown family {family_id!r}")
    if not ok:
        raise InvalidParamsError(f"bad parameters for family {family_id!r}: {params}")
    if not all(math.isfinite(p) for p in params):
        raise InvalidParamsError(f"parameters must be finite: {params}")


def _is_integer(p: float) -> bool:
    return float(p) == int(p)


def _eval_family(family_id: str, params: tuple[float, ...], t: np.ndarray) -> np.ndarray:
    if family_id == "const":
        return np.full_like(t, params[0], dtype=float)
    if family_id == "affine":
        return params[0] + params[1] * t
    if family_id == "poly":
        return np.polynomial.polynomial.polyval(t, np.asarray(params))
    if family_id == "monomial":
        return _powcheck(t, params[0])
    if family_id == "negmonomial":
        return -_powcheck(t, params[0])
    if family_id == "cmonomial":
        return params[0] * _powcheck(t, params[1])
    if family_id == "exp":
        return np.exp(params[0] * t)
    if family_id == "cexp":
        return params[0] * np.exp(params[1] * t)
    if family_id == "sin":
        return np.sin(params[0] * t)
    if family_id == "sinw":
        return params[0] * np.sin(params[1] * t)
    if family_id == "coswave":
        return params[0] * np.cos(params[1] * t)
    if family_id == "pwlinear":
        xs = np.asarray(params[0::2])
        ys = np.asarray(params[1::2])
        _knot_domain_check(t, xs)
        return np.interp(t, xs, ys)
    if family_id == "pwconst":
        k = (len(params) + 1) // 2
        xs = np.asarray(params[:k])
        vs = np.asarray(params[k:])
        _knot_domain_check(t, xs)
        idx = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, k - 2)
        return vs[idx]
    raise UnknownFamilyError(f"unknown family {family_id!r}")


def _powcheck(t: np.ndarray, p: float) -> np.ndarray:
    # t**p for non-integer p is only defined for t >= 0
    if p == 0:
        return np.ones_like(t, dtype=float)
    if not _is_integer(p) and np.any(t < 0):
        raise EvalDomainError(f"t**{p} undefined for negative t")
    return np.power(t, p)


def _knot_domain_check(t: np.ndarray, xs: np.ndarray) -> None:
    if np.any(t < xs[0]) or np.any(t > xs[-1]):
        raise EvalDomainError(f"evaluation outside knot range [{xs[0]}, {xs[-1]}]")


@dataclass(frozen=True)
class RealFunction:
    """A registry function, identified by family and a flat parameter tuple.

    Instances are hashable (so integral results can be memoized against them)
    and evaluate vectorized over numpy arrays as well as scalars.
    """

    family_id: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        _validate_params(self.family_id, self.params)

    def __call__(self, t):
        return registry_eval(self, t)

    @property
    def label(self) -> str:
        if not self.params:
            return self.family_id
        return self.family_id + ":" + ":".join(f"{p:g}" for p in self.params)

    @property
    def knots(self) -> tuple[float, ...]:
        """Breakpoints of a piecewise family, end knots included; empty for
        the smooth families, which have continuous derivatives of all orders."""
        if self.family_id == "pwlinear":
            return self.params[0::2]
        if self.family_id == "pwconst":
            return self.params[: (len(self.params) + 1) // 2]
        return ()


def registry_eval(fn: RealFunction, t):
    """Evaluate ``fn`` at scalar or array ``t``.

    Raises EvalDomainError outside the family's natural domain (negative
    arguments for non-integer powers, points beyond piecewise knot ranges)
    and UnknownFamilyError for an unregistered family.
    """
    arr = np.asarray(t, dtype=float)
    out = _eval_family(fn.family_id, fn.params, arr)
    if np.isscalar(t) or arr.ndim == 0:
        return float(out)
    return out


def parse_function(spec: str) -> RealFunction:
    """Build a registry function from a colon-separated spec string.

    Examples: ``"monomial:2"``, ``"affine:1:2"``, ``"exp"`` (rate defaults
    to 1), ``"sin"``, ``"poly:0:1:-1"``, ``"pwlinear:0:0:0.5:1:1:0"``.
    """
    parts = spec.split(":")
    name = parts[0].strip()
    if name not in _PUBLIC_FAMILIES:
        raise UnknownFamilyError(f"unknown family {name!r}; known: {', '.join(_PUBLIC_FAMILIES)}")
    try:
        params = tuple(float(p) for p in parts[1:])
    except ValueError as exc:
        raise InvalidParamsError(f"non-numeric parameter in {spec!r}") from exc
    if name == "exp" and not params:
        params = (1.0,)
    if name == "sin" and not params:
        params = (1.0,)
    return RealFunction(name, params)


def derivative(fn: RealFunction) -> RealFunction:
    """Analytic derivative of a registry function, as a registry function."""
    fam, p = fn.family_id, fn.params
    if fam == "const":
        return RealFunction("const", (0.0,))
    if fam == "affine":
        return RealFunction("const", (p[1],))
    if fam == "poly":
        if len(p) == 1:
            return RealFunction("const", (0.0,))
        dp = tuple(p[i] * i for i in range(1, len(p)))
        return RealFunction("poly", dp)
    if fam == "monomial":
        return RealFunction("cmonomial", (p[0], p[0] - 1.0))
    if fam == "negmonomial":
        return RealFunction("cmonomial", (-p[0], p[0] - 1.0))
    if fam == "cmonomial":
        c, q = p
        if q == 0:
            return RealFunction("const", (0.0,))
        if q < 1:
            raise InvalidParamsError(f"derivative of t**{q} is singular at 0")
        return RealFunction("cmonomial", (c * q, q - 1.0))
    if fam == "exp":
        return RealFunction("cexp", (p[0], p[0]))
    if fam == "cexp":
        return RealFunction("cexp", (p[0] * p[1], p[1]))
    if fam == "sin":
        return RealFunction("coswave", (p[0], p[0]))
    if fam == "sinw":
        return RealFunction("coswave", (p[0] * p[1], p[1]))
    if fam == "coswave":
        return RealFunction("sinw", (-p[0] * p[1], p[1]))
    if fam == "pwlinear":
        xs = np.asarray(p[0::2])
        ys = np.asarray(p[1::2])
        slopes = np.diff(ys) / np.diff(xs)
        return RealFunction("pwconst", tuple(xs) + tuple(slopes))
    raise InvalidParamsError(f"family {fam!r} has no registry derivative")


# ---------------------------------------------------------------------------
# differentiable pairs


@dataclass(frozen=True)
class DifferentiablePair:
    """A function together with its derivative on a working domain [0, b_star]."""

    f: RealFunction
    f_prime: RealFunction
    domain: DomainSpec

    @classmethod
    def from_family(cls, f: RealFunction, domain: DomainSpec) -> "DifferentiablePair":
        return cls(f, derivative(f), domain)

    def validate_finite_difference(self, iv: Interval) -> float:
        """Check f_prime against central differences of f on ``iv``.

        Uses step h = 1e-6 * (b - a) on a 1000-point grid kept h away from the
        interval ends (so one-sided domain restrictions never bite). Returns
        the worst absolute deviation and raises InvalidCaseError when the
        deviation is not finite (f or f_prime overflowed or is undefined) or
        exceeds 1e-4 * (1 + |f_prime|) anywhere.
        """
        h = 1e-6 * iv.width
        ts = np.linspace(iv.a + h, iv.b - h, 1000)
        with np.errstate(over="ignore", invalid="ignore"):
            fd = (registry_eval(self.f, ts + h)
                  - registry_eval(self.f, ts - h)) / (2.0 * h)
            fp = registry_eval(self.f_prime, ts)
            err = np.abs(fd - fp)
            allowed = 1e-4 * (1.0 + np.abs(fp))
        finite = np.isfinite(err)
        if not finite.all():
            k = int(np.argmin(finite))
            raise InvalidCaseError(
                f"derivative check for {self.f.label} is not finite at "
                f"t={ts[k]:.6g}: finite difference {fd[k]:.9g} vs declared "
                f"{fp[k]:.9g}"
            )
        if np.any(err > allowed):
            k = int(np.argmax(err - allowed))
            raise InvalidCaseError(
                f"derivative mismatch for {self.f.label} at t={ts[k]:.6g}: "
                f"finite difference {fd[k]:.9g} vs declared {fp[k]:.9g}"
            )
        return float(np.max(err))


# ---------------------------------------------------------------------------
# convexity-class parameters


@dataclass(frozen=True)
class ConvexityParams:
    """Pair (alpha, m) selecting a generalized convexity class.

    Both components live in [0, 1] for definition checks; bound evaluation
    additionally demands strict positivity, which the bounds module enforces.
    """

    alpha: float
    m: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0 and 0.0 <= self.m <= 1.0):
            raise InvalidParamsError(f"(alpha, m) must lie in [0,1]^2, got {(self.alpha, self.m)}")

    @property
    def bounds_admissible(self) -> bool:
        """True when both components are strictly positive."""
        return self.alpha > 0.0 and self.m > 0.0


# ---------------------------------------------------------------------------
# bound cases and reports


class TheoremId(str, Enum):
    """Identifiers of the eight inequality forms evaluated by the library.

    The T2x/C2x forms take general class parameters (alpha, m); the T1x/C1x
    forms are their plain-convex specializations. Endpoint-rule forms bound
    the two-endpoint weighted rule, point-rule forms bound the one-point
    weighted rule.
    """

    T13 = "T13"  # endpoint rule, plain convex, general split point
    T14 = "T14"  # point rule, plain convex, general evaluation point
    C11 = "C11"  # endpoint rule, plain convex, midpoint split, symmetric weight
    C12 = "C12"  # point rule, plain convex, midpoint evaluation
    T21 = "T21"  # endpoint rule, (alpha, m) class, general split point
    T22 = "T22"  # point rule, (alpha, m) class, general evaluation point
    C21 = "C21"  # endpoint rule, (alpha, m) class, midpoint split, symmetric weight
    C22 = "C22"  # point rule, (alpha, m) class, midpoint evaluation

    @property
    def uses_endpoint_rule(self) -> bool:
        return self in (TheoremId.T13, TheoremId.C11, TheoremId.T21, TheoremId.C21)

    @property
    def uses_class_params(self) -> bool:
        return self in (TheoremId.T21, TheoremId.T22, TheoremId.C21, TheoremId.C22)

    @property
    def requires_midpoint(self) -> bool:
        return self in (TheoremId.C11, TheoremId.C12, TheoremId.C21, TheoremId.C22)

    @property
    def requires_symmetric_weight(self) -> bool:
        return self in (TheoremId.C11, TheoremId.C21)


def validate_split_point(iv: Interval, x: float) -> None:
    """Raise InvalidCaseError unless a <= x <= b."""
    if not iv.a <= x <= iv.b:
        raise InvalidCaseError(f"x={x} outside [{iv.a}, {iv.b}]")


def validate_q(q: float) -> None:
    """Raise InvalidCaseError unless q >= 1 (NaN fails)."""
    if not q >= 1.0:
        raise InvalidCaseError(f"q must be >= 1, got {q}")


def validate_case_params(iv: Interval, q: float, params: ConvexityParams,
                         b_star: float) -> None:
    """Raise InvalidCaseError unless q >= 1, [a, b] lies inside [0, b_star]
    and the scaled endpoint b/m is a point of [0, b_star]."""
    validate_q(q)
    if not (0.0 <= iv.a and iv.b <= b_star):
        raise InvalidCaseError(f"[{iv.a}, {iv.b}] not contained in [0, {b_star}]")
    if params.m == 0.0:
        raise InvalidCaseError("m = 0 leaves no evaluable scaled endpoint b/m")
    if iv.b / params.m > b_star * (1.0 + 1e-12):
        raise InvalidCaseError(
            f"b/m = {iv.b / params.m:.6g} exceeds b_star = {b_star:.6g}"
        )


# |c sin(w t)| and |c cos(w t)| crest at w t = phase + k pi, k an integer
_WAVE_PHASES = {"sin": 0.5 * math.pi, "sinw": 0.5 * math.pi, "coswave": 0.0}


def sup_norm(g: RealFunction, iv: Interval) -> float:
    """Exact sup of |g| on ``iv``: the amplitude of a sine family when a
    crest lies in [a, b], else the largest |g| at the endpoints, the
    interior knots and the interior real parts of the roots of g' (``poly``).
    Every other family is monotone, or has monotone |g|."""
    a, b = iv.a, iv.b
    ts = [a, b, *(k for k in g.knots if a < k < b)]
    if g.family_id == "poly":
        roots = np.polynomial.polynomial.polyroots(derivative(g).params)
        ts += [float(r.real) for r in roots if a < r.real < b]
    elif g.family_id in _WAVE_PHASES and g.params[-1] != 0.0:
        # is the first crest at or after a inside [a, b]? |g| there is the
        # amplitude, which |g| at the nearest float can miss when w t is large
        w = abs(g.params[-1])
        phase = _WAVE_PHASES[g.family_id]
        if (phase + math.ceil((a * w - phase) / math.pi) * math.pi) / w <= b:
            return 1.0 if g.family_id == "sin" else abs(g.params[0])
    return float(np.max(np.abs(registry_eval(g, np.array(ts)))))


# a g_sup up to 4 ulps below the exact sup still passes, so the rounding of
# a root of g' or of g itself cannot refuse a caller who gives the true sup
_SUP_MARGIN = 4.0 * math.ulp(1.0)


def validate_g_sup(g: RealFunction, iv: Interval, g_sup: float) -> None:
    """Raise InvalidCaseError unless g_sup is finite and at least the exact
    sup of |g| on [a, b] (sup_norm), less a margin of a few ulps."""
    _check_g_sup(g_sup, sup_norm(g, iv))


def _check_g_sup(g_sup: float, exact: float) -> None:
    """validate_g_sup against an exact sup the caller already has."""
    if not math.isfinite(g_sup):
        raise InvalidCaseError(f"g_sup must be finite, got {g_sup}")
    if g_sup < exact * (1.0 - _SUP_MARGIN):
        raise InvalidCaseError(
            f"g_sup = {g_sup:.12g} below sup |g| = {exact:.12g}"
        )


@dataclass(frozen=True)
class BoundCase:
    """Everything needed to evaluate one inequality instance.

    Construction enforces: a <= x <= b, q >= 1, [a, b] inside [0, b_star],
    b/m <= b_star (so the scaled derivative endpoint is evaluable), and a
    finite g_sup at least the exact sup of |g| on [a, b] (validate_g_sup).
    """

    pair: DifferentiablePair
    g: RealFunction
    interval: Interval
    x: float
    q: float
    params: ConvexityParams
    g_sup: float

    def __post_init__(self) -> None:
        validate_split_point(self.interval, self.x)
        validate_case_params(self.interval, self.q, self.params,
                             self.pair.domain.b_star)
        validate_g_sup(self.g, self.interval, self.g_sup)

    @property
    def scaled_endpoint(self) -> float:
        """The point b/m where the second derivative magnitude is taken."""
        return self.interval.b / self.params.m


@dataclass(frozen=True)
class BoundReport:
    """Result of checking one inequality instance: lhs, rhs and the verdict."""

    theorem_id: TheoremId
    lhs: float
    rhs: float
    slack: float
    tightness: float
    holds: bool
