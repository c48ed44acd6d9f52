"""Domain types and the built-in function registry.

Everything downstream (the quadrature oracle, convexity-class checks, the
closed-form bounds, the verification harness) works in terms of the small
immutable types defined here: intervals, registry-backed real functions with
analytic derivatives, convexity-class parameters, and fully specified bound
cases.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
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
    "derivative",
    "DifferentiablePair",
    "ConvexityParams",
    "TheoremId",
    "BoundCase",
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
    """Closed interval [a, b] with finite endpoints, a < b and a finite
    width b - a, stored as floats."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise InvalidIntervalError(f"endpoints must be finite, got [{self.a}, {self.b}]")
        if not self.a < self.b:
            raise InvalidIntervalError(f"need a < b, got [{self.a}, {self.b}]")
        # the width enters every panel and moment; past the largest float it
        # would turn each of them into inf or nan
        if not math.isfinite(float(self.b) - float(self.a)):
            raise InvalidIntervalError(
                f"width b - a must be finite, got [{self.a}, {self.b}]")
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


_Params = tuple[float, ...]


def _powcheck(t: np.ndarray, p: float) -> np.ndarray:
    # t**p for non-integer p is only defined for t >= 0
    if p == 0:
        return np.ones_like(t, dtype=float)
    if float(p) != int(p) and np.any(t < 0):
        raise EvalDomainError(f"t**{p} undefined for negative t")
    return np.power(t, p)


def _knot_domain_check(t: np.ndarray, xs: np.ndarray) -> None:
    if np.any(t < xs[0]) or np.any(t > xs[-1]):
        raise EvalDomainError(f"evaluation outside knot range [{xs[0]}, {xs[-1]}]")


def _arity(n: int) -> Callable[[_Params], bool]:
    return lambda p: len(p) == n


def _exponent_check(family_id: str) -> Callable[[_Params], bool]:
    def check(p: _Params) -> bool:
        if len(p) == 1 and not p[0] >= 1.0:
            raise InvalidParamsError(f"{family_id} exponent must be >= 1, got {p[0]}")
        return len(p) == 1
    return check


def _pwconst_knots(p: _Params) -> _Params:
    return p[: (len(p) + 1) // 2]


def _eval_pwlinear(p: _Params, t: np.ndarray) -> np.ndarray:
    xs = np.asarray(p[0::2])
    _knot_domain_check(t, xs)
    return np.interp(t, xs, np.asarray(p[1::2]))


def _eval_pwconst(p: _Params, t: np.ndarray) -> np.ndarray:
    xs = np.asarray(_pwconst_knots(p))
    _knot_domain_check(t, xs)
    idx = np.clip(np.searchsorted(xs, t, side="right") - 1, 0, len(xs) - 2)
    return np.asarray(p[len(xs):])[idx]


def _poly_derivative(p: _Params) -> tuple[str, _Params]:
    if len(p) == 1:
        return "const", (0.0,)
    return "poly", tuple(p[i] * i for i in range(1, len(p)))


def _cmonomial_derivative(p: _Params) -> tuple[str, _Params]:
    c, q = p
    if q == 0:
        return "const", (0.0,)
    if q < 1:
        raise InvalidParamsError(f"derivative of t**{q} is singular at 0")
    return "cmonomial", (c * q, q - 1.0)


def _pwlinear_derivative(p: _Params) -> tuple[str, _Params]:
    xs = np.asarray(p[0::2])
    slopes = np.diff(np.asarray(p[1::2])) / np.diff(xs)
    return "pwconst", tuple(xs) + tuple(slopes)


@dataclass(frozen=True)
class _Family:
    """What the library knows of one family, as functions of its params."""

    check: Callable[[_Params], bool]  # admissible? (or raises its own message)
    evaluate: Callable[[_Params, np.ndarray], np.ndarray]
    derivative: Callable[[_Params], tuple[str, _Params]] | None  # (family, params)
    public: bool = False  # parse_function accepts it
    bare: _Params = ()  # the params of a spec that gives none
    knots: Callable[[_Params], _Params] = lambda p: ()  # end knots included
    # |c sin(w t)| and |c cos(w t)| crest at w t = crest_phase + k pi, k an integer
    crest_phase: float | None = None


_FAMILIES: dict[str, _Family] = {
    "const": _Family(_arity(1), lambda p, t: np.full_like(t, p[0], dtype=float),
                     lambda p: ("const", (0.0,)), public=True),
    "affine": _Family(_arity(2), lambda p, t: p[0] + p[1] * t,
                      lambda p: ("const", (p[1],)), public=True),
    "poly": _Family(lambda p: len(p) >= 1,
                    lambda p, t: np.polynomial.polynomial.polyval(t, np.asarray(p)),
                    _poly_derivative, public=True),
    "monomial": _Family(_exponent_check("monomial"), lambda p, t: _powcheck(t, p[0]),
                        lambda p: ("cmonomial", (p[0], p[0] - 1.0)), public=True),
    "negmonomial": _Family(_exponent_check("negmonomial"),
                           lambda p, t: -_powcheck(t, p[0]),
                           lambda p: ("cmonomial", (-p[0], p[0] - 1.0)), public=True),
    "cmonomial": _Family(lambda p: len(p) == 2 and p[1] >= 0.0,
                         lambda p, t: p[0] * _powcheck(t, p[1]), _cmonomial_derivative),
    "exp": _Family(_arity(1), lambda p, t: np.exp(p[0] * t),
                   lambda p: ("cexp", (p[0], p[0])), public=True, bare=(1.0,)),
    "cexp": _Family(_arity(2), lambda p, t: p[0] * np.exp(p[1] * t),
                    lambda p: ("cexp", (p[0] * p[1], p[1]))),
    "sin": _Family(_arity(1), lambda p, t: np.sin(p[0] * t),
                   lambda p: ("coswave", (p[0], p[0])), public=True, bare=(1.0,),
                   crest_phase=0.5 * math.pi),
    "sinw": _Family(_arity(2), lambda p, t: p[0] * np.sin(p[1] * t),
                    lambda p: ("coswave", (p[0] * p[1], p[1])),
                    crest_phase=0.5 * math.pi),
    "coswave": _Family(_arity(2), lambda p, t: p[0] * np.cos(p[1] * t),
                       lambda p: ("sinw", (-p[0] * p[1], p[1])), crest_phase=0.0),
    "pwlinear": _Family(
        lambda p: len(p) >= 4 and len(p) % 2 == 0 and np.all(np.diff(p[0::2]) > 0),
        _eval_pwlinear, _pwlinear_derivative, public=True, knots=lambda p: p[0::2]),
    "pwconst": _Family(
        lambda p: len(p) >= 3 and len(p) % 2 == 1 and np.all(np.diff(_pwconst_knots(p)) > 0),
        _eval_pwconst, None, knots=_pwconst_knots),
}

_PUBLIC_FAMILIES = tuple(name for name, fam in _FAMILIES.items() if fam.public)


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
        family = _FAMILIES.get(self.family_id)
        if family is None:
            raise UnknownFamilyError(f"unknown family {self.family_id!r}")
        if not family.check(self.params):
            raise InvalidParamsError(
                f"bad parameters for family {self.family_id!r}: {self.params}")
        if not all(math.isfinite(p) for p in self.params):
            raise InvalidParamsError(f"parameters must be finite: {self.params}")

    def __call__(self, t):
        """fn at scalar or array t, a float for a scalar; EvalDomainError
        outside the family's natural domain (negative t for a non-integer
        power, t beyond the knots of a piecewise family)."""
        arr = np.asarray(t, dtype=float)
        out = _FAMILIES[self.family_id].evaluate(self.params, arr)
        if np.isscalar(t) or arr.ndim == 0:
            return float(out)
        return out

    @property
    def label(self) -> str:
        if not self.params:
            return self.family_id
        return self.family_id + ":" + ":".join(f"{p:g}" for p in self.params)

    @property
    def knots(self) -> tuple[float, ...]:
        """Breakpoints of a piecewise family, end knots included; empty for
        the smooth families, which have continuous derivatives of all orders."""
        return _FAMILIES[self.family_id].knots(self.params)


@dataclass(frozen=True)
class AbsPower:
    """Derived map t -> |fn(t)|**q: the hypothesis object of the bounds, and
    with q = 1, as x ** 1.0 == x, the |fn| of an integrand and the map that
    the hypothesis gate scans, AbsPower(f', 1), raising it to each q under
    one finiteness rule; hashable if fn is."""

    fn: Callable
    q: float

    def __call__(self, t):
        return np.abs(self.fn(t)) ** self.q


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
    return RealFunction(name, params or _FAMILIES[name].bare)


def derivative(fn: RealFunction) -> RealFunction:
    """Analytic derivative of a registry function, as a registry function."""
    rule = _FAMILIES[fn.family_id].derivative
    if rule is None:
        raise InvalidParamsError(f"family {fn.family_id!r} has no registry derivative")
    return RealFunction(*rule(fn.params))


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
        interval ends (so one-sided domain restrictions never bite) and from
        the knots of f, where f has no derivative. Returns the worst absolute
        deviation and raises InvalidCaseError when the deviation is not
        finite (f or f_prime overflowed or is undefined) or exceeds
        1e-4 * (1 + |f_prime|) anywhere.
        """
        h = 1e-6 * iv.width
        ts = np.linspace(iv.a + h, iv.b - h, 1000)
        for k in self.f.knots:
            ts = ts[np.abs(ts - k) > h]
        with np.errstate(over="ignore", invalid="ignore"):
            fd = (self.f(ts + h) - self.f(ts - h)) / (2.0 * h)
            fp = self.f_prime(ts)
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


def validate_split_point(iv: Interval, x: float, name: str = "x") -> None:
    """Raise InvalidCaseError unless a <= x <= b; the message calls the
    point name."""
    if not iv.a <= x <= iv.b:
        raise InvalidCaseError(f"{name}={x} outside [{iv.a}, {iv.b}]")


def validate_q(q: float) -> None:
    """Raise InvalidCaseError unless q is finite and >= 1 (NaN fails)."""
    if not 1.0 <= q < math.inf:
        raise InvalidCaseError(f"q must be finite and >= 1, got {q}")


def validate_case_params(iv: Interval, q: float, params: ConvexityParams,
                         b_star: float) -> None:
    """Raise InvalidCaseError unless q is finite and >= 1, [a, b] lies
    inside [0, b_star] and the scaled endpoint b/m is a point of [0, b_star]."""
    validate_q(q)
    if not (0.0 <= iv.a and iv.b <= b_star):
        raise InvalidCaseError(f"[{iv.a}, {iv.b}] not contained in [0, {b_star}]")
    if params.m == 0.0:
        raise InvalidCaseError("m = 0 leaves no evaluable scaled endpoint b/m")
    if iv.b / params.m > b_star * (1.0 + 1e-12):
        raise InvalidCaseError(
            f"b/m = {iv.b / params.m:.6g} exceeds b_star = {b_star:.6g}"
        )


def sup_norm(g: RealFunction, iv: Interval) -> float:
    """Exact sup of |g| on ``iv``: the amplitude of a sine family when a
    crest lies in [a, b], else the largest |g| at the endpoints, the
    interior knots and the interior real parts of the roots of g' (``poly``).
    Every other family is monotone, or has monotone |g|. A |g| that
    overflows gives inf, which validate_g_sup rejects."""
    a, b = iv.a, iv.b
    ts = [a, b, *(k for k in g.knots if a < k < b)]
    phase = _FAMILIES[g.family_id].crest_phase
    if g.family_id == "poly":
        roots = np.polynomial.polynomial.polyroots(derivative(g).params)
        ts += [float(r.real) for r in roots if a < r.real < b]
    elif phase is not None and g.params[-1] != 0.0:
        # is the first crest at or after a inside [a, b]? |g| there is the
        # amplitude, which |g| at the nearest float can miss when w t is large
        w = abs(g.params[-1])
        if (phase + math.ceil((a * w - phase) / math.pi) * math.pi) / w <= b:
            return 1.0 if g.family_id == "sin" else abs(g.params[0])
    with np.errstate(over="ignore"):
        return float(np.max(np.abs(g(np.array(ts)))))


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

    Construction enforces: a <= x <= b, a finite q >= 1, [a, b] inside
    [0, b_star], b/m <= b_star (so the scaled derivative endpoint is
    evaluable), and a finite g_sup at least the exact sup of |g| on [a, b]
    (validate_g_sup).
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

