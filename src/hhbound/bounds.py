"""Closed-form error bounds for the weighted endpoint and point rules.

Each bound has the power-mean shape

    sup|g| * T(x)**((q-1)/q) * (mu * |f'(a)|**q + m*(T(x) - mu) * |f'(b/m)|**q)**(1/q)

where T(x) is the absolute moment of the split point and mu is one of two
weighted moments, one per rule. The plain-convex specializations carry their
own cubic coefficient polynomials, and the midpoint-split corollaries their
own dyadic coefficients; all of them are implemented as written, so the
reduction identities between the general and special forms are genuine
cross-checks rather than shared code.

Every closed form here has an oracle twin computed by adaptive quadrature of
the defining integral; the two routes are never collapsed. One table,
_ORACLE_SIDES, states what each twin integrates on [a, x] and on [x, b]. The
twins request the lhs oracle's tolerance, quadrature._LHS_TOL: for small
alpha the cusp of the weight at t = b sends thousands of panels to the
float64 floor, each counting its whole value as error, and their sum alone
exceeded a 1e-12 request.

evaluate_bound and the suite runner take every right-hand side from a
_BlockRhs, which alone decides which |f'| values a theorem reads, and
reuses them and the general forms' moments across a block.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    BoundCase,
    ConvexityParams,
    InvalidCaseError,
    InvalidParamsError,
    Interval,
    RealFunction,
    TheoremId,
    validate_q,
    validate_split_point,
)
from .quadrature import _LHS_TOL, IntegralResult, _integral_between

__all__ = [
    "ComponentIntegralId",
    "absolute_moment",
    "trapezoid_moment",
    "midpoint_moment",
    "component_integral",
    "oracle_trapezoid_moment",
    "oracle_midpoint_moment",
    "oracle_component_integral",
    "trapezoid_rhs",
    "midpoint_rhs",
    "trapezoid_rhs_midsplit",
    "midpoint_rhs_midsplit",
    "trapezoid_rhs_convex",
    "midpoint_rhs_convex",
    "classical_symmetric_rhs",
    "is_symmetric_about_midpoint",
    "evaluate_bound",
]


class ComponentIntegralId(Enum):
    """The building-block integrals whose closed forms assemble the moments.

    The T21-prefixed pair splits the endpoint-rule moment by the decaying
    weight and its complement; the T22-prefixed four split the point-rule
    moment by branch and weight; S_TOTAL is the unweighted tent area.
    """

    T21_WEIGHTED_ALPHA = "T21_WEIGHTED_ALPHA"
    T21_COMPLEMENT = "T21_COMPLEMENT"
    T22_LEFT_ALPHA = "T22_LEFT_ALPHA"
    T22_RIGHT_ALPHA = "T22_RIGHT_ALPHA"
    T22_RIGHT_COMPLEMENT = "T22_RIGHT_COMPLEMENT"
    T22_LEFT_COMPLEMENT = "T22_LEFT_COMPLEMENT"
    S_TOTAL = "S_TOTAL"


def _require_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise InvalidParamsError(f"alpha must lie in (0, 1], got {alpha}")


def _require_m(m: float) -> None:
    if not 0.0 < m <= 1.0:
        raise InvalidParamsError(f"m must lie in (0, 1], got {m}")


def absolute_moment(iv: Interval, x: float) -> float:
    """Integral of |t - x| over [a, b]: ((x-a)^2 + (b-x)^2) / 2."""
    validate_split_point(iv, x)
    return 0.5 * ((x - iv.a) ** 2 + (iv.b - x) ** 2)


def trapezoid_moment(iv: Interval, x: float, alpha: float) -> float:
    """Closed form of the endpoint-rule moment.

    This is the integral of |t - x| * ((b-t)/(b-a))**alpha over [a, b]. At
    x = a it collapses to (b-a)^2 / ((alpha+1)(alpha+2)), at x = b to
    (b-a)^2 / (alpha+2).
    """
    validate_split_point(iv, x)
    _require_alpha(alpha)
    a, b = iv.a, iv.b
    w = b - a
    num = w ** (alpha + 1.0) * (2.0 * x - b - a + alpha * (x - a)) + 2.0 * (b - x) ** (alpha + 2.0)
    return num / ((alpha + 1.0) * (alpha + 2.0) * w ** alpha)


def midpoint_moment(iv: Interval, x: float, alpha: float) -> float:
    """Closed form of the point-rule moment.

    This is the integral of the tent weight S(t) (t-a on [a, x), b-t on
    [x, b]) times ((b-t)/(b-a))**alpha. At x = b it collapses to
    (b-a)^2 / ((alpha+1)(alpha+2)), at x = a to (b-a)^2 / (alpha+2).
    """
    validate_split_point(iv, x)
    _require_alpha(alpha)
    a, b = iv.a, iv.b
    w = b - a
    num = w ** (alpha + 2.0) + (b - x) ** (alpha + 1.0) * ((a - x) * (2.0 + alpha) + alpha * (b - x))
    return num / ((alpha + 1.0) * (alpha + 2.0) * w ** alpha)


def component_integral(cid: ComponentIntegralId, iv: Interval, x: float,
                       alpha: float) -> float:
    """Closed form of one building-block integral (see ComponentIntegralId)."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    a, b = iv.a, iv.b
    w = b - a
    denom = w ** alpha * (alpha + 1.0) * (alpha + 2.0)
    if cid is ComponentIntegralId.T21_WEIGHTED_ALPHA:
        return trapezoid_moment(iv, x, alpha)
    if cid is ComponentIntegralId.T21_COMPLEMENT:
        return absolute_moment(iv, x) - trapezoid_moment(iv, x, alpha)
    if cid is ComponentIntegralId.S_TOTAL:
        return absolute_moment(iv, x)
    if cid is ComponentIntegralId.T22_LEFT_ALPHA:
        return (w ** (alpha + 2.0)
                + (b - x) ** (alpha + 1.0) * (2.0 * a - b - x + alpha * (a - x))) / denom
    if cid is ComponentIntegralId.T22_RIGHT_ALPHA:
        return (b - x) ** (alpha + 2.0) / (w ** alpha * (alpha + 2.0))
    if cid is ComponentIntegralId.T22_RIGHT_COMPLEMENT:
        return 0.5 * (b - x) ** 2 - component_integral(
            ComponentIntegralId.T22_RIGHT_ALPHA, iv, x, alpha)
    if cid is ComponentIntegralId.T22_LEFT_COMPLEMENT:
        return 0.5 * (x - a) ** 2 - component_integral(
            ComponentIntegralId.T22_LEFT_ALPHA, iv, x, alpha)
    raise InvalidParamsError(f"unknown component integral {cid!r}")


# ---------------------------------------------------------------------------
# oracle twins (adaptive quadrature of the defining integrands)


def _distance(t, a, b, x):
    return np.abs(t - x)


def _from_a(t, a, b, x):
    return t - a


def _to_b(t, a, b, x):
    return b - t


def _decay(t, a, b, alpha):
    return ((b - t) / (b - a)) ** alpha


def _rise(t, a, b, alpha):
    return 1.0 - _decay(t, a, b, alpha)


@dataclass(frozen=True)
class _MomentIntegrand:
    """base(t) * weight(t), or base(t) if weight is None; hashable."""

    base: object
    weight: object
    a: float
    b: float
    x: float
    alpha: float

    def __call__(self, t):
        v = self.base(t, self.a, self.b, self.x)
        return v if self.weight is None else v * self.weight(t, self.a, self.b, self.alpha)


# what each twin integrates on [a, x] and on [x, b]: a (base, weight) pair,
# or None where the component has no part there
_ORACLE_SIDES = {
    ComponentIntegralId.T21_WEIGHTED_ALPHA: ((_distance, _decay), (_distance, _decay)),
    ComponentIntegralId.T21_COMPLEMENT: ((_distance, _rise), (_distance, _rise)),
    ComponentIntegralId.S_TOTAL: ((_from_a, None), (_to_b, None)),
    ComponentIntegralId.T22_LEFT_ALPHA: ((_from_a, _decay), None),
    ComponentIntegralId.T22_RIGHT_ALPHA: (None, (_to_b, _decay)),
    ComponentIntegralId.T22_RIGHT_COMPLEMENT: (None, (_to_b, _rise)),
    ComponentIntegralId.T22_LEFT_COMPLEMENT: ((_from_a, _rise), None),
}

def _oracle(left, right, iv: Interval, x: float, alpha: float) -> IntegralResult:
    # each integrand kinks or changes formula at x, so each side goes alone;
    # the sides' values, error estimates and evaluations add
    sides = [_integral_between(_MomentIntegrand(*side, iv.a, iv.b, x, alpha),
                               [(lo, hi)], _LHS_TOL)[0]
             for side, lo, hi in ((left, iv.a, x), (right, x, iv.b)) if side is not None]
    return IntegralResult(*(sum(column) for column in zip(*sides)))


def oracle_trapezoid_moment(iv: Interval, x: float, alpha: float) -> IntegralResult:
    """Adaptive-quadrature value of the endpoint-rule moment integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    return _oracle(*_ORACLE_SIDES[ComponentIntegralId.T21_WEIGHTED_ALPHA], iv, x, alpha)


def oracle_midpoint_moment(iv: Interval, x: float, alpha: float) -> IntegralResult:
    """Adaptive-quadrature value of the point-rule moment integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    return _oracle(_ORACLE_SIDES[ComponentIntegralId.T22_LEFT_ALPHA][0],
                   _ORACLE_SIDES[ComponentIntegralId.T22_RIGHT_ALPHA][1], iv, x, alpha)


def oracle_component_integral(cid: ComponentIntegralId, iv: Interval, x: float,
                              alpha: float) -> IntegralResult:
    """Adaptive-quadrature twin of component_integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    if not isinstance(cid, ComponentIntegralId):
        raise InvalidParamsError(f"unknown component integral {cid!r}")
    return _oracle(*_ORACLE_SIDES[cid], iv, x, alpha)


# ---------------------------------------------------------------------------
# bound right-hand sides, value level
#
# Derivative magnitudes enter as plain numbers so the reduction identities
# can be fuzzed without constructing function pairs.


def _power_mean(total: float, moment: float, q: float, m: float,
                fpq_a: float, fpq_scaled: float, g_sup: float) -> float:
    """The general class forms' bound from the absolute moment total, the
    rule's moment, and fpq_a = |f'(a)|**q and fpq_scaled = |f'(b/m)|**q."""
    # (q-1)/q = 0 at q = 1, with r**0 = 1 for every r >= 0; the brace term
    # is nonnegative in exact arithmetic, so floor rounding noise at 0
    braces = moment * fpq_a + m * (total - moment) * fpq_scaled
    return g_sup * total ** ((q - 1.0) / q) * max(braces, 0.0) ** (1.0 / q)


def trapezoid_rhs(iv: Interval, x: float, q: float, alpha: float, m: float,
                  fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Endpoint-rule bound for the (alpha, m) class at split point x.

    fp_a and fp_scaled are |f'(a)| and |f'(b/m)|.
    """
    validate_q(q)
    _require_m(m)
    total = absolute_moment(iv, x)
    return _power_mean(total, trapezoid_moment(iv, x, alpha), q, m,
                       fp_a ** q, fp_scaled ** q, g_sup)


def midpoint_rhs(iv: Interval, x: float, q: float, alpha: float, m: float,
                 fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Point-rule bound for the (alpha, m) class at evaluation point x."""
    validate_q(q)
    _require_m(m)
    total = absolute_moment(iv, x)
    return _power_mean(total, midpoint_moment(iv, x, alpha), q, m,
                       fp_a ** q, fp_scaled ** q, g_sup)


def trapezoid_rhs_midsplit(iv: Interval, q: float, alpha: float, m: float,
                           fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Endpoint-rule bound specialized to the midpoint split, as displayed.

    Implemented from its own dyadic coefficients, not by delegating to
    trapezoid_rhs, so agreement at the midpoint is a checkable identity.
    """
    validate_q(q)
    _require_alpha(alpha)
    _require_m(m)
    w = iv.width
    two_a = 2.0 ** alpha
    coeff_a = (alpha * two_a + 1.0) / (2.0 ** (alpha + 1.0))
    coeff_m = (two_a * (alpha ** 2 + alpha + 2.0) - 2.0) / (2.0 ** (alpha + 2.0))
    braces = max(coeff_a * fp_a ** q + m * coeff_m * fp_scaled ** q, 0.0)
    lead = (1.0 / ((alpha + 1.0) * (alpha + 2.0))) ** (1.0 / q)
    return g_sup * lead * w ** 2 / 4.0 ** (1.0 - 1.0 / q) * braces ** (1.0 / q)


def midpoint_rhs_midsplit(iv: Interval, q: float, alpha: float, m: float,
                          fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Point-rule bound specialized to midpoint evaluation, as displayed."""
    validate_q(q)
    _require_alpha(alpha)
    _require_m(m)
    w = iv.width
    two_a = 2.0 ** alpha
    coeff_a = (2.0 ** (alpha + 1.0) - 1.0) / (2.0 ** (alpha + 1.0))
    coeff_m = (two_a * (alpha ** 2 + 3.0 * alpha - 2.0) + 2.0) / (2.0 ** (alpha + 2.0))
    braces = max(coeff_a * fp_a ** q + m * coeff_m * fp_scaled ** q, 0.0)
    lead = (1.0 / ((alpha + 1.0) * (alpha + 2.0))) ** (1.0 / q)
    return g_sup * lead * w ** 2 / 4.0 ** (1.0 - 1.0 / q) * braces ** (1.0 / q)


def trapezoid_rhs_convex(iv: Interval, x: float, q: float,
                         fp_a: float, fp_b: float, g_sup: float) -> float:
    """Endpoint-rule bound under plain convexity of |f'|**q.

    Uses the cubic coefficient polynomials in (x - a) and (b - x); equals
    trapezoid_rhs at alpha = m = 1 identically.
    """
    validate_q(q)
    validate_split_point(iv, x)
    a, b = iv.a, iv.b
    w = b - a
    c_a = ((x - a) ** 2 * (3.0 * b - x - 2.0 * a) + (b - x) ** 3) / (6.0 * w)
    c_b = ((x - a) ** 3 + (b - x) ** 2 * (2.0 * b + x - 3.0 * a)) / (6.0 * w)
    total = absolute_moment(iv, x)
    braces = max(c_a * fp_a ** q + c_b * fp_b ** q, 0.0)
    return g_sup * total ** ((q - 1.0) / q) * braces ** (1.0 / q)


def midpoint_rhs_convex(iv: Interval, x: float, q: float,
                        fp_a: float, fp_b: float, g_sup: float) -> float:
    """Point-rule bound under plain convexity of |f'|**q."""
    validate_q(q)
    validate_split_point(iv, x)
    a, b = iv.a, iv.b
    w = b - a
    c_a = ((x - a) ** 2 * (3.0 * b - a - 2.0 * x) + 2.0 * (b - x) ** 3) / (6.0 * w)
    c_b = (2.0 * (x - a) ** 3 + (b - x) ** 2 * (b + 2.0 * x - 3.0 * a)) / (6.0 * w)
    total = absolute_moment(iv, x)
    braces = max(c_a * fp_a ** q + c_b * fp_b ** q, 0.0)
    return g_sup * total ** ((q - 1.0) / q) * braces ** (1.0 / q)


def classical_symmetric_rhs(iv: Interval, q: float,
                            fp_a: float, fp_b: float, g_sup: float) -> float:
    """Shared midpoint-split bound of the two plain-convex corollaries."""
    validate_q(q)
    w = iv.width
    return g_sup * w ** 2 / 4.0 * (0.5 * (fp_a ** q + fp_b ** q)) ** (1.0 / q)


# ---------------------------------------------------------------------------
# case-level evaluation

_MIDPOINT_TOL = 1e-12
_SYMMETRY_SAMPLES = 101
_SYMMETRY_TOL = 1e-10


def is_symmetric_about_midpoint(g: RealFunction, iv: Interval) -> bool:
    """Check of |g(a + s) - g(b - s)| <= 1e-10 at 101 even offsets s and at
    k - a and b - k for each knot k inside (a, b); exact for a pwlinear g,
    for which g(a + s) - g(b - s) is linear between those offsets."""
    inner = [k for k in g.knots if iv.a < k < iv.b]
    s = np.concatenate((np.linspace(0.0, iv.width, _SYMMETRY_SAMPLES),
                        [k - iv.a for k in inner], [iv.b - k for k in inner]))
    fwd = np.asarray(g(iv.a + s))
    bwd = np.asarray(g(iv.b - s))
    return bool(np.max(np.abs(fwd - bwd)) <= _SYMMETRY_TOL)


def _check_theorem(tid: TheoremId, g: RealFunction, iv: Interval,
                   xs: Iterable[float], params: Iterable[ConvexityParams]) -> None:
    """Raise unless the theorem applies at every x of xs and every (alpha, m)
    of params: the midpoint-split forms need x at the midpoint, and their
    endpoint-rule ones a weight symmetric about it; the class forms need
    (alpha, m) in (0, 1]^2."""
    if tid.requires_midpoint:
        for x in xs:
            if abs(x - iv.midpoint) > _MIDPOINT_TOL * iv.width:
                raise InvalidCaseError(
                    f"{tid.value} requires x at the midpoint, got x={x}")
        if tid.requires_symmetric_weight and not is_symmetric_about_midpoint(g, iv):
            raise InvalidCaseError(
                f"{tid.value} requires a weight symmetric about the midpoint")
    if tid.uses_class_params:
        for p in params:
            if not p.bounds_admissible:
                raise InvalidParamsError(
                    f"{tid.value} needs (alpha, m) in (0, 1]^2, got {(p.alpha, p.m)}")


class _BlockRhs:
    """The right-hand sides of one block: f', [a, b], split points xs and
    the weight bound g_sup.

    at(tid, q, params) gives the theorem's rhs at each x of xs. It reads
    |f'(a)|, then |f'(b/m)| for the class forms or |f'(b)| for the
    plain-convex ones, each point once and at its first use. The general
    class forms are the power mean of the absolute moment and the rule's
    moment, as trapezoid_rhs and midpoint_rhs compute it; those moments
    depend on x and alpha only, so they are computed once per (rule, alpha).
    """

    def __init__(self, f_prime: RealFunction, iv: Interval, xs: Sequence[float],
                 g_sup: float) -> None:
        self.f_prime = f_prime
        self.iv = iv
        self.xs = xs
        self.g_sup = g_sup
        self._fp: dict[float, float] = {}
        self._moments: dict[tuple[bool, float], list[tuple[float, float]]] = {}

    def _fp_at(self, t: float) -> float:
        hit = self._fp.get(t)
        if hit is None:
            hit = self._fp[t] = abs(self.f_prime(t))
        return hit

    def at(self, tid: TheoremId, q: float, params: ConvexityParams) -> list[float]:
        iv, xs, g_sup = self.iv, self.xs, self.g_sup
        alpha, m = params.alpha, params.m
        fp_a = self._fp_at(iv.a)
        if not tid.uses_class_params:
            fp_b = self._fp_at(iv.b)
            if tid is TheoremId.T13:
                return [trapezoid_rhs_convex(iv, x, q, fp_a, fp_b, g_sup) for x in xs]
            if tid is TheoremId.T14:
                return [midpoint_rhs_convex(iv, x, q, fp_a, fp_b, g_sup) for x in xs]
            # C11 and C12 share one right-hand side, which does not depend on x
            return [classical_symmetric_rhs(iv, q, fp_a, fp_b, g_sup)] * len(xs)
        fp_scaled = self._fp_at(iv.b / m)
        if tid is TheoremId.T21 or tid is TheoremId.T22:
            key = (tid is TheoremId.T21, alpha)
            pairs = self._moments.get(key)
            if pairs is None:
                moment = trapezoid_moment if key[0] else midpoint_moment
                pairs = self._moments[key] = [
                    (absolute_moment(iv, x), moment(iv, x, alpha)) for x in xs]
            fpq_a, fpq_scaled = fp_a ** q, fp_scaled ** q
            return [_power_mean(total, mu, q, m, fpq_a, fpq_scaled, g_sup)
                    for total, mu in pairs]
        # the midpoint-split forms do not depend on x
        midsplit = (trapezoid_rhs_midsplit if tid is TheoremId.C21
                    else midpoint_rhs_midsplit)
        return [midsplit(iv, q, alpha, m, fp_a, fp_scaled, g_sup)] * len(xs)


def evaluate_bound(case: BoundCase, theorem_id: TheoremId | str) -> float:
    """Right-hand side of the selected inequality for a validated case.

    General-class forms demand (alpha, m) strictly inside (0, 1]^2; the
    midpoint-split forms additionally demand x at the midpoint, and the
    endpoint-rule ones a symmetric weight.
    """
    tid = TheoremId(theorem_id)
    _check_theorem(tid, case.g, case.interval, (case.x,), (case.params,))
    rhs = _BlockRhs(case.pair.f_prime, case.interval, (case.x,), case.g_sup)
    return rhs.at(tid, case.q, case.params)[0]
