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
the defining integral; the two routes are never collapsed.
"""

from __future__ import annotations

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
    registry_eval,
    validate_q,
    validate_split_point,
)
from .quadrature import IntegralResult, integrate

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


@dataclass(frozen=True)
class _MomentIntegrand:
    """Weight-moment integrand selected by kind, hashable for memoization."""

    kind: str
    a: float
    b: float
    x: float
    alpha: float

    def __call__(self, t):
        w = ((self.b - t) / (self.b - self.a)) ** self.alpha
        if self.kind == "abs_weighted":
            return np.abs(t - self.x) * w
        if self.kind == "abs_complement":
            return np.abs(t - self.x) * (1.0 - w)
        if self.kind == "tent":
            return np.where(t < self.x, t - self.a, self.b - t)
        if self.kind == "left_weighted":
            return (t - self.a) * w
        if self.kind == "right_weighted":
            return (self.b - t) * w
        if self.kind == "left_complement":
            return (t - self.a) * (1.0 - w)
        if self.kind == "right_complement":
            return (self.b - t) * (1.0 - w)
        raise InvalidParamsError(f"unknown moment integrand {self.kind!r}")


_ORACLE_TOL = 1e-12


def oracle_trapezoid_moment(iv: Interval, x: float, alpha: float) -> IntegralResult:
    """Adaptive-quadrature value of the endpoint-rule moment integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    return _split_at_kink("abs_weighted", iv, x, alpha)


def oracle_midpoint_moment(iv: Interval, x: float, alpha: float) -> IntegralResult:
    """Adaptive-quadrature value of the point-rule moment integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    left = _piece_integral("left_weighted", iv, x, alpha, iv.a, x)
    right = _piece_integral("right_weighted", iv, x, alpha, x, iv.b)
    return IntegralResult(left.value + right.value,
                          left.error_estimate + right.error_estimate,
                          left.evaluations + right.evaluations)


def _piece_integral(kind: str, iv: Interval, x: float, alpha: float,
                    lo: float, hi: float) -> IntegralResult:
    if lo == hi:
        return IntegralResult(0.0, 0.0, 0)
    fn = _MomentIntegrand(kind, iv.a, iv.b, x, alpha)
    return integrate(fn, Interval(lo, hi), _ORACLE_TOL, _ORACLE_TOL)


def _split_at_kink(kind: str, iv: Interval, x: float,
                   alpha: float) -> IntegralResult:
    # the absolute-value and tent integrands kink at t = x; integrating the
    # two smooth pieces separately keeps the adaptive rule honest
    left = _piece_integral(kind, iv, x, alpha, iv.a, x)
    right = _piece_integral(kind, iv, x, alpha, x, iv.b)
    return IntegralResult(left.value + right.value,
                          left.error_estimate + right.error_estimate,
                          left.evaluations + right.evaluations)


def oracle_component_integral(cid: ComponentIntegralId, iv: Interval, x: float,
                              alpha: float) -> IntegralResult:
    """Adaptive-quadrature twin of component_integral."""
    validate_split_point(iv, x)
    _require_alpha(alpha)
    if cid is ComponentIntegralId.T21_WEIGHTED_ALPHA:
        return oracle_trapezoid_moment(iv, x, alpha)
    if cid is ComponentIntegralId.T21_COMPLEMENT:
        return _split_at_kink("abs_complement", iv, x, alpha)
    if cid is ComponentIntegralId.S_TOTAL:
        return _split_at_kink("tent", iv, x, alpha)
    if cid is ComponentIntegralId.T22_LEFT_ALPHA:
        return _piece_integral("left_weighted", iv, x, alpha, iv.a, x)
    if cid is ComponentIntegralId.T22_RIGHT_ALPHA:
        return _piece_integral("right_weighted", iv, x, alpha, x, iv.b)
    if cid is ComponentIntegralId.T22_RIGHT_COMPLEMENT:
        return _piece_integral("right_complement", iv, x, alpha, x, iv.b)
    if cid is ComponentIntegralId.T22_LEFT_COMPLEMENT:
        return _piece_integral("left_complement", iv, x, alpha, iv.a, x)
    raise InvalidParamsError(f"unknown component integral {cid!r}")


# ---------------------------------------------------------------------------
# bound right-hand sides, value level
#
# Derivative magnitudes enter as plain numbers so the reduction identities
# can be fuzzed without constructing function pairs.


def _power_mean(total: float, moment: float, q: float, m: float,
                fp_a: float, fp_scaled: float, g_sup: float) -> float:
    # (q-1)/q = 0 at q = 1, with r**0 = 1 for every r >= 0; the brace term
    # is nonnegative in exact arithmetic, so floor rounding noise at 0
    braces = moment * fp_a ** q + m * (total - moment) * fp_scaled ** q
    return g_sup * total ** ((q - 1.0) / q) * max(braces, 0.0) ** (1.0 / q)


def trapezoid_rhs(iv: Interval, x: float, q: float, alpha: float, m: float,
                  fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Endpoint-rule bound for the (alpha, m) class at split point x.

    fp_a and fp_scaled are |f'(a)| and |f'(b/m)|.
    """
    validate_q(q)
    if not 0.0 < m <= 1.0:
        raise InvalidParamsError(f"m must lie in (0, 1], got {m}")
    total = absolute_moment(iv, x)
    return _power_mean(total, trapezoid_moment(iv, x, alpha), q, m,
                       fp_a, fp_scaled, g_sup)


def midpoint_rhs(iv: Interval, x: float, q: float, alpha: float, m: float,
                 fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Point-rule bound for the (alpha, m) class at evaluation point x."""
    validate_q(q)
    if not 0.0 < m <= 1.0:
        raise InvalidParamsError(f"m must lie in (0, 1], got {m}")
    total = absolute_moment(iv, x)
    return _power_mean(total, midpoint_moment(iv, x, alpha), q, m,
                       fp_a, fp_scaled, g_sup)


def trapezoid_rhs_midsplit(iv: Interval, q: float, alpha: float, m: float,
                           fp_a: float, fp_scaled: float, g_sup: float) -> float:
    """Endpoint-rule bound specialized to the midpoint split, as displayed.

    Implemented from its own dyadic coefficients, not by delegating to
    trapezoid_rhs, so agreement at the midpoint is a checkable identity.
    """
    validate_q(q)
    _require_alpha(alpha)
    if not 0.0 < m <= 1.0:
        raise InvalidParamsError(f"m must lie in (0, 1], got {m}")
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
    if not 0.0 < m <= 1.0:
        raise InvalidParamsError(f"m must lie in (0, 1], got {m}")
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


def is_symmetric_about_midpoint(g: RealFunction, iv: Interval,
                                n: int = _SYMMETRY_SAMPLES,
                                tol: float = _SYMMETRY_TOL) -> bool:
    """Sampled check of g(a + s) == g(b - s)."""
    s = np.linspace(0.0, iv.width, n)
    fwd = np.asarray(registry_eval(g, iv.a + s))
    bwd = np.asarray(registry_eval(g, iv.b - s))
    return bool(np.max(np.abs(fwd - bwd)) <= tol)


def _check_midpoint(tid: TheoremId, iv: Interval, x: float) -> None:
    if abs(x - iv.midpoint) > _MIDPOINT_TOL * iv.width:
        raise InvalidCaseError(f"{tid.value} requires x at the midpoint, got x={x}")


def _check_symmetric_weight(tid: TheoremId, g: RealFunction, iv: Interval) -> None:
    if not is_symmetric_about_midpoint(g, iv):
        raise InvalidCaseError(f"{tid.value} requires a weight symmetric about the midpoint")


def _check_class_params(tid: TheoremId, params: ConvexityParams) -> None:
    if not params.bounds_admissible:
        raise InvalidParamsError(
            f"{tid.value} needs (alpha, m) in (0, 1]^2, got {(params.alpha, params.m)}"
        )


def _derivative_magnitude(fp: RealFunction, t: float) -> float:
    return abs(float(registry_eval(fp, t)))


def _closed_form_rhs(tid: TheoremId, iv: Interval, x: float, q: float,
                     params: ConvexityParams, fp_a: float, fp_b: float,
                     fp_scaled: float | None, g_sup: float) -> float:
    """Dispatch to the theorem's closed form; fp_scaled = |f'(b/m)| is used
    by the class forms only, fp_b = |f'(b)| by the plain-convex ones."""
    if tid.uses_class_params:
        alpha, m = params.alpha, params.m
        if tid is TheoremId.T21:
            return trapezoid_rhs(iv, x, q, alpha, m, fp_a, fp_scaled, g_sup)
        if tid is TheoremId.T22:
            return midpoint_rhs(iv, x, q, alpha, m, fp_a, fp_scaled, g_sup)
        if tid is TheoremId.C21:
            return trapezoid_rhs_midsplit(iv, q, alpha, m, fp_a, fp_scaled, g_sup)
        return midpoint_rhs_midsplit(iv, q, alpha, m, fp_a, fp_scaled, g_sup)
    if tid is TheoremId.T13:
        return trapezoid_rhs_convex(iv, x, q, fp_a, fp_b, g_sup)
    if tid is TheoremId.T14:
        return midpoint_rhs_convex(iv, x, q, fp_a, fp_b, g_sup)
    # C11 and C12 share one right-hand side
    return classical_symmetric_rhs(iv, q, fp_a, fp_b, g_sup)


def evaluate_bound(case: BoundCase, theorem_id: TheoremId | str) -> float:
    """Right-hand side of the selected inequality for a validated case.

    General-class forms demand (alpha, m) strictly inside (0, 1]^2; the
    midpoint-split forms additionally demand x at the midpoint, and the
    endpoint-rule ones a symmetric weight.
    """
    tid = TheoremId(theorem_id)
    iv = case.interval
    fp = case.pair.f_prime
    fp_a = _derivative_magnitude(fp, iv.a)
    fp_b = _derivative_magnitude(fp, iv.b)
    if tid.requires_midpoint:
        _check_midpoint(tid, iv, case.x)
        if tid.requires_symmetric_weight:
            _check_symmetric_weight(tid, case.g, iv)
    fp_scaled = None
    if tid.uses_class_params:
        _check_class_params(tid, case.params)
        fp_scaled = _derivative_magnitude(fp, case.scaled_endpoint)
    return _closed_form_rhs(tid, iv, case.x, case.q, case.params, fp_a, fp_b,
                            fp_scaled, case.g_sup)
