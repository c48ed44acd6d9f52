"""Closed-form moments and bound right-hand sides against their oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbound import (
    BoundCase,
    ComponentIntegralId,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    Interval,
    InvalidCaseError,
    InvalidParamsError,
    absolute_moment,
    classical_symmetric_rhs,
    component_integral,
    evaluate_bound,
    is_symmetric_about_midpoint,
    midpoint_moment,
    midpoint_rhs,
    midpoint_rhs_convex,
    midpoint_rhs_midsplit,
    oracle_component_integral,
    oracle_midpoint_moment,
    oracle_trapezoid_moment,
    parse_function,
    trapezoid_moment,
    trapezoid_rhs,
    trapezoid_rhs_convex,
    trapezoid_rhs_midsplit,
)
from hhbound.quadrature import _LHS_TOL, IntegralResult, _integral_between

UNIT = Interval(0.0, 1.0)
SHIFTED = Interval(2.0, 5.0)


def test_absolute_moment_values():
    assert absolute_moment(UNIT, 0.5) == 0.25
    assert absolute_moment(UNIT, 0.0) == 0.5
    assert absolute_moment(SHIFTED, 3.0) == 2.5


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("iv", [UNIT, SHIFTED])
def test_trapezoid_moment_endpoint_collapse(iv, alpha):
    w2 = iv.width ** 2
    assert math.isclose(trapezoid_moment(iv, iv.a, alpha),
                        w2 / ((alpha + 1.0) * (alpha + 2.0)), rel_tol=1e-14)
    assert math.isclose(trapezoid_moment(iv, iv.b, alpha),
                        w2 / (alpha + 2.0), rel_tol=1e-14)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
@pytest.mark.parametrize("iv", [UNIT, SHIFTED])
def test_midpoint_moment_endpoint_collapse(iv, alpha):
    # mirrored collapse relative to the endpoint rule
    w2 = iv.width ** 2
    assert math.isclose(midpoint_moment(iv, iv.b, alpha),
                        w2 / ((alpha + 1.0) * (alpha + 2.0)), rel_tol=1e-14)
    assert math.isclose(midpoint_moment(iv, iv.a, alpha),
                        w2 / (alpha + 2.0), rel_tol=1e-14)


def test_moment_spot_values():
    assert abs(trapezoid_moment(UNIT, 0.5, 1.0) - 0.125) <= 1e-15
    assert abs(midpoint_moment(UNIT, 0.5, 1.0) - 0.125) <= 1e-15
    # the kinked split point that once fooled the plain adaptive rule
    assert abs(trapezoid_moment(UNIT, 0.75, 1.0) - 41.0 / 192.0) <= 1e-15


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("iv", [UNIT, SHIFTED])
def test_moments_against_oracle(iv, alpha):
    for x in np.linspace(iv.a, iv.b, 7):
        x = float(x)
        m = trapezoid_moment(iv, x, alpha)
        om = oracle_trapezoid_moment(iv, x, alpha)
        assert abs(m - om.value) <= 1e-9 * abs(om.value)
        a = midpoint_moment(iv, x, alpha)
        oa = oracle_midpoint_moment(iv, x, alpha)
        assert abs(a - oa.value) <= 1e-9 * abs(oa.value)


def test_moment_param_validation():
    with pytest.raises(InvalidParamsError):
        trapezoid_moment(UNIT, 0.5, 0.0)
    with pytest.raises(InvalidParamsError):
        midpoint_moment(UNIT, 0.5, 1.5)
    with pytest.raises(InvalidCaseError):
        trapezoid_moment(UNIT, 2.0, 1.0)


def test_component_integrals_assemble_moments():
    for alpha in (0.25, 0.75, 1.0):
        for x in (0.0, 0.3, 0.5, 1.0):
            t21 = component_integral(ComponentIntegralId.T21_WEIGHTED_ALPHA, UNIT, x, alpha)
            t21c = component_integral(ComponentIntegralId.T21_COMPLEMENT, UNIT, x, alpha)
            total = component_integral(ComponentIntegralId.S_TOTAL, UNIT, x, alpha)
            assert abs(t21 + t21c - total) <= 1e-14
            assert total == absolute_moment(UNIT, x)
            left = component_integral(ComponentIntegralId.T22_LEFT_ALPHA, UNIT, x, alpha)
            right = component_integral(ComponentIntegralId.T22_RIGHT_ALPHA, UNIT, x, alpha)
            assert abs(left + right - midpoint_moment(UNIT, x, alpha)) <= 1e-14
            lc = component_integral(ComponentIntegralId.T22_LEFT_COMPLEMENT, UNIT, x, alpha)
            rc = component_integral(ComponentIntegralId.T22_RIGHT_COMPLEMENT, UNIT, x, alpha)
            assert abs(left + lc - 0.5 * x ** 2) <= 1e-14
            assert abs(right + rc - 0.5 * (1.0 - x) ** 2) <= 1e-14


@pytest.mark.parametrize("cid", list(ComponentIntegralId))
def test_component_integrals_against_oracle(cid):
    for alpha in (0.5, 1.0):
        for x in (0.2, 0.5, 0.9):
            closed = component_integral(cid, UNIT, x, alpha)
            orc = oracle_component_integral(cid, UNIT, x, alpha)
            assert abs(closed - orc.value) <= 1e-9 * (1.0 + abs(orc.value))


@pytest.mark.parametrize("cid", ["S_TOTAL", None, 3])
@pytest.mark.parametrize("fn", [component_integral, oracle_component_integral])
def test_component_integrals_reject_a_non_member(fn, cid):
    with pytest.raises(InvalidParamsError, match="unknown component integral"):
        fn(cid, UNIT, 0.5, 0.5)


@pytest.mark.parametrize("iv", [UNIT, Interval(-1.0, 2.5)])
def test_component_twins_converge_for_small_alpha(iv):
    # the weight's cusp at t = b drives the panels next to b to the float64
    # floor, where each counts its whole value as error; at a 1e-12 request
    # their sum alone failed the T21_COMPLEMENT twin at x = 0.3 on [0, 1]
    for alpha in (0.1, 0.25):
        for x in np.linspace(iv.a, iv.b, 11):
            x = float(x)
            for cid in ComponentIntegralId:
                closed = component_integral(cid, iv, x, alpha)
                orc = oracle_component_integral(cid, iv, x, alpha)
                assert abs(closed - orc.value) <= 1e-9 * (1.0 + abs(orc.value))


def _side_integrands(cid, iv, x, alpha):
    """What the twin of cid integrates on [a, x] and on [x, b], None where
    it has no part, spelled out apart from the twin's own table."""
    a, b = iv.a, iv.b

    def w(t):
        return ((b - t) / (b - a)) ** alpha

    sides = {
        ComponentIntegralId.T21_WEIGHTED_ALPHA: (
            lambda t: np.abs(t - x) * w(t), lambda t: np.abs(t - x) * w(t)),
        ComponentIntegralId.T21_COMPLEMENT: (
            lambda t: np.abs(t - x) * (1.0 - w(t)),
            lambda t: np.abs(t - x) * (1.0 - w(t))),
        ComponentIntegralId.S_TOTAL: (lambda t: t - a, lambda t: b - t),
        ComponentIntegralId.T22_LEFT_ALPHA: (lambda t: (t - a) * w(t), None),
        ComponentIntegralId.T22_RIGHT_ALPHA: (None, lambda t: (b - t) * w(t)),
        ComponentIntegralId.T22_RIGHT_COMPLEMENT: (
            None, lambda t: (b - t) * (1.0 - w(t))),
        ComponentIntegralId.T22_LEFT_COMPLEMENT: (
            lambda t: (t - a) * (1.0 - w(t)), None),
    }
    return sides[cid]


def _sides_alone(left, right, iv, x):
    sides = [_integral_between(fn, [(lo, hi)], _LHS_TOL)[0]
             for fn, lo, hi in ((left, iv.a, x), (right, x, iv.b)) if fn is not None]
    value, err, evals = (sum(column) for column in zip(*sides))
    return IntegralResult(value, err, evals)


@pytest.mark.parametrize("cid", list(ComponentIntegralId))
def test_component_twin_is_the_sum_of_its_sides(cid):
    # bit for bit: value, error estimate and evaluations; the S_TOTAL twin
    # once sampled the tent's right branch at the end of its left side
    for iv in (UNIT, Interval(-1.0, 2.5)):
        for x in (iv.a, 0.3 * iv.a + 0.7 * iv.b, iv.b):
            for alpha in (0.25, 1.0):
                expect = _sides_alone(*_side_integrands(cid, iv, x, alpha), iv, x)
                assert oracle_component_integral(cid, iv, x, alpha) == expect


def test_q_one_is_plain_weighted_sum():
    # at q = 1 the power mean degenerates to the weighted sum itself
    iv, x, alpha, m = UNIT, 0.3, 0.6, 0.8
    mu = trapezoid_moment(iv, x, alpha)
    total = absolute_moment(iv, x)
    expect = 2.0 * (mu * 1.5 + m * (total - mu) * 2.5)
    assert math.isclose(trapezoid_rhs(iv, x, 1.0, alpha, m, 1.5, 2.5, 2.0),
                        expect, rel_tol=1e-14)


@given(scale=st.floats(0.1, 10), q=st.floats(1, 4), x=st.floats(0, 1),
       alpha=st.floats(0.05, 1), m=st.floats(0.05, 1))
@settings(max_examples=50, deadline=None)
def test_rhs_homogeneous_in_weight_sup(scale, q, x, alpha, m):
    base = trapezoid_rhs(UNIT, x, q, alpha, m, 1.0, 2.0, 1.0)
    scaled = trapezoid_rhs(UNIT, x, q, alpha, m, 1.0, 2.0, scale)
    assert math.isclose(scaled, scale * base, rel_tol=1e-12, abs_tol=1e-300)


def test_rhs_zero_derivatives_give_zero():
    assert trapezoid_rhs(UNIT, 0.3, 2.0, 0.5, 0.5, 0.0, 0.0, 1.0) == 0.0
    assert midpoint_rhs_convex(UNIT, 0.3, 2.0, 0.0, 0.0, 1.0) == 0.0


def test_rhs_param_validation():
    with pytest.raises(InvalidParamsError):
        trapezoid_rhs(UNIT, 0.5, 1.0, 0.5, 0.0, 1.0, 1.0, 1.0)  # m = 0
    with pytest.raises(InvalidParamsError):
        midpoint_rhs(UNIT, 0.5, 1.0, 1.2, 1.0, 1.0, 1.0, 1.0)  # alpha > 1
    with pytest.raises(InvalidCaseError):
        trapezoid_rhs_convex(UNIT, 0.5, 0.8, 1.0, 1.0, 1.0)  # q < 1
    # |f'|**inf is 0 where |f'| < 1, and these forms would return nan
    with pytest.raises(InvalidCaseError, match="q must be finite and >= 1, got inf"):
        trapezoid_rhs(UNIT, 0.5, math.inf, 1.0, 1.0, 0.5, 0.5, 1.0)
    with pytest.raises(InvalidCaseError, match="q must be finite and >= 1, got inf"):
        trapezoid_rhs_convex(UNIT, 0.5, math.inf, 0.5, 0.5, 1.0)


def test_general_forms_match_convex_forms_at_unit_params():
    for x in (0.0, 0.25, 0.5, 0.8, 1.0):
        for q in (1.0, 2.0, 3.0):
            g = trapezoid_rhs(UNIT, x, q, 1.0, 1.0, 1.2, 0.7, 1.5)
            s = trapezoid_rhs_convex(UNIT, x, q, 1.2, 0.7, 1.5)
            assert abs(g - s) <= 1e-13
            g = midpoint_rhs(UNIT, x, q, 1.0, 1.0, 1.2, 0.7, 1.5)
            s = midpoint_rhs_convex(UNIT, x, q, 1.2, 0.7, 1.5)
            assert abs(g - s) <= 1e-13


def test_midsplit_forms_match_general_at_midpoint():
    for alpha in (0.25, 0.5, 1.0):
        for m in (0.5, 1.0):
            for q in (1.0, 1.5, 3.0):
                c = trapezoid_rhs_midsplit(UNIT, q, alpha, m, 0.9, 1.7, 1.1)
                t = trapezoid_rhs(UNIT, 0.5, q, alpha, m, 0.9, 1.7, 1.1)
                assert abs(c - t) <= 1e-13
                c = midpoint_rhs_midsplit(UNIT, q, alpha, m, 0.9, 1.7, 1.1)
                t = midpoint_rhs(UNIT, 0.5, q, alpha, m, 0.9, 1.7, 1.1)
                assert abs(c - t) <= 1e-13


def test_midsplit_frozen_value():
    # alpha = 1/2, m = 1, f = t^2 (so |f'(0)| = 0, |f'(1)| = 2), g = 1, q = 1
    val = trapezoid_rhs_midsplit(UNIT, 1.0, 0.5, 1.0, 0.0, 2.0, 1.0)
    assert abs(val - 0.178104858350254) <= 1e-14
    via_general = trapezoid_rhs(UNIT, 0.5, 1.0, 0.5, 1.0, 0.0, 2.0, 1.0)
    assert abs(val - via_general) <= 1e-15


def test_classical_symmetric_value():
    # (b-a)^2/4 * ((|f'(a)|^q + |f'(b)|^q)/2)^(1/q)
    assert classical_symmetric_rhs(UNIT, 1.0, 0.0, 2.0, 1.0) == 0.25
    assert math.isclose(classical_symmetric_rhs(UNIT, 2.0, 1.0, 1.0, 3.0),
                        0.75, rel_tol=1e-15)


def test_symmetry_detection():
    assert is_symmetric_about_midpoint(parse_function("const:2"), UNIT)
    assert is_symmetric_about_midpoint(parse_function("poly:0:1:-1"), UNIT)
    assert not is_symmetric_about_midpoint(parse_function("monomial:1"), UNIT)
    assert not is_symmetric_about_midpoint(parse_function("sin"), UNIT)
    # pinned from both sides of the 1e-10 tolerance: g rises by d on [0, 1]
    for d, symmetric in ((0.5e-10, True), (2e-10, False)):
        g = parse_function(f"pwlinear:0:1:1:{1.0 + d!r}")
        assert is_symmetric_about_midpoint(g, UNIT) is symmetric


def _case(gspec="const:1", x=0.5, q=1.0, params=ConvexityParams(1.0, 1.0)):
    pair = DifferentiablePair.from_family(parse_function("monomial:2"), DomainSpec(4.0))
    return BoundCase(pair, parse_function(gspec), UNIT, x, q, params, 2.0)


def test_evaluate_bound_dispatch():
    case = _case()
    t21 = evaluate_bound(case, "T21")
    assert math.isclose(t21, trapezoid_rhs(UNIT, 0.5, 1.0, 1.0, 1.0, 0.0, 2.0, 2.0),
                        rel_tol=1e-15)
    c11 = evaluate_bound(case, "C11")
    c12 = evaluate_bound(case, "C12")
    assert c11 == c12  # the two plain corollaries share one right-hand side


def test_evaluate_bound_rejects_off_midpoint():
    with pytest.raises(InvalidCaseError):
        evaluate_bound(_case(x=0.4), "C21")


@pytest.mark.parametrize("offset, at_midpoint", [
    (0.5e-12, True), (-0.5e-12, True), (2e-12, False), (-2e-12, False)])
def test_midpoint_tolerance_is_pinned_from_both_sides(offset, at_midpoint):
    # x counts as the midpoint within 1e-12 of the width of [a, b]
    case = _case(x=0.5 + offset)
    if at_midpoint:
        assert evaluate_bound(case, "C21") == evaluate_bound(_case(), "C21")
    else:
        with pytest.raises(InvalidCaseError):
            evaluate_bound(case, "C21")


def test_evaluate_bound_rejects_asymmetric_weight():
    with pytest.raises(InvalidCaseError):
        evaluate_bound(_case(gspec="sin"), "C21")
    # the point-rule corollary has no symmetry requirement
    evaluate_bound(_case(gspec="sin", q=2.0), "C22")


def test_evaluate_bound_rejects_inadmissible_params():
    with pytest.raises(InvalidParamsError):
        evaluate_bound(_case(params=ConvexityParams(0.0, 1.0)), "T21")
