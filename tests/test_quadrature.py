"""Adaptive oracle, kernel primitives, rule left-hand sides, residuals."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbound import (
    BoundCase,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    HHBoundError,
    Interval,
    Product,
    QuadratureError,
    RealFunction,
    envelope_excess,
    integrate,
    kernel_K,
    lhs_endpoint_at,
    lhs_point_at,
    parse_function,
    residual_endpoint_identity,
    residual_point_identity,
    step_weight,
    step_weight_profile,
    sup_norm,
)
from hhbound.quadrature import (
    _LHS_TOL,
    _RESIDUAL_OUTER_TOL,
    DEFAULT_PANEL_BUDGET,
    _antiderivative_table,
    _integrate_cached,
    _integrate_impl,
    _KernelTimesDeriv,
    _StepTimesDeriv,
)
from recursive_simpson import integrate_recursive

UNIT = Interval(0.0, 1.0)


def test_integrate_exp():
    res = integrate(parse_function("exp"), UNIT)
    assert abs(res.value - (math.e - 1.0)) <= 1e-12
    assert res.error_estimate <= max(1e-10, 1e-10 * abs(res.value))
    assert res.evaluations > 0


def test_integrate_sin():
    res = integrate(parse_function("sin"), UNIT)
    assert abs(res.value - (1.0 - math.cos(1.0))) <= 1e-12


def test_integrate_steep_exponentials():
    # the 3-point start overstates these integrals (50x at k = 300), which
    # accepts panels too loosely; the oracle then reruns against its own
    # value instead of raising QuadratureError, as it did from k = 31 on
    for k in range(1, 301):
        res = integrate(parse_function(f"exp:{k}"), UNIT)
        exact = math.expm1(k) / k
        assert abs(res.value - exact) <= 1e-10 * exact, k
        assert res.error_estimate <= 1e-10 * abs(res.value), k


@given(c=st.tuples(st.floats(-10, 10), st.floats(-10, 10),
                   st.floats(-10, 10), st.floats(-10, 10)),
       a=st.floats(-3, 3), w=st.floats(0.1, 5))
@settings(max_examples=60, deadline=None)
def test_integrate_exact_on_cubics(c, a, w):
    # Simpson panels are exact on cubics, so only rounding noise remains
    fn = RealFunction("poly", c)
    b = a + w
    exact = sum(c[k] * (b ** (k + 1) - a ** (k + 1)) / (k + 1) for k in range(4))
    res = integrate(fn, Interval(a, b))
    assert abs(res.value - exact) <= 1e-12 * (1.0 + abs(exact))


def test_integrate_kinked_weight_regression():
    """Kink coinciding with an early Simpson sample must not be accepted.

    For |t - 3/4| * (1 - t) on [0, 1] the first bisection lands a sample
    exactly on the kink and the two coarse estimates agree by accident; the
    forced minimum depth must push past that.
    """
    class Kinked:
        def __call__(self, t):
            return abs(t - 0.75) * (1.0 - t)

    exact = 0.2135416666666667  # split the integral at 3/4 and sum the pieces
    res = integrate(Kinked(), UNIT, 1e-10, 1e-10)
    assert abs(res.value - exact) <= 1e-9


def test_integrate_memoizes_registry_functions():
    fn = parse_function("poly:0:0:1:5")
    first = integrate(fn, Interval(0.0, 2.0))
    second = integrate(fn, Interval(0.0, 2.0))
    assert first is second


def test_integrate_budget_exhaustion():
    class Noise:
        """Deterministic high-frequency wiggle that never settles."""

        def __call__(self, t):
            return np.sin(1e4 * t) + np.sin(9931.0 * t)

    with pytest.raises(QuadratureError):
        integrate(Noise(), UNIT, 1e-14, 1e-14, max_panels=8)


def test_integrand_error_propagates_from_one_run():
    class FailsOnThirdCall:
        calls = 0

        def __call__(self, t):
            self.calls += 1
            if self.calls == 3:
                raise TypeError("integrand failure")
            return np.sin(1e4 * t)

    fn = FailsOnThirdCall()
    with pytest.raises(TypeError, match="integrand failure"):
        integrate(fn, UNIT, 1e-12, 1e-12)
    assert fn.calls == 3


def test_integrate_unhashable_integrand_is_not_memoized():
    @dataclass(frozen=True)
    class Scaled:
        coef: list

        def __call__(self, t):
            return self.coef[0] * np.exp(t)

    fn = Scaled([2.0])
    first = integrate(fn, UNIT)
    assert first == integrate(fn, UNIT) and first is not integrate(fn, UNIT)
    assert abs(first.value - 2.0 * (math.e - 1.0)) <= 1e-12


class _CountingCalls:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


@pytest.mark.parametrize("spec", ["exp", "sin", "pwlinear:0:0:0.5:1:1:0"])
def test_oracle_samples_forced_depths_in_one_call(spec):
    # every point down to the first acceptance test comes in one array call
    fn = _CountingCalls(parse_function(spec))
    res = integrate(fn, UNIT, 1e-10, 1e-10)
    assert res.evaluations == 129
    assert fn.calls <= 2


def _assert_same_as_recursive(fn, a, b, tol, max_panels=DEFAULT_PANEL_BUDGET):
    try:
        want = integrate_recursive(fn, a, b, tol, tol, max_panels)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as got:
            _integrate_impl(fn, a, b, tol, tol, max_panels)
        assert str(got.value) == str(exc)
        return
    assert _integrate_impl(fn, a, b, tol, tol, max_panels) == want


_SWEEP_FS = ("monomial:2", "monomial:3", "exp")
_SWEEP_GS = ("const:1", "monomial:1", "poly:0:1:-1", "sin")


@pytest.mark.parametrize("fspec", _SWEEP_FS)
@pytest.mark.parametrize("gspec", _SWEEP_GS)
def test_oracle_bit_identical_to_recursion_on_sweep_pairs(fspec, gspec):
    f, g = parse_function(fspec), parse_function(gspec)
    _assert_same_as_recursive(Product(f, g), 0.0, 1.0, _LHS_TOL)
    for x in np.random.default_rng(3).uniform(0.0, 1.0, 6).tolist():
        _assert_same_as_recursive(g, 0.0, x, _LHS_TOL)
        _assert_same_as_recursive(g, x, 1.0, _LHS_TOL)


def test_oracle_bit_identical_to_recursion_on_kinked_weight():
    g = parse_function("pwlinear:0:0:0.5:1:1:0")
    for lo, hi in ((0.0, 1.0), (0.0, 0.3), (0.3, 1.0)):
        _assert_same_as_recursive(g, lo, hi, _LHS_TOL)


@pytest.mark.parametrize("gspec", ["sin", "pwlinear:0:0:0.5:1:1:0"])
def test_oracle_bit_identical_to_recursion_on_residual_integrands(gspec):
    g, fp = parse_function(gspec), RealFunction("cexp", (1.0, 1.0))
    tol = _RESIDUAL_OUTER_TOL
    _assert_same_as_recursive(_KernelTimesDeriv(g, fp, 0.0, 1.0, 0.4), 0.0, 1.0, tol)
    _assert_same_as_recursive(_StepTimesDeriv(g, fp, 0.0, 1.0, True), 0.0, 0.4, tol)
    _assert_same_as_recursive(_StepTimesDeriv(g, fp, 0.0, 1.0, False), 0.4, 1.0, tol)


@pytest.mark.parametrize("ulps", [3, 40, 127, 128])
@pytest.mark.parametrize("max_panels", [8, DEFAULT_PANEL_BUDGET])
def test_oracle_bit_identical_to_recursion_at_float_floor(ulps, max_panels):
    # below ~128 ulps the nested grid repeats points and panels hit the floor
    b = 1.0 + ulps * np.spacing(1.0)
    _assert_same_as_recursive(parse_function("exp"), 1.0, float(b), 1e-10, max_panels)


@pytest.mark.parametrize("max_panels", [8, 30, 31])
def test_oracle_bit_identical_to_recursion_on_small_budgets(max_panels):
    # 31 splits take every panel down to the first acceptance test
    _assert_same_as_recursive(parse_function("exp"), 0.0, 1.0, 1e-10, max_panels)


def test_product_wraps_pair():
    p = Product(parse_function("monomial:2"), parse_function("const:3"))
    assert p(2.0) == 12.0
    res = integrate(p, UNIT)
    assert abs(res.value - 1.0) <= 1e-12


def test_sup_norm_const_and_affine():
    assert sup_norm(parse_function("const:-2"), UNIT) == 2.0
    assert sup_norm(parse_function("affine:1:2"), UNIT) == 3.0


def test_sup_norm_interior_peak():
    # the crest of sin is inside the interval; sup_norm evaluates sin there
    iv = Interval(0.0, math.pi)
    assert sup_norm(parse_function("sin"), iv) == 1.0


@given(x=st.floats(0, 1), t=st.floats(0, 1))
@settings(max_examples=40, deadline=None)
def test_kernel_antisymmetry(x, t):
    g = parse_function("poly:0:1:-1")
    assert kernel_K(g, UNIT, x, t) == -kernel_K(g, UNIT, t, x)


def test_kernel_known_value():
    g = parse_function("const:1")
    assert abs(kernel_K(g, UNIT, 0.25, 0.75) - 0.5) <= 1e-12
    assert kernel_K(g, UNIT, 0.5, 0.5) == 0.0


def test_kernel_rejects_outside_points():
    with pytest.raises(HHBoundError):
        kernel_K(parse_function("const:1"), UNIT, -0.1, 0.5)


def test_step_weight_branches():
    g = parse_function("const:2")
    sg, s = step_weight(g, UNIT, 0.5, 0.25)
    assert abs(sg - 0.5) <= 1e-12 and s == 0.25
    sg, s = step_weight(g, UNIT, 0.5, 0.75)
    assert abs(sg + 0.5) <= 1e-12 and s == 0.25
    # t exactly at the jump uses the right branch
    sg, s = step_weight(g, UNIT, 0.5, 0.5)
    assert abs(sg + 1.0) <= 1e-12 and s == 0.5


@pytest.mark.parametrize("gspec", ["sin", "pwlinear:0:0:0.5:1:1:0"])
def test_step_weight_profile_matches_pointwise(gspec):
    g = parse_function(gspec)
    ts, sg, s = step_weight_profile(g, UNIT, 0.3, 41)
    for t, v in zip(ts, sg):
        ref, _ = step_weight(g, UNIT, 0.3, float(t))
        assert abs(v - ref) <= 1e-10


@pytest.mark.parametrize("gspec", ["const:1", "sin", "poly:0:1:-1",
                                   "pwlinear:0:0:0.5:1:1:0"])
def test_envelope_never_exceeded(gspec):
    assert envelope_excess(parse_function(gspec), UNIT, 0.3) <= 1e-10


def _pwlinear_dip_integral(a, t):
    # g = 1 - s/2 on [0, 2] and (s - 2)/2 on [2, 4], integrated over [a, t]
    def prim(u):
        return u - u * u / 4.0 if u <= 2.0 else 1.0 + (u - 2.0) ** 2 / 4.0
    return prim(t) - prim(a)


@pytest.mark.parametrize("a, b", [(0.0, 4.0), (0.5, 3.0)])
def test_antiderivative_table_exact_for_pwlinear(a, b):
    # on [0, 4] knot 2 is a uniform node; on [0.5, 3] it falls between nodes
    # and knots 0 and 4 lie outside the interval
    table = _antiderivative_table(parse_function("pwlinear:0:1:2:0:4:1"), a, b)
    ts = np.random.default_rng(0).uniform(a, b, 1000)
    exact = np.array([_pwlinear_dip_integral(a, t) for t in ts])
    assert np.max(np.abs(table.values(ts) - exact)) <= 1e-14


@pytest.mark.parametrize("gspec", ["sin", "pwlinear:0:1:2:0:4:1"])
def test_antiderivative_table_single_lookup_matches_array(gspec):
    # the residuals read W(x) and W(b) one point at a time
    table = _antiderivative_table(parse_function(gspec), 0.5, 3.0)
    ts = np.random.default_rng(1).uniform(0.5, 3.0, 1000)
    want = table.values(ts).tolist()
    assert [float(table.values(np.array([t]))[0]) for t in ts] == want
    assert [float(table.values(t)) for t in ts.tolist()] == want


def test_memo_caches_are_bounded():
    for cache in (_integrate_cached, _antiderivative_table):
        assert cache.cache_info().maxsize is not None


def test_lhs_known_values():
    f, g = parse_function("monomial:2"), parse_function("const:1")
    assert abs(lhs_endpoint_at(f, g, UNIT, 0.5)[0] - 1.0 / 6.0) <= 1e-9
    assert abs(lhs_point_at(f, g, UNIT, 0.5)[0] - 1.0 / 12.0) <= 1e-9


def test_lhs_endpoint_at_a():
    # at x = a the rule is f(b) * integral(g) against integral(fg)
    f, g = parse_function("monomial:2"), parse_function("const:1")
    assert abs(lhs_endpoint_at(f, g, UNIT, 0.0)[0] - 2.0 / 3.0) <= 1e-9


def _case(fspec, gspec, x):
    f = parse_function(fspec)
    g = gspec if isinstance(gspec, RealFunction) else parse_function(gspec)
    pair = DifferentiablePair.from_family(f, DomainSpec(4.0))
    g_sup = sup_norm(g, UNIT) * (1.0 + 1e-6)
    return BoundCase(pair, g, UNIT, x, 1.0, ConvexityParams(1.0, 1.0), g_sup)


@pytest.mark.parametrize("fspec", ["monomial:2", "monomial:3", "exp", "affine:1:0.5"])
@pytest.mark.parametrize("gspec", ["const:1", "monomial:1", "sin"])
def test_identity_residuals_smooth(fspec, gspec):
    for x in (0.0, 0.3, 0.5, 1.0):
        case = _case(fspec, gspec, x)
        assert residual_endpoint_identity(case) <= 1e-7
        assert residual_point_identity(case) <= 1e-7


def test_identity_residuals_nonsmooth_weight():
    # a knot of the piecewise-linear weight lies inside the interval
    case = _case("monomial:2", "pwlinear:0:0:0.5:1:1:0", 0.4)
    assert residual_endpoint_identity(case) <= 1e-7
    assert residual_point_identity(case) <= 1e-7


@pytest.mark.parametrize("x", [0.0, 0.3, 0.6, 1.0])
def test_identity_residuals_step_weight(x):
    # the weight jumps at 0.3, so the table's one-sided slopes must differ there
    g = RealFunction("pwconst", (0.0, 0.3, 1.0, 1.0, 2.0))
    case = _case("exp", g, x)
    assert residual_endpoint_identity(case) <= 1e-9
    assert residual_point_identity(case) <= 1e-9
    assert envelope_excess(g, UNIT, x) <= 1e-10
