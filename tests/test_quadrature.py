"""Adaptive oracle, kernel primitives, rule left-hand sides, residuals."""

import math
import re
import warnings
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction

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
    IntegralResult,
    Interval,
    InvalidCaseError,
    InvalidIntervalError,
    InvalidParamsError,
    Product,
    QuadratureError,
    RealFunction,
    derivative,
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
from hhbound import quadrature
from hhbound.quadrature import (
    _LHS_TOL,
    _RESIDUAL_OUTER_TOL,
    _TABLE_NODES,
    DEFAULT_PANEL_BUDGET,
    _AntiderivativeTable,
    _antiderivative_table,
    _integrate_batch,
    _integrate_cached,
    _KernelTimesDeriv,
    _lhs_block,
    _nested_grids,
)
from recursive_simpson import integrate_recursive, nested_grid

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
    res = integrate(Kinked(), UNIT, 1e-10)
    assert abs(res.value - exact) <= 1e-9


def test_integrate_memoizes_registry_functions():
    # the memo holds the triple, so a hit returns an equal, new IntegralResult
    fn = _CountingCalls(parse_function("poly:0:0:1:5"))
    first = integrate(fn, Interval(0.0, 2.0))
    calls, hits = fn.calls, _integrate_cached.cache_info().hits
    second = integrate(fn, Interval(0.0, 2.0))
    assert _integrate_cached.cache_info().hits == hits + 1
    assert fn.calls == calls
    assert second == first


def test_integrate_rejects_an_interval_wider_than_the_float_range():
    # both ends are finite but b - a overflows: the panel widths and the
    # grid's midpoint sums would overflow, and the result read inf with a
    # zero error estimate, after numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(InvalidIntervalError, match="width b - a must be finite"):
            integrate(parse_function("const:1"), Interval(-9e307, 9e307))


def test_integrate_budget_exhaustion(monkeypatch):
    class Noise:
        """Deterministic high-frequency wiggle that never settles."""

        def __call__(self, t):
            return np.sin(1e4 * t) + np.sin(9931.0 * t)

    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 64)
    with pytest.raises(QuadratureError):
        _integrate_batch(Noise(), [(0.0, 1.0)], 1e-14)


def test_a_non_finite_integrand_fails_at_its_first_call():
    # exp overflows from t = 709.78 on: the oracle used to run out its whole
    # split budget (0.66 s, 280 MB) and report no convergence
    fn = _CountingCalls(parse_function("exp"))
    with pytest.raises(QuadratureError,
                       match=r"^integrand is not finite at t=710\.15625$"):
        integrate(fn, Interval(700.0, 800.0))
    assert fn.calls == 1


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
        integrate(fn, UNIT, 1e-12)
    assert fn.calls == 3


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf, -math.inf])
def test_integrate_rejects_tolerance_before_sampling(tol):
    # a NaN or negative tol used to run out the split budget (about 1 s and
    # 300 MB on exp over [0, 1]) and an infinite one returned unchecked
    def untouched(t):
        raise AssertionError("integrand called")

    with pytest.raises(InvalidParamsError, match="tol must be finite and positive"):
        integrate(untouched, UNIT, tol)


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
        self.points = 0

    def __call__(self, t):
        self.calls += 1
        self.points += np.size(t)
        return self.fn(t)

    @property
    def knots(self):
        return self.fn.knots


def test_a_rerun_integral_counts_every_point_it_evaluated():
    # exp(300 t) on [0, 1] runs its levels twice (test_integrate_steep_exponentials);
    # the points of the rerun add to those of the first run
    fn = _CountingCalls(parse_function("exp:300"))
    res = integrate(fn, UNIT)
    assert res.evaluations == fn.points


@pytest.mark.parametrize("spec, pieces", [
    pytest.param(spec, pieces, id=spec)
    for spec, pieces in (("exp", 1), ("sin", 1), ("pwlinear:0:0:0.5:1:1:0", 2))])
def test_oracle_samples_forced_depths_in_one_call(spec, pieces):
    # every point down to the first acceptance test comes in one array call,
    # for each piece between the knots of the integrand
    fn = _CountingCalls(parse_function(spec))
    res = integrate(fn, UNIT, 1e-10)
    assert res.evaluations == 129 * pieces
    assert fn.calls <= 2


def _assert_same_as_recursive(fn, a, b, tol):
    budget = quadrature.DEFAULT_PANEL_BUDGET
    try:
        want = integrate_recursive(fn, a, b, tol, tol, budget)
    except QuadratureError as exc:
        with pytest.raises(QuadratureError) as got:
            _integrate_batch(fn, [(a, b)], tol)
        assert str(got.value) == str(exc)
        return
    assert _integrate_batch(fn, [(a, b)], tol) == [want]


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
    _assert_same_as_recursive(_KernelTimesDeriv(g, fp, 0.0, 1.0, 0.0), 0.0, 0.4, tol)
    _assert_same_as_recursive(_KernelTimesDeriv(g, fp, 0.0, 1.0, 1.0), 0.4, 1.0, tol)


@pytest.mark.parametrize("ulps", [3, 40, 127, 128])
@pytest.mark.parametrize("max_panels", [DEFAULT_PANEL_BUDGET])
def test_oracle_bit_identical_to_recursion_at_float_floor(ulps, max_panels):
    # below ~128 ulps the nested grid repeats points and panels hit the floor
    b = 1.0 + ulps * np.spacing(1.0)
    _assert_same_as_recursive(parse_function("exp"), 1.0, float(b), 1e-10)


@pytest.mark.parametrize("max_panels", [31])
def test_oracle_bit_identical_to_recursion_on_small_budgets(max_panels, monkeypatch):
    # 31 splits take every panel down to the first acceptance test
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", max_panels)
    _assert_same_as_recursive(parse_function("exp"), 0.0, 1.0, 1e-10)


def test_a_budget_of_exactly_the_splits_an_integral_makes_suffices(monkeypatch):
    # exp(8 t) on [0, 1] makes 161 splits, the 31 forced ones included, and
    # 4 evaluations for each split past those
    fn = parse_function("exp:8")
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 161)
    ((_, _, evals),) = _integrate_batch(fn, [(0.0, 1.0)], _LHS_TOL)
    assert evals == 129 + 4 * (161 - 31)
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 160)
    with pytest.raises(QuadratureError, match=r"^no convergence on \[0.0, 1.0\] after 160 "):
        _integrate_batch(fn, [(0.0, 1.0)], _LHS_TOL)


def _exact_integral(spec, lo, hi):
    """The integral of exp, exp:300, sin, const:1 or pwlinear:0:0:0.5:1:1:0
    over [lo, hi], a piece of [0, 1] or of [1, 2] that does not cross 0.5,
    to well under an ulp."""
    if spec in ("const:1", "pwlinear:0:0:0.5:1:1:0"):
        lo, hi = Fraction(lo), Fraction(hi)
        if spec == "const:1":
            return float(hi - lo)
        return float((hi - lo) * (lo + hi if hi <= 0.5 else 2 - lo - hi))
    with localcontext(Context(prec=40)):
        lo, hi = Decimal(lo), Decimal(hi)
        if spec == "exp":
            return float(hi.exp() - lo.exp())
        if spec == "exp:300":
            return float(((300 * hi).exp() - (300 * lo).exp()) / 300)

        def sin(x):
            term, total, k = x, x, 1
            while abs(term) > Decimal("1e-45"):
                term *= -x * x / ((2 * k) * (2 * k + 1))
                total += term
                k += 1
            return total

        # cos(lo) - cos(hi) = 2 sin((lo + hi) / 2) sin((hi - lo) / 2)
        return float(2 * sin((lo + hi) / 2) * sin((hi - lo) / 2))


@pytest.mark.parametrize("spec, anchors", [
    *(pytest.param(spec, (0.001, 0.3, 0.5), id=spec) for spec in
      ("exp", "sin", "const:1", "pwlinear:0:0:0.5:1:1:0")),
    # integrals far above the absolute tolerance: a floor panel's error
    # of |s| kept these from converging
    pytest.param("exp:300", (0.5, 1.0), id="exp:300"),
])
def test_oracle_error_estimate_covers_the_error_at_float_floor(spec, anchors):
    # panels at the floor are accepted with their Simpson estimate s and
    # error (hi - lo) * (spread of their values) + 4 ulps of s; every
    # interval converges, and the summed estimate, plus the rounding of a
    # few ulps, covers the distance to the exact integral
    fn = parse_function(spec)
    for at in anchors:
        for ulps in (1, 2, 3, 17, 40, 127, 128, 129, 300):
            hi = float(at + ulps * np.spacing(at))
            ((value, err, _),) = _integrate_batch(fn, [(at, hi)], _LHS_TOL)
            exact = _exact_integral(spec, at, hi)
            assert abs(value - exact) <= err + 4 * np.spacing(exact), (at, ulps)


def _grid_ranges(n):
    """n ranges, lo < hi: ends near +-1e308 that no midpoint sum overflows,
    subnormal widths, widths of one ulp, repeats, and seeded unit ones."""
    tiny = 5e-324
    special = [(-8.9e307, 8.9e307), (8.9e307, 8.98e307), (-8.98e307, -8.9e307),
               (0.0, 7 * tiny), (tiny, 20 * tiny), (-1e-310, -9.99e-311),
               (1.0, float(np.nextafter(1.0, 2.0))), (0.25, 0.5), (0.25, 0.5)]
    rng = np.random.default_rng(11)
    ends = np.sort(rng.uniform(-3.0, 3.0, (max(n, 1), 2)), axis=1).tolist()
    return (special + [tuple(e) for e in ends])[:n]


@pytest.mark.parametrize("n", [1, 2, 3, 128])
def test_nested_grids_are_the_recursive_midpoints_bit_for_bit(n):
    ranges = _grid_ranges(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = _nested_grids(ranges)
    assert grid.shape == (129, n)
    want = np.array([nested_grid(lo, hi) for lo, hi in ranges]).T
    assert grid.tobytes() == want.tobytes()


def test_a_start_grid_not_finite_names_its_first_point_interval_by_interval():
    # the first integrand call holds every start grid; the point named is
    # the first not finite in the order of the intervals and, within one,
    # of its points: 0.75 here, although 2.0, the low end of the second
    # interval, comes before it point by point
    def fn(t):
        return np.where((t >= 0.75) & (t <= 1.0) | (t >= 2.0), np.inf, t)

    ranges = [(0.0, 1.0), (2.0, 3.0)]
    first = next(t for lo, hi in ranges for t in nested_grid(lo, hi)
                 if not np.isfinite(fn(t)))
    assert first == 0.75
    with pytest.raises(QuadratureError, match=r"^integrand is not finite at t=0.75$"):
        _integrate_batch(fn, ranges, _LHS_TOL)


def test_memo_drops_its_oldest_result_past_maxsize():
    memo = quadrature._ResultMemo(maxsize=3)
    exp, sin = parse_function("exp"), parse_function("sin")
    memo.results(exp, [(0.0, 1.0), (0.0, 0.5)], _LHS_TOL)
    memo.results(sin, [(0.0, 1.0)], _LHS_TOL)
    assert memo.cache_info() == (0, 3, 3, 3)
    # a fourth result pushes out the first stored, exp over [0, 1]
    memo.results(sin, [(0.0, 0.5)], _LHS_TOL)
    assert memo.cache_info() == (0, 4, 3, 3)
    memo.results(exp, [(0.0, 0.5), (0.0, 1.0)], _LHS_TOL)
    assert memo.cache_info() == (1, 5, 3, 3)
    # three results past, each stored alone, every earlier table is gone
    memo.results(exp, [(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)], _LHS_TOL)
    assert memo.cache_info().currsize == 3 and len(memo._tables) == 1
    memo.cache_clear()
    assert memo.cache_info() == (0, 0, 3, 0) and not memo._tables


def _floor_ranges(at):
    # below ~128 ulps the nested grid repeats points and panels hit the floor
    return [(at, float(at + k * np.spacing(at))) for k in (3, 40, 127, 128)]


def _batches():
    """(integrand, ranges): the sweep pairs' lhs integrals at 64 seeded x,
    the kinked weight's pieces, and float-floor intervals beside them."""
    xs = np.random.default_rng(5).uniform(0.0, 1.0, 64).tolist()
    for gspec in _SWEEP_GS:
        yield parse_function(gspec), [*((0.0, x) for x in xs),
                                      *((x, 1.0) for x in xs), (0.0, 1.0),
                                      *_floor_ranges(1.0)]
    for fspec in _SWEEP_FS:
        for gspec in _SWEEP_GS:
            yield (Product(parse_function(fspec), parse_function(gspec)),
                   [(0.0, 1.0), *_floor_ranges(1.0)])
    yield (parse_function("pwlinear:0:0:0.5:1:1:0"),
           [(0.0, 1.0), (0.0, 0.3), (0.3, 1.0), (0.0, 0.5), (0.5, 1.0),
            *_floor_ranges(0.5)])
    # integrals of 0.001 to 13 in one batch: each has its own tolerance
    yield (parse_function("exp:4"),
           [(0.0, 0.001), (0.0, 1.0), (0.25, 1.0), (0.999, 1.0)])


@pytest.mark.parametrize("max_panels", [31, DEFAULT_PANEL_BUDGET])
def test_batch_gives_each_interval_its_result_alone(max_panels, monkeypatch):
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", max_panels)
    for fn, ranges in _batches():
        alone = {}
        for r in ranges:
            # the recursion's result or error, and the batch of one's
            try:
                alone[r] = integrate_recursive(fn, *r, _LHS_TOL, _LHS_TOL, max_panels)
                assert _integrate_batch(fn, [r], _LHS_TOL) == [alone[r]]
            except QuadratureError as exc:
                alone[r] = str(exc)
                with pytest.raises(QuadratureError) as got:
                    _integrate_batch(fn, [r], _LHS_TOL)
                assert str(got.value) == alone[r]
        converged = [r for r in ranges if not isinstance(alone[r], str)]
        if converged:
            got = _integrate_batch(fn, converged, _LHS_TOL)
            assert got == [alone[r] for r in converged]
        failed = {alone[r] for r in ranges if isinstance(alone[r], str)}
        if failed:
            with pytest.raises(QuadratureError) as exc:
                _integrate_batch(fn, ranges, _LHS_TOL)
            assert str(exc.value) in failed


def test_batch_reruns_only_the_intervals_that_need_it():
    # the 3-point start overstates exp(300 t) on [0, 1], [0.5, 1] and
    # [0, 0.5], which rerun against their values; the other two do not
    fn = parse_function("exp:300")
    ranges = [(0.0, 0.01), (0.0, 1.0), (0.99, 1.0), (0.5, 1.0), (0.0, 0.5)]
    alone = [_integrate_batch(fn, [r], 1e-10)[0] for r in ranges]
    assert _integrate_batch(fn, ranges, 1e-10) == alone


def test_a_batch_beside_float_floor_intervals_starts_every_interval_at_min_depth():
    # however narrow an interval is, the batch's first call takes its whole
    # nested grid, and each result, evaluation count included, is its own
    exp = parse_function("exp")
    ranges = [(0.0, 1.0), (0.25, 0.5), *_floor_ranges(1.0), (2.0, 3.0)]
    calls = []

    def fn(t):
        calls.append(np.array(t))
        return exp(t)

    got = _integrate_batch(fn, ranges, _LHS_TOL)
    assert len(calls[0]) == 129 * len(ranges)
    assert got == [_integrate_batch(exp, [r], _LHS_TOL)[0] for r in ranges]


def test_a_rerun_beside_a_float_floor_interval_counts_only_its_own_points():
    # exp(300 t) on [0, 1] reruns from its starting panels: beside a
    # float-floor interval too, its result and count are those alone
    fn = _CountingCalls(parse_function("exp:300"))
    ranges = [(0.0, 1.0), _floor_ranges(0.001)[1]]
    got = _integrate_batch(fn, ranges, 1e-10)
    assert got == [_integrate_batch(fn.fn, [r], 1e-10)[0] for r in ranges]
    assert sum(evals for _, _, evals in got) == fn.points


def test_batch_error_names_the_interval_that_fails(monkeypatch):
    wave = RealFunction("sin", (1e4,))
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 64)
    with pytest.raises(QuadratureError,
                       match=r"^no convergence on \[0.0, 1.0\] after 64 panel splits$"):
        _integrate_batch(wave, [(0.0, 1e-5), (0.5, 0.50001), (0.0, 1.0)], 1e-10)
    # exp(300 t) on [0, 1] takes 225 splits, then 548 in its rerun against
    # its value, so a budget of 300 fails it in the rerun only; the
    # intervals beside it converge in their first run
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 300)
    with pytest.raises(QuadratureError,
                       match=r"^no convergence on \[0.0, 1.0\] after 300 panel splits$"):
        _integrate_batch(parse_function("exp:300"), [(0.0, 0.01), (0.0, 1.0), (0.99, 1.0)],
                         1e-10)
    # three ulps at 2**40 span 7e-4, over which sin(1e4 t) turns through 7
    # radians: the float-floor panels cannot resolve it, and their error
    # estimate, width times the spread of the values, says so
    big = 2.0 ** 40
    top = float(big + 3 * np.spacing(big))
    narrow = [(at, float(at + 3 * np.spacing(at))) for at in (1.0, 2.0)]
    with pytest.raises(QuadratureError,
                       match=rf"^error estimate \S+ above requested tolerance on "
                             rf"\[{big}, {top}\]$"):
        _integrate_batch(wave, [narrow[0], (big, top), narrow[1]], 1e-10)
    # of two intervals that fail, the first in the batch is named, whether
    # both exhaust the budget in the same level of the rerun (exp(300 t) on
    # [1, 2] takes 225 and 548 splits too) or of the first run, or both end
    # above their tolerance
    floor = [(at, float(at + 3 * np.spacing(at))) for at in (big, 2.0 * big)]
    for fn, pair, budget, cause in (
            (parse_function("exp:300"), [(0.0, 1.0), (1.0, 2.0)], 300, "no convergence on"),
            (wave, [(0.0, 1.0), (1.0, 2.0)], 64, "no convergence on"),
            (wave, floor, 64, r"error estimate \S+ above requested tolerance on")):
        monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", budget)
        for one, other in (pair, pair[::-1]):
            with pytest.raises(QuadratureError,
                               match=rf"^{cause} {re.escape(f'[{one[0]}, {one[1]}]')}"):
                _integrate_batch(fn, [(0.0, 1e-5), one, other], 1e-10)


def test_an_error_estimate_that_is_nan_is_never_accepted():
    # [-1e308, 1e308] is wider than the largest float: its grid points
    # overflow, and the float-floor estimate of its panels is inf * 0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(QuadratureError,
                           match=r"^error estimate nan above requested tolerance"):
            _integrate_batch(parse_function("const:1"), [(-1e308, 1e308)], _LHS_TOL)


def test_batch_calls_its_integrand_once_per_level():
    g = Product(parse_function("exp"), parse_function("sin"))
    xs = np.random.default_rng(6).uniform(0.0, 1.0, 64).tolist()
    deepest = 0
    for x in xs:
        alone = _CountingCalls(g)
        _integrate_batch(alone, [(0.0, x)], _LHS_TOL)
        deepest = max(deepest, alone.calls)
    batch = _CountingCalls(g)
    _integrate_batch(batch, [(0.0, x) for x in xs], _LHS_TOL)
    assert batch.calls <= deepest + 1


@pytest.mark.parametrize("gspec", ["sin", "pwlinear:0:1:0.3:2:0.7:0.5:1:1"])
def test_lhs_block_equals_lhs_at_each_x(gspec):
    # the knots 0.3 and 0.7 split the ranges [a, x] and [x, b] of some x
    f, g = parse_function("exp"), parse_function(gspec)
    xs = [0.0, *np.random.default_rng(7).uniform(0.0, 1.0, 30).tolist(),
          0.3, 0.7, 1.0]
    for endpoint_rule, lhs_at in ((True, lhs_endpoint_at), (False, lhs_point_at)):
        _integrate_cached.cache_clear()
        block = _lhs_block(endpoint_rule, f, g, UNIT, xs)
        want = []
        for x in xs:
            _integrate_cached.cache_clear()
            want.append(lhs_at(f, g, UNIT, x))
        assert list(zip(block[0].tolist(), block[1].tolist())) == want


def test_lhs_block_builds_no_integral_result(monkeypatch):
    # the oracle's triples reach the lhs columns as they are, so a block of
    # 64 x builds no result object; each column is bit-equal to the public
    # function's at that x
    built = []
    init = IntegralResult.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(IntegralResult, "__init__", counted)
    f, g = parse_function("exp"), parse_function("sin")
    xs = np.random.default_rng(8).uniform(0.0, 1.0, 64).tolist()
    for endpoint_rule, lhs_at in ((True, lhs_endpoint_at), (False, lhs_point_at)):
        _integrate_cached.cache_clear()
        lhs, err, _ = _lhs_block(endpoint_rule, f, g, UNIT, xs)
        assert built == []
        for x, got in zip(xs, zip(lhs.tolist(), err.tolist())):
            _integrate_cached.cache_clear()
            assert np.array(got).tobytes() == np.array(lhs_at(f, g, UNIT, x)).tobytes()


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


def test_kernel_tolerance_buys_its_accuracy():
    # the oracle's Boole correction is exact up to quintics, so t**6 shows
    # the accuracy of kernel_K's request: at 1e-12 its integral over [0, 1]
    # is 1.9e-15 off 1/7 relative, at 1e-11 it is 8.0e-14 off
    g = parse_function("monomial:6")
    assert abs(kernel_K(g, UNIT, 0.0, 1.0) - 1.0 / 7.0) <= 1e-14 / 7.0


def test_kernel_rejects_outside_points():
    with pytest.raises(HHBoundError):
        kernel_K(parse_function("const:1"), UNIT, -0.1, 0.5)


@pytest.mark.parametrize("x, t", [(-0.1, 0.5), (0.5, 1.5), (math.nan, 0.5),
                                  (0.5, math.nan), (5.0, 5.0)])
@pytest.mark.parametrize("fn", [kernel_K, step_weight])
def test_kernel_and_step_weight_reject_points_off_the_interval(fn, x, t):
    # the error of every other public function given a point off [a, b]
    with pytest.raises(InvalidCaseError, match="outside"):
        fn(parse_function("const:1"), UNIT, x, t)


@pytest.mark.parametrize("fn", [kernel_K, step_weight])
def test_a_rejected_t_is_named_t(fn):
    # x = 0.5 is fine; the message names the point that is not
    with pytest.raises(InvalidCaseError, match=r"^t=1.5 outside \[0.0, 1.0\]$"):
        fn(parse_function("const:1"), UNIT, 0.5, 1.5)
    with pytest.raises(InvalidCaseError, match=r"^x=-0.5 outside \[0.0, 1.0\]$"):
        fn(parse_function("const:1"), UNIT, -0.5, 0.5)


def test_step_weight_branches():
    g = parse_function("const:2")
    sg, s = step_weight(g, UNIT, 0.5, 0.25)
    assert abs(sg - 0.5) <= 1e-12 and s == 0.25
    sg, s = step_weight(g, UNIT, 0.5, 0.75)
    assert abs(sg + 0.5) <= 1e-12 and s == 0.25
    # t exactly at the jump uses the right branch
    sg, s = step_weight(g, UNIT, 0.5, 0.5)
    assert abs(sg + 1.0) <= 1e-12 and s == 0.5


@pytest.mark.parametrize("iv", [UNIT, Interval(-1.0, 2.5)])
@pytest.mark.parametrize("gspec", ["const:2", "poly:0:1:-1", "pwlinear:-1:0:0.5:1:2.5:0"])
def test_step_weight_is_the_kernel_anchored_at_an_endpoint(gspec, iv):
    g = parse_function(gspec)
    a, b = iv.a, iv.b
    for x in (a, 0.7 * a + 0.3 * b, b):
        for t in (a, 0.8 * a + 0.2 * b, 0.7 * a + 0.3 * b, iv.midpoint, b):
            sg, s = step_weight(g, iv, x, t)
            k, e = ((kernel_K(g, iv, a, t), t - a) if t < x
                    else (-kernel_K(g, iv, t, b), b - t))
            assert (sg, s) == (k, e)
            assert math.copysign(1.0, sg) == math.copysign(1.0, k)
    # the right branch at t = b is minus an empty integral
    assert math.copysign(1.0, step_weight(g, iv, iv.midpoint, b)[0]) == -1.0


# a spike of height 1e5 and width 1e-5 falls between the oracle's samples of
# [0, 1]: unsplit, the lhs integrals of g and the kernel primitives came back
# as 0.001 with estimate 0
MOVED_SPIKE = ("pwlinear:0:0.001:0.50003:0.001:0.500035:100000:0.50004:0.001"
               ":1:0.001")


def _piecewise_exact(fn, knots, lo, hi):
    # Gauss-Legendre with 3 nodes is exact for a cubic such as t**2 * g(t) on
    # each piece between the knots of a piecewise-linear g
    gt, gw = np.polynomial.legendre.leggauss(3)
    edges = [lo, *(k for k in knots if lo < k < hi), hi]
    total = 0.0
    for p, r in zip(edges[:-1], edges[1:]):
        total += 0.5 * (r - p) * float(fn(0.5 * (p + r) + 0.5 * (r - p) * gt) @ gw)
    return total


def test_kernel_primitives_see_a_spike_between_samples():
    g = parse_function(MOVED_SPIKE)
    exact = _piecewise_exact(g, g.knots, 0.0, 1.0)
    assert abs(kernel_K(g, UNIT, 0.0, 1.0) - exact) <= 1e-9
    assert step_weight(g, UNIT, 0.0, 0.0)[0] == -kernel_K(g, UNIT, 0.0, 1.0)


@pytest.mark.parametrize("gspec", ["sin", "pwlinear:0:0:0.5:1:1:0", MOVED_SPIKE])
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


@pytest.mark.parametrize("x", [-0.5, 5.0, math.nan, math.inf])
def test_step_weight_profile_rejects_split_point_off_interval(x):
    # envelope_excess(const:1, [0, 1], 5.0) and x = nan returned 0.0
    g = parse_function("const:1")
    with pytest.raises(InvalidCaseError, match="outside"):
        step_weight_profile(g, UNIT, x)
    with pytest.raises(InvalidCaseError, match="outside"):
        envelope_excess(g, UNIT, x)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_step_weight_profile_rejects_fewer_than_two_points(n):
    g = parse_function("const:1")
    with pytest.raises(InvalidParamsError, match="n >= 2"):
        step_weight_profile(g, UNIT, 0.5, n)
    with pytest.raises(InvalidParamsError, match="n >= 2"):
        envelope_excess(g, UNIT, 0.5, n)


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


@pytest.mark.parametrize("gspec, a, b", [
    ("pwlinear:0:0:0.5:1:1:0", 0.0, 1.0),   # knot 0.5 is a grid node
    ("pwlinear:0:1:2:0:4:1", 0.5, 3.0),     # knot 2 falls between nodes
    ("pwlinear:-1:0:0:1:1:0", -1.0, 1.0),   # across 0, knot 0 on the grid
    ("pwlinear:-1:0:0:1:1:0", -0.7, 0.3),   # across 0, knot 0 off the grid
    ("sin", 0.0, 1.0),
    ("poly:0:1:-1", 0.0, 1.0),
])
def test_antiderivative_table_bit_identical_to_union1d_nodes(gspec, a, b):
    g = parse_function(gspec)
    nodes = np.union1d(np.linspace(a, b, _TABLE_NODES),
                       [k for k in g.knots if a < k < b])
    want = _AntiderivativeTable(g, nodes)
    got = _antiderivative_table(g, a, b)
    assert np.array_equal(got._lo, want._lo)
    assert np.array_equal(got._h, want._h)
    assert all(np.array_equal(c, w) for c, w in zip(got._coef, want._coef, strict=True))


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


def test_lhs_sees_a_spike_between_samples():
    f, g = parse_function("monomial:2"), parse_function(MOVED_SPIKE)
    x = 0.25
    whole_g = _piecewise_exact(g, g.knots, 0.0, 1.0)
    whole_fg = _piecewise_exact(Product(f, g), g.knots, 0.0, 1.0)
    endpoint = abs(f(0.0) * _piecewise_exact(g, g.knots, 0.0, x)
                   + f(1.0) * _piecewise_exact(g, g.knots, x, 1.0) - whole_fg)
    point = abs(f(x) * whole_g - whole_fg)
    assert abs(lhs_endpoint_at(f, g, UNIT, x)[0] - endpoint) <= 1e-9
    assert abs(lhs_point_at(f, g, UNIT, x)[0] - point) <= 1e-9


def test_endpoint_lhs_error_and_magnitude_sum_the_weighted_integrals():
    # error |f(a)| err I_g[a, x] + |f(b)| err I_g[x, b] + err I_fg, and
    # magnitude |f(a)| |I_g[a, x]| + |f(b)| |I_g[x, b]| + |I_fg|, each integral
    # alone through integrate; every estimate is nonzero here
    f, g = parse_function("exp"), parse_function("sin")
    x = 0.3
    left, right, whole = (integrate(fn, iv, _LHS_TOL)
                          for fn, iv in ((g, Interval(0.0, x)), (g, Interval(x, 1.0)),
                                         (Product(f, g), UNIT)))
    assert min(r.error_estimate for r in (left, right, whole)) > 0.0
    fa, fb = abs(f(0.0)), abs(f(1.0))
    err = fa * left.error_estimate + fb * right.error_estimate + whole.error_estimate
    size = fa * abs(left.value) + fb * abs(right.value) + abs(whole.value)
    assert lhs_endpoint_at(f, g, UNIT, x)[1] == err
    assert [c.tolist() for c in _lhs_block(True, f, g, UNIT, (x,))[1:]] == [[err], [size]]


@pytest.mark.parametrize("x", [-0.5, 1.5, math.nan, math.inf])
def test_endpoint_lhs_rejects_a_split_point_off_the_interval(x):
    # the error lhs_point_at, kernel_K and step_weight give, not the one of
    # cutting [a, b] at x
    f, g = parse_function("monomial:2"), parse_function("const:1")
    with pytest.raises(InvalidCaseError, match="outside"):
        lhs_endpoint_at(f, g, UNIT, x)


@pytest.mark.parametrize("x", [-0.5, 1.5, 5.0, math.nan, math.inf])
def test_point_lhs_rejects_a_split_point_off_the_interval(x):
    # the point rule never cuts [a, b] at x, so nothing else would catch it:
    # x = 5 read f(5) against the integrals over [0, 1]
    f, g = parse_function("exp"), parse_function("const:1")
    with pytest.raises(InvalidCaseError, match="outside"):
        lhs_point_at(f, g, UNIT, x)


@dataclass(frozen=True)
class _Knotted:
    """fn, said to kink at knots."""

    fn: object
    knots: tuple

    def __call__(self, t):
        return self.fn(t)


def test_a_knot_at_an_end_of_a_range_adds_no_piece():
    # only the knots strictly inside a range cut it: knots at 0.25 and 0.5
    # leave [0.25, 0.5] one piece of 129 evaluations, and cut [0, 1] in three
    g = parse_function("sin")
    _integrate_cached.cache_clear()
    inside, whole = quadrature._integral_between(
        _Knotted(g, (0.5, 0.25, 0.5)), [(0.25, 0.5), (0.0, 1.0)], _LHS_TOL)
    assert IntegralResult(*inside) == integrate(g, Interval(0.25, 0.5), _LHS_TOL)
    assert inside[2] == 129 and whole[2] == 3 * 129


def test_the_front_door_names_the_first_piece_that_fails(monkeypatch):
    # the pieces go to one batch range by range, each range's left to right,
    # and all four run out of the budget in the same level
    monkeypatch.setattr(quadrature, "DEFAULT_PANEL_BUDGET", 64)
    wave = _Knotted(RealFunction("sin", (1e4,)), (1.0, 3.0))
    with pytest.raises(QuadratureError, match=r"^no convergence on \[2.0, 3.0\] "):
        quadrature._integral_between(wave, [(2.0, 4.0), (0.0, 2.0)], _LHS_TOL)


def test_integrate_splits_at_the_knots_of_its_integrand():
    # unsplit at the knots, [0, 1] reads 0.001 with estimate 0.0: the spike
    # falls between the samples
    res = integrate(parse_function(MOVED_SPIKE), UNIT)
    assert abs(res.value - 0.500999995) <= 1e-9 * 0.500999995
    assert res.error_estimate < 1e-9


def test_a_product_is_split_at_the_knots_of_both_factors():
    # each factor is linear between 0.3 and 0.6, so each of the three pieces
    # of the product is a quadratic that its first 129 points integrate
    f, g = parse_function("pwlinear:0:0:0.3:1:1:0"), parse_function("pwlinear:0:1:0.6:0:1:1")
    fg = Product(f, g)
    res = integrate(fg, UNIT)
    assert res.evaluations == 129 * 3
    exact = _piecewise_exact(fg, (0.3, 0.6), 0.0, 1.0)
    assert abs(res.value - exact) <= 1e-15


def test_the_kernel_integrand_is_split_at_the_knots_of_g_and_f_prime():
    f, g = parse_function("pwlinear:0:0:0.3:1:1:0"), parse_function("pwlinear:0:0:0.5:1:1:0")
    fn = _KernelTimesDeriv(g, derivative(f), 0.0, 1.0, 0.2)
    (whole,) = quadrature._integral_between(fn, [(0.0, 1.0)], _RESIDUAL_OUTER_TOL)
    pieces = [_integrate_batch(fn, [piece], _RESIDUAL_OUTER_TOL)[0]
              for piece in ((0.0, 0.3), (0.3, 0.5), (0.5, 1.0))]
    assert whole == tuple(sum(column) for column in zip((0.0, 0.0, 0), *pieces))


@pytest.mark.parametrize("lo, hi", [(-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0),
                                    (0.0, math.nan), (1.0, 0.0)])
def test_integral_between_rejects_a_range_not_finite_and_ordered(lo, hi):
    # beside a good range, before any integration
    def untouched(t):
        raise AssertionError("integrand called")

    with pytest.raises(InvalidIntervalError, match=r"^need finite lo <= hi"):
        quadrature._integral_between(untouched, [(0.0, 1.0), (lo, hi)], _LHS_TOL)


def test_lhs_pieces_sum_to_unsplit_value_on_smooth_integrand():
    # g = 1 + t written with two inner knots at which nothing kinks
    f = parse_function("exp")
    g_knotted = parse_function("pwlinear:0:1:0.3:1.3:0.7:1.7:1:2")
    g_smooth = parse_function("affine:1:1")
    for x in (0.0, 0.3, 0.55, 1.0):
        for lhs in (lhs_endpoint_at, lhs_point_at):
            split = lhs(f, g_knotted, UNIT, x)[0]
            assert abs(split - lhs(f, g_smooth, UNIT, x)[0]) <= 1e-12


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


def test_identity_scales_are_the_magnitudes_of_the_terms():
    # f = t**2 and g = t on [1, 2] at x = 1.25: the integrals of |g| are
    # 0.28125 and 1.21875, that of |fg| is 3.75, all exact in Simpson
    f, g = parse_function("monomial:2"), parse_function("monomial:1")
    endpoint, point = quadrature._identity_scales(f, g, Interval(1.0, 2.0), 1.25)
    assert math.isclose(endpoint, 1.0 * 0.28125 + 4.0 * 1.21875 + 3.75, rel_tol=1e-14)
    assert math.isclose(point, 1.5625 * 1.5 + 3.75, rel_tol=1e-14)


def test_residual_outer_tolerance_buys_its_accuracy():
    # an identity holds exactly, so its residual is the oracle's error, and
    # on f = t**8 and g = t over [0, 1.5] the outer integral dominates it:
    # with the outer request at 1e-8 both residuals below are 1.7e-12, at
    # 1e-7 they are 7.0e-11
    pair = DifferentiablePair.from_family(parse_function("monomial:8"), DomainSpec(4.0))
    g, iv = parse_function("monomial:1"), Interval(0.0, 1.5)
    for x, residual in ((iv.b, residual_endpoint_identity), (iv.a, residual_point_identity)):
        case = BoundCase(pair, g, iv, x, 1.0, ConvexityParams(1.0, 1.0), 2.0)
        assert residual(case) <= 1e-11
