"""Domain types, the function registry, and case validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbound import (
    BoundCase,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    EvalDomainError,
    Interval,
    InvalidCaseError,
    InvalidIntervalError,
    InvalidParamsError,
    RealFunction,
    TheoremId,
    UnknownFamilyError,
    derivative,
    parse_function,
    sup_norm,
)
from hhbound.core import validate_case_params, validate_g_sup

# one representative instance per public family, reused by several tests
SAMPLE_SPECS = (
    "const:1",
    "affine:1:2",
    "poly:0:1:-1",
    "monomial:2",
    "monomial:3",
    "negmonomial:2",
    "exp",
    "sin",
    "pwlinear:0:0:2:1:4:0",
)


def test_interval_properties():
    iv = Interval(1.0, 3.0)
    assert iv.width == 2.0
    assert iv.midpoint == 2.0
    # a point is checked against [a, b] by validate_split_point alone
    assert not hasattr(iv, "contains")
    g = iv.grid(5)
    assert g[0] == 1.0 and g[-1] == 3.0 and len(g) == 5


@pytest.mark.parametrize("a,b", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf),
                                 (math.nan, 1.0), (-9e307, 9e307)])
def test_interval_rejects_bad_endpoints(a, b):
    with pytest.raises(InvalidIntervalError):
        Interval(a, b)


def test_interval_casts_endpoints_to_float():
    iv = Interval(0, 2)
    assert type(iv.a) is float and type(iv.b) is float and iv.b == 2.0
    assert iv == Interval(0.0, 2.0)
    with pytest.raises(TypeError):
        Interval("0", 2)


def test_domain_spec_requires_positive():
    DomainSpec(0.5)
    with pytest.raises(InvalidParamsError):
        DomainSpec(0.0)
    with pytest.raises(InvalidParamsError):
        DomainSpec(-1.0)


def test_unknown_family_error_lists_families():
    with pytest.raises(UnknownFamilyError) as exc:
        parse_function("bogus:1")
    assert "monomial" in str(exc.value) and "pwlinear" in str(exc.value)
    # internal helper families are not parseable
    with pytest.raises(UnknownFamilyError):
        parse_function("cmonomial:1:1")


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_parse_label_round_trip(spec):
    fn = parse_function(spec)
    assert parse_function(fn.label) == fn


def test_parse_defaults():
    assert parse_function("exp").params == (1.0,)
    assert parse_function("sin").params == (1.0,)


def test_parse_rejects_garbage():
    with pytest.raises(UnknownFamilyError):
        parse_function("gamma:1")
    with pytest.raises(InvalidParamsError):
        parse_function("monomial:two")
    with pytest.raises(InvalidParamsError):
        parse_function("monomial:0.5")  # exponent below 1
    with pytest.raises(InvalidParamsError):
        parse_function("affine:1")  # needs two parameters
    with pytest.raises(InvalidParamsError):
        parse_function("pwlinear:1:0:0:1")  # knots must increase


def test_eval_known_values():
    assert parse_function("poly:1:0:2")(3.0) == 19.0
    assert parse_function("affine:1:2")(2.0) == 5.0
    assert parse_function("negmonomial:2")(3.0) == -9.0
    assert np.isclose(parse_function("exp")(1.0), math.e)
    assert parse_function("pwlinear:0:0:2:1:4:0")(1.0) == 0.5


def test_eval_scalar_vs_array():
    fn = parse_function("poly:0:1:-1")
    ts = np.linspace(0.0, 1.0, 7)
    arr = fn(ts)
    assert isinstance(arr, np.ndarray)
    for t, v in zip(ts, arr):
        out = fn(float(t))
        assert isinstance(out, float)
        assert out == v


def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        RealFunction("monomial", (1.5,))(-0.5)
    with pytest.raises(EvalDomainError):
        parse_function("pwlinear:0:0:1:1")(1.5)


def test_knots():
    pw = parse_function("pwlinear:0:0:2:1:4:0")
    assert pw.knots == (0.0, 2.0, 4.0)
    assert derivative(pw).knots == (0.0, 2.0, 4.0)
    assert parse_function("sin").knots == ()


@pytest.mark.parametrize("spec", SAMPLE_SPECS)
def test_derivative_stays_in_registry(spec):
    fn = parse_function(spec)
    d = derivative(fn)
    assert isinstance(d, RealFunction)
    # evaluable on the interior of the working domain
    val = d(1.0)
    assert math.isfinite(val)


@pytest.mark.parametrize("spec", ["const:1", "affine:1:2", "poly:0:1:-1",
                                  "monomial:2", "monomial:3", "exp", "sin"])
def test_finite_difference_validation(spec, domain4):
    pair = DifferentiablePair.from_family(parse_function(spec), domain4)
    dev = pair.validate_finite_difference(Interval(0.0, 1.0))
    assert dev <= 1e-4


def test_finite_difference_catches_wrong_derivative(domain4):
    f = parse_function("monomial:3")
    wrong = derivative(parse_function("monomial:2"))
    pair = DifferentiablePair(f, wrong, domain4)
    with pytest.raises(InvalidCaseError):
        pair.validate_finite_difference(Interval(0.0, 1.0))


@pytest.mark.parametrize("declared, deviation", [
    ("const:1.00015", 1.5e-4), ("const:1.0003", None)])
def test_finite_difference_bound_is_pinned_from_both_sides(declared, deviation,
                                                           domain4):
    # f = t and a declared f' = c deviate by |c - 1| everywhere, against the
    # bound 1e-4 * (1 + c), about 2e-4: 1.5e-4 is inside it and 3e-4 outside,
    # so the bound scaled by 10 or by 0.1 moves one case across
    pair = DifferentiablePair(parse_function("monomial:1"),
                              parse_function(declared), domain4)
    if deviation is None:
        with pytest.raises(InvalidCaseError, match="derivative mismatch"):
            pair.validate_finite_difference(Interval(0.0, 1.0))
    else:
        assert pair.validate_finite_difference(
            Interval(0.0, 1.0)) == pytest.approx(deviation, rel=1e-6)


def test_finite_difference_rejects_non_finite_values(domain4):
    # e**(800 t) overflows inside [0, 1]: the deviation is NaN there, which
    # no "deviation > allowed" test can catch
    pair = DifferentiablePair.from_family(parse_function("exp:800"), domain4)
    with pytest.raises(InvalidCaseError, match="exp:800 is not finite"):
        pair.validate_finite_difference(Interval(0.0, 1.0))


@pytest.mark.parametrize("spec, b", [
    ("pwlinear:0:1:1:0:3:2", 3.0),
    ("pwlinear:0:0:0.3333333333333333:1:1:0", 1.0),
], ids=["v-on-0-3", "tent-on-0-1"])
def test_finite_difference_skips_the_kinks_of_f(spec, b):
    # a knot at a third of [a, b] lies within h of a point of the 1,000-point
    # grid, where the central difference straddles the kink: 0.333 vs 1
    pair = DifferentiablePair.from_family(parse_function(spec), DomainSpec(b))
    assert pair.validate_finite_difference(Interval(0.0, b)) <= 1e-4


def test_convexity_params_range():
    p = ConvexityParams(0.5, 1.0)
    assert p.bounds_admissible
    assert not ConvexityParams(0.0, 1.0).bounds_admissible
    assert not ConvexityParams(1.0, 0.0).bounds_admissible
    with pytest.raises(InvalidParamsError):
        ConvexityParams(1.5, 1.0)
    with pytest.raises(InvalidParamsError):
        ConvexityParams(0.5, -0.1)


def test_theorem_id_properties():
    endpoint = {t for t in TheoremId if t.uses_endpoint_rule}
    assert endpoint == {TheoremId.T13, TheoremId.C11, TheoremId.T21, TheoremId.C21}
    general = {t for t in TheoremId if t.uses_class_params}
    assert general == {TheoremId.T21, TheoremId.T22, TheoremId.C21, TheoremId.C22}
    mid = {t for t in TheoremId if t.requires_midpoint}
    assert mid == {TheoremId.C11, TheoremId.C12, TheoremId.C21, TheoremId.C22}
    sym = {t for t in TheoremId if t.requires_symmetric_weight}
    assert sym == {TheoremId.C11, TheoremId.C21}


def _case(pair, **kw):
    defaults = dict(g=parse_function("const:1"), interval=Interval(0.0, 1.0),
                    x=0.5, q=1.0, params=ConvexityParams(1.0, 1.0), g_sup=1.0)
    defaults.update(kw)
    return BoundCase(pair, defaults["g"], defaults["interval"], defaults["x"],
                     defaults["q"], defaults["params"], defaults["g_sup"])


def test_bound_case_accepts_valid(square_pair):
    case = _case(square_pair)
    assert case.scaled_endpoint == 1.0


def test_bound_case_scaled_endpoint(square_pair):
    case = _case(square_pair, params=ConvexityParams(1.0, 0.25))
    assert case.scaled_endpoint == 4.0


@pytest.mark.parametrize("kw", [
    dict(x=1.5),                                   # x outside the interval
    dict(q=0.5),                                   # exponent below 1
    dict(interval=Interval(-1.0, 1.0)),            # leaves [0, b_star]
    dict(params=ConvexityParams(1.0, 0.0)),        # no scaled endpoint
    dict(params=ConvexityParams(1.0, 0.2)),        # b/m beyond b_star
    dict(g_sup=0.5),                               # below the exact sup
    dict(g_sup=math.inf),                          # would certify every case
    dict(g_sup=math.nan),                          # would violate every case
])
def test_bound_case_rejects_invalid(square_pair, kw):
    with pytest.raises(InvalidCaseError):
        _case(square_pair, **kw)


def test_bound_case_interval_beyond_domain(square_pair):
    with pytest.raises(InvalidCaseError):
        _case(square_pair, interval=Interval(0.0, 5.0))


@pytest.mark.parametrize("excess, accepted", [(0.5e-12, True), (2e-12, False)])
def test_scaled_endpoint_may_pass_b_star_by_one_part_in_1e12(excess, accepted):
    # b/m = 2 (1 + excess), exactly, against b_star = 2: the slack admits
    # b/m up to b_star (1 + 1e-12) and no further
    iv = Interval(0.0, 1.0 + excess)
    params = ConvexityParams(1.0, 0.5)
    assert iv.b / params.m == 2.0 * (1.0 + excess)
    if accepted:
        validate_case_params(iv, 1.0, params, 2.0)
    else:
        with pytest.raises(InvalidCaseError, match="exceeds b_star"):
            validate_case_params(iv, 1.0, params, 2.0)


@given(c0=st.floats(-5, 5), c1=st.floats(-5, 5), c2=st.floats(-5, 5),
       t=st.floats(0, 4))
@settings(max_examples=50, deadline=None)
def test_poly_derivative_matches_calculus(c0, c1, c2, t):
    fn = RealFunction("poly", (c0, c1, c2))
    d = derivative(fn)
    assert math.isclose(d(t), c1 + 2.0 * c2 * t,
                        rel_tol=1e-12, abs_tol=1e-12)


# a weight that is 0.001 except for a spike to 1e5 that is 2e-5 wide, so it
# falls between the points of any uniform scan coarser than that
SPIKE = ("pwlinear:0:0.001:0.5078025:0.001:0.5078125:100000:0.5078225:0.001"
         ":1:0.001")

# (g, [a, b], smooth): the sup sits at an endpoint, an interior root of g',
# a crest or a knot
SUP_CASES = [
    (parse_function("const:-2"), (0.0, 1.0), True),
    (parse_function("affine:1:-3"), (0.0, 1.0), True),
    (parse_function("poly:0:1:-1"), (0.0, 1.0), True),
    (parse_function("poly:0:1:-1"), (0.6, 2.0), True),
    (parse_function("poly:0.1:-3:0:1"), (-2.0, 1.7), True),
    (parse_function("poly:0:0:0:1"), (-0.5, 0.25), True),
    (parse_function("monomial:3"), (-1.0, 0.5), True),
    (parse_function("negmonomial:2.5"), (0.2, 2.0), True),
    (parse_function("exp:-2"), (-1.0, 1.0), True),
    (parse_function("sin"), (0.0, 1.0), True),
    (parse_function("sin"), (0.0, math.pi), True),
    (parse_function("sin:-7"), (0.3, 2.0), True),
    (RealFunction("sinw", (-2.0, 5.0)), (0.1, 0.5), True),
    (RealFunction("coswave", (3.0, 4.0)), (0.1, 1.3), True),
    (RealFunction("cmonomial", (-2.0, 2.0)), (-1.5, 1.0), True),
    (RealFunction("cexp", (-1.5, 0.5)), (0.0, 2.0), True),
    (parse_function("pwlinear:0:0:0.5:1:1:0"), (0.0, 1.0), False),
    (parse_function(SPIKE), (0.0, 1.0), False),
    (RealFunction("pwconst", (0.0, 0.3, 0.7, 1.0, 2.0, -3.5, 1.0)),
     (0.1, 0.9), False),
]


@pytest.mark.parametrize("g, ends, smooth", SUP_CASES,
                         ids=[f"{g.label}@{ends}" for g, ends, _ in SUP_CASES])
def test_sup_norm_is_exact(g, ends, smooth):
    iv = Interval(*ends)
    exact = sup_norm(g, iv)
    ts = np.linspace(*ends, 100001)
    scan = float(np.max(np.abs(g(ts))))
    assert exact >= scan
    if smooth:
        # a scan point lies within h/2 of the peak, where |g| is below the
        # sup by at most max|g''| (h/2)**2 / 2
        h = ts[1] - ts[0]
        curvature = float(np.max(np.abs(derivative(derivative(g))(ts))))
        assert exact - scan <= curvature * h * h / 8.0 + 1e-12 * exact


def test_sup_norm_wave_far_from_origin():
    # neighbouring floats t near 1e9 are 0.12 rad of w t apart, so |g| at a
    # float near a crest can fall short of the amplitude, which is the sup
    g = parse_function("sin:1e6")
    assert sup_norm(g, Interval(1e9, 1e9 + 1.0)) == 1.0
    assert sup_norm(RealFunction("coswave", (-3.0, 1e6)),
                    Interval(1e9, 1e9 + 1.0)) == 3.0


def test_sup_norm_finds_the_spike_a_scan_misses():
    g = parse_function(SPIKE)
    assert sup_norm(g, Interval(0.0, 1.0)) == 1e5
    assert float(np.max(np.abs(g(np.linspace(0, 1, 10001))))) == 0.001


def test_bound_case_rejects_g_sup_below_the_spike(square_pair):
    g = parse_function(SPIKE)
    with pytest.raises(InvalidCaseError, match="below sup"):
        _case(square_pair, g=g, g_sup=0.001)
    _case(square_pair, g=g, g_sup=1e5)


@pytest.mark.parametrize("gspec, ends", [("poly:0:1:-1", (0.0, 1.0)),
                                         ("sin", (0.0, 2.0)),
                                         ("poly:0.1:-3:0:1", (-2.0, 1.7))])
def test_g_sup_margin_is_a_few_ulps(gspec, ends):
    g = parse_function(gspec)
    iv = Interval(*ends)
    exact = sup_norm(g, iv)
    eps = np.finfo(float).eps
    validate_g_sup(g, iv, exact * (1.0 - 2.0 * eps))
    # 8 ulps below is outside the 4-ulp margin, and inside 40 ulps
    for below in (8.0 * eps, 1e-9):
        with pytest.raises(InvalidCaseError):
            validate_g_sup(g, iv, exact * (1.0 - below))
