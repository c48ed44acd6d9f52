"""Grid verification of the generalized convexity classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbound import (
    AbsPower,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    GridSpec,
    Interval,
    InvalidCaseError,
    RealFunction,
    Verdict,
    Witness,
    check_alpha_m_convex,
    check_convex_direct,
    check_hypotheses,
    check_hypothesis,
    classify_region,
    default_suite,
    parse_function,
)
from hhbound.convexity import _domain_axes, _scan_points
from hhbound.harness import _SpecRun

from dense_verdict import dense_verdict
from test_harness import _equivalence_specs

DOM = DomainSpec(4.0)
PLAIN = ConvexityParams(1.0, 1.0)


def _definition_gap(fn, params, x, y, t):
    """Violation of the class inequality at one triple, by direct evaluation."""
    lhs = fn(t * x + params.m * (1.0 - t) * y)
    rhs = t ** params.alpha * fn(x) + params.m * (1.0 - t ** params.alpha) * fn(y)
    return lhs - rhs


def test_grid_spec_validation_and_refinement():
    g = GridSpec(11, 21, 31)
    r = g.refined()
    assert (r.nx, r.ny, r.nt) == (21, 41, 61)
    # refined grid keeps every original node
    assert set(np.linspace(0, 1, g.nt)) <= set(np.linspace(0, 1, r.nt))
    with pytest.raises(InvalidCaseError):
        GridSpec(1, 11, 11)


def test_square_is_convex():
    assert check_alpha_m_convex(parse_function("monomial:2"), DOM, PLAIN).holds


def test_negated_square_fails_with_witness():
    v = check_alpha_m_convex(parse_function("negmonomial:2"), DOM, PLAIN)
    assert not v.holds
    w = v.witness
    assert w is not None
    # the witness re-evaluates to the reported gap
    gap = _definition_gap(parse_function("negmonomial:2"), PLAIN, w.x, w.y, w.t)
    assert abs(gap - w.gap) <= 1e-12 * (1.0 + abs(w.gap))


def test_witness_is_deterministic():
    fn = parse_function("negmonomial:2")
    v1 = check_alpha_m_convex(fn, DOM, PLAIN)
    v2 = check_alpha_m_convex(fn, DOM, PLAIN)
    assert v1.witness == v2.witness


@pytest.mark.parametrize("spec", ["negmonomial:2", "sin"])
def test_refinement_never_flips_a_failure(spec):
    # refined grids contain the original nodes, so a found counterexample
    # cannot disappear
    fn = parse_function(spec)
    grid = GridSpec(21, 21, 21)
    first = check_alpha_m_convex(fn, DOM, PLAIN, grid)
    assert not first.holds
    again = check_alpha_m_convex(fn, DOM, PLAIN, grid.refined())
    assert not again.holds
    assert again.witness.gap >= first.witness.gap - 1e-12


def test_square_fails_fractional_alpha():
    # t**2 does not satisfy the class inequality for alpha < 1 with m > 0:
    # near t = 0 the right side decays like t**alpha but the left like t**2
    v = check_alpha_m_convex(parse_function("monomial:2"), DOM,
                             ConvexityParams(0.5, 1.0))
    assert not v.holds


def test_exp_fails_small_m():
    v = check_alpha_m_convex(parse_function("exp"), DOM, ConvexityParams(1.0, 0.5))
    assert not v.holds


def test_affine_fails_fractional_alpha():
    v = check_alpha_m_convex(parse_function("affine:1:2"), DOM,
                             ConvexityParams(0.5, 1.0))
    assert not v.holds


def test_m_zero_star_shape():
    # at m = 0 the inequality only constrains f(t x) <= t**alpha f(x)
    v = check_alpha_m_convex(parse_function("monomial:2"), DOM,
                             ConvexityParams(1.0, 0.0))
    assert v.holds


def test_plain_check_matches_class_check_at_unit_params():
    for spec in ("const:1", "affine:1:2", "poly:0:1:-1", "monomial:2",
                 "negmonomial:2", "exp", "sin", "pwlinear:0:1:2:0:4:1"):
        fn = parse_function(spec)
        a = check_alpha_m_convex(fn, DOM, PLAIN)
        b = check_convex_direct(fn, DOM)
        assert a.holds == b.holds, spec
        assert a.witness == b.witness, spec


@given(c0=st.floats(-3, 3), c1=st.floats(-3, 3),
       c2=st.floats(0.01, 10))
@settings(max_examples=30, deadline=None)
def test_quadratic_verdict_tracks_leading_sign(c0, c1, c2):
    up = RealFunction("poly", (c0, c1, c2))
    down = RealFunction("poly", (c0, c1, -c2))
    grid = GridSpec(21, 21, 21)
    assert check_convex_direct(up, DOM, grid).holds
    assert not check_convex_direct(down, DOM, grid).holds


def test_abs_power_object():
    h = AbsPower(parse_function("affine:-1:2"), 2.0)
    assert h(0.0) == 1.0
    assert h(0.5) == 0.0
    np.testing.assert_allclose(h(np.array([0.0, 1.0])), [1.0, 1.0])


def test_hypothesis_check_on_square(square_pair):
    iv = Interval(0.0, 1.0)
    for q in (1.0, 2.0, 3.0):
        assert check_hypothesis(square_pair, q, PLAIN, iv).holds


def test_hypothesis_check_preconditions(square_pair):
    with pytest.raises(InvalidCaseError):
        check_hypothesis(square_pair, 0.5, PLAIN, Interval(0.0, 1.0))
    with pytest.raises(InvalidCaseError):
        check_hypothesis(square_pair, 1.0, PLAIN, Interval(0.0, 5.0))


def test_hypothesis_check_rejects_nan_q(square_pair):
    # NaN fails every comparison, so only "not q >= 1" catches it
    with pytest.raises(InvalidCaseError, match="q must be >= 1, got nan"):
        check_hypothesis(square_pair, math.nan, PLAIN, Interval(0.0, 1.0))


def test_hypothesis_gate_scans_working_domain():
    # |2t| is in the (0.25, 0.25) class on [0.2, 0.6]^2 but not on [0, 2.4]^2,
    # and the bounds apply the class inequality at y = b/m = 2.4
    pair = DifferentiablePair.from_family(parse_function("monomial:2"),
                                          DomainSpec(2.4))
    v = check_hypothesis(pair, 1.0, ConvexityParams(0.25, 0.25),
                         Interval(0.2, 0.6))
    assert not v.holds
    assert v.witness.x < 0.2


def _gate_requests():
    unit = Interval(0.0, 1.0)
    square = DifferentiablePair.from_family(parse_function("monomial:2"), DOM)
    cube = DifferentiablePair.from_family(parse_function("monomial:3"),
                                          DomainSpec(2.0))
    exp = DifferentiablePair.from_family(parse_function("exp"), DOM)
    return [(pair, q, ConvexityParams(alpha, m), unit)
            for pair in (square, cube, exp)
            for q in (1.0, 1.5, 3.0)
            for alpha in (0.25, 1.0)
            for m in (0.5, 1.0)]


def test_batched_gate_matches_single_checks():
    grid = GridSpec(21, 21, 21)
    requests = _gate_requests()
    batched = check_hypotheses(requests + requests[:3], grid)
    assert len(batched) == len(requests) + 3
    assert batched[-3:] == batched[:3]
    assert any(v.holds for v in batched) and not all(v.holds for v in batched)
    for (pair, q, params, iv), verdict in zip(requests, batched):
        single = check_hypothesis(pair, q, params, iv, grid)
        # the class check of |f'|**q on [0, b_star] is the gate's definition
        direct = check_alpha_m_convex(AbsPower(pair.f_prime, q), pair.domain,
                                      params, grid)
        assert verdict == single == direct, (pair.f, q, params)


def test_batched_gate_preconditions(square_pair):
    ok = (square_pair, 1.0, PLAIN, Interval(0.0, 1.0))
    with pytest.raises(InvalidCaseError):
        check_hypotheses([ok, (square_pair, 0.5, PLAIN, Interval(0.0, 1.0))])
    with pytest.raises(InvalidCaseError):
        check_hypotheses([ok, (square_pair, 1.0, PLAIN, Interval(0.0, 5.0))])
    assert check_hypotheses([]) == []


def test_classify_region_matrix():
    alphas = (0.5, 1.0)
    ms = (0.5, 1.0)
    matrix = classify_region(parse_function("monomial:2"), DOM, alphas, ms,
                             GridSpec(21, 21, 21))
    assert len(matrix) == 2 and all(len(row) == 2 for row in matrix)
    for i, alpha in enumerate(alphas):
        for j, m in enumerate(ms):
            direct = check_alpha_m_convex(parse_function("monomial:2"), DOM,
                                          ConvexityParams(alpha, m),
                                          GridSpec(21, 21, 21))
            assert matrix[i][j].holds == direct.holds


def test_gate_rejects_non_finite_derivative_power():
    # f' = 250 e**(250 t) overflows for t > ~2.82, inside [0, b_star] = [0, 4]
    wide = DifferentiablePair.from_family(parse_function("exp:250"), DOM)
    with pytest.raises(InvalidCaseError, match=r"\[0, 4\] for f = exp:250, q = 1"):
        check_hypothesis(wide, 1.0, PLAIN, Interval(0.0, 1.0))
    with pytest.raises(InvalidCaseError, match=r"\|cexp:250:250\|\*\*1 is not finite"):
        check_alpha_m_convex(AbsPower(wide.f_prime, 1.0), DOM, PLAIN)
    # f' = 700 e**(700 t) is finite on [0, 1]; its square is not
    narrow = DifferentiablePair.from_family(parse_function("exp:700"),
                                            DomainSpec(1.0))
    assert check_hypothesis(narrow, 1.0, PLAIN, Interval(0.0, 1.0)).holds
    with pytest.raises(InvalidCaseError, match="q = 2"):
        check_hypothesis(narrow, 2.0, PLAIN, Interval(0.0, 1.0))
    with pytest.raises(InvalidCaseError, match="is not finite on"):
        check_alpha_m_convex(AbsPower(narrow.f_prime, 2.0), DomainSpec(1.0),
                             PLAIN)


def test_alpha_m_check_rejects_non_finite_function():
    with pytest.raises(InvalidCaseError, match=r"exp:800 is not finite on \[0, 1\]"):
        check_alpha_m_convex(parse_function("exp:800"), DomainSpec(1.0), PLAIN)
    with pytest.raises(InvalidCaseError, match=r"exp:800 is not finite on \[0, 1\]"):
        classify_region(parse_function("exp:800"), DomainSpec(1.0), (1.0,),
                        (0.5, 1.0))


def test_convex_direct_rejects_non_finite_function():
    # exp(800 t) overflows on [0, 1]; its NaN gaps used to read as "holds"
    with pytest.raises(InvalidCaseError, match=r"exp:800 is not finite on \[0, 1\]"):
        check_convex_direct(parse_function("exp:800"), DomainSpec(1.0))


def _suite_gate_requests(specs):
    """The distinct gate requests of a suite run over specs, in run order."""
    runs = [_SpecRun(spec, (), {}) for spec in specs]
    return list(dict.fromkeys(gate for run in runs
                              for *_, gate in run.combinations()))


def _dense_gate_verdicts(requests, grid):
    """check_hypotheses's verdicts, each from fresh dense arrays."""
    powered = {}
    out = []
    for pair, q, params, _ in requests:
        xs, ys, ts = _domain_axes(pair.domain.b_star, grid)
        key = (pair, params.m, q)
        if key not in powered:
            fn = AbsPower(pair.f_prime, q)
            powered[key] = (fn(_scan_points(xs, ys, ts, params.m)), fn(xs),
                            fn(ys))
        out.append(dense_verdict(*powered[key], xs, ys, ts, params.alpha,
                                 params.m))
    return out


@pytest.mark.parametrize("suite, grid", [
    ("bundled", GridSpec()),
    ("equivalence", GridSpec(21, 21, 21)),
])
def test_screened_gate_equals_dense_verdicts(suite, grid, tmp_path):
    specs = (default_suite(str(tmp_path)).cases if suite == "bundled"
             else _equivalence_specs())
    requests = _suite_gate_requests(specs)
    if suite == "bundled":
        assert len(requests) == 192
    want = _dense_gate_verdicts(requests, grid)
    assert any(v.holds for v in want) and not all(v.holds for v in want)
    assert check_hypotheses(requests, grid) == want
    # reversed, the scratch buffers see the verdicts in another order
    assert check_hypotheses(requests[::-1], grid) == want[::-1]


@pytest.mark.parametrize("spec, b_star, unit_cell", [
    ("monomial:2", 4.0, None),
    ("exp", 4.0, None),
    ("pwlinear:0:0:0.5:1:1:0", 1.0, None),
    # at (1, 1) its largest gap, 1.5e-12 where rhs ~ 1, lies between the
    # screen's 1e-12 and the threshold 1e-12 * (1 + |rhs|)
    ("poly:1:0:-6e-12", 1.0, Verdict(True)),
    # at (1, 1) its largest gap, 2e-10 where rhs = 500, is below its
    # threshold, and the 5e-12 tent at t = 1.5, where rhs = 0, violates
    ("pwlinear:0:1000:0.5:500.0000000002:1:0:1.5:5e-12:2:0", 2.0,
     Verdict(False, Witness(1.0, 2.0, 0.5, 5e-12))),
])
def test_classify_region_equals_dense_verdicts(spec, b_star, unit_cell):
    fn = parse_function(spec)
    grid = GridSpec(41, 41, 41)
    alphas = (0.0, 0.25, 0.5, 1.0)
    ms = (0.0, 0.25, 0.5, 1.0)
    matrix = classify_region(fn, DomainSpec(b_star), alphas, ms, grid)
    xs, ys, ts = _domain_axes(b_star, grid)
    for alpha, row in zip(alphas, matrix):
        for m, verdict in zip(ms, row):
            lhs = fn(_scan_points(xs, ys, ts, m))
            assert verdict == dense_verdict(lhs, fn(xs), fn(ys), xs, ys, ts,
                                            alpha, m), (alpha, m)
    if unit_cell is not None:
        assert matrix[-1][-1] == unit_cell
