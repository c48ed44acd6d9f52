"""Grid verification of the generalized convexity classes."""

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
    check_alpha_m_convex,
    check_convex_direct,
    check_hermite_hadamard,
    check_hypotheses,
    check_hypothesis,
    classify_region,
    parse_function,
)

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


def test_hermite_hadamard_chain():
    iv = Interval(0.0, 1.0)
    assert check_hermite_hadamard(parse_function("monomial:2"), iv).holds
    v = check_hermite_hadamard(parse_function("negmonomial:2"), iv)
    assert not v.holds
    assert v.witness is not None and v.witness.t == 0.5
