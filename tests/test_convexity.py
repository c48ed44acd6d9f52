"""Grid verification of the generalized convexity classes."""

import math
import tracemalloc

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
from hhbound import convexity
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


@pytest.mark.parametrize("counts, axis", [
    ((2.5, 3, 3), "nx"), ((3, 3.0, 3), "ny"), ((3, 3, "5"), "nt"),
    ((3, None, 3), "ny"),
])
def test_grid_spec_rejects_counts_that_are_not_integers(counts, axis):
    # the counts size the scan's scratch arrays; a float count used to reach
    # numpy and fail there with a raw TypeError
    with pytest.raises(InvalidCaseError, match=f"grid {axis} must be an integer"):
        GridSpec(*counts)


def test_grid_spec_normalizes_integer_counts():
    grid = GridSpec(np.int64(5), 3, 4)
    assert grid == GridSpec(5, 3, 4)
    assert type(grid.nx) is int


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
    for q in (1.0, 2.0, 3.0):
        assert check_hypothesis(square_pair, q, PLAIN).holds


def test_hypothesis_check_preconditions(square_pair):
    with pytest.raises(InvalidCaseError):
        check_hypothesis(square_pair, 0.5, PLAIN)


def test_hypothesis_check_rejects_nan_q(square_pair):
    # NaN fails every comparison, so only a negated range test catches it
    with pytest.raises(InvalidCaseError,
                       match="q must be finite and >= 1, got nan"):
        check_hypothesis(square_pair, math.nan, PLAIN)


def test_hypothesis_gate_scans_working_domain():
    # |2t| is in the (0.25, 0.25) class on [0.2, 0.6]^2 but not on [0, 2.4]^2,
    # and the bounds apply the class inequality at y = b/m = 2.4
    pair = DifferentiablePair.from_family(parse_function("monomial:2"),
                                          DomainSpec(2.4))
    v = check_hypothesis(pair, 1.0, ConvexityParams(0.25, 0.25))
    assert not v.holds
    assert v.witness.x < 0.2


def test_gate_scan_points_stay_inside_the_domain():
    # t x + m (1 - t) y rounds to 3.0000000000000004 on the 51-point grid,
    # past the last knot of this |t - 1|, whose |f'| then failed to evaluate
    pair = DifferentiablePair.from_family(
        parse_function("pwlinear:0:1:1:0:3:2"), DomainSpec(3.0))
    assert _scan_points(*_domain_axes(3.0, GridSpec()), 1.0).max() == 3.0
    assert check_hypothesis(pair, 1.0, PLAIN).holds


def _gate_requests():
    square = DifferentiablePair.from_family(parse_function("monomial:2"), DOM)
    cube = DifferentiablePair.from_family(parse_function("monomial:3"),
                                          DomainSpec(2.0))
    exp = DifferentiablePair.from_family(parse_function("exp"), DOM)
    return [(pair, q, ConvexityParams(alpha, m))
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
    for (pair, q, params), verdict in zip(requests, batched):
        single = check_hypothesis(pair, q, params, grid)
        # the class check of |f'|**q on [0, b_star] is the gate's definition
        direct = check_alpha_m_convex(AbsPower(pair.f_prime, q), pair.domain,
                                      params, grid)
        assert verdict == single == direct, (pair.f, q, params)


def _counted_scratch(monkeypatch):
    """Shapes of the scratch sets that convexity allocates from here on."""
    shapes = []
    allocate = convexity._scratch

    def counted(grid):
        scratch = allocate(grid)
        shapes.append(scratch[0].shape)
        return scratch

    monkeypatch.setattr(convexity, "_scratch", counted)
    return shapes


def test_gate_allocates_one_scratch_set_per_call(monkeypatch):
    pairs = [DifferentiablePair.from_family(parse_function(spec), DomainSpec(2.0))
             for spec in ("monomial:2", "monomial:3", "exp")]
    requests = [(pair, q, ConvexityParams(alpha, m))
                for pair in pairs
                for m in (0.25, 0.5, 0.75, 1.0)
                for q in (1.0, 2.0)
                for alpha in (0.5, 1.0)]
    assert len({(pair, params.m) for pair, _, params in requests}) == 12
    shapes = _counted_scratch(monkeypatch)
    verdicts = check_hypotheses(requests)
    # one x-slab of six (y, t) planes, not the 51 x 51 x 51 grid
    assert shapes == [(6, 51, 51)]
    # sharing the scratch set changes no verdict
    assert verdicts[0] == check_hypothesis(*requests[0])
    assert verdicts[-1] == check_hypothesis(*requests[-1])


def test_classify_region_allocates_one_scratch_set_per_call(monkeypatch):
    shapes = _counted_scratch(monkeypatch)
    matrix = classify_region(parse_function("exp"), DOM, (0.5, 1.0),
                             (0.25, 0.5, 0.75, 1.0))
    assert shapes == [(6, 51, 51)]
    assert len(matrix) == 2 and all(len(row) == 4 for row in matrix)


def test_batched_gate_preconditions(square_pair):
    ok = (square_pair, 1.0, PLAIN)
    with pytest.raises(InvalidCaseError):
        check_hypotheses([ok, (square_pair, 0.5, PLAIN)])
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
        check_hypothesis(wide, 1.0, PLAIN)
    with pytest.raises(InvalidCaseError, match=r"\|cexp:250:250\|\*\*1 is not finite"):
        check_alpha_m_convex(AbsPower(wide.f_prime, 1.0), DOM, PLAIN)
    # f' = 700 e**(700 t) is finite on [0, 1]; its square is not
    narrow = DifferentiablePair.from_family(parse_function("exp:700"),
                                            DomainSpec(1.0))
    assert check_hypothesis(narrow, 1.0, PLAIN).holds
    with pytest.raises(InvalidCaseError, match="q = 2"):
        check_hypothesis(narrow, 2.0, PLAIN)
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


def _plan(requests):
    """The gate plan of (pair, q, params) requests, as check_hypotheses
    builds it."""
    plan = {}
    for pair, q, params in requests:
        plan.setdefault((pair, params.m), {}).setdefault(q, set()).add(params.alpha)
    return plan


def _suite_gate_requests(specs):
    """The distinct gate requests of a suite run over specs: its plan's, in
    plan order."""
    pairs, plan = {}, {}
    for spec in specs:
        _SpecRun(spec, (), pairs, plan)
    return [(pair, q, ConvexityParams(alpha, m))
            for (pair, m), alphas_by_q in plan.items()
            for q, alphas in alphas_by_q.items() for alpha in sorted(alphas)]


def _dense_gate_verdicts(requests, grid):
    """check_hypotheses's verdicts, each from fresh dense arrays."""
    powered = {}
    out = []
    for pair, q, params in requests:
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


def _half_integer_map(b_star, values, default=0.0):
    """A map on [0, b_star] that is values[p] at the half-integers p it names
    and default at every other half-integer, read exactly from a table. On a
    grid of integer x and y and t in {0, 0.5, 1}, every scan point at m = 1
    is a half-integer."""
    table = np.full(2 * int(b_star) + 1, default)
    for p, v in values.items():
        table[int(2 * p)] = v

    def fn(t):
        return table[(2 * np.asarray(t)).astype(int)]

    return fn


def _unit_verdicts(fn, b_star):
    """check_alpha_m_convex at (1, 1) on the integer grid of [0, b_star] with
    t in {0, 0.5, 1}, and the dense verdict of the same grid."""
    grid = GridSpec(int(b_star) + 1, int(b_star) + 1, 3)
    xs, ys, ts = _domain_axes(b_star, grid)
    dense = dense_verdict(fn(_scan_points(xs, ys, ts, 1.0)), fn(xs), fn(ys),
                          xs, ys, ts, 1.0, 1.0)
    return check_alpha_m_convex(fn, DomainSpec(b_star), PLAIN, grid), dense


def test_a_largest_gap_on_its_threshold_leaves_the_witness_to_the_full_test():
    # rhs is r between x = 1 and y = 2: the largest gap, at their midpoint,
    # equals tol * (1 + |rhs|) there, so it does not violate, and the smaller
    # gap at the midpoint of 0 and 1, where rhs = 0, does; the screen must not
    # take the largest gap as the witness
    tol = convexity._GAP_TOL
    r = 1e-12
    on_threshold = tol * (1.0 + r)
    lhs_top = r + on_threshold
    assert lhs_top - r == on_threshold
    below = float(np.nextafter(tol, 1.0))
    fn = _half_integer_map(2.0, {0.5: below, 1.5: lhs_top, 2.0: 2.0 * r})
    want = Verdict(False, Witness(0.0, 1.0, 0.5, below))
    assert _unit_verdicts(fn, 2.0) == (want, want)


# five (y, t) planes per x-slab of a 23 x 23 x 3 grid: slabs start at
# x = 0, 5, 10, 15 and 20, and the last has three planes
_FIVE_PLANES = 5 * 8 * 23 * 3


def test_a_witness_in_the_last_partial_slab(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # 21.5 is a midpoint only of x + y = 43, first at x = 21
    want = Verdict(False, Witness(21.0, 22.0, 0.5, 1.0))
    assert _unit_verdicts(_half_integer_map(22.0, {21.5: 1.0}), 22.0) == (want, want)


def test_equal_maxima_in_two_slabs_leave_the_witness_to_the_first(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # 4.5 is the midpoint of x + y = 9 for x = 0..9, in the first two slabs
    want = Verdict(False, Witness(0.0, 9.0, 0.5, 1.0))
    assert _unit_verdicts(_half_integer_map(22.0, {4.5: 1.0}), 22.0) == (want, want)


def test_a_threshold_witness_in_a_later_slab_than_the_largest_gap(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # the largest gap, ~2e-10 at the midpoint of 0 and 1 where rhs = 500, is
    # below its threshold; the 5e-12 gaps at 16.5, the midpoint of x + y = 33,
    # violate in the slabs from x = 10 on, and the first of them is the witness
    fn = _half_integer_map(22.0, {0.0: 1000.0, 0.5: 500.0000000002,
                                  16.5: 5e-12})
    want = Verdict(False, Witness(11.0, 22.0, 0.5, 5e-12))
    assert _unit_verdicts(fn, 22.0) == (want, want)


def test_a_power_not_finite_only_in_the_last_slab_names_its_q(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # 21.5 is a scan point only of the last slab, and 1e200**2 overflows
    fn = _half_integer_map(22.0, {21.5: 1e200})
    grid = GridSpec(23, 23, 3)

    def scan(alphas_by_q):
        return convexity._scan(fn, 22.0, 1.0, alphas_by_q, grid,
                               lambda q: f"not finite for q = {q:g}",
                               convexity._scratch(grid))

    assert not scan({1.0: {1.0}})[(1.0, 1.0)].holds
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({1.0: {1.0}, 2.0: {1.0}})
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({2.0: {1.0}, 1.0: {1.0}})


def test_a_map_minus_infinite_only_in_the_last_slab_is_not_finite(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # fn is 1 on the integer axes and -inf at 21.5, a scan point only of the
    # last slab: its largest value is finite there, its largest |value| not
    fn = _half_integer_map(22.0, {21.5: -np.inf}, default=1.0)
    fn.label = "h"
    with pytest.raises(InvalidCaseError, match="h is not finite"):
        classify_region(fn, DomainSpec(22.0), (0.5, 1.0), (1.0,), GridSpec(23, 23, 3))


def test_the_first_power_not_finite_in_request_order_is_named():
    # f' = 700 e**(700 t) is finite on [0, 1]; its square and cube are not
    narrow = DifferentiablePair.from_family(parse_function("exp:700"),
                                            DomainSpec(1.0))
    for qs in ((2.0, 3.0), (3.0, 2.0)):
        with pytest.raises(InvalidCaseError, match=f"q = {qs[0]:g}"):
            check_hypotheses([(narrow, q, PLAIN) for q in qs])


def _counted_comparisons(monkeypatch):
    """A list that grows by one per _slab_violation call from here on."""
    calls = []
    compare = convexity._slab_violation

    def counted(rhs, gap, mask):
        calls.append(None)
        return compare(rhs, gap, mask)

    monkeypatch.setattr(convexity, "_slab_violation", counted)
    return calls


def test_a_request_stops_at_its_first_violating_slab_without_witnesses(
        monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # 4.5 is the midpoint of x + y = 9 for x = 0..9: it violates in slab 0
    fn = _half_integer_map(22.0, {4.5: 1.0})
    grid = GridSpec(23, 23, 3)
    calls = _counted_comparisons(monkeypatch)

    def scan(witnesses):
        calls.clear()
        verdict = convexity._scan(fn, 22.0, 1.0, {1.0: {1.0}}, grid, str,
                                  convexity._scratch(grid),
                                  witnesses=witnesses)[(1.0, 1.0)]
        return verdict, len(calls)

    assert scan(False) == (Verdict(False), 1)
    assert scan(True) == (Verdict(False, Witness(0.0, 9.0, 0.5, 1.0)), 5)


def test_a_power_not_finite_after_every_alpha_failed_still_names_its_q(
        monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # every alpha fails at 4.5 in slab 0; 1e200**2 overflows at 21.5, a scan
    # point only of the last slab
    fn = _half_integer_map(22.0, {4.5: 1.0, 21.5: 1e200})
    grid = GridSpec(23, 23, 3)
    calls = _counted_comparisons(monkeypatch)

    def scan(alphas_by_q):
        return convexity._scan(fn, 22.0, 1.0, alphas_by_q, grid,
                               lambda q: f"not finite for q = {q:g}",
                               convexity._scratch(grid),
                               witnesses=False)

    assert scan({1.0: {0.5, 1.0}}) == {(1.0, 0.5): Verdict(False),
                                       (1.0, 1.0): Verdict(False)}
    assert len(calls) == 2
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({2.0: {0.5, 1.0}})
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({1.0: {1.0}, 2.0: {1.0}})


def _gate_bits(requests, grid):
    """The gate's holds bits without witnesses on the plan of requests, after
    checking that its verdicts are keyed as the plan, that they are
    check_hypotheses's and that no failing verdict carries a witness."""
    plan = _plan(requests)
    found = convexity._gate(plan, grid, witnesses=False)
    assert list(found) == list(plan)
    assert all(set(found[key]) == {(q, alpha) for q, alphas in by_q.items()
                                   for alpha in alphas}
               for key, by_q in plan.items())
    bits = [found[pair, params.m][q, params.alpha] for pair, q, params in requests]
    assert all(v.witness is None for v in bits)
    want = check_hypotheses(requests, grid)
    assert any(v.holds for v in want) and not all(v.holds for v in want)
    assert [v.holds for v in bits] == [v.holds for v in want]
    return bits


@pytest.mark.parametrize("suite, grid", [
    ("bundled", GridSpec()),
    ("equivalence", GridSpec(21, 21, 21)),
])
def test_gate_without_witnesses_keeps_the_verdicts_of_a_suite(suite, grid,
                                                              tmp_path):
    specs = (default_suite(str(tmp_path)).cases if suite == "bundled"
             else _equivalence_specs())
    requests = _suite_gate_requests(specs)
    if suite == "bundled":
        assert len(requests) == 192
    _gate_bits(requests, grid)


@pytest.mark.parametrize("planes", [5, 7])
def test_gate_without_witnesses_keeps_the_verdicts_in_partial_slabs(
        monkeypatch, planes):
    grid = GridSpec(23, 17, 19)
    monkeypatch.setattr(convexity, "_SLAB_BYTES", planes * 8 * 17 * 19)
    _gate_bits(_gate_requests(), grid)


@st.composite
def _unit_scale_functions(draw):
    """A polynomial of degree one to four or a piecewise-linear function on
    [0, 1], its coefficients or values in [-1, 1]."""
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        return RealFunction("poly", tuple(draw(st.lists(unit, min_size=2,
                                                        max_size=5))))
    inner = draw(st.lists(st.integers(1, 15), unique=True, max_size=4))
    knots = (0.0, *sorted(k / 16 for k in inner), 1.0)
    return RealFunction("pwlinear", tuple(v for x in knots for v in (x, draw(unit))))


@given(f=_unit_scale_functions())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_gate_without_witnesses_keeps_the_verdicts_of_chains_in_q(f):
    pair = DifferentiablePair.from_family(f, DomainSpec(1.0))
    qs = (1.0, 1.5, 2.0, 3.0)
    requests = [(pair, q, ConvexityParams(alpha, m))
                for m in (0.5, 1.0) for alpha in (0.25, 0.5, 1.0) for q in qs]
    grid = GridSpec(13, 11, 9)
    with pytest.MonkeyPatch.context() as patch:
        # three x-planes per slab: five slabs, the last partial
        patch.setattr(convexity, "_SLAB_BYTES", 3 * 8 * 11 * 9)
        want = [v.holds for v in check_hypotheses(requests, grid)]
        found = convexity._gate(_plan(requests), grid, witnesses=False)
    # the grid verdicts of each (m, alpha), q increasing, are monotone: once
    # a q holds, every larger one does
    for k in range(0, len(requests), len(qs)):
        assert want[k:k + len(qs)] == sorted(want[k:k + len(qs)]), requests[k][2]
    assert [found[pair, params.m][q, params.alpha].holds
            for pair, q, params in requests] == want


def test_a_chain_whose_smallest_q_fails_in_a_late_slab_rescans_the_rest(
        monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    grid = GridSpec(23, 23, 3)
    calls = _counted_comparisons(monkeypatch)
    # h = 1 but at 21.5 and 22: at x = 21, y = 22 and t = 0.5, in the last
    # slab, 1.26 > (1 + 1.5) / 2, and 1.26**q < (1 + 1.5**q) / 2 for q = 2
    # and 3, so q = 1 violates only there and the larger q compare nothing
    # before it
    late = {21.5: 1.26, 22.0: 1.5}
    # 1 + 1.5e-12 at 0.5, between x = 0 and y = 1 in the first slab: a gap
    # of 1.5e-12 is inside the threshold 2e-12 at q = 1, and its square and
    # cube, 3e-12 and 4.5e-12, are outside it
    early = {**late, 0.5: 1.0 + 1.5e-12}

    def scan(values, witnesses):
        fn = _half_integer_map(22.0, values, default=1.0)
        found = convexity._scan(fn, 22.0, 1.0, {1.0: {1.0}, 2.0: {1.0}, 3.0: {1.0}},
                                grid, str, convexity._scratch(grid),
                                witnesses=witnesses)
        return [found[q, 1.0].holds for q in (1.0, 2.0, 3.0)]

    for values, want, compared in ((late, [False, True, True], 11),
                                   (early, [False, False, False], 8)):
        assert scan(values, True) == want
        calls.clear()
        assert scan(values, False) == want
        # q = 1 in the five slabs and q = 2 in the last, then afresh: q = 2
        # in every slab where it holds, or q = 2 and 3 in the first
        assert len(calls) == compared


def test_a_power_not_finite_only_where_its_q_is_implied_names_its_q(monkeypatch):
    monkeypatch.setattr(convexity, "_SLAB_BYTES", _FIVE_PLANES)
    # h is top, whose square is finite, but at 21.5, a scan point only of the
    # last slab, where it is top (1 + 5e-13): q = 1 holds there, inside its
    # threshold, and the square overflows
    top = math.sqrt(np.finfo(float).max) * (1.0 - 1e-13)
    fn = _half_integer_map(22.0, {21.5: top * (1.0 + 5e-13)}, default=top)
    grid = GridSpec(23, 23, 3)
    calls = _counted_comparisons(monkeypatch)

    def scan(alphas_by_q, witnesses=False):
        return convexity._scan(fn, 22.0, 1.0, alphas_by_q, grid,
                               lambda q: f"not finite for q = {q:g}",
                               convexity._scratch(grid),
                               witnesses=witnesses)

    assert scan({1.0: {1.0}}) == {(1.0, 1.0): Verdict(True)}
    calls.clear()
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({1.0: {1.0}, 2.0: {1.0}})
    # q = 2 compared nothing: q = 1 held in every slab
    assert len(calls) == 5
    with pytest.raises(InvalidCaseError, match="q = 2"):
        scan({2.0: {1.0}, 1.0: {1.0}}, witnesses=True)


def test_slabs_that_do_not_divide_the_grid_keep_the_dense_verdicts(monkeypatch):
    # 23 x-planes in slabs of 5 and of 7, the last slab partial either way
    grid = GridSpec(23, 17, 19)
    requests = _gate_requests()
    want = _dense_gate_verdicts(requests, grid)
    assert any(v.holds for v in want) and not all(v.holds for v in want)
    fn = parse_function("exp")
    alphas, ms = (0.25, 1.0), (0.5, 1.0)
    xs, ys, ts = _domain_axes(4.0, grid)
    dense_region = [[dense_verdict(fn(_scan_points(xs, ys, ts, m)), fn(xs),
                                   fn(ys), xs, ys, ts, alpha, m) for m in ms]
                    for alpha in alphas]
    for planes in (5, 7):
        monkeypatch.setattr(convexity, "_SLAB_BYTES", planes * 8 * 17 * 19)
        assert convexity._scratch(grid)[0].shape == (planes, 17, 19)
        assert check_hypotheses(requests, grid) == want
        assert classify_region(fn, DOM, alphas, ms, grid) == dense_region


@pytest.mark.parametrize("spec", ["monomial:2", "exp"])
def test_gate_allocates_no_full_grid_array(spec):
    # tracemalloc sees numpy's array buffers
    pair = DifferentiablePair.from_family(parse_function(spec), DOM)
    request = [(pair, 2.0, ConvexityParams(0.5, 0.75))]
    tracemalloc.start()
    try:
        check_hypotheses(request)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 51 ** 3


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
