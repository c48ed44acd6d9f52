"""Suite configuration, case verification, reports, determinism."""

import dataclasses
import gc
import io
import itertools
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhbound import (
    CSV_HEADER,
    SUP_SAFETY_FACTOR,
    BoundCase,
    CaseReport,
    CaseSpec,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    GridSpec,
    Interval,
    InvalidCaseError,
    InvalidParamsError,
    SuiteConfig,
    TheoremId,
    check_hypotheses,
    check_hypothesis,
    classical_symmetric_rhs,
    default_suite,
    derivative,
    format_real,
    lhs_endpoint_at,
    lhs_point_at,
    midpoint_rhs,
    midpoint_rhs_convex,
    midpoint_rhs_midsplit,
    parse_function,
    reduction_check,
    run_suite,
    sup_norm,
    trapezoid_rhs,
    trapezoid_rhs_convex,
    trapezoid_rhs_midsplit,
    verify_case,
)
from hhbound import harness
from hhbound.harness import _verdicts, _write_reports
from hhbound.quadrature import _integrate_cached, _lhs_block

from exact_reference import coefficients, exact_lhs

UNIT = Interval(0.0, 1.0)
PLAIN = ConvexityParams(1.0, 1.0)


@given(v=st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=100, deadline=None)
def test_format_real_round_trips(v):
    assert float(format_real(v)) == v


def test_case_spec_requires_one_x_mode():
    kw = dict(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
              alpha_values=(1.0,), m_values=(1.0,), theorems=("T21",))
    CaseSpec(**kw, x_sweep=5)
    with pytest.raises(InvalidCaseError):
        CaseSpec(**kw)
    with pytest.raises(InvalidCaseError):
        CaseSpec(**kw, x_sweep=5, x_values=(0.5,))


@pytest.mark.parametrize("n", [1, 0, -3])
def test_case_spec_rejects_short_sweep(n):
    kw = dict(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
              alpha_values=(1.0,), m_values=(1.0,), theorems=("T21",))
    with pytest.raises(InvalidCaseError, match="at least 2 points"):
        CaseSpec(**kw, x_sweep=n)
    # config files, and so hhbound verify --config, take the same path
    with pytest.raises(InvalidCaseError, match="at least 2 points"):
        CaseSpec.from_dict({"f": "monomial:2", "g": "const:1", "a": 0.0,
                            "b": 1.0, "q": [1.0], "alpha": [1.0], "m": [1.0],
                            "theorems": ["T21"], "x": {"sweep": n}})


def test_case_spec_rejects_unknown_theorem():
    with pytest.raises(ValueError):
        CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
                 alpha_values=(1.0,), m_values=(1.0,), theorems=("T99",),
                 x_sweep=5)


@pytest.mark.parametrize("g_sup", [math.inf, -math.inf, math.nan])
def test_case_spec_rejects_non_finite_g_sup(g_sup):
    with pytest.raises(InvalidCaseError):
        CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
                 alpha_values=(1.0,), m_values=(1.0,), theorems=("T21",),
                 x_sweep=5, g_sup=g_sup)


@pytest.mark.parametrize("x", [5.0, -0.5, math.nan])
def test_case_spec_rejects_split_point_outside_interval(x):
    # checked where it enters, not only for combinations the gate admits
    with pytest.raises(InvalidCaseError, match="outside"):
        CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
                 alpha_values=(0.5,), m_values=(1.0,), theorems=("T21",),
                 x_values=(0.25, x))


@pytest.mark.parametrize("b_star", [None, 4.0])
def test_case_spec_rejects_zero_m(b_star):
    with pytest.raises(InvalidCaseError, match="m = 0"):
        CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(2.0,),
                 alpha_values=(0.75,), m_values=(0.5, 0.0), theorems=("T21",),
                 x_values=(0.25,), b_star=b_star)


def test_effective_b_star():
    kw = dict(f="exp", g="const:1", a=0.0, b=2.0, q_values=(1.0,),
              alpha_values=(1.0,), m_values=(0.25, 1.0), theorems=("T21",),
              x_sweep=3)
    assert CaseSpec(**kw).effective_b_star() == 8.0
    assert CaseSpec(**kw, b_star=10.0).effective_b_star() == 10.0


def test_config_json_round_trip(tmp_path):
    cfg = default_suite(str(tmp_path))
    clone = SuiteConfig.from_dict(cfg.to_dict())
    assert clone.cases == cfg.cases
    assert clone.seed == cfg.seed
    assert clone.grid == cfg.grid
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
    assert SuiteConfig.from_json(path).cases == cfg.cases


def _known_case(x=0.5, q=1.0):
    pair = DifferentiablePair.from_family(parse_function("monomial:2"),
                                          DomainSpec(4.0))
    return BoundCase(pair, parse_function("const:1"), UNIT, x, q,
                     ConvexityParams(1.0, 1.0), 1.0)


def test_verify_case_known_values():
    rep = verify_case(_known_case(), TheoremId.T21)
    assert abs(rep.lhs - 1.0 / 6.0) <= 1e-9
    assert rep.rhs == 0.25
    assert rep.holds
    assert math.isclose(rep.slack, rep.rhs - rep.lhs, rel_tol=1e-15)
    assert math.isclose(rep.tightness, rep.lhs / rep.rhs, rel_tol=1e-15)


def test_verify_case_returns_the_row_of_its_case():
    # the README quickstart case: lhs, rhs, slack, tightness and holds as
    # verify_case gave them when it returned only the outcome
    f, g = parse_function("monomial:2"), parse_function("const:1")
    case = BoundCase(DifferentiablePair.from_family(f, DomainSpec(4.0)), g,
                     Interval(0.0, 1.0), x=0.25, q=2.0,
                     params=ConvexityParams(0.75, 0.75), g_sup=1.0)
    rep = verify_case(case, "T21")
    assert rep == CaseReport("T21", f.label, g.label, 0.0, 1.0, 0.25, 2.0, 0.75,
                             0.75, 0.41666666666666663, 0.5613027117406494,
                             0.14463604507398276, 0.742320779770592, True)
    assert type(rep.theorem_id) is str and rep.theorem_id == TheoremId.T21
    # the coordinates are floats, as in a suite row, whatever the case holds
    odd = dataclasses.replace(case, x=0, q=np.float64(2.0),
                              params=ConvexityParams(np.float64(0.75), 1))
    got = verify_case(odd, "T21")
    assert (got.x, got.q, got.alpha, got.m) == (0.0, 2.0, 0.75, 1.0)
    assert all(type(v) is float for v in (got.x, got.q, got.alpha, got.m))
    # the family texts are the labels of f and g, not the specs they came from
    case = dataclasses.replace(
        case, pair=DifferentiablePair.from_family(parse_function("exp"),
                                                  DomainSpec(4.0)))
    assert verify_case(case, "T21").family_f == "exp:1"


def test_verify_case_equality_point():
    rep = verify_case(_known_case(x=0.0), TheoremId.T21)
    assert abs(rep.tightness - 1.0) <= 1e-9
    assert rep.holds


@pytest.mark.parametrize("endpoint_rule", [True, False])
def test_holds_slack_is_ulps_of_the_lhs_terms(endpoint_rule):
    # on [0, 1e-3] the lhs is about 1e-10, below the old absolute slack of
    # 1e-9, so it held against a right-hand side of 0
    f, g = parse_function("monomial:2"), parse_function("const:1")
    iv, x = Interval(0.0, 1e-3), 5e-4
    lhs, lhs_err, terms = _lhs_block(endpoint_rule, f, g, iv, (x,))
    i_fg = 1e-9 / 3.0
    want = f(iv.b) * (iv.b - x) + i_fg if endpoint_rule else f(x) * iv.b + i_fg
    assert math.isclose(terms[0], want, rel_tol=1e-12)
    assert 1e-11 < lhs[0] < 1e-9
    assert not _verdicts(lhs, lhs_err, terms, np.array([0.0]))[2][0]
    assert _verdicts(lhs, lhs_err, terms, lhs)[2][0]


ULP1 = math.ulp(1.0)


@pytest.mark.parametrize("lhs, lhs_err, terms, rhs, holds", [
    # the oracle's error estimate decides: lhs is past rhs plus the 1e-9
    # relative slack, and within or past that plus lhs_err
    (1.0 + 2e-9, 2e-9, 1.0, 1.0, True),
    (1.0 + 3.5e-9, 2e-9, 1.0, 1.0, False),
    # the floor of 4 ulps of the terms decides: rhs = 0 leaves no relative
    # slack, and a lhs exactly on the floor holds
    (3.5 * ULP1, 0.0, 1.0, 0.0, True),
    (4.0 * ULP1, 0.0, 1.0, 0.0, True),
    (4.5 * ULP1, 0.0, 1.0, 0.0, False),
    # the relative term decides: 1e-9 * 1e3 is far above 4 ulps of 1e3
    (1e3 + 0.5e-6, 0.0, 1e3, 1e3, True),
    (1e3 + 1.5e-6, 0.0, 1e3, 1e3, False),
])
def test_each_term_of_the_holds_slack_decides_a_verdict(lhs, lhs_err, terms,
                                                         rhs, holds):
    # one row alone, and the same row inside a block of other rows
    column = lambda v: np.array([v])
    assert _verdicts(*map(column, (lhs, lhs_err, terms, rhs)))[2].tolist() == [holds]
    block = [np.array([0.5, v, 2.0]) for v in (lhs, lhs_err, terms, rhs)]
    assert _verdicts(*block)[2].tolist() == [True, holds, True]


def _one_row(lhs, lhs_err, terms, rhs):
    """slack, tightness and holds of one row on Python floats: the rule
    _verdicts states for a column of rows."""
    slack = rhs - lhs
    tightness = lhs / rhs if rhs != 0.0 else (0.0 if lhs == 0.0 else math.inf)
    holds = lhs <= rhs + max(4 * math.ulp(terms), 1e-9 * abs(rhs)) + lhs_err
    return slack, tightness, holds


def test_verdicts_of_a_block_are_the_python_float_rule_bit_for_bit():
    # every element as one row on Python floats gives it: signed zeros, a
    # zero or NaN rhs, terms at inf, NaN and the largest float, whose ulp
    # np.spacing alone gets wrong, and no warning
    top = 1.7976931348623157e308
    rows = list(itertools.product(
        (0.0, 2.0 ** -60, 1.0, 1e300, top), (0.0, 1e-12),
        (0.0, 1.0, 1.5 * 2.0 ** 1023, top, math.inf, math.nan),
        (-0.0, 0.0, -1.0, 1.0 - 1e-12, 1e-300, top, math.inf, math.nan)))
    columns = [np.array(c) for c in zip(*rows)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slack, tightness, holds = _verdicts(*columns)
    got = list(zip(map(repr, slack.tolist()), map(repr, tightness.tolist()),
                   holds.tolist()))
    want = [(repr(a), repr(b), c) for a, b, c in (_one_row(*row) for row in rows)]
    assert got == want
    assert {h for *_, h in got} == {True, False}


def _column_block(rows):
    """run_suite's column block of rows that share all but x, lhs and the
    outcome: one list of rows, one row per x."""
    r = rows[0]

    def column(name):
        return np.array([[getattr(row, name) for row in rows]])

    return harness._Block(r.theorem_id, r.family_f, r.family_g, r.a, r.b,
                          tuple(row.x for row in rows), column("lhs")[0],
                          [(r.q, ConvexityParams(r.alpha, r.m))], column("rhs"),
                          column("slack"), column("tightness"), column("holds"))


def test_verdicts_of_a_zero_rhs_and_of_a_negative_zero_slack(tmp_path):
    # rhs 0 gives tightness 0.0 for lhs 0 and inf otherwise, which JSON
    # spells Infinity; a slack of -0.0 renders as -0.0 in both reports
    lhs, rhs = np.array([0.0, 1e-17, 0.0]), np.array([0.0, 0.0, -0.0])
    zero = np.zeros(3)
    slack, tightness, holds = _verdicts(lhs, zero, zero, rhs)
    assert tightness.tolist() == [0.0, math.inf, 0.0]
    assert holds.tolist() == [True, False, True]
    assert [math.copysign(1.0, v) for v in slack.tolist()] == [1.0, -1.0, -1.0]
    rows = [CaseReport("T21", "const:0", "const:1", 0.0, 1.0, 0.5, 1.0, 1.0, 1.0,
                       *values)
            for values in zip(lhs.tolist(), rhs.tolist(), slack.tolist(),
                              tightness.tolist(), holds.tolist())]
    csv, text = io.StringIO(), io.StringIO()
    _write_reports(csv, text, {"violations": 1}, [_column_block(rows)])
    reports = text.getvalue().split('"reports": [')[1]
    assert reports.count('"tightness": Infinity') == 1
    assert reports.count('"tightness": 0.0') == 2
    assert reports.count('"slack": -0.0') == 1
    fields = [line.split(",") for line in csv.getvalue().splitlines()[1:]]
    slack_at = CSV_HEADER.split(",").index("slack")
    assert [f[slack_at] for f in fields] == ["0.0", "-1e-17", "-0.0"]


def test_verify_case_and_run_suite_share_one_verdict_function(tmp_path, monkeypatch):
    # verify_case calls _verdicts for its row, run_suite once per block of
    # one spec and theorem, with a row of right-hand sides per (q, alpha, m)
    shapes = []
    verdicts = harness._verdicts

    def counted(lhs, lhs_err, terms, rhs):
        shapes.append(rhs.shape)
        return verdicts(lhs, lhs_err, terms, rhs)

    monkeypatch.setattr(harness, "_verdicts", counted)
    verify_case(_known_case(), TheoremId.T21)
    assert shapes == [(1, 1)]
    shapes.clear()
    result = run_suite(_small_config(tmp_path))
    assert shapes == [(2, 3), (2, 3)] and len(result.reports) == 12


def test_specs_sharing_an_integrand_share_oracle_integrals(tmp_path):
    # the second spec repeats the first's (f, g, [a, b]) and split points,
    # so every integral behind its lhs values is an oracle memo hit
    common = dict(f="exp", g="sin", a=0.0, b=1.0, q_values=(1.0, 2.0),
                  x_sweep=5, b_star=4.0)
    specs = (CaseSpec(alpha_values=(0.5, 1.0), m_values=(0.5, 1.0),
                      theorems=("T21", "T22"), **common),
             CaseSpec(alpha_values=(1.0,), m_values=(1.0,),
                      theorems=("T13", "T14"), **common))

    def run(cases):
        _integrate_cached.cache_clear()
        result = run_suite(SuiteConfig(cases=cases, output_dir=str(tmp_path)))
        return result.reports, _integrate_cached.cache_info().misses

    first, first_misses = run(specs[:1])
    second, _ = run(specs[1:])
    both, both_misses = run(specs)
    assert both_misses <= first_misses
    assert tuple(both) == tuple(first) + tuple(second)
    assert second and second[-1].theorem_id == "T14"


@pytest.mark.parametrize("iv", [UNIT, Interval(2.0, 5.0)])
def test_reduction_identities(iv):
    assert reduction_check(iv, 100) <= 1e-12


def _small_config(out_dir, **kw):
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0, 2.0), alpha_values=(1.0,), m_values=(1.0,),
                    theorems=("T21", "T22"), x_values=(0.0, 0.5, 1.0),
                    b_star=4.0, g_sup=1.0)
    return SuiteConfig(cases=(spec,), output_dir=str(out_dir), **kw)


def test_run_suite_writes_reports(tmp_path):
    result = run_suite(_small_config(tmp_path))
    assert result.violations == 0
    assert len(result.reports) == 12  # 2 theorems x 2 q x 3 x
    lines = result.csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 13
    # 17-digit reals survive the round trip through text
    first = lines[1].split(",")
    assert float(first[9]) == result.reports[0].lhs
    assert float(first[10]) == result.reports[0].rhs
    payload = json.loads(result.json_path.read_text(encoding="utf-8"))
    assert payload["violations"] == 0
    assert len(payload["reports"]) == 12
    assert payload["seed"] == 20260815


def test_suite_reports_are_a_read_only_view_of_new_rows(tmp_path):
    # three blocks of 6, 6 and 4 rows; reports builds a new CaseReport on
    # every access, and each way of reaching a row gives the same row
    config = _small_config(tmp_path)
    (spec,) = config.cases
    more = dataclasses.replace(spec, q_values=(1.5,), theorems=("T13",),
                               x_values=None, x_sweep=4)
    result = run_suite(dataclasses.replace(config, cases=(spec, more)))
    reports = result.reports
    rows = list(reports)
    assert len(reports) == len(rows) == 16
    assert list(reports) == rows
    assert [r.theorem_id for r in rows] == ["T21"] * 6 + ["T22"] * 6 + ["T13"] * 4
    assert [reports[k] for k in range(16)] == rows
    assert [reports[k] for k in range(-16, 0)] == rows
    assert reports[0] == rows[0] and reports[-1] == rows[15]
    assert reports[np.int64(7)] == rows[7]
    for k in (16, -17):
        with pytest.raises(IndexError):
            reports[k]
    for cut in (slice(None), slice(5, 13), slice(None, None, -1),
                slice(1, 15, 4), slice(-3, None), slice(20, 30)):
        assert reports[cut] == tuple(rows[cut])
    assert reports[0] is not reports[0]
    row = reports[6]
    row.lhs, row.holds = -1.0, not row.holds
    assert reports[6] == rows[6] != row
    with pytest.raises(TypeError):
        reports[0] = row


def test_suite_reports_build_only_the_rows_they_return(tmp_path, monkeypatch):
    # one block of 400 rows: an index builds one CaseReport and a slice one
    # per row it holds, wherever in the block they lie
    config = _small_config(tmp_path)
    (spec,) = config.cases
    spec = dataclasses.replace(spec, q_values=(1.5,), theorems=("T13",),
                               x_values=None, x_sweep=400)
    reports = run_suite(dataclasses.replace(config, cases=(spec,))).reports
    built = []

    def counted(*fields):
        built.append(fields)
        return CaseReport(*fields)

    monkeypatch.setattr(harness, "CaseReport", counted)
    assert reports[-1].x == 1.0 and len(built) == 1
    for cut, n in ((slice(None), 400), (slice(390, None), 10), (slice(None, None, 8), 50)):
        built.clear()
        assert len(reports[cut]) == len(built) == n
    built.clear()
    assert len(list(reports)) == len(built) == 400


def test_bundled_suite_keeps_its_rows_as_columns(tmp_path):
    # a run that built a CaseReport per row peaked at 5.1-6.1 MB under
    # tracemalloc and held 4.0-5.0 MB after it returned
    config = default_suite(str(tmp_path))
    _integrate_cached.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        result = run_suite(config)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result.reports) == 17372
    assert peak <= 3.5e6, peak
    assert held <= 2e6, held


def test_run_suite_report_content_is_placement_free(tmp_path):
    result = run_suite(_small_config(tmp_path))
    text = result.json_path.read_text(encoding="utf-8")
    assert "output_dir" not in text
    assert "wall_time" not in text
    assert "jobs" not in text


def test_run_suite_wall_time_is_the_time_of_the_run(tmp_path):
    start = time.perf_counter()
    result = run_suite(_small_config(tmp_path))
    assert 0.0 < result.wall_time <= time.perf_counter() - start


def test_run_suite_explicit_g_sup_is_exact(tmp_path):
    result = run_suite(_small_config(tmp_path))
    by_key = {(r.theorem_id, r.q, r.x): r for r in result.reports}
    assert by_key[("T21", 1.0, 0.5)].rhs == 0.25
    assert abs(by_key[("T21", 1.0, 0.0)].tightness - 1.0) <= 1e-9


def test_legacy_jobs_key_is_ignored(tmp_path):
    # config files from before the thread pool was removed carry "jobs"
    current = _small_config(tmp_path / "a").to_dict()
    assert "jobs" not in current
    legacy = {**current, "jobs": 4, "output_dir": str(tmp_path / "b")}
    a = run_suite(SuiteConfig.from_dict(current))
    b = run_suite(SuiteConfig.from_dict(legacy))
    assert a.csv_path.read_bytes() == b.csv_path.read_bytes()
    assert a.json_path.read_bytes() == b.json_path.read_bytes()


def _json_dump_of(config, result):
    echo = config.to_dict()
    del echo["output_dir"]
    payload = {"config": echo, "seed": config.seed,
               "violations": result.violations,
               "hypothesis_rejections": result.hypothesis_rejections,
               "max_tightness": result.max_tightness,
               "reports": [dataclasses.asdict(r) for r in result.reports]}
    return json.dumps(payload, indent=1) + "\n"


def test_run_suite_json_equals_json_dump(tmp_path):
    config = _small_config(tmp_path)
    result = run_suite(config)
    assert result.json_path.read_text(encoding="utf-8") == _json_dump_of(
        config, result)


def test_reports_render_every_row_from_its_own_values(tmp_path):
    # the writer renders shared texts once per block; 0.0 and -0.0 are equal
    # floats that must still render as 0.0 and -0.0 in the rows that hold them
    shared = dict(f="monomial:2", g="const:1", b=1.0, q_values=(1.0, 2.0),
                  alpha_values=(1.0,), m_values=(0.5, 1.0),
                  theorems=("T21", "T13"), b_star=4.0)
    specs = (
        CaseSpec(a=-0.0, x_values=(-0.0, 0.5, 1.0), **shared),
        CaseSpec(a=0.0, x_sweep=3, **shared),
        CaseSpec(f="exp", g="sin", a=0.0, b=1.0, q_values=(2.0,),
                 alpha_values=(1.0,), m_values=(1.0,), theorems=("T22",),
                 x_values=(0.25,), b_star=4.0),
    )
    config = SuiteConfig(cases=specs, output_dir=str(tmp_path))
    result = run_suite(config)
    assert result.reports[-1].family_f == "exp"
    # per spec: T21 and T13 each at 2 q x 2 (alpha, m) x 3 x
    assert len(result.reports) == 2 * 24 + 1
    rows = [",".join([r.theorem_id, r.family_f, r.family_g,
                      *map(format_real, (r.a, r.b, r.x, r.q, r.alpha, r.m,
                                         r.lhs, r.rhs, r.slack, r.tightness)),
                      "true" if r.holds else "false"])
            for r in result.reports]
    assert "T21,monomial:2,const:1,-0.0,1.0,-0.0,1.0,1.0,0.5," in rows[0]
    assert "T21,monomial:2,const:1,0.0,1.0,0.0,1.0,1.0,0.5," in rows[24]
    csv = result.csv_path.read_text(encoding="utf-8")
    assert csv == "".join(line + "\n" for line in [CSV_HEADER, *rows])
    assert result.json_path.read_text(encoding="utf-8") == _json_dump_of(
        config, result)


def test_reports_hold_a_non_finite_tightness_of_a_real_run(tmp_path):
    # f' = 0 makes the rhs 0 while the oracle lhs is a rounding residue, so
    # tightness is inf, which the JSON report spells Infinity
    spec = CaseSpec(f="const:3", g="sin", a=0.0, b=1.0, q_values=(1.0,),
                    alpha_values=(1.0,), m_values=(1.0,), theorems=("T21",),
                    x_values=(0.3,), b_star=4.0)
    config = SuiteConfig(cases=(spec,), output_dir=str(tmp_path))
    result = run_suite(config)
    (row,) = result.reports
    assert row.rhs == 0.0 and row.lhs > 0.0 and row.tightness == math.inf
    text = result.json_path.read_text(encoding="utf-8")
    assert '"tightness": Infinity' in text
    assert text == _json_dump_of(config, result)
    csv = result.csv_path.read_text(encoding="utf-8").splitlines()
    assert csv[1].split(",")[CSV_HEADER.split(",").index("tightness")] == "inf"


def test_case_spec_normalizes_inputs_to_python_floats(tmp_path):
    spec = CaseSpec(f="monomial:2", g="const:1", a=0, b=1, q_values=[1, 2],
                    alpha_values=(np.float64(1.0),), m_values=np.array([1.0]),
                    theorems=["T21", TheoremId.T22],
                    x_values=(np.float64(0.25), np.float64(0.5)), b_star=4,
                    g_sup=np.float32(1.0))
    assert spec.theorems == (TheoremId.T21, TheoremId.T22)
    assert all(type(t) is TheoremId for t in spec.theorems)
    for v in (spec.a, spec.b, spec.b_star, spec.g_sup, *spec.q_values,
              *spec.alpha_values, *spec.m_values, *spec.x_values):
        assert type(v) is float
    swept = dataclasses.replace(spec, x_values=None, x_sweep=np.int64(3))
    assert type(swept.x_sweep) is int
    config = SuiteConfig(cases=(spec,), output_dir=str(tmp_path))
    result = run_suite(config)
    assert len(result.reports) == 8
    for r in result.reports:
        assert type(r.theorem_id) is str and type(r.holds) is bool
        for v in (r.a, r.b, r.x, r.q, r.alpha, r.m, r.lhs, r.rhs, r.slack,
                  r.tightness):
            assert type(v) is float
    assert result.json_path.read_text(encoding="utf-8") == _json_dump_of(
        config, result)


def test_streamed_json_handles_nonfinite_and_numpy_floats():
    # rows as run_suite builds them: Python floats, str fields, bool holds
    rows = [
        CaseReport("T21", "monomial:2", "const:1", 0.0, 1.0, 0.1, 1.0, 0.5,
                   0.25, 1.0 / 3.0, 0.0, -1.0 / 3.0, math.inf, False),
        CaseReport("C22", "caf\u00e9", "sin", 0.0, 2.0, 1.0, 2.0, 1.0, 1.0,
                   math.nan, -math.inf, 1e-300, 5e-324, True),
        # finite rows
        CaseReport("T13", "caf\u00e9", "sin", 0.0, 1.0, 0.1, 1.5, 1.0, 1.0,
                   0.25, 0.5, 0.25, 0.5, True),
        CaseReport("T14", "caf\u00e9\"", "const:1", -0.0, 1.0, 0.7, 1.5, 0.75,
                   0.25, 1e-300, 5e-324, -1e-300, 2.0 ** 1000, False),
        # every field finite, but their sum overflows
        CaseReport("T21", "exp", "const:1", 0.0, 1.0, 0.5, 1.0, 1.0, 1.0,
                   1e308, 1e308, 0.0, 1.0, True),
        CaseReport("T21", "exp", "const:1", 0.0, 1.0, 1e308, 1.0, 1.0, 1.0,
                   1e308, 0.5, 0.0, 1.0, True),
    ]
    head = {"config": {"cases": [{"x": {"sweep": 3}, "g_sup": None}],
                       "grid": {"nx": 3}}, "seed": 1, "violations": 1,
            "hypothesis_rejections": 0, "max_tightness": 0.5}
    for reports in (rows, rows[:1], []):
        csv, got = io.StringIO(), io.StringIO()
        _write_reports(csv, got, head, [_column_block([r]) for r in reports])
        want = io.StringIO()
        json.dump({**head, "reports": [dataclasses.asdict(r) for r in reports]},
                  want, indent=1)
        want.write("\n")
        assert got.getvalue() == want.getvalue()
        # each CSV field reads back as its JSON field; nan and NaN read as
        # the same value, and copysign tells -0.0 from 0.0
        header, *lines = csv.getvalue().splitlines()
        assert header == CSV_HEADER
        parsed = json.loads(got.getvalue())["reports"]
        assert len(lines) == len(parsed) == len(reports)
        for line, row in zip(lines, parsed):
            for name, text in zip(CSV_HEADER.split(","), line.split(",")):
                value = row[name]
                if isinstance(value, float):
                    u = float(text)
                    assert (math.isnan(u) and math.isnan(value)) or (
                        u == value
                        and math.copysign(1.0, u) == math.copysign(1.0, value)), (
                        name, text, value)
                else:
                    assert text == (str(value).lower() if name == "holds" else value)


def _equivalence_specs():
    # all eight theorems; gate rejections (t**2 fails alpha < 1, e**t fails
    # m < 1); seeded, swept and explicit x; sampled and explicit g_sup
    return (
        CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                 q_values=(1.0, 2.0), alpha_values=(0.5, 1.0),
                 m_values=(0.5, 1.0), theorems=("T21", "T22", "T13", "T14"),
                 x_random=4, b_star=4.0),
        CaseSpec(f="exp", g="poly:0:1:-1", a=0.0, b=1.0, q_values=(1.0, 3.0),
                 alpha_values=(1.0,), m_values=(0.5, 1.0),
                 theorems=("C21", "C22", "C11", "C12"), x_values=(0.5,),
                 g_sup=0.3),
        CaseSpec(f="monomial:3", g="sin", a=0.5, b=1.0, q_values=(1.5,),
                 alpha_values=(1.0,), m_values=(0.75,),
                 theorems=("T21", "T22"), x_sweep=3),
    )


def test_suite_rows_equal_verify_case(tmp_path):
    specs = _equivalence_specs()
    config = SuiteConfig(cases=specs, output_dir=str(tmp_path),
                         grid=GridSpec(21, 21, 21))
    result = run_suite(config)
    rng = np.random.default_rng(config.seed)
    expected = []
    rejected = 0
    for spec in specs:
        iv = Interval(spec.a, spec.b)
        if spec.x_random is not None:
            xs = sorted(float(v) for v in rng.uniform(iv.a, iv.b, spec.x_random))
        elif spec.x_sweep is not None:
            xs = list(np.linspace(iv.a, iv.b, spec.x_sweep))
        else:
            xs = list(spec.x_values)
        g = parse_function(spec.g)
        pair = DifferentiablePair.from_family(
            parse_function(spec.f), DomainSpec(spec.effective_b_star()))
        g_sup = (spec.g_sup if spec.g_sup is not None
                 else sup_norm(g, iv) * SUP_SAFETY_FACTOR)
        for tid in spec.theorems:
            for q in spec.q_values:
                for alpha in spec.alpha_values:
                    for m in spec.m_values:
                        params = ConvexityParams(alpha, m)
                        gate = (params if TheoremId(tid).uses_class_params
                                else ConvexityParams(1.0, 1.0))
                        if not check_hypothesis(pair, q, gate, config.grid).holds:
                            rejected += 1
                            continue
                        for x in xs:
                            case = BoundCase(pair, g, iv, x, q, params, g_sup)
                            rep = verify_case(case, tid)
                            expected.append(dataclasses.replace(
                                rep, family_f=spec.f, family_g=spec.g))
    assert rejected > 0
    assert result.hypothesis_rejections == rejected
    assert {r.theorem_id for r in expected} == {t.value for t in TheoremId}
    assert list(result.reports) == expected


def test_suite_rhs_is_the_public_closed_form_bit_for_bit(tmp_path):
    # reduction_check and the property tests cross-check the public forms;
    # this pins that they are what the suite writes, to the last bit
    common = dict(q_values=(1.0, 1.5, 3.0), alpha_values=(0.5, 1.0),
                  m_values=(0.5, 0.75, 1.0))
    specs = (
        CaseSpec(f="exp", g="sin", a=0.0, b=1.0, theorems=("T21", "T22", "T13", "T14"),
                 x_sweep=5, b_star=2.0, **common),
        CaseSpec(f="monomial:2", g="monomial:1", a=0.5, b=1.5,
                 theorems=("T21", "T22", "T13", "T14"), x_random=3, **common),
        CaseSpec(f="monomial:3", g="poly:0:1:-1", a=0.0, b=1.0,
                 theorems=("C21", "C22", "C11", "C12"), x_values=(0.5,),
                 b_star=2.0, **common),
    )
    result = run_suite(SuiteConfig(cases=specs, output_dir=str(tmp_path),
                                   grid=GridSpec(21, 21, 21)))
    assert {r.theorem_id for r in result.reports} == {t.value for t in TheoremId}
    differing = []
    for r in result.reports:
        iv = Interval(r.a, r.b)
        fp = derivative(parse_function(r.family_f))
        fp_a, fp_b, fp_scaled = abs(fp(r.a)), abs(fp(r.b)), abs(fp(r.b / r.m))
        g_sup = sup_norm(parse_function(r.family_g), iv) * SUP_SAFETY_FACTOR
        class_args = (r.q, r.alpha, r.m, fp_a, fp_scaled, g_sup)
        expected = {
            "T21": lambda: trapezoid_rhs(iv, r.x, *class_args),
            "T22": lambda: midpoint_rhs(iv, r.x, *class_args),
            "T13": lambda: trapezoid_rhs_convex(iv, r.x, r.q, fp_a, fp_b, g_sup),
            "T14": lambda: midpoint_rhs_convex(iv, r.x, r.q, fp_a, fp_b, g_sup),
            "C21": lambda: trapezoid_rhs_midsplit(iv, *class_args),
            "C22": lambda: midpoint_rhs_midsplit(iv, *class_args),
            "C11": lambda: classical_symmetric_rhs(iv, r.q, fp_a, fp_b, g_sup),
            "C12": lambda: classical_symmetric_rhs(iv, r.q, fp_a, fp_b, g_sup),
        }[r.theorem_id]()
        if r.rhs != expected:
            differing.append((r, expected))
    assert len(result.reports) > 100
    assert differing == []


def _run_one(tmp_path, **overrides):
    kw = dict(f="monomial:2", g="const:1", a=0.0, b=1.0, q_values=(1.0,),
              alpha_values=(1.0,), m_values=(1.0,), theorems=("T21",),
              x_values=(0.5,), b_star=4.0)
    spec = CaseSpec(**{**kw, **overrides})
    return run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path)))


@pytest.mark.parametrize("overrides, message", [
    # |2t| is in the (1, 1/2) class, so at alpha = 1 the gate admits b/m = 2
    (dict(m_values=(0.5,), b_star=1.0), "b/m = 2 exceeds b_star = 1"),
    (dict(theorems=("C21",), x_values=(0.5, 0.25)),
     "C21 requires x at the midpoint, got x=0.25"),
    (dict(theorems=("C21",), g="sin"),
     "C21 requires a weight symmetric about the midpoint"),
    (dict(g_sup=0.5), "g_sup = 0.5 below sup |g| = 1"),
    # the gate scans [0, b_star] whatever [a, b] is, so only the case
    # checks see an interval that leaves it
    (dict(a=-0.5), "[-0.5, 1.0] not contained in [0, 4.0]"),
], ids=["b-over-m", "off-midpoint", "asymmetric-weight", "g-sup-below-sup",
        "a-below-zero"])
def test_run_suite_rejects_invalid_combination_whatever_the_gate(
        overrides, message, tmp_path):
    # the gate admits t**2 at alpha = 1 and rejects it at alpha = 0.5; the
    # same bad input must raise the same error either way
    errors = []
    for alpha in (1.0, 0.5):
        with pytest.raises(InvalidCaseError) as exc:
            _run_one(tmp_path, alpha_values=(alpha,), **overrides)
        errors.append(str(exc.value))
    assert errors == [message, message]


def test_run_suite_computes_sup_once_per_spec(tmp_path, monkeypatch):
    # validate_g_sup reads core's sup_norm, so both names are counted
    import hhbound.core as core
    import hhbound.harness as harness

    calls = []

    def counting_sup_norm(g, iv):
        calls.append((g, iv))
        return sup_norm(g, iv)

    monkeypatch.setattr(harness, "sup_norm", counting_sup_norm)
    monkeypatch.setattr(core, "sup_norm", counting_sup_norm)
    assert len(_run_one(tmp_path).reports) == 1
    assert len(calls) == 1
    calls.clear()
    assert len(_run_one(tmp_path, g_sup=1.0).reports) == 1
    assert len(calls) == 1


def test_run_suite_rejects_overflowing_computed_g_sup(tmp_path):
    # the sup of e**(800 t) on [0, 1] overflows; unchecked, the oracle runs
    # to its panel budget before failing; sup_norm computes the inf without
    # a RuntimeWarning, which this suite turns into an error
    with pytest.raises(InvalidCaseError, match="g_sup must be finite, got inf"):
        _run_one(tmp_path, g="exp:800")


def test_run_suite_rejects_zero_alpha_the_gate_rejects(tmp_path):
    # the check of (alpha, m) in (0, 1]^2 ran only for admitted combinations
    with pytest.raises(InvalidParamsError, match=r"T21 needs \(alpha, m\)"):
        _run_one(tmp_path, alpha_values=(0.0,))


def test_gate_on_working_domain_has_no_false_violations(tmp_path):
    # with x, y only from [a, b] the gate admitted 576 of these combinations
    # and 121 of their rows were violations; the bounds need the class
    # inequality at y = b/m, outside [a, b] for m < 1
    levels = (0.25, 0.5, 0.75, 1.0)
    cases = tuple(
        CaseSpec(f=f, g="const:1", a=a, b=b, q_values=(1.0, 1.5, 2.0, 3.0),
                 alpha_values=levels, m_values=levels, theorems=("T21", "T22"),
                 x_sweep=6)
        for f in ("monomial:2", "monomial:3")
        for a, b in ((0.5, 1.0), (0.2, 0.6), (0.8, 1.0)))
    result = run_suite(SuiteConfig(cases=cases, output_dir=str(tmp_path)))
    assert result.violations == 0
    assert len(result.reports) == 3060
    assert result.hypothesis_rejections == 258


def test_run_suite_asks_one_gate_call_for_bits_alone(tmp_path, monkeypatch):
    import hhbound.convexity as convexity

    calls = []
    entry = harness._gate

    def counted(plan, grid, witnesses):
        calls.append((plan, witnesses))
        return entry(plan, grid, witnesses)

    scratch_sets = []
    scratch = convexity._scratch

    def counted_scratch(grid):
        scratch_sets.append(grid)
        return scratch(grid)

    monkeypatch.setattr(harness, "_gate", counted)
    monkeypatch.setattr(convexity, "_scratch", counted_scratch)
    grid = GridSpec(21, 21, 21)
    # each spec twice: six specs of three (f, b_star)
    specs = _equivalence_specs() * 2
    result = run_suite(SuiteConfig(cases=specs, output_dir=str(tmp_path),
                                   grid=grid))
    [(plan, witnesses)] = calls
    assert not witnesses and scratch_sets == [grid]
    # a request per combination, in report order: a class theorem's own
    # (alpha, m), and (1, 1) for a plain one
    pairs = {}
    runs = [harness._SpecRun(spec, (), pairs, {}) for spec in specs]
    requests = [(run.pair, q, params if tid.uses_class_params else PLAIN)
                for run in runs for tid in run.spec.theorems
                for q in run.spec.q_values for params in run.params]
    # the plan holds each distinct request once, its (pair, m) groups and
    # their q in first-appearance order, and one pair object per
    # (f, b_star), so the gate groups equal pairs by identity
    want = {}
    for pair, q, params in requests:
        want.setdefault((pair, params.m), {}).setdefault(q, set()).add(params.alpha)
    assert plan == want
    assert [(key, list(by_q)) for key, by_q in plan.items()] == [
        (key, list(by_q)) for key, by_q in want.items()]
    assert len({id(pair) for pair, _ in plan}) == len(pairs) == 3
    verdicts = check_hypotheses(requests, grid)
    assert result.hypothesis_rejections == sum(not v.holds for v in verdicts) > 0


def test_run_suite_hashes_pairs_a_few_times_per_spec_and_gate_m(tmp_path,
                                                                monkeypatch):
    # a spec hashes its pair once to share it, and (pair, m) once per gate m
    # to add its requests to the plan and once to read its verdicts back;
    # a request tuple per combination hashed pairs 5,124 times
    calls = []
    hash_pair = DifferentiablePair.__hash__

    def counted(pair):
        calls.append(pair)
        return hash_pair(pair)

    monkeypatch.setattr(DifferentiablePair, "__hash__", counted)
    config = default_suite(str(tmp_path))
    gate_ms = sum(len({m for tid in spec.theorems
                       for m in (spec.m_values if tid.uses_class_params else (1.0,))})
                  for spec in config.cases)
    assert gate_ms == 90
    run_suite(config)
    assert 0 < len(calls) <= 3 * gate_ms


def test_run_suite_keeps_a_theorem_listed_twice(tmp_path):
    # t**2 is admitted at alpha = 1 and rejected at alpha = 0.5; each listing
    # of T21 adds its rows and its rejections
    once = _run_one(tmp_path / "once", alpha_values=(1.0, 0.5))
    twice = _run_one(tmp_path / "twice", alpha_values=(1.0, 0.5),
                     theorems=("T21", "T21"))
    assert (len(once.reports), once.hypothesis_rejections) == (1, 1)
    assert (len(twice.reports), twice.hypothesis_rejections) == (2, 2)
    assert list(twice.reports) == [once.reports[0]] * 2


def test_run_suite_names_the_first_overflow_in_report_order(tmp_path):
    # |f'|**2 overflows for both f, and |f'| does not. The gate scans each
    # (pair, m) group where it first appears in report order, so the second
    # spec's f is named, though the third spec's shares the first one's pair
    def spec(f, b_star, q, m):
        return CaseSpec(f=f, g="const:1", a=0.0, b=1.0, q_values=(q,),
                        alpha_values=(1.0,), m_values=(m,), theorems=("T21",),
                        x_values=(0.5,), b_star=b_star)

    first, second = spec("exp:350", 2.0, 1.0, 1.0), spec("exp:700", 1.0, 2.0, 1.0)
    third = spec("exp:350", 2.0, 2.0, 0.5)
    for specs, named in (((first, second, third), "exp:700"),
                         ((first, third, second), "exp:350")):
        with pytest.raises(InvalidCaseError, match=f"f = {named}, q = 2$"):
            run_suite(SuiteConfig(cases=specs, output_dir=str(tmp_path)))
    # check_hypotheses scans its requests' groups in the same order
    pairs = [DifferentiablePair.from_family(parse_function(s.f),
                                            DomainSpec(s.b_star))
             for s in (first, second, third)]
    with pytest.raises(InvalidCaseError, match="f = exp:700, q = 2$"):
        check_hypotheses([(pairs[0], 1.0, PLAIN), (pairs[1], 2.0, PLAIN),
                          (pairs[2], 2.0, ConvexityParams(1.0, 0.5))])


def test_run_suite_counts_rejections(tmp_path):
    # t**2 is not in the class for alpha < 1, so every combination gates out
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0, 2.0), alpha_values=(0.5,), m_values=(1.0,),
                    theorems=("T21",), x_values=(0.5,), b_star=4.0)
    result = run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path)))
    assert len(result.reports) == 0
    assert result.hypothesis_rejections == 2


def test_random_split_points_are_seeded(tmp_path):
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0,), alpha_values=(1.0,), m_values=(1.0,),
                    theorems=("T21",), x_random=4, b_star=4.0)
    r1 = run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path / "a")))
    r2 = run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path / "b")))
    xs1 = [r.x for r in r1.reports]
    assert xs1 == [r.x for r in r2.reports]
    assert xs1 == sorted(xs1)
    r3 = run_suite(SuiteConfig(cases=(spec,), seed=1,
                               output_dir=str(tmp_path / "c")))
    assert xs1 != [r.x for r in r3.reports]


def test_random_split_points_are_pinned(tmp_path):
    # numpy.random is built only for a run that draws; each x_random spec
    # still draws from one generator seeded by the config, in spec order
    kw = dict(f="monomial:2", g="const:1", q_values=(1.0,), alpha_values=(1.0,),
              m_values=(1.0,), b_star=4.0)
    specs = (CaseSpec(a=0.0, b=1.0, theorems=("T21",), x_random=4, **kw),
             CaseSpec(a=0.0, b=1.0, theorems=("T21",), x_sweep=3, **kw),
             CaseSpec(a=0.5, b=2.0, theorems=("T22",), x_random=3, **kw))
    result = run_suite(SuiteConfig(cases=specs, seed=11, output_dir=str(tmp_path)))
    assert [r.x for r in result.reports] == [
        0.028689008371944547, 0.12857020276919962, 0.49927786244011496,
        0.6014983576233575, 0.0, 0.5, 1.0, 0.6056308642312953,
        0.7218891268661839, 1.8923165344405541]


def test_swept_split_points_are_python_floats(tmp_path):
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0,), alpha_values=(1.0,), m_values=(1.0,),
                    theorems=("T21",), x_sweep=5, b_star=4.0)
    result = run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path)))
    assert [r.x for r in result.reports] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(type(r.x) is float for r in result.reports)


def test_default_suite_shape():
    cfg = default_suite("unused")
    tids = {t for c in cfg.cases for t in c.theorems}
    assert tids == {t.value for t in TheoremId}
    fams_f = {c.f for c in cfg.cases}
    assert fams_f == {"monomial:2", "monomial:3", "exp"}
    fams_g = {c.g for c in cfg.cases}
    assert fams_g == {"const:1", "monomial:1", "poly:0:1:-1", "sin"}
    for c in cfg.cases:
        assert c.q_values == (1.0, 1.5, 2.0, 3.0)


def _is_polynomial(spec: str) -> bool:
    try:
        coefficients(parse_function(spec))
    except ValueError:
        return False
    return True


def test_bundled_polynomial_lhs_within_its_error_of_the_exact_value(tmp_path):
    # every theorem, polynomial (f, g) and q of the bundled suite, at the
    # endpoints, the midpoint and one interior x; the 20 rows where the bound
    # is attained (ROADMAP Baseline) are among them, at x = a or b
    specs = []
    for spec in default_suite().cases:
        if _is_polynomial(spec.f) and _is_polynomial(spec.g):
            if spec.x_sweep is not None:
                a, b = spec.a, spec.b
                spec = dataclasses.replace(
                    spec, x_sweep=None,
                    x_values=(a, a + 0.25 * (b - a), 0.5 * (a + b), b))
            specs.append(spec)
    result = run_suite(SuiteConfig(cases=tuple(specs), output_dir=str(tmp_path)))
    assert {r.theorem_id for r in result.reports} == {t.value for t in TheoremId}
    assert sum(r.tightness > 0.99999 for r in result.reports) == 20
    seen = {}
    for r in result.reports:
        endpoint_rule = TheoremId(r.theorem_id).uses_endpoint_rule
        key = (endpoint_rule, r.family_f, r.family_g, r.a, r.b, r.x)
        if key not in seen:
            f, g, iv = parse_function(r.family_f), parse_function(r.family_g), Interval(r.a, r.b)
            lhs_at = lhs_endpoint_at if endpoint_rule else lhs_point_at
            seen[key] = (lhs_at(f, g, iv, r.x), exact_lhs(endpoint_rule, f, g, iv, r.x))
        (lhs, lhs_err), (exact, terms) = seen[key]
        assert r.lhs == lhs
        assert abs(Fraction(lhs) - exact) <= (Fraction(lhs_err)
                                               + 4 * Fraction(math.ulp(float(terms))))
