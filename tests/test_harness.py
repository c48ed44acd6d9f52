"""Suite configuration, case verification, reports, determinism."""

import dataclasses
import io
import json
import math

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
    SuiteConfig,
    TheoremId,
    check_hypothesis,
    default_suite,
    format_real,
    parse_function,
    reduction_check,
    run_suite,
    sup_norm,
    verify_case,
)
from hhbound.harness import _stream_json_report

UNIT = Interval(0.0, 1.0)


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


def test_verify_case_equality_point():
    rep = verify_case(_known_case(x=0.0), TheoremId.T21)
    assert abs(rep.tightness - 1.0) <= 1e-9
    assert rep.holds


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


def test_run_suite_report_content_is_placement_free(tmp_path):
    result = run_suite(_small_config(tmp_path))
    text = result.json_path.read_text(encoding="utf-8")
    assert "output_dir" not in text
    assert "wall_time" not in text
    assert "jobs" not in text


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


def test_run_suite_json_equals_json_dump(tmp_path):
    config = _small_config(tmp_path)
    result = run_suite(config)
    echo = config.to_dict()
    del echo["output_dir"]
    payload = {"config": echo, "seed": config.seed,
               "violations": result.violations,
               "hypothesis_rejections": result.hypothesis_rejections,
               "max_tightness": result.max_tightness,
               "reports": [r.to_dict() for r in result.reports]}
    want = json.dumps(payload, indent=1) + "\n"
    assert result.json_path.read_text(encoding="utf-8") == want


def test_streamed_json_handles_nonfinite_and_numpy_floats():
    rows = [
        CaseReport("T21", "monomial:2", "const:1", 0.0, 1.0, np.float64(0.1),
                   1.0, 0.5, 0.25, 1.0 / 3.0, 0.0, -1.0 / 3.0, math.inf, False),
        CaseReport("C22", "caf\u00e9", "sin", 0, 2.0, np.float64(1.0), 2.0,
                   1.0, 1.0, math.nan, -math.inf, 1e-300, 5e-324, True),
        # finite rows: an int a, then all floats (the one-pass layout)
        CaseReport("T13", "caf\u00e9", "sin", 0, 1.0, np.float64(0.1), 1.5,
                   1.0, 1.0, 0.25, 0.5, 0.25, 0.5, True),
        CaseReport("T14", "caf\u00e9\"", "const:1", -0.0, 1.0,
                   np.float64(0.7), 1.5, 0.75, 0.25, 1e-300, 5e-324, -1e-300,
                   2.0 ** 1000, False),
        # every field finite, but their sum overflows
        CaseReport("T21", "exp", "const:1", 0.0, 1.0, np.float64(0.5), 1.0,
                   1.0, 1.0, 1e308, 1e308, 0.0, 1.0, True),
        CaseReport("T21", "exp", "const:1", 0.0, 1.0, np.float64(1e308), 1.0,
                   1.0, 1.0, 1e308, 0.5, 0.0, 1.0, True),
    ]
    head = {"config": {"cases": [{"x": {"sweep": 3}, "g_sup": None}],
                       "grid": {"nx": 3}}, "seed": 1, "violations": 1,
            "hypothesis_rejections": 0, "max_tightness": 0.5}
    for reports in (rows, rows[:1], []):
        got = io.StringIO()
        _stream_json_report(got, head, reports)
        want = io.StringIO()
        json.dump({**head, "reports": [r.to_dict() for r in reports]}, want,
                  indent=1)
        want.write("\n")
        assert got.getvalue() == want.getvalue()


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
                        if not check_hypothesis(pair, q, gate, iv, config.grid).holds:
                            rejected += 1
                            continue
                        for x in xs:
                            case = BoundCase(pair, g, iv, x, q, params, g_sup)
                            rep = verify_case(case, tid)
                            expected.append(CaseReport(
                                tid, spec.f, spec.g, iv.a, iv.b, x, q, alpha,
                                m, rep.lhs, rep.rhs, rep.slack, rep.tightness,
                                rep.holds))
    assert rejected > 0
    assert result.hypothesis_rejections == rejected
    assert {r.theorem_id for r in expected} == {t.value for t in TheoremId}
    assert list(result.reports) == expected


def test_run_suite_rejects_b_over_m_beyond_b_star(tmp_path):
    # |2t| is in the (1, 1/2) class, so the gate admits the case and the
    # template check must catch b/m = 2 > b_star = 1
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0,), alpha_values=(1.0,), m_values=(0.5,),
                    theorems=("T21",), x_values=(0.5,), b_star=1.0)
    with pytest.raises(InvalidCaseError, match="b/m"):
        run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path)))


def test_run_suite_rejects_off_midpoint_split(tmp_path):
    spec = CaseSpec(f="monomial:2", g="const:1", a=0.0, b=1.0,
                    q_values=(1.0,), alpha_values=(1.0,), m_values=(1.0,),
                    theorems=("C21",), x_values=(0.5, 0.25), b_star=4.0)
    with pytest.raises(InvalidCaseError, match="midpoint"):
        run_suite(SuiteConfig(cases=(spec,), output_dir=str(tmp_path)))


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
