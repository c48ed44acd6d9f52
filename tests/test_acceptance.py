"""Acceptance criteria, one test per criterion.

Each test enforces its stated tolerance directly; the conftest terminal
summary turns the outcomes into one PASS/FAIL line per criterion at the end
of the pytest run.
"""

import hashlib
import json
import time

import numpy as np

from hhbound import (
    BoundCase,
    ConvexityParams,
    DifferentiablePair,
    DomainSpec,
    GridSpec,
    Interval,
    TheoremId,
    check_alpha_m_convex,
    check_convex_direct,
    default_suite,
    envelope_excess,
    midpoint_moment,
    oracle_midpoint_moment,
    oracle_trapezoid_moment,
    parse_function,
    reduction_check,
    residual_endpoint_identity,
    residual_point_identity,
    run_suite,
    sup_norm,
    trapezoid_moment,
    verify_case,
)

UNIT = Interval(0.0, 1.0)
SHIFTED = Interval(2.0, 5.0)
DOM = DomainSpec(4.0)
PLAIN = ConvexityParams(1.0, 1.0)

ALPHAS = (0.25, 0.5, 0.75, 1.0)


def test_criterion_1_moments_match_oracle():
    """Closed-form moments vs adaptive quadrature, 88 checks per constant."""
    start = time.perf_counter()
    checked_m = checked_a = 0
    worst = 0.0
    for iv in (UNIT, SHIFTED):
        for alpha in ALPHAS:
            for x in np.linspace(iv.a, iv.b, 11):
                x = float(x)
                m = trapezoid_moment(iv, x, alpha)
                om = oracle_trapezoid_moment(iv, x, alpha).value
                rel = abs(m - om) / abs(om)
                assert rel <= 1e-9, (iv, alpha, x, m, om)
                worst = max(worst, rel)
                checked_m += 1
                a = midpoint_moment(iv, x, alpha)
                oa = oracle_midpoint_moment(iv, x, alpha).value
                rel = abs(a - oa) / abs(oa)
                assert rel <= 1e-9, (iv, alpha, x, a, oa)
                worst = max(worst, rel)
                checked_a += 1
    elapsed = time.perf_counter() - start
    assert checked_m == 88 and checked_a == 88
    assert elapsed < 10.0
    print(f"176 moment checks, worst rel dev {worst:.3e}, {elapsed:.2f} s")


def test_criterion_2_identity_residuals_and_envelope():
    """Both integral-identity residuals below 1e-7; envelope below 1e-10."""
    fs = ("monomial:2", "monomial:3", "exp", "affine:1:0.5")
    gs = ("const:1", "monomial:1", "sin")
    xs = np.linspace(0.0, 1.0, 20)
    worst_res = 0.0
    for fspec in fs:
        pair = DifferentiablePair.from_family(parse_function(fspec), DOM)
        for gspec in gs:
            g = parse_function(gspec)
            g_sup = sup_norm(g, UNIT) * (1.0 + 1e-6)
            for x in xs:
                case = BoundCase(pair, g, UNIT, float(x), 1.0, PLAIN, g_sup)
                r1 = residual_endpoint_identity(case)
                r2 = residual_point_identity(case)
                assert r1 <= 1e-7, (fspec, gspec, x, r1)
                assert r2 <= 1e-7, (fspec, gspec, x, r2)
                worst_res = max(worst_res, r1, r2)
    worst_exc = -np.inf
    for gspec in gs:
        g = parse_function(gspec)
        for x in xs:
            exc = envelope_excess(g, UNIT, float(x), 1001)
            assert exc <= 1e-10, (gspec, x, exc)
            worst_exc = max(worst_exc, exc)
    print(f"240 residual pairs, worst {worst_res:.3e}; "
          f"60 envelope profiles, worst excess {worst_exc:.3e}")


def test_criterion_3_reduction_to_plain_convex_forms():
    """At (1, 1) every general bound equals its plain-convex counterpart."""
    for iv in (UNIT, SHIFTED):
        worst = reduction_check(iv, 100)
        assert worst <= 1e-12, (iv, worst)
    print("4 identity pairs x 100 seeded cases x 2 intervals, all within 1e-12")


def test_criterion_4_bundled_suite_zero_violations(tmp_path):
    """Every gated case of the bundled suite satisfies its inequality."""
    result = run_suite(default_suite(str(tmp_path)))
    assert result.violations == 0
    assert len(result.reports) > 10000  # the sweep really ran
    assert result.wall_time < 300.0
    print(f"{len(result.reports)} cases, {result.hypothesis_rejections} "
          f"gated out, 0 violations, {result.wall_time:.1f} s")


def _spot_case(x):
    pair = DifferentiablePair.from_family(parse_function("monomial:2"), DOM)
    return BoundCase(pair, parse_function("const:1"), UNIT, x, 1.0, PLAIN, 1.0)


def test_criterion_5_known_value_spot_checks():
    """Frozen values for the unit-weight square case on [0, 1]."""
    rep = verify_case(_spot_case(0.5), TheoremId.T21)
    assert abs(rep.lhs - 1.0 / 6.0) <= 1e-9
    assert rep.rhs == 0.25
    rep = verify_case(_spot_case(0.5), TheoremId.T22)
    assert abs(rep.lhs - 1.0 / 12.0) <= 1e-9
    assert rep.rhs == 0.25
    eq = verify_case(_spot_case(0.0), TheoremId.T21)
    assert abs(eq.tightness - 1.0) <= 1e-9
    assert eq.holds
    print("lhs 1/6 and 1/12, rhs exactly 1/4, equality case tightness 1")


def test_criterion_6_convexity_checker_verdicts():
    """Certifies the square, rejects its negation, agrees with the plain check."""
    assert check_alpha_m_convex(parse_function("monomial:2"), DOM, PLAIN).holds

    v = check_alpha_m_convex(parse_function("negmonomial:2"), DOM, PLAIN)
    assert not v.holds and v.witness is not None
    w = v.witness
    fn = parse_function("negmonomial:2")
    lhs = fn(w.t * w.x + (1.0 - w.t) * w.y)
    rhs = w.t * fn(w.x) + (1.0 - w.t) * fn(w.y)
    assert abs((lhs - rhs) - w.gap) <= 1e-12 * (1.0 + abs(w.gap))
    again = check_alpha_m_convex(fn, DOM, PLAIN)
    assert again.witness == w

    samples = ("const:1", "affine:1:2", "poly:0:1:-1", "monomial:2",
               "monomial:3", "negmonomial:2", "exp", "sin",
               "pwlinear:0:1:2:0:4:1", "pwlinear:0:0:2:1:4:0")
    agreements = 0
    for spec in samples:
        f = parse_function(spec)
        a = check_alpha_m_convex(f, DOM, PLAIN, GridSpec(31, 31, 31))
        b = check_convex_direct(f, DOM, GridSpec(31, 31, 31))
        assert a.holds == b.holds, spec
        assert a.witness == b.witness, spec
        agreements += 1
    print(f"witness gap reproduced; {agreements} registry instances agree "
          f"verdict-for-verdict with the plain check")


def test_criterion_7_reports_are_byte_identical(tmp_path):
    """Two suite runs write identical CSV and JSON bytes."""
    r1 = run_suite(default_suite(str(tmp_path / "run1")))
    r2 = run_suite(default_suite(str(tmp_path / "run2")))
    csv1, csv2 = r1.csv_path.read_bytes(), r2.csv_path.read_bytes()
    json1, json2 = r1.json_path.read_bytes(), r2.json_path.read_bytes()
    assert csv1 == csv2
    assert json1 == json2
    print(f"report.csv ({len(csv1)} bytes) and report.json ({len(json1)} "
          f"bytes) identical across runs")


# a change that moves these bytes on purpose updates the pins and says why
BUNDLED_CSV_SHA256 = "42b71dd8633ba05bdd98581b2ecbfdfe346856a113a4c6ae7e20768724d500ba"
BUNDLED_JSON_SHA256 = "bd0310f76dad20dcbcc38cfed588ade1395bd3e42f14aec732ef3fce6bc1d88c"


def test_bundled_report_digests(tmp_path):
    """The bundled suite's reports are the pinned bytes."""
    result = run_suite(default_suite(str(tmp_path)))
    assert hashlib.sha256(result.csv_path.read_bytes()).hexdigest() == BUNDLED_CSV_SHA256
    assert hashlib.sha256(result.json_path.read_bytes()).hexdigest() == BUNDLED_JSON_SHA256


def test_bundled_csv_reals_are_the_json_reals(tmp_path):
    """Every field of report.csv reads back as its report.json value, each
    real bit for bit (float.hex tells -0.0 from 0.0), so a move of the CSV
    pin is a change of text and not of value."""
    result = run_suite(default_suite(str(tmp_path)))
    header, *lines = result.csv_path.read_text(encoding="utf-8").splitlines()
    rows = json.loads(result.json_path.read_text(encoding="utf-8"))["reports"]
    assert len(lines) == len(rows) == len(result.reports)
    names = header.split(",")
    for line, row in zip(lines, rows):
        for name, text in zip(names, line.split(",")):
            value = row[name]
            if isinstance(value, float):
                assert float(text).hex() == value.hex(), (name, text, value)
            else:
                assert text == (str(value).lower() if name == "holds" else value)
