"""Command-line interface: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hhbound
import hhbound.cli as cli
import hhbound.quadrature as quadrature
from hhbound.cli import main


def test_constants_reports_tiny_deviation(capsys):
    assert main(["constants", "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "endpoint-rule moment" in out and "point-rule moment" in out
    assert "rel_dev" in out


def test_constants_converges_for_small_alpha(capsys):
    # the twins once stopped with an error estimate of 1.03e-12 on
    # [0.925, 2.5], the cusp of the weight at b pushing it past 1e-12
    assert main(["constants", "--a", "-1", "--b", "2.5", "--x", "0.925",
                 "--alpha", "0.1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.count("rel_dev") == 2


def test_constants_rejects_bad_alpha(capsys):
    assert main(["constants", "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0"]) == 1
    assert capsys.readouterr().err == (
        "hhbound constants: error: alpha must lie in (0, 1], got 0.0\n")


def test_constants_moments_that_underflow_agree(tmp_path):
    # on [0, 1e-200] both moments and both oracle twins are 0.0; rel_dev once
    # divided by the oracle's 0.0
    proc = _run_cli(tmp_path, "constants", "--a", "0", "--b", "1e-200",
                    "--x", "0", "--alpha", "1")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("oracle=0.0 rel_dev=0.000e+00") == 2


def test_constants_overflow_is_one_error_line(tmp_path):
    # the closed form's w ** (alpha + 1) overflows a float at this scale
    proc = _run_cli(tmp_path, "constants", "--a", "1e300", "--b", "1.5e300",
                    "--x", "1.2e300", "--alpha", "0.5")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "hhbound constants: error: OverflowError: "
        "(34, 'Numerical result out of range')"]


def test_verify_inline_case(tmp_path, capsys):
    code = main(["verify", "--f", "monomial:2", "--g", "const:1",
                 "--a", "0", "--b", "1", "--x", "0.5", "--q", "1",
                 "--alpha", "1", "--m", "1", "--theorem", "T21",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "holds=true" in out
    assert (tmp_path / "report.csv").exists()
    assert (tmp_path / "report.json").exists()


def test_verify_gates_on_working_domain(tmp_path, capsys):
    # admitted by a gate on [a, b]^2 only, this case reported a violation
    code = main(["verify", "--f", "monomial:2", "--g", "const:1",
                 "--a", "0.2", "--b", "0.6", "--x", "0.2", "--q", "1",
                 "--alpha", "0.25", "--m", "0.25", "--theorem", "T21",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "(0 rows, 0 violations, 1 hypothesis rejections)" in out


def test_verify_has_no_jobs_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--f", "monomial:2", "--g", "const:1", "--a", "0",
              "--b", "1", "--x", "0.5", "--q", "1", "--alpha", "1", "--m", "1",
              "--theorem", "T21", "--out", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err


def test_verify_rejects_zero_m(tmp_path, capsys):
    code = main(["verify", "--f", "monomial:2", "--g", "const:1",
                 "--a", "0", "--b", "1", "--x", "0.25", "--q", "2",
                 "--alpha", "0.75", "--m", "0", "--theorem", "T21",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "hhbound verify: error: m = 0 leaves no evaluable scaled endpoint b/m"]


@pytest.mark.parametrize("f, g, m, q, message", [
    # f = e**(800 t) overflows inside [0, 1], so the derivative check is NaN
    ("exp:800", "const:1", "1", "1", "derivative check for exp:800 is not finite"),
    # f' = 250 e**(250 t) overflows on the gate domain [0, b/m] = [0, 4]
    ("exp:250", "const:1", "0.25", "1",
     "|f'|**q is not finite on [0, 4] for f = exp:250"),
    # f' is finite on [0, 1] but its square is not
    ("exp:700", "const:1", "1", "2",
     "|f'|**q is not finite on [0, 1] for f = exp:700"),
    # sup |g| = e**800 overflows to inf, which the g_sup check rejects
    ("monomial:2", "exp:800", "1", "1", "g_sup must be finite, got inf"),
], ids=["derivative-check", "gate-derivative", "gate-power", "weight-sup"])
def test_verify_rejects_non_finite_case_in_one_line(f, g, m, q, message, tmp_path):
    proc = _run_cli(tmp_path, "verify", "--f", f, "--g", g, "--a", "0",
                    "--b", "1", "--x", "0.5", "--q", q, "--alpha", "1",
                    "--m", m, "--theorem", "T21", "--out", "reports")
    assert proc.returncode == 1
    # one error line and no RuntimeWarning from an overflow
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("hhbound verify: error: " + message)


def test_verify_non_finite_oracle_integrand_is_one_error_line(tmp_path):
    # f and g are finite on [0, 1], but f * g = e**(800 t) overflows near
    # t = 1: the oracle ran out its split budget and reported no convergence
    proc = _run_cli(tmp_path, "verify", "--f", "exp:400", "--g", "exp:400",
                    "--a", "0", "--b", "1", "--x", "0.5", "--q", "1",
                    "--alpha", "1", "--m", "1", "--theorem", "T13",
                    "--out", "reports")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("hhbound verify: error: integrand is not finite at t=")


def test_verify_v_shaped_f(tmp_path, capsys):
    # |t - 1| on [0, 3]: the derivative check straddled its kink at t = 1,
    # and the gate evaluated it an ulp past its last knot at b_star = 3
    assert main(["verify", "--f", "pwlinear:0:1:1:0:3:2", "--g", "const:1",
                 "--a", "0", "--b", "3", "--x", "1.5", "--q", "1", "--alpha",
                 "1", "--m", "1", "--theorem", "T13", "--out",
                 str(tmp_path)]) == 0
    assert "lhs=2.0 rhs=2.2500022499999996 holds=true" in capsys.readouterr().out


SPIKE = ("pwlinear:0:0.001:0.5078025:0.001:0.5078125:100000:0.5078225:0.001"
         ":1:0.001")


def test_verify_spike_weight_holds(tmp_path, capsys):
    # the weight peaks at 1e5 between the points of a 10,001-point scan; a
    # sampled sup of 0.001 turned this case into a false violation
    code = main(["verify", "--f", "monomial:2", "--g", SPIKE, "--a", "0",
                 "--b", "1", "--x", "0.25", "--q", "1", "--alpha", "1",
                 "--m", "1", "--theorem", "T21", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "holds=true" in out
    assert "(1 rows, 0 violations, 0 hypothesis rejections)" in out


@pytest.mark.parametrize("g, code", [
    # a spike at 0.305 with none at 0.695 passed 101 sampled offsets
    ("pwlinear:0:1:0.303:1:0.305:50:0.307:1:1:1", 1),
    ("pwlinear:0:1:0.303:1:0.305:50:0.307:1:0.693:1:0.695:50:0.697:1:1:1", 0),
], ids=["one-spike", "mirrored-spikes"])
def test_verify_symmetric_weight_check_sees_knots(g, code, tmp_path, capsys):
    assert main(["verify", "--f", "monomial:2", "--g", g, "--a", "0", "--b",
                 "1", "--x", "0.5", "--q", "1", "--alpha", "1", "--m", "1",
                 "--theorem", "C21", "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.splitlines() == [
            "hhbound verify: error: C21 requires a weight symmetric about "
            "the midpoint"]
    else:
        assert "holds=true" in out


@pytest.mark.parametrize("theorem, g, x, q, alpha, message", [
    # alpha = 0.5 and alpha = 0 gate t**2 out, so these were never checked
    ("T21", "const:1", "5", "1", "0.5", "x=5.0 outside [0.0, 1.0]"),
    ("T21", "const:1", "nan", "1", "0.5", "x=nan outside [0.0, 1.0]"),
    ("T21", "const:1", "0.5", "nan", "0.5",
     "q must be finite and >= 1, got nan"),
    # q = inf sends |f'|**q to 0 where |f'| < 1, and the rhs to nan
    ("T21", "const:1", "0.5", "inf", "1", "q must be finite and >= 1, got inf"),
    ("C21", "const:1", "0.25", "1", "0.5",
     "C21 requires x at the midpoint, got x=0.25"),
    ("C21", "sin", "0.5", "1", "0.5",
     "C21 requires a weight symmetric about the midpoint"),
    ("T21", "const:1", "0.5", "1", "0",
     "T21 needs (alpha, m) in (0, 1]^2, got (0.0, 1.0)"),
], ids=["x-outside", "x-nan", "q-nan", "q-inf", "off-midpoint",
        "asymmetric-weight", "zero-alpha"])
def test_verify_rejects_bad_x_or_q_in_one_line(theorem, g, x, q, alpha, message,
                                               tmp_path):
    proc = _run_cli(tmp_path, "verify", "--f", "monomial:2", "--g", g,
                    "--a", "0", "--b", "1", "--x", x, "--q", q,
                    "--alpha", alpha, "--m", "1", "--theorem", theorem,
                    "--out", "reports")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["hhbound verify: error: " + message]


def test_verify_rejects_an_interval_wider_than_the_float_range(tmp_path, capsys):
    # both ends are finite but b - a overflows; the check used to fail later,
    # on a derivative read at t=nan, after numpy overflow warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "--f", "monomial:2", "--g", "const:1",
                     "--a=-9e307", "--b=9e307", "--x", "0", "--q", "2",
                     "--alpha", "1", "--m", "1", "--theorem", "T21",
                     "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hhbound verify: error: width b - a must be "
                            "finite, got [-9e+307, 9e+307]\n")


def _run_cli(cwd, *args):
    """hhbound in a fresh interpreter, so warnings reach stderr as printed."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(hhbound.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "hhbound.cli", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("k", ["31", "300"])
def test_verify_steep_exponential_gets_a_verdict(k, tmp_path, capsys):
    # the oracle used to stop with "error estimate ... above requested
    # tolerance" on these finite integrands
    code = main(["verify", "--f", f"exp:{k}", "--g", "const:1", "--a", "0",
                 "--b", "1", "--x", "0.5", "--q", "1", "--alpha", "1",
                 "--m", "1", "--theorem", "T21", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert f"T21 f=exp:{k} " in out and "holds=true" in out


def _imported_modules(args, cwd):
    # -X importtime logs every module the interpreter imports to stderr
    env = dict(os.environ,
               PYTHONPATH=str(Path(hhbound.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line]


@pytest.mark.parametrize("args", [
    ["-c", "import hhbound"],
    ["-m", "hhbound.cli", "verify", "--f", "monomial:2", "--g", "const:1",
     "--a", "0", "--b", "1", "--x", "0.25", "--q", "2", "--alpha", "0.75",
     "--m", "0.75", "--theorem", "T21", "--out", "reports"],
])
def test_no_scipy_import(args, tmp_path):
    modules = _imported_modules(args, tmp_path)
    assert "hhbound" in modules
    assert not [m for m in modules if m.split(".")[0] == "scipy"]


def test_verify_does_not_import_numpy_random(tmp_path):
    # numpy.random, with secrets and hmac, loads only for seeded split points
    modules = _imported_modules(
        ["-m", "hhbound.cli", "verify", "--f", "monomial:2", "--g", "const:1",
         "--a", "0", "--b", "1", "--x", "0.25", "--q", "2", "--alpha", "0.75",
         "--m", "0.75", "--theorem", "T21", "--out", "reports"], tmp_path)
    assert "hhbound.harness" in modules
    assert "numpy.random" not in modules


def test_identities_does_not_import_numpy_ma(tmp_path):
    # np.union1d's np.unique imports numpy.ma; the antiderivative table
    # merges its grid and knots without it
    modules = _imported_modules(
        ["-m", "hhbound.cli", "identities", "--f", "monomial:2",
         "--g", "pwlinear:0:0:0.5:1:1:0", "--a", "0", "--b", "1",
         "--x", "0.25"], tmp_path)
    assert "hhbound.quadrature" in modules
    assert "numpy.ma" not in modules


def test_verify_requires_full_inline_case(capsys):
    assert main(["verify", "--f", "monomial:2"]) == 1
    assert "required" in capsys.readouterr().err


def test_verify_from_config(tmp_path, capsys):
    cfg = {
        "cases": [{
            "f": "monomial:2", "g": "sin", "a": 0.0, "b": 1.0,
            "x": {"values": [0.25, 0.75]},
            "q": [1.0], "alpha": [1.0], "m": [1.0],
            "theorems": ["T21", "T22"], "b_star": 4.0,
        }],
        "seed": 3,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["verify", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "4 rows" in out and "0 violations" in out


def _malformed(edit):
    case = {"f": "monomial:2", "g": "const:1", "a": 0.0, "b": 1.0,
            "x": {"values": [0.5]}, "q": [1.0], "alpha": [1.0], "m": [1.0],
            "theorems": ["T21"], "b_star": 4.0}
    return edit(case) or {"cases": [case]}


@pytest.mark.parametrize("config, message", [
    (_malformed(lambda c: c.update(f=5)),
     "f must be a family spec string, got 5"),
    (_malformed(lambda c: c.update(x={"sweep": 2.5})),
     "x_sweep must be an integer, got 2.5"),
    (_malformed(lambda c: c.update(x={"random": 2.5})),
     "x_random must be an integer, got 2.5"),
    (_malformed(lambda c: c.update(x=5)), "malformed suite config: "),
    (_malformed(lambda c: c.update(q=1)), "q_values must be a list, got 1"),
    (_malformed(lambda c: c.pop("q") and None),
     "malformed suite config: KeyError: 'q'"),
    (_malformed(lambda c: [c]), "malformed suite config: "),
    (_malformed(lambda c: c.update(q=[])), "q_values must not be empty"),
    (_malformed(lambda c: c.update(alpha=[])), "alpha_values must not be empty"),
    (_malformed(lambda c: c.update(m=[])), "m_values must not be empty"),
    (_malformed(lambda c: c.update(theorems=[])), "theorems must not be empty"),
    (_malformed(lambda c: c.update(theorems="T21")),
     "theorems must be a list, got 'T21'"),
    (_malformed(lambda c: c.update(x={"values": []})),
     "x_values must not be empty"),
    (_malformed(lambda c: c.update(x={"random": 0})),
     "x random needs at least 1 point"),
    (_malformed(lambda c: c.update(x={"random": -1})),
     "x random needs at least 1 point"),
    (dict(_malformed(lambda c: None), seed=3.9),
     "seed must be an integer, got 3.9"),
    (dict(_malformed(lambda c: None), seed="5"),
     "seed must be an integer, got '5'"),
    (dict(_malformed(lambda c: None), seed=True),
     "seed must be an integer, got True"),
    (dict(_malformed(lambda c: None), seed=-1),
     "seed must be non-negative, got -1"),
    (dict(_malformed(lambda c: None), grid={"nx": 3.7}),
     "grid.nx must be an integer, got 3.7"),
    (dict(_malformed(lambda c: None), grid={"nx": "7"}),
     "grid.nx must be an integer, got '7'"),
    (dict(_malformed(lambda c: None), output_dir=5),
     "output_dir must be a path string, got 5"),
], ids=["f-int", "sweep-float", "random-float", "x-int", "q-scalar",
        "q-missing", "top-level-list", "q-empty", "alpha-empty", "m-empty",
        "theorems-empty", "theorems-string", "values-empty", "random-zero",
        "random-negative", "seed-float", "seed-string", "seed-bool",
        "seed-negative", "grid-float", "grid-string", "output-dir-int"])
def test_verify_rejects_malformed_config_in_one_line(config, message, tmp_path,
                                                     capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    # a traceback would propagate out of main; an empty run exits 0
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("hhbound verify: error: " + message)


def test_verify_missing_config_file(capsys):
    assert main(["verify", "--config", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_classify_square_all_hold(tmp_path, capsys):
    code = main(["classify", "--f", "monomial:2", "--bstar", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if "," in l]
    assert lines[0] == "alpha,m,holds,witness_x,witness_y,witness_t,gap"
    assert all(",true," in l for l in lines[1:])
    assert (tmp_path / "classify.csv").exists()


def test_classify_negated_square_has_witness(tmp_path, capsys):
    code = main(["classify", "--f", "negmonomial:2", "--bstar", "2",
                 "--alpha-grid", "1", "--m-grid", "1", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    row = [l for l in out.splitlines() if l.startswith("1.0,1.0,")][0]
    cells = row.split(",")
    assert cells[2] == "false"
    assert all(c != "" for c in cells[3:])  # witness coordinates present


def test_classify_rejects_bad_grid(capsys):
    assert main(["classify", "--f", "monomial:2", "--bstar", "2",
                 "--m-grid", "a,b"]) == 1


def test_classify_grid_past_memory_is_one_error_line(tmp_path):
    # a 10**7 x 10**7 slab asks for 728 TiB, which numpy refuses at once
    # without touching memory
    proc = _run_cli(tmp_path, "classify", "--f", "monomial:2", "--bstar", "2",
                    "--ny", "10000000", "--nt", "10000000",
                    "--out", str(tmp_path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(
        "hhbound classify: error: MemoryError: Unable to allocate 728. TiB")


@pytest.mark.parametrize("f, g, a, b, x", [
    ("monomial:2", "sin", "0", "1", "0.3"),
    # the residuals need no q, class parameters or b_star, so [a, b] may
    # reach left of 0
    ("exp", "sin", "-1", "0", "-0.5"),
    ("monomial:2", "pwlinear:-1:0:0:1:1:0", "-1", "1", "0.25"),
    # terms of size 2.2e8 and 4.7e12: the residuals, 3.6e-3 and 309, are
    # rounding at that scale and only an absolute gate rejects them
    ("exp:20", "sin", "0", "1", "0.3"),
    ("exp:30", "sin", "0", "1", "0.3"),
], ids=["unit", "left-of-zero", "across-zero", "large-exp20", "large-exp30"])
def test_identities_within_tolerance(f, g, a, b, x, capsys):
    code = main(["identities", "--f", f, "--g", g, "--a", a, "--b", b, "--x", x])
    assert code == 0
    assert "within tolerance" in capsys.readouterr().out


def test_identities_split_outer_integrals_at_the_knots(capsys):
    # the kink of g at 0 lies inside [a, x]: integrated whole, that branch
    # left a point residual of 6.5e-11
    code = main(["identities", "--f", "monomial:2", "--g", "pwlinear:-1:0:0:1:1:0",
                 "--a", "-1", "--b", "1", "--x", "0.25"])
    assert code == 0
    printed = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                   if ":" in line)
    assert float(printed["point-identity residual"]) < 1e-15


def test_identities_flag_a_kernel_error_at_small_scale(monkeypatch, capsys):
    # with f = 1e-9 t**2 every residual lies far below 1e-7 whatever its
    # error, so only a gate relative to the identity's terms sees a kernel
    # that is 1e-4 off
    kernel = quadrature._KernelTimesDeriv.__call__
    monkeypatch.setattr(quadrature._KernelTimesDeriv, "__call__",
                        lambda self, t: kernel(self, t) * (1.0 + 1e-4))
    # the oracle's memo keys on the integrand, not on what it computes
    quadrature._integrate_cached.cache_clear()
    try:
        code = main(["identities", "--f", "poly:0:0:1e-9", "--g", "sin",
                     "--a", "0", "--b", "1", "--x", "0.3"])
    finally:
        quadrature._integrate_cached.cache_clear()
    assert code == 2
    assert "TOLERANCE EXCEEDED" in capsys.readouterr().out


_UNIT_IDENTITIES = ["identities", "--f", "monomial:2", "--g", "sin",
                    "--a", "0", "--b", "1", "--x", "0.3"]


@pytest.mark.parametrize("residual, scale", [("_endpoint_residual", 0),
                                             ("_point_residual", 1)])
@pytest.mark.parametrize("share, code", [(0.9e-7, 0), (1.1e-7, 2)])
def test_identities_residual_gate_is_pinned_from_both_sides(
        monkeypatch, capsys, residual, scale, share, code):
    # no natural input leaves a residual near 1e-7 of its identity's terms,
    # so each residual is set to a share of them just inside and just
    # outside the gate; a gate ten times wider or narrower flips one verdict
    monkeypatch.setattr(cli, residual, lambda pair, g, iv, x: share * cli._identity_scales(
        pair.f, g, iv, x)[scale])
    assert main(_UNIT_IDENTITIES) == code


@pytest.mark.parametrize("share, code", [(0.9e-10, 0), (1.1e-10, 2)])
def test_identities_envelope_gate_is_pinned_from_both_sides(monkeypatch, capsys,
                                                            share, code):
    # the envelope excess of a natural weight is 0.0 or far below the gate,
    # so it is set to a share of sup |g| (b - a) just inside and just outside
    monkeypatch.setattr(cli, "envelope_excess",
                        lambda g, iv, x, n: share * cli.sup_norm(g, iv) * (iv.b - iv.a))
    assert main(_UNIT_IDENTITIES) == code


@pytest.mark.parametrize("f, g", [("monomial:2", "affine:-1:0"),
                                  ("exp", "sin:10")])
def test_identities_hold_for_a_weight_of_either_sign(f, g, capsys):
    # the bounds use g only through |W(t) - W(s)| <= sup|g| |t - s|, W an
    # antiderivative of g, so a negative or sign-changing weight is valid
    code = main(["identities", "--f", f, "--g", g,
                 "--a", "0", "--b", "1", "--x", "0.3"])
    assert code == 0
    assert "within tolerance" in capsys.readouterr().out


def test_identities_rejects_non_finite_f_in_one_line(tmp_path):
    # e**(800 t) overflows on [0, 1]: the derivative check rejects it before
    # the oracle runs into warnings and its panel budget
    proc = _run_cli(tmp_path, "identities", "--f", "exp:800", "--g", "const:1",
                    "--a", "0", "--b", "1", "--x", "0.5")
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(
        "hhbound identities: error: derivative check for exp:800 is not finite")


def test_identities_rejects_outside_x(capsys):
    assert main(["identities", "--f", "monomial:2", "--g", "sin",
                 "--a", "0", "--b", "1", "--x", "2.0"]) == 1


def test_unknown_family_is_a_usage_error(capsys):
    assert main(["classify", "--f", "bogus:1", "--bstar", "2"]) == 1
    assert "unknown family" in capsys.readouterr().err


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
