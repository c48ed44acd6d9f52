"""Command-line interface: subcommands, outputs, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhbound
from hhbound.cli import main


def test_constants_reports_tiny_deviation(capsys):
    assert main(["constants", "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "1"]) == 0
    out = capsys.readouterr().out
    assert "endpoint-rule moment" in out and "point-rule moment" in out
    assert "rel_dev" in out


def test_constants_rejects_bad_alpha(capsys):
    assert main(["constants", "--a", "0", "--b", "1", "--x", "0.5",
                 "--alpha", "0"]) == 1
    assert "error" in capsys.readouterr().err


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


@pytest.mark.parametrize("f, m, q, message", [
    # f = e**(800 t) overflows inside [0, 1], so the derivative check is NaN
    ("exp:800", "1", "1", "derivative check for exp:800 is not finite"),
    # f' = 250 e**(250 t) overflows on the gate domain [0, b/m] = [0, 4]
    ("exp:250", "0.25", "1", "|f'|**q is not finite on [0, 4] for f = exp:250"),
    # f' is finite on [0, 1] but its square is not
    ("exp:700", "1", "2", "|f'|**q is not finite on [0, 1] for f = exp:700"),
], ids=["derivative-check", "gate-derivative", "gate-power"])
def test_verify_rejects_non_finite_case_in_one_line(f, m, q, message, tmp_path):
    proc = _run_cli(tmp_path, "verify", "--f", f, "--g", "const:1", "--a", "0",
                    "--b", "1", "--x", "0.5", "--q", q, "--alpha", "1",
                    "--m", m, "--theorem", "T21", "--out", "reports")
    assert proc.returncode == 1
    # one error line and no RuntimeWarning from an overflow
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("hhbound verify: error: " + message)


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


@pytest.mark.parametrize("x, q, message", [
    # alpha = 0.5 gates t**2 out, so x was never checked
    ("5", "1", "x=5.0 outside [0.0, 1.0]"),
    ("nan", "1", "x=nan outside [0.0, 1.0]"),
    ("0.5", "nan", "q must be >= 1, got nan"),
], ids=["x-outside", "x-nan", "q-nan"])
def test_verify_rejects_bad_x_or_q_in_one_line(x, q, message, tmp_path):
    proc = _run_cli(tmp_path, "verify", "--f", "monomial:2", "--g", "const:1",
                    "--a", "0", "--b", "1", "--x", x, "--q", q,
                    "--alpha", "0.5", "--m", "1", "--theorem", "T21",
                    "--out", "reports")
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == ["hhbound verify: error: " + message]


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


def test_verify_missing_config_file(capsys):
    assert main(["verify", "--config", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_verify_seed_env_override(tmp_path, capsys, monkeypatch):
    cfg = {
        "cases": [{
            "f": "monomial:2", "g": "const:1", "a": 0.0, "b": 1.0,
            "x": {"random": 3},
            "q": [1.0], "alpha": [1.0], "m": [1.0],
            "theorems": ["T21"], "b_star": 4.0,
        }],
        "seed": 3,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")

    assert main(["verify", "--config", str(path), "--out",
                 str(tmp_path / "a")]) == 0
    monkeypatch.setenv("HHBOUND_SEED", "99")
    assert main(["verify", "--config", str(path), "--out",
                 str(tmp_path / "b")]) == 0
    capsys.readouterr()
    csv_a = (tmp_path / "a" / "report.csv").read_text(encoding="utf-8")
    csv_b = (tmp_path / "b" / "report.csv").read_text(encoding="utf-8")
    assert csv_a != csv_b  # different seeds draw different split points


def test_verify_seed_env_must_be_integer(tmp_path, capsys, monkeypatch):
    cfg = {"cases": [{"f": "monomial:2", "g": "const:1", "a": 0.0, "b": 1.0,
                      "x": {"values": [0.5]}, "q": [1.0], "alpha": [1.0],
                      "m": [1.0], "theorems": ["T21"], "b_star": 4.0}]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    monkeypatch.setenv("HHBOUND_SEED", "not-a-number")
    assert main(["verify", "--config", str(path)]) == 1


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
    row = [l for l in out.splitlines() if l.startswith("1,1,")][0]
    cells = row.split(",")
    assert cells[2] == "false"
    assert all(c != "" for c in cells[3:])  # witness coordinates present


def test_classify_rejects_bad_grid(capsys):
    assert main(["classify", "--f", "monomial:2", "--bstar", "2",
                 "--m-grid", "a,b"]) == 1


def test_identities_within_tolerance(capsys):
    code = main(["identities", "--f", "monomial:2", "--g", "sin",
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
