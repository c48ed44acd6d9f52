"""Every script in demos/ runs to completion with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hhbound

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    # an empty glob would leave test_demo_runs with nothing to run
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ,
               PYTHONPATH=str(Path(hhbound.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
