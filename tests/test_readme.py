"""The README's command transcripts and config example still hold."""

import json
import re
import shlex
from pathlib import Path

import pytest

from hhbound import SuiteConfig, parse_function, run_suite
from hhbound.cli import main
from hhbound.core import _FAMILIES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def _transcripts():
    """(argv, printed lines) of every `$ hhbound ...` command in the README."""
    found = []
    for block in _blocks("sh"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *printed = chunk.replace("\\\n", " ").strip().splitlines()
            found.append((shlex.split(command)[1:], printed))
    return found


TRANSCRIPTS = _transcripts()


def test_readme_has_the_three_transcripts():
    assert sorted(argv[0] for argv, _ in TRANSCRIPTS) == [
        "constants", "identities", "verify"]


@pytest.mark.parametrize("argv, printed", TRANSCRIPTS,
                         ids=[argv[0] for argv, _ in TRANSCRIPTS])
def test_readme_transcript(argv, printed, tmp_path, monkeypatch, capsys):
    # run where the README's relative "reports" directory is a fresh one
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    got = capsys.readouterr().out.splitlines()
    assert len(got) == len(printed)
    for want, line in zip(printed, got):
        # "..." in a printed number stands for the digits left out
        pattern = re.escape(want).replace(re.escape("..."), r"\d*")
        assert re.fullmatch(pattern, line), (want, line)


def test_readme_suite_config_runs(tmp_path):
    (example,) = [b for b in _blocks("json") if '"cases"' in b]
    config = SuiteConfig.from_dict({**json.loads(example),
                                    "output_dir": str(tmp_path)})
    result = run_suite(config)
    assert result.violations == 0
    # 9 split points for every (theorem, q, alpha, m) the gate admits
    assert len(result.reports) == 9 * (16 - result.hypothesis_rejections)
    assert result.reports


def test_readme_spec_list_names_the_public_families():
    (specs,) = re.findall(r"^Function families are referenced.*?\n\n(.*?)\n\n",
                          README, re.M | re.S)
    named = set(re.findall(r"`([a-z]+)[:`]", specs))
    assert named == {name for name, fam in _FAMILIES.items() if fam.public}
    # the list reads affine:c0:c1 as c0 + c1 t
    assert parse_function("affine:1:2")(1.0) == 3.0
