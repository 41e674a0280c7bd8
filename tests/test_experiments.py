"""Smoke test of experiments.txt: every line replayed through `cli.main`
with one trial, writing under a temporary directory.

A line must exit 0, each CSV it names must carry the sweep schema as its
header and each SVG must be an SVG.  No value is checked.
"""

import shlex
from pathlib import Path

import pytest

from noisysft import cli
from noisysft import harness as H

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments.txt"
LINES = [argv for argv in (shlex.split(raw, comments=True) for raw in
                           EXPERIMENTS.read_text().splitlines()) if argv]


def _outputs(argv):
    return [tok for tok in argv if tok.startswith("results/")]


def test_lines_are_noisysft_calls():
    assert LINES
    for argv in LINES:
        assert argv[0] == "noisysft" and _outputs(argv), argv


@pytest.mark.parametrize("argv", LINES,
                         ids=[Path((_outputs(a) or ["?"])[0]).stem
                              for a in LINES])
def test_line_runs_at_one_trial(argv, tmp_path, monkeypatch):
    argv = argv[1:]
    if "--trials" in argv:
        argv[argv.index("--trials") + 1] = "1"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    assert cli.main(argv) == 0
    for path in _outputs(argv):
        text = (tmp_path / path).read_text()
        if path.endswith(".csv"):
            header, *rows = text.splitlines()
            assert header == ",".join(H.SCHEMA) and rows
        else:
            assert text.startswith("<svg")
