"""The benchmark tracer's targets name functions that exist, and its
`harness.driver` layer sees every sweep subcommand.

`perfbench/tracer.py` wraps each `(module, attribute)` of its TARGETS by
name when a benchmark runs with `--trace 1`; a target that no longer
resolves breaks that run, so every one is checked here.  The tracer is
installed only in a subprocess, so no module of this one is rebound.
"""

import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def targets():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        tracer = importlib.import_module("tracer")
    return [(layer, mod, attr) for layer, mod, attr, *_ in tracer.TARGETS]


def test_every_target_resolves(targets):
    assert targets
    for layer, mod, attr in targets:
        owner = importlib.import_module(mod)
        fn = functools.reduce(getattr, attr.split("."), owner)
        assert callable(fn), (layer, mod, attr)


# one tiny call per sweep subcommand, each writing its CSV under argv[1];
# after each, the running totals of driver and labelling calls
_DRIVER_CALLS = r"""
import json, os, sys
sys.path.insert(0, sys.argv[2])
from noisysft import cli
import tracer as tr

t = tr.Tracer()
tr.install(t)
calls = []
for i, argv in enumerate([
        ["repair1d", "--epsilons", "0.01", "--box", "64", "--out"],
        ["perc", "--epsilons", "0.01", "--box", "16", "--out"],
        ["repair2d", "--periodic", "checkerboard", "--epsilons", "0.01",
         "--box", "16", "--out"],
        ["robinson", "repair", "--epsilon", "0.01", "--box", "32",
         "--path"]]):
    out = os.path.join(sys.argv[1], f"{i}.csv")
    assert cli.main(argv + [out, "--trials", "1"]) == 0, argv
    calls.append([t.layers["harness.driver"].calls,
                  t.layers["percolation.open_components"].calls])
print(json.dumps(calls))
"""


def test_each_sweep_command_is_one_driver_call(tmp_path):
    """A sweep subcommand spends its time under one traced `harness.driver`
    call; a refactor that runs the sweep outside the four named drivers
    would move that time into `cli.main`'s self time.  The repair2d and
    Robinson calls each label through `percolation.open_components`, so
    the `percolation.open_components.*` metrics count their labelling."""
    import noisysft
    src = os.path.dirname(os.path.dirname(noisysft.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _DRIVER_CALLS, str(tmp_path), str(PERFBENCH)],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src))
    drivers, labelled = zip(*json.loads(out.stdout))
    assert drivers == (1, 2, 3, 4)
    assert labelled[2] - labelled[1] >= 1  # repair2d
    assert labelled[3] - labelled[2] >= 1  # robinson repair
