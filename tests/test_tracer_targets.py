"""The benchmark tracer's targets name functions that exist.

`perfbench/tracer.py` wraps each `(module, attribute)` of its TARGETS by
name when a benchmark runs with `--trace 1`; a target that no longer
resolves breaks that run, so every one is checked here.  The tracer is
only imported, never installed, so no module is rebound.
"""

import functools
import importlib
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
