"""Per-layer self time from outside the program.

`install` wraps public functions of the noisysft modules and rebinds
every name that holds the original, including `from ... import`
bindings such as `harness.sample_mask`, `percolation.thicken` and
`open_components` in `repair` and `robinson`, so a call is counted
whichever module makes it.  A layer's self time is the duration of its
spans minus the spans of traced calls made inside them; the program is
single-threaded, so the child spans never overlap.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import statistics
import sys
import time
from dataclasses import dataclass


def _prod_shape(args) -> int:
    return math.prod(int(s) for s in args["shape"])


# (layer, module, attribute, cells counter from bound arguments, flag on result)
TARGETS = (
    ("noise.cell_uniform", "noisysft.noise", "cell_uniform", _prod_shape, None),
    ("noise.sample_mask", "noisysft.noise", "sample_mask", None, None),
    ("core.thicken", "noisysft.core", "thicken",
     lambda a: int(a["mask"].data.size), None),
    ("percolation.open_components", "noisysft.percolation", "open_components",
     None, None),
    ("percolation.origin_excluded", "noisysft.percolation", "origin_excluded",
     None, None),
    ("harness.sample_admissible_word", "noisysft.harness",
     "sample_admissible_word", lambda a: int(a["length"]), None),
    ("harness.corrupt", "noisysft.harness", "corrupt", None, None),
    ("harness.driver", "noisysft.harness", "run_repair1d_sweep", None, None),
    ("harness.driver", "noisysft.harness", "run_perc_sweep", None, None),
    ("harness.driver", "noisysft.harness", "run_repair2d_sweep", None, None),
    ("harness.driver", "noisysft.harness", "run_robinson_repair", None, None),
    ("automaton1d.fill_gap", "noisysft.automaton1d", "fill_gap", None,
     lambda r: r is None),
    ("automaton1d.extend_from", "noisysft.automaton1d", "extend_from",
     None, None),
    ("repair.repair_1d", "noisysft.repair", "repair_1d", None,
     lambda r: r.boundary_gap),
    ("repair.repair_periodic", "noisysft.repair", "repair_periodic",
     None, None),
    ("repair.PeriodicSft.tiling", "noisysft.repair", "PeriodicSft.tiling",
     None, None),
    ("robinson.robinson_repair", "noisysft.robinson", "robinson_repair",
     None, None),
    ("robinson.infer_translate", "noisysft.robinson", "infer_translate",
     None, None),
    ("robinson.reference_window", "noisysft.robinson", "reference_window",
     None, None),
    ("cli.main", "noisysft.cli", "main", None, None),
)

# metric name -> (layer, statistic, unit); `trace.overhead_s` comes from
# the benchmark's own wall clocks
METRICS = {
    "noise.cell_uniform.self_s": ("noise.cell_uniform", "self_s", "s"),
    "noise.cell_uniform.cells": ("noise.cell_uniform", "cells", "count"),
    "noise.sample_mask.self_s": ("noise.sample_mask", "self_s", "s"),
    "noise.sample_mask.calls": ("noise.sample_mask", "calls", "count"),
    "core.thicken.self_s": ("core.thicken", "self_s", "s"),
    "core.thicken.cells": ("core.thicken", "cells", "count"),
    "percolation.open_components.self_s":
        ("percolation.open_components", "self_s", "s"),
    "percolation.open_components.calls":
        ("percolation.open_components", "calls", "count"),
    "percolation.origin_excluded.self_s":
        ("percolation.origin_excluded", "self_s", "s"),
    "harness.sample_admissible_word.self_s":
        ("harness.sample_admissible_word", "self_s", "s"),
    "harness.sample_admissible_word.cells":
        ("harness.sample_admissible_word", "cells", "count"),
    "automaton1d.fill_gap.self_s": ("automaton1d.fill_gap", "self_s", "s"),
    "automaton1d.fill_gap.calls": ("automaton1d.fill_gap", "calls", "count"),
    "automaton1d.fill_gap.miss_ratio":
        ("automaton1d.fill_gap", "flag_ratio", "ratio"),
    "automaton1d.extend_from.self_s": ("automaton1d.extend_from", "self_s", "s"),
    "automaton1d.extend_from.calls":
        ("automaton1d.extend_from", "calls", "count"),
    "repair.repair_1d.self_s": ("repair.repair_1d", "self_s", "s"),
    "repair.repair_1d.calls": ("repair.repair_1d", "calls", "count"),
    "repair.repair_1d.boundary_gap_rate":
        ("repair.repair_1d", "flag_ratio", "ratio"),
    "repair.repair_periodic.self_s": ("repair.repair_periodic", "self_s", "s"),
    "repair.repair_periodic.calls": ("repair.repair_periodic", "calls", "count"),
    "repair.PeriodicSft.tiling.self_s":
        ("repair.PeriodicSft.tiling", "self_s", "s"),
    "repair.PeriodicSft.tiling.calls":
        ("repair.PeriodicSft.tiling", "calls", "count"),
    "robinson.robinson_repair.self_s":
        ("robinson.robinson_repair", "self_s", "s"),
    "robinson.infer_translate.self_s":
        ("robinson.infer_translate", "self_s", "s"),
    "robinson.reference_window.self_s":
        ("robinson.reference_window", "self_s", "s"),
    "harness.corrupt.self_s": ("harness.corrupt", "self_s", "s"),
    "harness.driver.self_s": ("harness.driver", "self_s", "s"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}
OVERHEAD = "trace.overhead_s"


@dataclass
class Layer:
    self_s: float = 0.0
    calls: int = 0
    cells: int = 0
    flagged: int = 0

    @property
    def flag_ratio(self) -> float:
        return self.flagged / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self):
        self.layers: dict[str, Layer] = {}
        self._child_s: list[float] = []  # child-span total per open span

    def wrap(self, layer: str, fn, cells=None, flag=None):
        stat = self.layers.setdefault(layer, Layer())
        stack = self._child_s
        clock = time.perf_counter
        sig = inspect.signature(fn) if cells else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stat.self_s += span - stack.pop()
                stat.calls += 1
                if stack:
                    stack[-1] += span
            if cells is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                stat.cells += cells(bound.arguments)
            if flag is not None and flag(result):
                stat.flagged += 1
            return result

        return traced

    def raw(self) -> dict[str, dict]:
        return {name: dataclasses.asdict(st) for name, st in self.layers.items()}


def summarise(per_call: list[list[dict]]) -> dict[str, float]:
    """Metrics of one pass over a workload from `Tracer.raw()` results,
    given per call as the list of its traced rounds: each call's median
    self time, summed over the calls.  Counts repeat exactly, so the
    first round's are used."""
    total: dict[str, Layer] = {}
    for rounds in per_call:
        for name, first in rounds[0].items():
            layer = total.setdefault(name, Layer())
            layer.self_s += statistics.median(r[name]["self_s"] for r in rounds)
            layer.calls += first["calls"]
            layer.cells += first["cells"]
            layer.flagged += first["flagged"]
    return {name: float(getattr(total[layer], stat))
            for name, (layer, stat, _) in METRICS.items()}


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind each name that holds an original."""
    modules = [m for n, m in sys.modules.items()
               if n == "noisysft" or n.startswith("noisysft.")]
    for layer, modname, attr, cells, flag in TARGETS:
        owner = importlib.import_module(modname)
        cls_name, _, fn_name = attr.rpartition(".")
        holder = getattr(owner, cls_name) if cls_name else owner
        original = getattr(holder, fn_name)
        wrapped = tracer.wrap(layer, original, cells, flag)
        if cls_name:
            setattr(holder, fn_name, wrapped)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
