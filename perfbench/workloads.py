"""The three benchmark workloads as lists of public CLI calls, and the
theorem-row checks applied to the CSV each call writes.

Every workload is a Monte Carlo sweep (trials x epsilons x box) driven
through ``noisysft.cli.main`` with ``--threads 1``.  Trial counts are
sized so that a call takes 2 to 4 seconds on a 2-core x86 machine, so a
30-second run times each call several times; the exception is `perc2d`,
whose calls need 32 trials (about 8 s each) so that the cell with the
tightest union bound (c = 1, eps = 0.001, bound 0.432) passes its
``value + 3 ci95`` check unless four or more trials exclude the centre,
against about one expected in 100.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

SFT3 = str(Path(__file__).resolve().with_name("sft3.txt"))

EPS_1D = ("0.002", "0.005", "0.01", "0.02")
EPS_PERC = ("0.001", "0.003")
EPS_2D = ("0.001", "0.003", "0.01")
EPS_ROBINSON = ("1e-4", "1e-3")


@dataclass(frozen=True)
class Call:
    """One CLI invocation of a sweep subcommand."""

    kind: str  # repair1d | perc | repair2d | robinson
    box: tuple[int, ...]
    epsilons: tuple[str, ...]
    trials: int
    target: str = ""  # --sft (repair1d) or --periodic (repair2d)
    c: int = 0  # perc thickening radius
    scales: tuple[int, ...] = ()  # robinson scales

    def argv(self, seed: int, out: str) -> list[str]:
        eps = ",".join(self.epsilons)
        box = "x".join(str(s) for s in self.box)
        common = ["--trials", str(self.trials), "--seed", str(seed),
                  "--threads", "1"]
        if self.kind == "repair1d":
            return ["repair1d", "--sft", self.target, "--box", box,
                    "--epsilons", eps, *common, "--out", out]
        if self.kind == "perc":
            return ["perc", "--box", str(self.box[0]), "--epsilons", eps,
                    "--c", str(self.c), *common, "--out", out]
        if self.kind == "repair2d":
            return ["repair2d", "--periodic", self.target, "--box", box,
                    "--epsilons", eps, *common, "--out", out]
        return ["robinson", "repair", "--box", box, "--epsilon", eps,
                "--scale", ",".join(str(n) for n in self.scales), *common,
                "--out", "csv", "--path", out]

    def cells(self) -> list[tuple[str, int]]:
        """Sweep cells as (epsilon, scale) in CSV order; scale 0 off Robinson."""
        if self.kind == "robinson":
            return [(e, n) for n in self.scales for e in self.epsilons]
        return [(e, 0) for e in self.epsilons]

    def box_cells(self) -> int:
        """Box cells x trials x sweep cells: the work one call does."""
        return math.prod(self.box) * self.trials * len(self.cells())

    def label(self, scale: int) -> str:
        """The CSV `sft` column of this call's rows at the given scale."""
        if self.kind == "perc":
            return f"free-c{self.c}"
        if self.kind == "robinson":
            return f"robinson-{scale}"
        return Path(self.target).stem  # registered name or file stem


def workload(name: str, tiny: bool = False) -> list[Call]:
    """The calls of a workload; `tiny` cuts every call to one trial."""
    calls = {
        # Python sampler walk and automaton gap filling; 2 and 21 states
        "line1d": [
            Call("repair1d", (100_000,), EPS_1D, 8, target="golden-mean"),
            Call("repair1d", (100_000,), EPS_1D, 8, target=SFT3),
        ],
        # criterion-4 traffic: noise hash, thickening and labelling
        "perc2d": [
            Call("perc", (1024, 1024), EPS_PERC, 32, c=1),
            Call("perc", (1024, 1024), EPS_PERC, 32, c=2),
        ],
        # large thickening radii, majority votes, orbit sizes 2 and 3
        "grid2d": [
            Call("repair2d", (512, 512), EPS_2D, 12, target="checkerboard"),
            Call("repair2d", (512, 512), EPS_2D, 12, target="stripes"),
            Call("robinson", (1024, 1024), EPS_ROBINSON, 6, scales=(2, 3)),
        ],
    }[name]
    if tiny:
        calls = [Call(c.kind, c.box, c.epsilons, 1, c.target, c.c, c.scales)
                 for c in calls]
    return calls


NAMES = ("line1d", "perc2d", "grid2d")


def _theorem_ok(kind: str, m: dict) -> bool:
    """The theorem checks on one sweep cell's metric rows."""
    nan = (math.nan, math.nan)
    changed = m.get("changed_fraction", nan)[0]
    if kind == "perc":
        value, ci = m.get("origin_excluded", nan)
        return value + 3 * ci <= m.get("exclusion_bound", nan)[0]
    ok = changed <= m.get("bound", nan)[0]
    if kind == "repair1d":
        ok = ok and m.get("admissible", nan)[0] == 1 \
            and m.get("locality", nan)[0] == 1
    return ok


def cell_verdicts(call: Call, csv_text: str) -> list[bool]:
    """Per sweep cell, in `Call.cells()` order: did its theorem row pass?
    A cell with no rows fails."""
    metrics: dict = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        key = (row["sft"], float(row["epsilon"]))
        metrics.setdefault(key, {})[row["metric"]] = (
            float(row["value"]), float(row["ci95"]))
    return [_theorem_ok(call.kind, metrics.get((call.label(n), float(e)), {}))
            for e, n in call.cells()]
