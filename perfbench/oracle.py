"""Exact oracles on one replayed repair per sweep cell.

Each replay rebuilds trial 0 of a sweep cell from the public API with
the harness's seeding (trial seed from the master seed, then one derived
seed per stage) and checks the repair output with the exact oracle for
its case: the word automaton for 1D, the orbit match for periodic 2D and
an empty violation list for Robinson.  Percolation cells have no repair;
their theorem row is their only check.
"""

from __future__ import annotations

import numpy as np

from noisysft import automaton1d as a1d
from noisysft import harness as hn
from noisysft import robinson as rb
from noisysft.core import Grid
from noisysft.noise import derive_seed, parse_model, sample_mask
from noisysft.repair import local_global_constant, repair_1d, repair_periodic

from workloads import Call


def _noisy(clean, shape, eps: str, nsym: int, tseed: int):
    mask = sample_mask(parse_model(f"bernoulli:{eps}"), shape,
                       derive_seed(tseed, "mask"))
    noisy = hn.corrupt(clean, mask.data.astype(bool), nsym,
                       derive_seed(tseed, "corrupt"))
    return Grid((0,) * len(shape), noisy), mask


def _replay_1d(call: Call, seed: int, eps: str) -> bool:
    _, sft = hn.resolve_sft_1d(call.target)
    auto = a1d.build_automaton(sft)
    tseed = derive_seed(seed, "repair1d", 0)
    word = hn.sample_admissible_word(auto, call.box[0],
                                     derive_seed(tseed, "clean"))
    grid, mask = _noisy(word, call.box, eps, len(sft.alphabet), tseed)
    rep = repair_1d(auto, grid, mask)
    lo, hi = rep.interior
    return a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])


def _replay_periodic(call: Call, seed: int, eps: str) -> bool:
    _, p = hn.resolve_periodic(call.target)
    orbit = p.orbit()
    tseed = derive_seed(seed, "repair2d", 0)
    rng = np.random.default_rng(derive_seed(tseed, "offset"))
    offset = orbit[int(rng.integers(len(orbit)))]
    clean = p.tiling(offset, (0, 0), call.box).data
    grid, mask = _noisy(clean, call.box, eps, len(p.sft.alphabet), tseed)
    rep = repair_periodic(p, grid, mask, c=local_global_constant(p))
    out = rep.grid
    return any(np.array_equal(out.data, p.tiling(t, out.origin, out.shape).data)
               for t in orbit)


def _replay_robinson(call: Call, seed: int, eps: str, scale: int) -> bool:
    tseed = derive_seed(seed, "robinson", scale, 0)
    rng = np.random.default_rng(derive_seed(tseed, "translate"))
    t_in = tuple(int(v) for v in rng.integers(0, 512, size=2))
    clean = rb.reference_window((0, 0), call.box, t_in)
    grid, mask = _noisy(clean, call.box, eps, rb.NTILES, tseed)
    rep = rb.robinson_repair(grid, mask, scale, seed=tseed)
    return not rb.violations(rep.grid, limit=1)


def verdicts(call: Call, seed: int) -> list[bool]:
    """Per sweep cell, in `Call.cells()` order: does the replayed repair
    pass its exact oracle?"""
    out = []
    for eps, scale in call.cells():
        if call.kind == "repair1d":
            out.append(_replay_1d(call, seed, eps))
        elif call.kind == "repair2d":
            out.append(_replay_periodic(call, seed, eps))
        elif call.kind == "robinson":
            out.append(_replay_robinson(call, seed, eps, scale))
        else:
            out.append(True)
    return out
