"""Site percolation of clear cells after thickening the noise.

Thickening by c turns a low-density mask into scattered fat islands; the
clear cells of the thickened mask percolate and the centre cell belongs
to the dominant open component with high probability.  On a finite box
the infinite cluster is read through a proxy: the largest open component
by default, or the component touching all box sides behind a flag.

Estimates over several epsilons are threshold-coupled: a trial hashes
one uniform field and reads every epsilon from it as `u < eps`, so its
masks nest as epsilon grows and the field is built once per trial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .core import NoiseMask, thicken
from .noise import cell_uniform, derive_seed

# 4-adjacency
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)


@dataclass(frozen=True)
class OpenComponents:
    """Connected components of the clear cells of a thickened mask."""

    origin: tuple
    labels: np.ndarray  # 0 on obscured cells
    sizes: np.ndarray  # sizes[i] = cells with label i; sizes[0] = obscured count
    thicken_radius: int

    @property
    def count(self) -> int:
        return len(self.sizes) - 1

    @property
    def largest_label(self) -> int:
        """Label of the largest open component, 0 when everything is obscured.
        Ties break to the smallest label."""
        if len(self.sizes) == 1:
            return 0
        return int(np.argmax(self.sizes[1:])) + 1

    def largest_mask(self) -> np.ndarray:
        lab = self.largest_label
        if lab == 0:
            return np.zeros_like(self.labels, dtype=bool)
        return self.labels == lab

    def side_spanning_label(self) -> int:
        """Smallest label whose component touches all sides of the box,
        0 when there is none."""
        d = self.labels.ndim
        candidates = None
        for axis in range(d):
            for edge in (0, -1):
                sl = [slice(None)] * d
                sl[axis] = edge
                touch = set(np.unique(self.labels[tuple(sl)])) - {0}
                candidates = touch if candidates is None else candidates & touch
        return min(candidates) if candidates else 0


def open_components(mask: NoiseMask, c: int) -> OpenComponents:
    """Thicken the mask by c and label the clear 4-connected components."""
    tm = thicken(mask, c)
    struct = _CROSS if tm.data.ndim == 2 else ndimage.generate_binary_structure(
        tm.data.ndim, 1)
    labels, count = ndimage.label(tm.data == 0, structure=struct)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    return OpenComponents(origin=tm.origin, labels=labels, sizes=sizes,
                          thicken_radius=c)


def origin_excluded(mask: NoiseMask, c: int, *, proxy: str = "largest") -> bool:
    """Is the centre cell of the thickened box outside the giant component?"""
    comps = open_components(mask, c)
    centre = tuple(s // 2 for s in comps.labels.shape)
    if proxy == "largest":
        lab = comps.largest_label
    elif proxy == "sides":
        lab = comps.side_spanning_label()
    else:
        raise ValueError(f"unknown proxy {proxy!r}")
    return lab == 0 or comps.labels[centre] != lab


def exclusion_bound(epsilon: float, c: int) -> float:
    """The union bound on P(centre outside the giant component)."""
    return 48.0 * (2 * c + 1) ** 2 * epsilon


@dataclass(frozen=True)
class ExclusionEstimate:
    epsilon: float
    c: int
    box: int
    trials: int
    value: float  # empirical P(centre not in the giant component)
    ci95: float
    bound: float
    proxy: str

    @property
    def within_bound(self) -> bool:
        return self.value + 3 * self.ci95 <= self.bound


def _trial_exclusions(payload) -> list[bool]:
    """One trial's exclusion flag per epsilon, all read off one field."""
    epsilons, c, box, tseed, proxy = payload
    u = cell_uniform(tseed, (0, 0), (box, box))
    return [origin_excluded(NoiseMask((0, 0), u < eps), c, proxy=proxy)
            for eps in epsilons]


def origin_exclusion_estimates(epsilons, c: int, box: int, trials: int,
                               seed: int, *, proxy: str = "largest",
                               mapper=map) -> list[ExclusionEstimate]:
    """Monte Carlo estimates of P(centre outside the giant open component)
    for Bernoulli noise thickened by c on a box of the given side, one per
    epsilon, all read off shared trial fields.  `mapper(fn, payloads)` runs
    the trials and returns results in order."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if not all(0.0 <= eps <= 1.0 for eps in epsilons):
        raise ValueError("epsilon must lie in [0, 1]")
    payloads = [(tuple(epsilons), c, box, derive_seed(seed, "perc", t), proxy)
                for t in range(trials)]
    hits = np.sum(list(mapper(_trial_exclusions, payloads)), axis=0)
    out = []
    for eps, h in zip(epsilons, hits):
        p = int(h) / trials
        ci = 1.96 * math.sqrt(max(p * (1 - p), 1.0 / trials) / trials)
        out.append(ExclusionEstimate(
            epsilon=eps, c=c, box=box, trials=trials, value=p, ci95=ci,
            bound=exclusion_bound(eps, c), proxy=proxy))
    return out

