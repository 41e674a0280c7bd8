"""Empirical Besicovitch-type distances between configurations.

On a finite box the Besicovitch distance between two shift-invariant
random configurations is estimated by the mean Hamming density over
coupled sample pairs; a normal 95% interval quantifies the sampling
error.  Lower bounds for the instability constructions are closed-form
certificates, not estimates.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DistanceEstimate:
    value: float
    ci95: float
    trials: int


def lower_certificate(kind: str, **params) -> float:
    """Closed-form lower bounds achieved by the instability constructions.

    phase1d:  alternating restrictions of the two period-2 points on the
              clear windows of a p-periodic mask stay at least
              1/2 - 1/(2p) from either periodic point.
    bern1d:   phase flips across obscured runs of length >= d survive at
              density (p-1)/(p d) - ((p-1)/p) eps against any translate.
    grid2d:   independent orbit choices on the clear hypercubes of grid
              noise disagree with any fixed configuration on at least
              1/(2 (N+1)^d) of the cells.
    """
    if kind == "phase1d":
        p = params["p"]
        if p < 2:
            raise ValueError("p must be at least 2")
        return 0.5 - 1.0 / (2.0 * p)
    if kind == "bern1d":
        p, d, eps = params["p"], params["d"], params["epsilon"]
        if d < 1:
            raise ValueError("d must be at least 1")
        return (p - 1) / (p * d) - ((p - 1) / p) * eps
    if kind == "grid2d":
        n, d = params["n"], params["d"]
        return 1.0 / (2.0 * (n + 1) ** d)
    raise ValueError(f"unknown certificate {kind!r}")
