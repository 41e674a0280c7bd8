"""Noise models: which cells of a finite box are obscured.

All sampling is keyed: the obscured bit of a cell is a hash of the seed
and the absolute cell coordinates, so masks are reproducible, independent
of box origin, and two boxes sampled with the same seed agree on their
overlap.  The hash is a splitmix64-style mixer applied coordinatewise.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseMask, thicken

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_CELLS = 2 ** 15  # 32 rows of 1024: 256 KB of uint64 per temporary


def _mix(z):
    z = np.uint64(z) if np.isscalar(z) else z  # arrays are mixed in place
    with np.errstate(over="ignore"):  # uint64 arithmetic wraps by design
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def derive_seed(*parts) -> int:
    """Fold integers and strings into one 64-bit seed, deterministically."""
    h = np.uint64(0x8E5B_61C3_0F1D_2B97)
    for p in parts:
        if isinstance(p, str):
            digest = hashlib.blake2b(p.encode(), digest_size=8).digest()
            v = np.uint64(int.from_bytes(digest, "little"))
        else:
            v = np.uint64(int(p) & 0xFFFFFFFFFFFFFFFF)
        with np.errstate(over="ignore"):
            h = _mix(h ^ (v + _GOLDEN))
    return int(h)


def _finish_hash(h, axes, out):
    """Mix the hashes h of the leading coordinates with each mixed trailing
    axis in turn, then write the top 53 bits of each cell as a float."""
    with np.errstate(over="ignore"):
        for m in axes:
            h = _mix(h[..., None] ^ m)
    h >>= np.uint64(11)
    return np.multiply(h, 2.0 ** -53, out=out)


def cell_uniform(seed: int, origin, shape) -> np.ndarray:
    """Per-cell uniforms in [0, 1) keyed by absolute coordinates: cell x
    hashes to h_d, h_0 = seed, h_{i+1} = mix(h_i ^ mix(x_i + GOLDEN (i+1))).
    The inner mix runs on each axis's coordinates, then broadcasts.  Fields
    of two or more axes are hashed in blocks of about _BLOCK_CELLS cells
    along the leading axis, so the uint64 temporaries stay in cache."""
    axes = []
    with np.errstate(over="ignore"):
        for i, (o, s) in enumerate(zip(origin, shape)):
            axis = np.arange(o, o + s, dtype=np.int64).view(np.uint64)
            axis += _GOLDEN * np.uint64(i + 1)
            axes.append(_mix(axis))
    h = np.full((), seed, dtype=np.uint64)
    out = np.empty(tuple(shape), dtype=np.float64)
    if len(axes) < 2:  # one row is already a block; blocking measured slower
        return _finish_hash(h, axes, out)
    with np.errstate(over="ignore"):
        lead = _mix(h[..., None] ^ axes[0])
    rows = max(1, _BLOCK_CELLS // max(1, math.prod(out.shape[1:])))
    for a in range(0, len(lead), rows):
        _finish_hash(lead[a:a + rows], axes[1:], out[a:a + rows])
    return out


@dataclass(frozen=True)
class Bernoulli:
    epsilon: float

    def __post_init__(self):
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")


@dataclass(frozen=True)
class GridNoise:
    """Slabs of width k every k + n cells along every axis, at a uniform
    random global translation: a cell is obscured when any coordinate
    falls in the first k residues of its axis class."""

    k: int
    n: int

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError("grid noise needs k >= 1 and n >= 1")

    @property
    def period(self) -> int:
        return self.k + self.n


@dataclass(frozen=True)
class PhaseGrid:
    """One obscured cell every p cells, uniform phase; one-dimensional."""

    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("phase grid needs p >= 2")


@dataclass(frozen=True)
class Thickened:
    """The base model's mask, thickened by n.  Nested thickenings flatten:
    thickening by a then by b equals thickening by a + b."""

    base: object
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("thickening radius must be nonnegative")
        if isinstance(self.base, Thickened):
            object.__setattr__(self, "n", self.n + self.base.n)
            object.__setattr__(self, "base", self.base.base)


def parse_model(spec: str):
    """Parse model specs: bernoulli:eps, grid:k,n, phase:p, thick:n:<spec>."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "bernoulli":
            return Bernoulli(float(rest))
        if kind == "grid":
            k, n = rest.split(",")
            return GridNoise(int(k), int(n))
        if kind == "phase":
            return PhaseGrid(int(rest))
        if kind == "thick":
            n, _, inner = rest.partition(":")
            return Thickened(parse_model(inner), int(n))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad noise model spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown noise model {kind!r}")


def _grid_phases(model, seed: int, dim: int) -> tuple[int, ...]:
    period = model.period if isinstance(model, GridNoise) else model.p
    return tuple(int(_mix(np.uint64(derive_seed(seed, "phase", i)))) % period
                 for i in range(dim))


def bernoulli_masks(seed: int, shape, epsilons, origin=None) -> list[NoiseMask]:
    """Bernoulli(eps) masks for every epsilon from one keyed field: a cell
    is obscured at eps when its uniform is below eps, so the masks of one
    seed nest as eps grows (threshold coupling)."""
    origin = (0,) * len(shape) if origin is None else tuple(origin)
    u = cell_uniform(seed, origin, shape)
    return [NoiseMask(origin, u < eps) for eps in epsilons]


def sample_mask(model, shape, seed: int, origin=None) -> NoiseMask:
    """Sample a mask for the model on the given box."""
    shape = tuple(int(s) for s in shape)
    dim = len(shape)
    origin = tuple(int(o) for o in ((0,) * dim if origin is None else origin))

    if isinstance(model, Bernoulli):
        return bernoulli_masks(seed, shape, (model.epsilon,), origin)[0]

    if isinstance(model, GridNoise):
        t = _grid_phases(model, seed, dim)
        coords = np.indices(shape, dtype=np.int64)
        hit = np.zeros(shape, dtype=bool)
        for i in range(dim):
            cls = np.mod(coords[i] + origin[i] - t[i], model.period)
            hit |= cls < model.k
        return NoiseMask(origin, hit)

    if isinstance(model, PhaseGrid):
        if dim != 1:
            raise ValueError("phase grid noise is one-dimensional")
        (t,) = _grid_phases(model, seed, 1)
        xs = np.arange(origin[0], origin[0] + shape[0], dtype=np.int64)
        hit = np.mod(xs - t, model.p) == model.p - 1
        return NoiseMask(origin, hit)

    if isinstance(model, Thickened):
        grown_origin = tuple(o - model.n for o in origin)
        grown_shape = tuple(s + 2 * model.n for s in shape)
        inner = sample_mask(model.base, grown_shape, seed, grown_origin)
        return thicken(inner, model.n)

    raise TypeError(f"unknown noise model {model!r}")


def marginal_rate(model, dim: int) -> float:
    """Exact probability that a fixed cell is obscured."""
    if isinstance(model, Bernoulli):
        return model.epsilon
    if isinstance(model, GridNoise):
        return 1.0 - (model.n / model.period) ** dim
    if isinstance(model, PhaseGrid):
        if dim != 1:
            raise ValueError("phase grid noise is one-dimensional")
        return 1.0 / model.p
    if isinstance(model, Thickened):
        base, n = model.base, model.n
        if isinstance(base, Bernoulli):
            return 1.0 - (1.0 - base.epsilon) ** ((2 * n + 1) ** dim)
        if isinstance(base, PhaseGrid):
            if dim != 1:
                raise ValueError("phase grid noise is one-dimensional")
            return min(1.0, (2 * n + 1) / base.p)
        if isinstance(base, GridNoise):
            # count the thickened base pattern exactly over one period;
            # tile enough copies that the thickened interior spans a period
            period = base.period
            reps = 2 * (n // period + 1) + 1
            side = period * reps
            coords = np.indices((side,) * dim)
            hit = np.zeros((side,) * dim, dtype=bool)
            for i in range(dim):
                hit |= np.mod(coords[i], period) < base.k
            fat = thicken(NoiseMask((0,) * dim, hit), n).data
            return float(fat[(slice(period),) * dim].mean())
    raise TypeError(f"unknown noise model {model!r}")
