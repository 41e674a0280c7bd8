"""Noise models: which cells of a finite box are obscured.

All sampling is keyed: the obscured bit of a cell is a hash of the seed
and the absolute cell coordinates, so masks are reproducible, independent
of box origin, and two boxes sampled with the same seed agree on their
overlap.  The hash is a splitmix64-style mixer applied coordinatewise; a
cell is obscured at Bernoulli(eps) iff the top 53 bits of its hash are below
ceil(eps 2^53), an integer test that builds no float field.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseMask

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_CELLS = 2 ** 15  # 32 rows of 1024: 256 KB of uint64 per hash buffer


# splitmix64's finaliser as (multiplier, xorshift) steps: a head, then a
# tail.  The head is linear over xor, head(h ^ m) = head(h) ^ head(m), so a
# value that a later mix takes as a xor operand is stored with it applied.
_HEAD = ((None, 30),)
_TAIL = ((_M1, 27), (_M2, 31))


def _mix(z, steps=_HEAD + _TAIL, tmp=None):
    """The steps on a uint64 scalar, or in place on a uint64 array given
    scratch tmp of its shape.  Scalars warn when they wrap; arrays do not."""
    for mult, shift in steps:
        if mult is not None:
            z *= mult
        z ^= np.right_shift(z, shift, out=tmp)
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


def _hash_blocks(seed: int, origin, shape):
    """Yield (rows, h): the final uint64 hashes h of leading-axis `rows`,
    about _BLOCK_CELLS cells at a time, in a buffer the next block reuses.
    Cell x hashes to h_d, h_0 = seed, h_{i+1} = mix(h_i ^ mix(x_i + GOLDEN
    (i+1))); the inner mix runs on each axis's coordinates, then broadcasts."""
    with np.errstate(over="ignore"):  # scalar uint64 arithmetic wraps
        axes = [np.arange(o, o + s, dtype=np.int64).view(np.uint64)
                + _GOLDEN * np.uint64(i + 1)
                for i, (o, s) in enumerate(zip(origin, shape))]
        for axis in axes:
            _mix(axis, _HEAD + _TAIL + _HEAD, np.empty_like(axis))
        lead = axes[0] ^ _mix(np.uint64(seed), _HEAD)  # axes[0] is now scratch
        _mix(lead, _TAIL + (_HEAD if len(axes) > 1 else ()), axes[0])
        inner = max(1, math.prod(shape[1:]))
        rows = max(1, _BLOCK_CELLS // inner)
        bufs = np.empty((2, min(rows, shape[0]) * inner), dtype=np.uint64)
        for a in range(0, shape[0], rows):
            h = lead[a:a + rows]
            for k, m in enumerate(axes[1:], 2):
                cur = h.shape + m.shape
                z, tmp = (b[:math.prod(cur)].reshape(cur) for b in bufs)
                np.bitwise_xor(h[..., None], m, out=z)
                _mix(z, _TAIL + (_HEAD if k < len(axes) else ()), tmp)
                h, bufs = z, bufs[::-1]
            yield slice(a, a + rows), h


def cell_uniform(seed: int, origin, shape) -> np.ndarray:
    """Per-cell uniforms in [0, 1) keyed by absolute coordinates: the top
    53 bits of each cell's `_hash_blocks` hash as a float.  The reference
    field of `bernoulli_masks`, which reads the same bits without it."""
    out = np.empty(tuple(shape), dtype=np.float64)
    for rows, h in _hash_blocks(seed, origin, shape):
        np.multiply(h >> np.uint64(11), 2.0 ** -53, out=out[rows])
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


def parse_model(spec: str):
    """Parse model specs: bernoulli:eps, grid:k,n."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "bernoulli":
            return Bernoulli(float(rest))
        if kind == "grid":
            k, n = rest.split(",")
            return GridNoise(int(k), int(n))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad noise model spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown noise model {kind!r}")


def _grid_phases(model, seed: int, dim: int) -> tuple[int, ...]:
    with np.errstate(over="ignore"):  # scalar uint64 arithmetic wraps
        return tuple(int(_mix(np.uint64(derive_seed(seed, "phase", i))))
                     % model.period for i in range(dim))


def _limit(eps: float) -> np.uint64:
    """The hash bound of an eps in (0, 1): the top 53 bits of a hash are
    below ceil(eps 2^53) iff the hash is below this."""
    return np.uint64(math.ceil(eps * 2.0 ** 53) << 11)


def bernoulli_masks(seed: int, shape, epsilons, origin=None) -> list[NoiseMask]:
    """Bernoulli(eps) masks for every epsilon from one keyed hash: a cell is
    obscured at eps iff the top 53 bits of its hash are below ceil(eps 2^53),
    exactly `cell_uniform(...) < eps` with no float field built, so the
    masks of one seed nest as eps grows (threshold coupling)."""
    origin = (0,) * len(shape) if origin is None else tuple(origin)
    eps = [float(e) for e in epsilons]
    # np.less writes every cell of a live mask; NaN and eps <= 0: clear
    masks = [np.empty(shape, dtype=bool) if 0.0 < e < 1.0
             else np.full(shape, e >= 1.0) for e in eps]
    live = [(m, _limit(e)) for m, e in zip(masks, eps) if 0.0 < e < 1.0]
    for rows, h in _hash_blocks(seed, origin, shape):
        for mask, limit in live:
            np.less(h, limit, out=mask[rows])
    return [NoiseMask(origin, m) for m in masks]


def bernoulli_points(seed: int, shape, epsilons) -> list[np.ndarray]:
    """The obscured cells of `bernoulli_masks`, as sorted flat indices into
    the box, one array per epsilon, with no mask built.  Each hash block is
    compared once with the largest live bound; the cells below it keep
    their hashes, and each epsilon keeps those below its own bound, so the
    arrays nest as eps grows.  eps >= 1 gives every cell, eps <= 0 and NaN
    none."""
    eps = [float(e) for e in epsilons]
    limits = [_limit(e) for e in eps if 0.0 < e < 1.0]
    keys, hashes = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.uint64)]
    if limits:
        top, inner = max(limits), math.prod(shape[1:])
        below = np.empty(0, dtype=bool)  # sized by the first, largest block
        for rows, h in _hash_blocks(seed, (0,) * len(shape), shape):
            h = h.reshape(-1)
            if below.size < h.size:
                below = np.empty(h.size, dtype=bool)
            hit = np.flatnonzero(np.less(h, top, out=below[:h.size]))
            keys.append(hit + rows.start * inner)
            hashes.append(h[hit])
    keys, hashes = np.concatenate(keys), np.concatenate(hashes)
    return [keys[hashes < _limit(e)] if 0.0 < e < 1.0
            else np.arange(math.prod(shape) if e >= 1.0 else 0) for e in eps]


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

    raise TypeError(f"unknown noise model {model!r}")


def marginal_rate(model, dim: int) -> float:
    """Exact probability that a fixed cell is obscured."""
    if isinstance(model, Bernoulli):
        return model.epsilon
    if isinstance(model, GridNoise):
        return 1.0 - (model.n / model.period) ** dim
    raise TypeError(f"unknown noise model {model!r}")
