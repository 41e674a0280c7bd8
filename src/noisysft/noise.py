"""Noise models: which cells of a finite box are obscured.

All sampling is keyed: the obscured bit of a cell is a hash of the seed
and the absolute cell coordinates, so masks are reproducible, independent
of box origin, and two boxes sampled with the same seed agree on their
overlap.  The hash is a splitmix64-style mixer applied coordinatewise: each
axis's seed-free mix is computed once, the seed joins a block of cells at a
time, later axes xored in as tiles.  A cell is obscured at Bernoulli(eps)
iff the top 53 bits of its hash are below ceil(eps 2^53); the mixer's last
xorshift keeps the top 31 bits, so that integer test runs before it and
only the candidates finish the hash.  Every Bernoulli mask is a scatter of
those points.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import NoiseMask

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_BLOCK_CELLS = 2 ** 15  # 32 rows of 1024: 256 KB of uint64 per hash buffer


# splitmix64's finaliser as xorshifts (ints) and multiplies: a head, a
# tail, and the last xorshift.  The head is linear over xor, head(h ^ m) =
# head(h) ^ head(m), so a value that a later mix takes as a xor operand is
# stored with it applied.
_HEAD = (30,)
_TAIL = (_M1, 27, _M2)
_LAST = (31,)


def _mix(z, steps=_HEAD + _TAIL + _LAST, tmp=None):
    """The steps on a uint64 scalar, or in place on a uint64 array given
    scratch tmp of its shape.  Scalars warn when they wrap; arrays do not."""
    for op in steps:
        if isinstance(op, int):
            z ^= np.right_shift(z, op, out=tmp)
        else:
            z *= op
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


@functools.lru_cache(maxsize=8)
def _axis_term(i: int, start: int, size: int) -> np.ndarray:
    """Axis i's seed-free term, head(mix(x + GOLDEN (i+1))), read-only."""
    m = np.arange(start, start + size, dtype=np.int64).view(np.uint64)
    m += np.uint64(int(_GOLDEN) * (i + 1) % 2 ** 64)
    _mix(m, _HEAD + _TAIL + _LAST + _HEAD, np.empty_like(m))
    m.flags.writeable = False
    return m


def _hash_blocks(seed: int, origin, shape):
    """Yield (first, y): a block's first flat index and its hashes stopped
    before `_LAST`, whole leading rows of about _BLOCK_CELLS cells, in a
    buffer the next block reuses.  Cell x hashes to h_d, h_0 = seed, h_{i+1}
    = mix(h_i ^ `_axis_term` at x_i); the seed enters the leading axis at
    most _BLOCK_CELLS rows at a time, each later axis is tiled per block."""
    if not math.prod(shape):  # no cells; bufs would be empty
        return
    axes = [_axis_term(i, int(o), int(s))
            for i, (o, s) in enumerate(zip(origin, shape))]
    inner = math.prod(shape[1:])
    rows = max(1, min(shape[0], _BLOCK_CELLS // max(1, inner)))
    span = rows * (_BLOCK_CELLS // rows)  # rows of whole blocks per chunk
    tiles = [np.tile(m, rows * math.prod(shape[1:k]))
             for k, m in enumerate(axes[1:], 1)]
    key = _mix(np.uint64(seed), _HEAD)  # xorshifts only: nothing wraps
    lead = np.empty((2, min(span, shape[0])), dtype=np.uint64)
    bufs = np.empty((2 if tiles else 0, rows * inner), dtype=np.uint64)
    for a in range(0, shape[0], rows):
        if a % span == 0:
            chunk, tmp = (b[:min(span, shape[0] - a)] for b in lead)
            _mix(np.bitwise_xor(axes[0][a:a + span], key, out=chunk),
                 _TAIL + (_LAST + _HEAD if tiles else ()), tmp)
        h = chunk[a % span:][:rows]
        for k, tile in enumerate(tiles, 1):
            z, tmp = (b[:h.size * shape[k]] for b in bufs)
            np.copyto(z.reshape(h.size, shape[k]), h[:, None])
            np.bitwise_xor(z, tile[:z.size], out=z)
            _mix(z, _TAIL + (_LAST + _HEAD if k < len(tiles) else ()), tmp)
            h, bufs = z, bufs[::-1]
        yield a * inner, h


def cell_uniform(seed: int, origin, shape) -> np.ndarray:
    """Per-cell uniforms in [0, 1) keyed by absolute coordinates: the top
    53 bits of each cell's hash, `_LAST` run on every cell, as a float.  The
    reference field of `bernoulli_points`, which finishes candidates only."""
    out = np.empty(math.prod(shape), dtype=np.float64)
    for first, y in _hash_blocks(seed, origin, shape):
        np.multiply(_mix(y, _LAST) >> np.uint64(11), 2.0 ** -53,
                    out=out[first:first + y.size])
    return out.reshape(tuple(shape))


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


def _candidate_bound(top: int):
    """A bound on y, a hash before `_LAST`, when the finished hash is below
    top: `_LAST` keeps bits 63..33, so h < top gives y >> 33 <= (top - 1)
    >> 33.  None when it reaches 2^64 (eps near 1): every cell is kept."""
    bound = (((top - 1) >> 33) + 1) << 33
    return np.uint64(bound) if bound < 2 ** 64 else None


def _obscured(seed: int, origin, shape, eps: list[float]):
    """Yield, hash block by hash block, each epsilon's obscured cells in the
    block as sorted flat indices into the box at origin: exactly
    `flatnonzero(cell_uniform(...) < eps)` over all blocks.  Each block is
    compared once, before `_LAST`, with the candidate bound of the largest
    limit; the candidates (about eps + 2^-31 of the cells) finish the hash
    and each epsilon keeps those below its limit, so the cells nest as eps
    grows (threshold coupling).  eps >= 1 gives every cell, eps <= 0 and
    NaN none."""
    limits = [_limit(e) for e in eps if 0.0 < e < 1.0]
    if not limits:  # no hash needed
        yield [np.arange(math.prod(shape) if e >= 1.0 else 0) for e in eps]
        return
    bound = _candidate_bound(int(max(limits)))
    below = np.empty(0, dtype=bool)  # sized by the first, largest block
    for first, y in _hash_blocks(seed, origin, shape):
        if below.size < y.size:
            below = np.empty(y.size, dtype=bool)
        hit = (np.arange(y.size) if bound is None else
               np.flatnonzero(np.less(y, bound, out=below[:y.size])))
        h = _mix(y[hit], _LAST)
        hit += first
        yield [hit[h < _limit(e)] if 0.0 < e < 1.0 else
               np.arange(first, first + y.size) if e >= 1.0 else hit[:0]
               for e in eps]


def bernoulli_points(seed: int, shape, epsilons) -> list[np.ndarray]:
    """Each epsilon's obscured cells on the box at origin 0, as sorted flat
    indices (`_obscured`), with no mask built: what the perc trials read."""
    eps = [float(e) for e in epsilons]
    blocks = [[np.zeros(0, dtype=np.intp)] * len(eps),
              *_obscured(seed, (0,) * len(shape), shape, eps)]
    return [np.concatenate(keys) for keys in zip(*blocks)]


def bernoulli_masks(seed: int, shape, epsilons, origin=None) -> list[NoiseMask]:
    """Bernoulli(eps) masks for every epsilon from one keyed hash: zeroed
    masks with each block's `_obscured` cells scattered in, so the masks of
    one seed nest as eps grows."""
    origin = (0,) * len(shape) if origin is None else tuple(origin)
    eps = [float(e) for e in epsilons]
    masks = [np.zeros(math.prod(shape), dtype=bool) for _ in eps]
    for keys in _obscured(seed, origin, shape, eps):
        for mask, k in zip(masks, keys):
            mask[k] = True
    return [NoiseMask(origin, m.reshape(shape)) for m in masks]


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
