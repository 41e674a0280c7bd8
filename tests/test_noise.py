"""Noise models: determinism, marginals, structure."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisysft import noise
from noisysft.core import thicken
from noisysft.noise import (
    Bernoulli,
    GridNoise,
    _candidate_bound,
    _limit,
    bernoulli_masks,
    bernoulli_points,
    cell_uniform,
    derive_seed,
    marginal_rate,
    parse_model,
    sample_mask,
)


class TestParse:
    def test_round_trip(self):
        for spec, want in [("bernoulli:0.01", Bernoulli(0.01)),
                           ("grid:1,3", GridNoise(1, 3))]:
            m = parse_model(spec)
            assert type(m) is type(want) and m == want

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_model("bernoulli:2")
        with pytest.raises(ValueError):
            parse_model("grid:0,3")
        with pytest.raises(ValueError):
            parse_model("nonsense:1")


class TestDeterminism:
    def test_identical_runs(self):
        a = sample_mask(Bernoulli(0.3), (50, 50), seed=7)
        b = sample_mask(Bernoulli(0.3), (50, 50), seed=7)
        assert np.array_equal(a.data, b.data)
        c = sample_mask(Bernoulli(0.3), (50, 50), seed=8)
        assert not np.array_equal(a.data, c.data)

    def test_translation_consistency(self):
        # two boxes with the same seed agree on their overlap
        a = sample_mask(Bernoulli(0.4), (40,), seed=3, origin=(0,))
        b = sample_mask(Bernoulli(0.4), (40,), seed=3, origin=(15,))
        assert np.array_equal(a.data[15:], b.data[:25])

    def test_translation_consistency_grid_model(self):
        a = sample_mask(GridNoise(1, 3), (30, 30), seed=5, origin=(0, 0))
        b = sample_mask(GridNoise(1, 3), (30, 30), seed=5, origin=(10, 7))
        assert np.array_equal(a.data[10:, 7:], b.data[:20, :23])

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, 2) != derive_seed(2, 1)


class TestBernoulli:
    def test_extremes(self):
        assert sample_mask(Bernoulli(0.0), (100,), seed=1).data.sum() == 0
        assert sample_mask(Bernoulli(1.0), (100,), seed=1).data.sum() == 100

    def test_empirical_rate(self):
        m = sample_mask(Bernoulli(0.2), (600, 600), seed=11)
        n = m.data.size
        sd = (0.2 * 0.8 / n) ** 0.5
        assert abs(m.data.mean() - 0.2) < 4 * sd

    def test_uniforms_in_range(self):
        u = cell_uniform(9, (0, 0), (64, 64))
        assert (u >= 0).all() and (u < 1).all()
        assert abs(u.mean() - 0.5) < 0.01


_MASK64 = (1 << 64) - 1


def _ref_mix(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _ref_uniform(seed: int, cell) -> float:
    """The per-cell formula one cell at a time, in Python integers."""
    h = int(seed)
    for i, x in enumerate(cell):
        h = _ref_mix(h ^ _ref_mix((x + 0x9E3779B97F4A7C15 * (i + 1)) & _MASK64))
    return (h >> 11) * 2.0 ** -53


class TestCellUniformReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.booleans(),
           st.integers(1, 3).flatmap(lambda d: st.tuples(
               st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=d, max_size=d),
               st.lists(st.integers(1, 6), min_size=d, max_size=d))))
    def test_matches_scalar_reference(self, seed, as_uint64, box):
        origin, shape = box
        key = np.uint64(seed) if as_uint64 else seed
        u = cell_uniform(key, tuple(origin), tuple(shape))
        assert u.shape == tuple(shape)
        for idx in np.ndindex(*shape):
            cell = [o + i for o, i in zip(origin, idx)]
            assert u[idx] == _ref_uniform(seed, cell)

    def test_high_seeds_and_negative_origin(self):
        for seed in (2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1):
            u = cell_uniform(seed, (-3, 5), (4, 3))
            for i, j in np.ndindex(4, 3):
                assert u[i, j] == _ref_uniform(seed, (i - 3, j + 5))


class TestGridNoise:
    def test_exact_periodicity(self):
        m = sample_mask(GridNoise(1, 3), (64,), seed=2)
        assert np.array_equal(m.data[:60], m.data[4:])
        # exactly one quarter of the cells in one dimension
        assert m.data[:64].sum() == 16

    def test_marginal_2d(self):
        assert marginal_rate(GridNoise(1, 3), 2) == pytest.approx(7 / 16)

    def test_empirical_marginal_over_seeds(self):
        # the phase is random per seed, so averaging a fixed cell over many
        # seeds approaches the marginal
        hits = sum(int(sample_mask(GridNoise(1, 3), (1, 1), seed=s,
                                   origin=(13, 29)).data[0, 0])
                   for s in range(4000))
        rate = hits / 4000
        sd = (7 / 16 * 9 / 16 / 4000) ** 0.5
        assert abs(rate - 7 / 16) < 4 * sd

    def test_rows_and_columns(self):
        m = sample_mask(GridNoise(2, 3), (25, 25), seed=4)
        # rows whose coordinate class falls in the slab are fully obscured:
        # exactly 2 residues of every 5
        row_all = m.data.all(axis=1)
        col_all = m.data.all(axis=0)
        assert row_all.sum() == 10
        assert col_all.sum() == 10


class TestBernoulliMasks:
    @pytest.mark.parametrize("shape", [(1000,), (40, 30)])
    def test_equals_sample_mask_per_epsilon(self, shape):
        eps = (0.0, 0.002, 0.01, 0.3, 1.0)
        masks = bernoulli_masks(derive_seed(77, "mask"), shape, eps)
        for e, mask in zip(eps, masks):
            want = sample_mask(Bernoulli(e), shape, derive_seed(77, "mask"))
            assert mask.origin == want.origin
            assert np.array_equal(mask.data, want.data)

    def test_origin_and_nesting(self):
        eps = (0.01, 0.05, 0.05, 0.2, 0.7)
        masks = bernoulli_masks(5, (30, 40), eps, origin=(-3, 8))
        want = sample_mask(Bernoulli(0.2), (30, 40), 5, origin=(-3, 8))
        assert np.array_equal(masks[3].data, want.data)
        for lo, hi in zip(masks, masks[1:]):
            assert lo.origin == (-3, 8)
            assert not (lo.data & ~hi.data).any()  # lo is a subset of hi
        assert 0 < masks[0].data.sum() < masks[-1].data.sum()


class TestBoolMasks:
    @pytest.mark.parametrize("model, shape", [
        (Bernoulli(0.3), (40, 30)), (GridNoise(2, 3), (20, 20)),
        (GridNoise(1, 3), (50,)), (Bernoulli(0.05), (60,)),
        (GridNoise(1, 2), (6, 7, 8)),
    ])
    def test_every_model_samples_bool(self, model, shape):
        m = sample_mask(model, shape, seed=3)
        assert m.data.dtype == bool and m.shape == shape
        assert [f.name for f in dataclasses.fields(m)] == ["origin", "data"]
        assert thicken(m, 1).data.dtype == bool


class TestCellUniformBlocks:
    @pytest.mark.parametrize("origin, shape", [
        ((-35, 17), (70, 1024)),      # blocks of 32 rows: 32 + 32 + 6
        ((5, -20, -350), (3, 40, 700)),  # one row of 28000 cells per block
        ((0, 0), (1, 40000)),         # a row longer than a block
        ((7, 3), (65, 512)),          # blocks of 64 rows
    ])
    def test_block_seams_and_random_cells(self, origin, shape):
        seed = 2 ** 64 - 3
        u = cell_uniform(seed, origin, shape)
        assert u.shape == shape and u.dtype == np.float64
        rows = max(1, 2 ** 15 // int(np.prod(shape[1:])))
        lead = sorted({r for a in range(0, shape[0], rows)
                       for r in (a - 1, a) if 0 <= r < shape[0]})
        rng = np.random.default_rng(len(shape))
        cells = [tuple(int(rng.integers(0, s)) for s in shape)
                 for _ in range(200)]
        for r in lead:
            cells += [(r,) + tuple(int(rng.integers(0, s)) for s in shape[1:])
                      for _ in range(20)]
            cells += [(r,) + tuple(s - 1 for s in shape[1:]),
                      (r,) + (0,) * (len(shape) - 1)]
        for idx in cells:
            cell = [o + i for o, i in zip(origin, idx)]
            assert u[idx] == _ref_uniform(seed, cell), idx


# eps at and past the ends of (0, 1): signed zero, the smallest subnormal,
# the largest double below 1, and values no uniform can reach
_EDGE_EPS = (0.0, -0.0, 5e-324, 1e-300, 1 - 2 ** -53, 1.0, 1.5, -0.1,
             math.nan, math.inf)
_UNEVEN_BOXES = [((-35, 17), (70, 1024)), ((5, -20, -350), (3, 40, 700)),
                 ((0, 0), (1, 40000)), ((7, 3), (65, 512))]


# (origin, shape): the uneven boxes, or small random ones in 1-3 dimensions
_BOXES = st.one_of(st.sampled_from(_UNEVEN_BOXES),
                   st.integers(1, 3).flatmap(lambda d: st.tuples(
                       st.lists(st.integers(-2 ** 40, 2 ** 40),
                                min_size=d, max_size=d),
                       st.lists(st.integers(1, 40), min_size=d,
                                max_size=d))))


class TestIntegerThresholds:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), _BOXES, st.data())
    def test_masks_equal_uniform_below_eps(self, seed, box, data):
        origin, shape = tuple(box[0]), tuple(box[1])
        u = cell_uniform(seed, origin, shape)
        cell = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        own = float(u[cell])
        eps = _EDGE_EPS + (0.01, own, float(np.nextafter(own, 1.0)))
        masks = bernoulli_masks(seed, shape, eps, origin)
        for e, mask in zip(eps, masks):
            assert mask.origin == origin and mask.data.dtype == bool
            assert np.array_equal(mask.data, u < e), e
        # a cell reads clear at its own uniform and obscured one float above
        assert not masks[-2].data[cell] and masks[-1].data[cell]

    def test_traced_peak_holds_masks_and_block_buffers_only(self):
        # two 1 MiB bool masks plus two 256 KiB hash buffers; a float64
        # field of the box alone would be 8 MiB
        seed = derive_seed(13, "mask")
        tracemalloc.start()
        try:
            bernoulli_masks(seed, (1024, 1024), (0.001, 0.003))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2 ** 20


class TestBernoulliPoints:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), _BOXES,
           st.lists(st.sampled_from([0.0, math.nan, 1.0])
                    | st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_equals_mask_indices_and_nests(self, seed, box, eps):
        shape = tuple(box[1])  # points are sampled at origin 0
        points = bernoulli_points(seed, shape, eps)
        masks = bernoulli_masks(seed, shape, eps)
        for keys, mask in zip(points, masks):
            assert keys.dtype == np.intp
            assert np.array_equal(keys, np.flatnonzero(mask.data))
        live = sorted((e, i) for i, e in enumerate(eps) if not math.isnan(e))
        for (_, lo), (_, hi) in zip(live, live[1:]):
            assert np.isin(points[lo], points[hi]).all()


# shapes with a short last hash block in 1, 2 and 3 dimensions: the uneven
# boxes at origin 0, and a line of two full blocks of 2^15 cells and a short
# one
_UNEVEN_SHAPES = [shape for _, shape in _UNEVEN_BOXES] + [(70001,)]


class TestPointsAgainstCellUniform:
    """`bernoulli_points` and the masks scattered from them, against the
    field `cell_uniform` builds with the last xorshift run on every cell."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1),
           st.sampled_from(_UNEVEN_SHAPES) | st.lists(
               st.integers(1, 40), min_size=1, max_size=3).map(tuple),
           st.data())
    def test_equal_flat_indices_below_eps(self, seed, shape, data):
        u = cell_uniform(seed, (0,) * len(shape), shape)
        cell = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
        own = float(u[cell])
        # the edge epsilons, where eps near 1 takes every cell as a
        # candidate; then a list whose largest limit sits just above one
        # cell's hash, so that cell is a candidate only at the exact bound
        for eps in (_EDGE_EPS, (own / 2, own, float(np.nextafter(own, 1.0)))):
            points = bernoulli_points(seed, shape, eps)
            masks = bernoulli_masks(seed, shape, eps)
            for e, keys, mask in zip(eps, points, masks):
                want = np.flatnonzero(u < e)
                assert np.array_equal(keys, want), e
                assert np.array_equal(np.flatnonzero(mask.data), want), e
        flat = np.ravel_multi_index(cell, shape)
        assert flat not in points[1] and flat in points[2]

    def test_traced_peak_builds_no_mask(self):
        # one 256 KiB tile of the last axis and two 256 KiB block buffers;
        # a 1 MiB bool mask of the box alone would pass the bound
        seed = derive_seed(13, "mask")
        tracemalloc.start()
        try:
            bernoulli_points(seed, (1024, 1024), (0.001, 0.003))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def _finish(y: int) -> int:
    """The last xorshift of the hash on a Python integer."""
    return y ^ (y >> 31)


def _unfinish(h: int) -> int:
    """The pre-step value whose last xorshift gives h."""
    return h ^ (h >> 31) ^ (h >> 62)


_LOW = 2 ** 33 - 1
# limits whose low 33 bits are 0, all ones, or neither, small and past 2^63
# (past 2^63 the last xorshift flips bit 32, so low bits up to 2^32 there
# tell a bound on bits 63..32 from the bound on bits 63..33)
_TOPS = [1, 2 ** 11, 2 ** 33, 2 ** 33 + 1, 5 * 2 ** 33 + _LOW, 2 ** 40 + 12345,
         2 ** 63, 2 ** 63 + 1, 2 ** 63 + 2 ** 32, 2 ** 63 + _LOW, 3 << 62,
         (3 << 62) + 12345, (3 << 62) + 2 ** 32 + 7, 2 ** 64 - 2 ** 34 + 1,
         2 ** 64 - 2 ** 34 + _LOW, 2 ** 64 - 2 ** 33]


class TestCandidateBound:
    @pytest.mark.parametrize("top", _TOPS)
    def test_no_cell_below_top_is_dropped(self, top):
        bound = int(_candidate_bound(top))
        assert top <= bound < 2 ** 64
        # synthetic pre-step values just below, at and just above the bound:
        # the uint64 test keeps the first, and the others finish at top or
        # above
        ys = [y for y in (bound - 1, bound, bound + 1) if y < 2 ** 64]
        kept = np.less(np.array(ys, dtype=np.uint64), _candidate_bound(top))
        assert kept.tolist() == [True, False, False][:len(ys)]
        assert all(_finish(y) >= top for y in ys[1:])
        # cells whose finished hash lies just below top, or anywhere
        rng = np.random.default_rng(top % 2 ** 32)
        hashes = [top - d for d in (1, 2, 2 ** 11, 2 ** 31, 2 ** 32, 2 ** 33,
                                    2 ** 33 + 1) if d <= top]
        hashes += [int(h) % top for h in rng.integers(0, 2 ** 63, 200)]
        for h in hashes:
            y = _unfinish(h)
            assert _finish(y) == h and y < bound, (hex(top), hex(h))
        for y in rng.integers(0, 2 ** 64 - 1, 500, dtype=np.uint64):
            if _finish(int(y)) < top:
                assert int(y) < bound
        assert bound % 2 ** 33 == 0  # the tightest bound on bits 63..33

    @pytest.mark.parametrize("eps", [1 - 2 ** -32, 1 - 2 ** -40, 1 - 2 ** -53])
    def test_bounds_past_2_64_take_every_cell(self, eps):
        top = int(_limit(eps))
        assert top > 2 ** 64 - 2 ** 33 and _candidate_bound(top) is None
        for shape in [(70, 1024), (3, 40, 700), (70001,)]:
            u = cell_uniform(11, (0,) * len(shape), shape)
            points = bernoulli_points(11, shape, (0.5, eps))
            assert np.array_equal(points[0], np.flatnonzero(u < 0.5))
            assert np.array_equal(points[1], np.flatnonzero(u < eps))

    def test_last_bound_below_2_64(self):
        assert int(_limit(1 - 2 ** -31)) == 2 ** 64 - 2 ** 33
        assert int(_candidate_bound(2 ** 64 - 2 ** 33)) == 2 ** 64 - 2 ** 33
        assert _candidate_bound(2 ** 64 - 2 ** 33 + 1) is None
        assert _candidate_bound(2 ** 64 - 1) is None


# (origin, sides, as_shape): 1-3 dimensions, negative origins and zero
# sides included, the shape given as a tuple, a list or numpy ints
_CACHE_BOXES = st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=d, max_size=d),
    st.lists(st.integers(0, 40), min_size=d, max_size=d),
    st.sampled_from([tuple, list, lambda s: tuple(np.int64(v) for v in s)])))


def _hashes(seed, origin, shape):
    """The bytes of every public hash of one box: the masks at its origin,
    the points at origin 0, then the uniforms at its origin."""
    eps = (0.01, 0.3, 1.0)
    return ([m.data.tobytes() for m in bernoulli_masks(seed, shape, eps,
                                                       origin)],
            [p.tobytes() for p in bernoulli_points(seed, shape, eps)],
            cell_uniform(seed, origin, shape).tobytes())


class TestAxisCache:
    """The seed-free axis terms are mixed once and cached: a box hashes to
    the same bytes whatever the cache held before."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), _CACHE_BOXES,
           st.integers(1, 2 ** 20))
    def test_warm_cache_equals_cold(self, seed, box, shift):
        origin, sides, as_shape = box
        shape = as_shape(sides)
        noise._axis_term.cache_clear()
        cold = _hashes(seed, origin, shape)
        assert cold == _hashes(seed, origin, shape)
        # the same sides warmed at other origins and on reversed axes
        # first: an entry keyed on its size alone would be read back here
        noise._axis_term.cache_clear()
        _hashes(seed ^ 1, [o + shift for o in origin], shape)
        _hashes(seed, origin[::-1], as_shape(sides[::-1]))
        assert _hashes(seed, origin, shape) == cold

    @pytest.mark.parametrize("origin, shape", [
        ((-3,), (70001,)), ((-35, 17), (70, 1024)), ((5, -20, -3), (3, 4, 7))])
    def test_finishing_in_place_leaves_the_cache(self, origin, shape):
        # cell_uniform runs the last xorshift in place on every block it
        # is given; the masks and points hashed after it on the cache it
        # filled read the bytes of a cold cache
        seed = derive_seed(4, "cache")
        noise._axis_term.cache_clear()
        cold = _hashes(seed, origin, shape)
        noise._axis_term.cache_clear()
        u = cell_uniform(seed, origin, shape)
        assert _hashes(seed, origin, shape) == cold
        assert u.tobytes() == cold[2]

    def test_cached_terms_are_read_only(self):
        noise._axis_term.cache_clear()
        cell_uniform(3, (-5, 2), (4, 6))
        for i, start, size in ((0, -5, 4), (1, 2, 6)):
            term = noise._axis_term(i, start, size)
            assert term.shape == (size,) and not term.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                term[0] = 0
        assert noise._axis_term.cache_info().hits == 2

    def test_cache_stays_within_maxsize(self):
        noise._axis_term.cache_clear()
        for k in range(12):
            bernoulli_masks(k, (3, 4, 5), (0.1,), (k, -k, 2 * k))
            info = noise._axis_term.cache_info()
            assert info.currsize <= info.maxsize <= 16
        assert info.misses == 36 and info.currsize == info.maxsize

