"""Open-component analysis of thickened noise masks."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage

from noisysft import harness as H
from noisysft import percolation
from noisysft.core import NoiseMask, thicken
from noisysft.noise import Bernoulli, bernoulli_masks, derive_seed, sample_mask
from noisysft.percolation import (
    exclusion_bound,
    open_components,
    origin_excluded,
)

# 4-adjacency, for the reference labellings
_CROSS = ndimage.generate_binary_structure(2, 1)


def _keys(data):
    """A mask's obscured cells as the points the percolation code takes:
    sorted flat keys and the box shape."""
    return np.flatnonzero(data), data.shape


def _excluded(mask, c):
    return origin_excluded(*_keys(mask.data), c)


def mask_from(rows):
    data = np.array(rows, dtype=np.uint8)
    return NoiseMask((0, 0), data)


class TestOpenComponents:
    def test_all_clear_single_component(self):
        giant = open_components(mask_from(np.zeros((8, 8), dtype=np.uint8)),
                                c=0)
        assert giant.origin == (0, 0) and giant.shape == (8, 8)
        assert not giant.data.any()

    def test_all_obscured_no_component(self):
        giant = open_components(mask_from(np.ones((6, 6), dtype=np.uint8)),
                                c=0)
        assert giant.data.all()

    def test_single_blob_carves_hole(self):
        rows = np.zeros((9, 9), dtype=np.uint8)
        rows[4, 4] = 1
        giant = open_components(mask_from(rows), c=1)
        # thickening turns the point into a 3x3 hole and crops the box to 7x7
        assert giant.origin == (1, 1)
        assert giant.shape == (7, 7)
        hole = np.zeros((7, 7), dtype=bool)
        hole[2:5, 2:5] = True  # absolute (3, 3) to (5, 5)
        assert np.array_equal(giant.data, hole)

    def test_wall_splits_and_largest_wins(self):
        rows = np.zeros((7, 7), dtype=np.uint8)
        rows[:, 2] = 1  # vertical wall: 14 left cells, 28 right cells
        giant = open_components(mask_from(rows), c=0)
        assert giant.data[:, :3].all()
        assert not giant.data[:, 3:].any()

    def test_tie_breaks_to_smallest_label(self):
        rows = np.zeros((5, 7), dtype=np.uint8)
        rows[:, 3] = 1  # two 5x3 halves; the left one holds cell (0, 0)
        giant = open_components(mask_from(rows), c=0)
        assert not giant.data[:, :3].any()
        assert giant.data[:, 3:].all()
        # transposed, the top half comes first in row-major order
        giant = open_components(mask_from(rows.T), c=0)
        assert not giant.data[:3].any()
        assert giant.data[3:].all()

    def test_diagonal_is_not_adjacent(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        giant = open_components(mask_from(rows), c=0)
        # the two clear corners touch only diagonally: one cell each, and
        # the tie keeps the first
        assert np.array_equal(giant.data, [[False, True], [True, True]])


class TestOriginExcluded:
    def test_clear_box_includes_origin(self):
        mask = mask_from(np.zeros((33, 33), dtype=np.uint8))
        assert not _excluded(mask, c=1)

    def test_blocked_centre_is_excluded(self):
        rows = np.zeros((33, 33), dtype=np.uint8)
        rows[16, 16] = 1
        mask = mask_from(rows)
        assert _excluded(mask, c=1)

    def test_ring_around_centre_excludes(self):
        rows = np.zeros((33, 33), dtype=np.uint8)
        for t in range(10, 23):
            rows[10, t] = rows[22, t] = rows[t, 10] = rows[t, 22] = 1
        mask = mask_from(rows)
        # centre survives thickening but sits in a small enclosed pocket
        assert _excluded(mask, c=1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exclusion_monotone_in_noise(self, seed):
        # coupled masks: cells obscured at eps1 stay obscured at eps2
        shape = (41, 41)
        from noisysft.noise import cell_uniform

        u = cell_uniform(np.uint64(seed), (0, 0), shape)
        lo = NoiseMask((0, 0), (u < 0.01).astype(np.uint8))
        hi = NoiseMask((0, 0), (u < 0.05).astype(np.uint8))
        if _excluded(lo, c=1):
            assert _excluded(hi, c=1)


def _sweep(epsilons, c, box, trials, seed):
    """{metric: (value, ci95)} per epsilon from `run_perc_sweep`."""
    rows = H.run_perc_sweep(H.ExperimentSpec(
        kind="perc", epsilons=tuple(epsilons), box=(box,), trials=trials,
        seed=seed, c=c))
    out = [{} for _ in epsilons]
    for k, row in enumerate(rows):
        out[k // 2][row["metric"]] = (row["value"], row["ci95"])
    return out


def _estimate(eps, c, box, trials, seed):
    """(value, ci95) over trials seeded derive_seed(seed, "perc", t)."""
    flags = [H._trial_perc(((c, box), (eps,),
                            derive_seed(seed, "perc", t)))[0]["origin_excluded"]
             for t in range(trials)]
    return H.mean_ci(flags, floored=True)


class TestEstimate:
    def test_zero_noise_never_excludes(self):
        est, = _sweep([0.0], c=1, box=65, trials=40, seed=9)
        assert est["origin_excluded"][0] == 0.0
        # the CI floor stays positive even at zero noise
        assert est["exclusion_bound"] == (0.0, 0.0)
        assert est["origin_excluded"][1] > 0

    def test_bound_formula(self):
        assert exclusion_bound(1e-4, 1) == pytest.approx(48 * 9 * 1e-4)
        assert exclusion_bound(2e-3, 2) == pytest.approx(48 * 25 * 2e-3)

    def test_estimate_is_deterministic(self):
        assert _sweep([0.02], 1, 33, 30, 4) == _sweep([0.02], 1, 33, 30, 4)
        assert _estimate(0.02, 1, 33, 30, 4) == _estimate(0.02, 1, 33, 30, 4)

    def test_estimate_tracks_rate(self):
        # at eps=0.2 with c=1 the 33x33 thickened box is mostly holes
        value, _ = _estimate(0.2, c=1, box=33, trials=60, seed=1)
        assert value > 0.5

    def test_ci_floor(self):
        est, = _sweep([0.0], c=1, box=33, trials=100, seed=2)
        # zero variance still reports the 1/T resolution floor
        assert est["origin_excluded"][1] == pytest.approx(
            1.96 * np.sqrt(1.0 / 100 / 100))


class TestSharedField:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]), min_size=1,
                    max_size=4),
           st.integers(0, 2), st.integers(9, 25), st.integers(1, 4),
           st.integers(0, 2 ** 64 - 1))
    def test_equals_per_epsilon_estimates(self, epsilons, c, box, trials,
                                          seed):
        shared = _sweep(epsilons, c, box, trials, seed)
        assert shared == [_sweep([e], c, box, trials, seed)[0]
                          for e in epsilons]
        # reference: a fresh Bernoulli mask per (epsilon, trial) on the
        # sweep's seed chain
        key = derive_seed(seed, "perc-sweep", c)
        hits = [sum(_excluded(
            sample_mask(Bernoulli(e), (box, box), derive_seed(key, "perc", t)),
            c) for t in range(trials)) for e in epsilons]
        assert [est["origin_excluded"][0] for est in shared] \
            == [h / trials for h in hits]

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            _sweep([0.1, 1.5], 1, 17, 2, 0)


def _dense_excluded(mask, c):
    """origin_excluded as it was: label the whole thickened box."""
    tm = thicken(mask, c)
    struct = ndimage.generate_binary_structure(tm.data.ndim, 1)
    labels, count = ndimage.label(tm.data == 0, structure=struct)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    centre = tuple(s // 2 for s in labels.shape)
    lab = 0 if len(sizes) == 1 else int(np.argmax(sizes[1:])) + 1
    return lab == 0 or labels[centre] != lab


@pytest.fixture
def dense_calls(monkeypatch):
    """Counts the whole-box labellings origin_excluded falls back to."""
    calls = []
    real = percolation.open_components

    def spy(mask, c):
        calls.append(mask.shape)
        return real(mask, c)

    monkeypatch.setattr(percolation, "open_components", spy)
    return calls


def _points(shape, cells):
    data = np.zeros(shape, dtype=np.uint8)
    for cell in cells:
        data[cell] = 1
    return NoiseMask((-7, 3), data)


def _ring(shape, centre, radius, step):
    """Points every `step` cells on the square of the given Chebyshev
    radius around `centre`, corners included."""
    r0, c0 = centre
    offs = sorted(set(range(-radius, radius + 1, step)) | {radius})
    return ([(r0 + d, c0 + e) for d in (-radius, radius) for e in offs]
            + [(r0 + e, c0 + d) for d in (-radius, radius) for e in offs])


class TestSparseDecision:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 90), st.integers(3, 90),
           st.integers(-100, 100), st.integers(-100, 100), st.integers(1, 3),
           st.floats(0.002, 0.2))
    def test_matches_dense_reference(self, seed, h, w, o0, o1, c, density):
        rng = np.random.default_rng(seed)
        data = (rng.random((h, w)) < density).astype(np.uint8)
        mask = NoiseMask((o0, o1), data)
        if min(h, w) <= 2 * c:
            with pytest.raises(ValueError, match="too small"):
                _dense_excluded(mask, c)
            with pytest.raises(ValueError, match="too small"):
                _excluded(mask, c)
            return
        assert _excluded(mask, c) == _dense_excluded(mask, c)

    def test_certified_answers_match_on_random_fields(self):
        rng = np.random.default_rng(5)
        certified = excluded = 0
        for _ in range(1500):
            h, w = (int(v) for v in rng.integers(7, 90, size=2))
            c = int(rng.integers(1, 4))
            if min(h, w) <= 2 * c:
                continue
            density = float(np.exp(rng.uniform(np.log(0.002), np.log(0.2))))
            mask = NoiseMask((0, 0), rng.random((h, w)) < density)
            got = percolation._sparse_excluded(*_keys(mask.data), c)
            if got is not None:
                certified += 1
                excluded += got
                assert got == _dense_excluded(mask, c)
        # both answers occur on the certified path
        assert certified > 700 and 0 < excluded < certified

    def test_ring_of_points_encloses_centre(self, dense_calls):
        # c = 1: points 3 apart give 3x3 squares that touch edge to edge
        mask = _points((41, 41), _ring((41, 41), (20, 20), 8, 3))
        assert _excluded(mask, 1)
        assert dense_calls == []
        assert _dense_excluded(mask, 1)

    def test_two_squares_cut_off_a_corner(self, dense_calls):
        # c = 2: squares at thickened rows 0-4, cols 4-8 and rows 5-9,
        # cols 0-4 close a 5x4 pocket in the corner; the centre stays out
        mask = _points((31, 61), [(4, 8), (9, 4)])
        tm = thicken(mask, 2)
        labels, _ = ndimage.label(tm.data == 0, structure=_CROSS)
        assert np.count_nonzero(labels == labels[0, 0]) == 20
        assert not _excluded(mask, 2)
        assert dense_calls == []
        assert not _dense_excluded(mask, 2)

    def test_corner_pocket_holding_the_centre(self, dense_calls):
        # an L-shaped wall from the top side down and across to the left
        # side closes the top-left corner, which holds the centre but is
        # smaller than the rest of the box
        wall = [(r, 91) for r in range(1, 14, 3)] \
            + [(13, q) for q in range(1, 92, 3)]
        mask = _points((23, 153), wall)
        assert _excluded(mask, 1)
        assert dense_calls == []
        assert _dense_excluded(mask, 1)

    @pytest.mark.parametrize("side", ["bottom", "top", "right", "left"])
    def test_centre_leaves_by_one_window_side(self, dense_calls, side):
        # c = 1 on a 100^2 T.  Cluster 1 is a bar along T rows 30-32 from
        # the left border to col 71 and a leg down cols 69-71 to row 65;
        # cluster 2, inside the first window, is a bar along rows 38-40 to
        # col 59 and a leg down cols 58-60 to row 70.  The centre's component
        # lies under bar 2 and left of leg 2, so in both windows it
        # reaches only the bottom side, the one way out to the giant.
        # Flips and transposes move that side to each of the four
        # (the centre, at 49 or 50, stays inside)
        cells = [(32, q) for q in range(2, 72, 3)] \
            + [(r, 71) for r in range(35, 66, 3)] \
            + [(40, q) for q in range(2, 61, 3)] \
            + [(r, 60) for r in range(43, 71, 3)]
        data = _points((102, 102), cells).data
        data = {"bottom": data, "top": data[::-1], "right": data.T,
                "left": data.T[:, ::-1]}[side]
        mask = NoiseMask((0, 0), data)
        assert percolation._sparse_excluded(*_keys(mask.data), 1) is False
        assert not _excluded(mask, 1)
        assert dense_calls == []
        assert not _dense_excluded(mask, 1)

    def test_centre_obscured(self, dense_calls):
        mask = _points((33, 47), [(17, 23)])
        assert _excluded(mask, 1)
        assert dense_calls == []

    def test_all_obscured(self, dense_calls):
        # the certificate would fail, but an obscured centre is excluded
        # whatever the rest of the box holds
        mask = NoiseMask((0, 0), np.ones((15, 15), dtype=np.uint8))
        assert _excluded(mask, 2)
        assert dense_calls == []
        assert _dense_excluded(mask, 2)

    def test_nothing_obscured(self, dense_calls):
        assert not _excluded(_points((12, 30), []), 3)
        assert dense_calls == []


class TestSparseFallback:
    """Every case the certificate does not cover labels the box whole once
    and gives the dense answer."""

    @pytest.mark.parametrize("mask, c", [
        # a wall across the whole width: a cluster spans the box
        (_points((31, 31), [(20, q) for q in range(0, 31, 3)]), 1),
        # a ring whose window covers most of the box: the pocket it closes
        # is the largest component, so the area test must fail
        (_points((41, 41), _ring((41, 41), (20, 20), 15, 3)), 1),
        # a clear centre in a mask too dense for the neighbour scan
        (_points((29, 29), [(r, q) for r in range(29) for q in range(29)
                            if not (12 <= r < 17 and 12 <= q < 17)]), 1),
        (_points((33, 33), [(16, 16)]), 0),
        (NoiseMask((0, 0, 0), np.zeros((9, 9, 9), dtype=np.uint8)), 1),
    ], ids=["spanning", "area", "dense-scan", "c0", "3d"])
    def test_falls_back_to_dense(self, dense_calls, mask, c):
        assert _excluded(mask, c) == _dense_excluded(mask, c)
        assert len(dense_calls) == 1

    def test_box_too_small(self):
        mask = _points((4, 40), [(1, 1)])
        with pytest.raises(ValueError, match="box too small to thicken"):
            _excluded(mask, 2)


class TestTrialFromPoints:
    """`_trial_perc` reads its epsilons from `bernoulli_points`; the
    reference builds a mask per epsilon and labels the whole box."""

    @pytest.mark.parametrize("c, box, trials, labelled", [
        # c = 0 labels the box at every eps < 1
        (0, 33, 6, 12),
        # at c >= 1, eps 0.4 fails the certificate; the box is labelled
        # when the centre's (2c + 1)^2 mask cells are clear (trial 18 here)
        (1, 33, 20, 1),
        (2, 41, 4, 0),
    ])
    def test_equals_mask_trial(self, dense_calls, c, box, trials, labelled):
        eps = (0.0, 0.4, 1.0)
        for t in range(trials):
            seed = derive_seed(21, "perc", t)
            want = [{"origin_excluded": float(_dense_excluded(mask, c))}
                    for mask in bernoulli_masks(seed, (box, box), eps)]
            assert H._trial_perc(((c, box), eps, seed)) == want
        # eps 1 is answered with no mask
        assert dense_calls == [(box, box)] * labelled

    @pytest.mark.parametrize("c", [1, 2])
    def test_traced_peak_of_a_1024_trial(self, c):
        # two 256 KiB hash buffers and the points; a 1024^2 bool mask per
        # epsilon would be 1 MiB each
        args = ((c, 1024), (0.001, 0.003), derive_seed(13, "perc"))
        want = [{"origin_excluded": float(_dense_excluded(mask, c))}
                for mask in bernoulli_masks(args[2], (1024, 1024), args[1])]
        tracemalloc.start()
        try:
            got = H._trial_perc(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2 ** 20


def _giant_reference(mask, c):
    """The largest clear component labelled and counted independently:
    True off it, ties to the lowest label."""
    tm = thicken(mask, c)
    struct = ndimage.generate_binary_structure(tm.data.ndim, 1)
    labels, count = ndimage.label(tm.data == 0, structure=struct)
    if count == 0:
        return np.ones(labels.shape, dtype=bool)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    return labels != int(np.argmax(sizes[1:])) + 1


@pytest.fixture
def bincount_calls(monkeypatch):
    """Counts the np.bincount calls made while the test runs."""
    calls = []
    real = np.bincount

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    return calls


class TestLazySizes:
    def test_single_component_skips_histogram(self, bincount_calls):
        mask = _points((20, 20), [(3, 3)])
        giant = open_components(mask, 1)
        assert not bincount_calls
        assert int((~giant.data).sum()) == 18 * 18 - 9
        assert np.array_equal(giant.data, thicken(mask, 1).data)
        rows = np.zeros((7, 7), dtype=np.uint8)
        rows[:, 2] = 1  # two components: the spy sees the one histogram
        open_components(mask_from(rows), c=0)
        assert len(bincount_calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.integers(0, 2), st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    def test_giant_matches_bincount_argmax(self, seed, dim, c, eps):
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(2 * c + 1, 2 * c + 13,
                                                   size=dim))
        mask = NoiseMask(tuple(int(o) for o in rng.integers(-9, 9, size=dim)),
                         rng.random(shape) < eps)
        giant = open_components(mask, c)
        assert giant.origin == tuple(o + c for o in mask.origin)
        assert np.array_equal(giant.data, _giant_reference(mask, c))


def _canonical(lab):
    """Each point's cluster named by its first point: equal for two
    labellings exactly when they make the same partition."""
    _, first, inverse = np.unique(lab, return_index=True, return_inverse=True)
    return first[inverse]


class TestClusters:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
           st.integers(0, 40), st.integers(0, 40),
           st.sampled_from([0.0, 0.005, 0.02, 0.08, 0.3, 1.0]),
           st.none() | st.tuples(st.integers(0, 40), st.integers(0, 40),
                                 st.booleans(), st.booleans()))
    def test_partition_matches_labelling(self, seed, c, dh, dw, eps, corner):
        rng = np.random.default_rng(seed)
        h, w = 2 * c + 1 + dh, 2 * c + 1 + dw
        data = rng.random((h, w)) < eps
        if corner is not None:
            # an obscured L from the top side to the left side: in T, row
            # a - 2c..a for cols 0..b and col b - 2c..b for rows 0..a, so
            # the border closes a pocket in the corner; then flipped
            a, b, flip_rows, flip_cols = corner
            a, b = min(a, h - 1), min(b, w - 1)
            data[a, :b + 1] = data[:a + 1, b] = True
            data = data[::-1 if flip_rows else 1, ::-1 if flip_cols else 1]
        fat = thicken(NoiseMask((0, 0), data), c).data
        th, tw = fat.shape
        rows, cols = np.nonzero(data)
        # the clusters from the 8-connected obscured cells of T, each point
        # read at a T cell its c-square covers; no neighbour-scan limit
        lab = ndimage.label(fat, structure=np.ones((3, 3)))[0][
            np.minimum(rows, th - 1), np.minimum(cols, tw - 1)]
        points = percolation._clusters(*_keys(data), c)
        if points is not None:
            assert np.array_equal(points[0], rows)
            assert np.array_equal(_canonical(points[2]), _canonical(lab))


@contextlib.contextmanager
def _spies():
    """Counts the run labellings and np.bincount calls made inside."""
    with mock.patch.object(percolation, "_runs",
                           wraps=percolation._runs) as lab, \
            mock.patch.object(np, "bincount", wraps=np.bincount) as hist:
        yield lab, hist


class TestRunLabelledGiant:
    """`open_components` on boxes of the repairs' sizes: one run labelling
    per call, and component sizes only when there are two or more."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(64, 256),
           st.integers(64, 256), st.integers(1, 3), st.floats(1e-3, 0.02))
    @example(0, 64, 64, 1, 0.02)  # one component
    @example(2, 64, 64, 1, 0.02)  # several, certified
    @example(0, 256, 256, 2, 0.02)  # too dense for the neighbour scan
    @example(2, 64, 64, 2, 0.013671875)  # too dense, one component
    def test_giant_matches_bincount_argmax(self, seed, h, w, c, eps):
        rng = np.random.default_rng(seed)
        mask = NoiseMask((int(rng.integers(-9, 9)), 5), rng.random((h, w)) < eps)
        expected = _giant_reference(mask, c)
        tm = thicken(mask, c)
        count = ndimage.label(~tm.data, structure=_CROSS)[1]
        with _spies() as (lab, hist):
            giant = open_components(mask, c)
        assert giant.origin == tm.origin
        assert np.array_equal(giant.data, expected)
        assert lab.call_count == 1
        assert hist.call_count == (count >= 2)

    @pytest.mark.parametrize("mask, count", [
        # a wall across the whole width
        (_points((31, 31), [(20, q) for q in range(0, 31, 3)]), 2),
        # a ring whose pocket is the largest component
        (_points((41, 41), _ring((41, 41), (20, 20), 15, 3)), 2),
        # one point in the middle: no component is split off
        (_points((33, 33), [(6, 6)]), 1),
        # a ring of points 3 apart closes a pocket inside
        (_points((33, 33), _ring((33, 33), (16, 16), 8, 3)), 2),
        # a corner wall closes a pocket against the border
        (_points((33, 33), [(8, q) for q in range(0, 9, 3)]
                 + [(r, 8) for r in range(0, 9, 3)]), 2),
    ], ids=["spanning", "area", "point", "ring", "corner"])
    def test_sizes_components_only_when_several(self, mask, count):
        expected = _giant_reference(mask, 1)
        assert ndimage.label(~thicken(mask, 1).data,
                             structure=_CROSS)[1] == count
        with _spies() as (lab, hist):
            giant = open_components(mask, 1)
        assert np.array_equal(giant.data, expected)
        assert lab.call_count == 1
        assert hist.call_count == (count >= 2)

    def test_traced_peak_at_robinson_scale_2(self):
        # Robinson N = 2's shape: c = 8 thickens a 1024^2 mask to 1008^2,
        # which holds several clear components, so they are sized.  The
        # cap is the peak of the ndimage.label labelling with its int32
        # label array (5.895 MiB)
        mask = NoiseMask((0, 0),
                         np.random.default_rng(0).random((1024, 1024)) < 1e-3)
        expected = _giant_reference(mask, 8)
        tm = thicken(mask, 8)
        assert tm.shape == (1008, 1008)
        assert ndimage.label(~tm.data, structure=_CROSS)[1] >= 2
        tracemalloc.start()
        try:
            giant = open_components(mask, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(giant.data, expected)
        assert peak < 5.9 * 2 ** 20

    def test_traced_peak_of_a_dense_512_box(self):
        # too dense for the neighbour scan, as at high noise: many
        # components, all sized; no intp copy of a label array is made
        rng = np.random.default_rng(3)
        mask = NoiseMask((0, 0), rng.random((514, 514)) < 0.3)
        assert percolation._clusters(*_keys(mask.data), 1) is None
        tracemalloc.start()
        try:
            giant = open_components(mask, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(giant.data, _giant_reference(mask, 1))
        assert peak < 2.25 * 2 ** 20


def _run_image(fat):
    """The run labelling painted back: each clear cell holds its
    component's rank among the roots, from 1, and obscured cells 0."""
    starts, ends, lab = percolation._runs(fat)
    padded = tuple(s + 1 for s in fat.shape)
    values = np.zeros(2 * len(lab) + 1, dtype=np.intp)
    values[1::2] = np.unique(lab, return_inverse=True)[1] + 1
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(),
                             [np.prod(padded)]))
    image = np.repeat(values, np.diff(bounds)).reshape(padded)
    return lab, image[tuple(slice(s) for s in fat.shape)]


class TestRunLabels:
    """The run labeller against ndimage.label as an independent reference,
    and `open_components` built on it: one run labelling per call, and
    component sizes only when there are two or more."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 3),
           st.sampled_from([0.0, 0.05, 0.2, 0.3, 0.5, 1.0]),
           st.none() | st.tuples(st.integers(0, 2), st.integers(1, 5)))
    @example(0, 2, 0, 0.0, (1, 1))  # two clear 1 x 1 halves
    @example(0, 3, 2, 0.0, (0, 3))  # two clear halves, split along rows
    @example(0, 1, 3, 1.0, None)  # one obscured cell
    def test_labels_match_ndimage(self, seed, dim, c, eps, split):
        rng = np.random.default_rng(seed)
        # sides from 2c + 1, a thickened side of one cell
        shape = [int(s) for s in rng.integers(2 * c + 1, 2 * c + 13, size=dim)]
        if split is not None:
            # an obscured wall across one axis between two mirror halves
            # of k cells each: the mirror image of a mask cell j along an
            # axis of side m is m - 1 - j, in the mask as in T
            axis, k = split[0] % dim, split[1]
            shape[axis] = 2 * k + 4 * c + 1
        data = rng.random(shape) < eps
        if split is not None:
            data |= np.flip(data, axis)
            data[(slice(None),) * axis + (k + 2 * c,)] = True
        origin = tuple(int(o) for o in rng.integers(-9, 9, size=dim))
        mask = NoiseMask(origin, data)
        fat = thicken(mask, c).data
        labels, count = ndimage.label(
            ~fat, structure=ndimage.generate_binary_structure(dim, 1))
        lab, image = _run_image(fat)
        # the same partition, numbered in the same order; each root is its
        # component's first run
        assert np.array_equal(image, labels)
        assert np.count_nonzero(lab == np.arange(len(lab))) == count
        assert np.array_equal(lab, _canonical(lab))
        with _spies() as (runs, hist):
            giant = open_components(mask, c)
        assert giant.origin == tuple(o + c for o in origin)
        assert np.array_equal(giant.data, _giant_reference(mask, c))
        assert runs.call_count == 1
        assert hist.call_count == (count >= 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(7, 90), st.integers(7, 90),
           st.integers(1, 3), st.floats(0.002, 0.2))
    def test_window_answer_matches_dense(self, seed, h, w, c, density):
        rng = np.random.default_rng(seed)
        mask = NoiseMask((0, 0), rng.random((h, w)) < density)
        got = percolation._sparse_excluded(*_keys(mask.data), c)
        assume(got is not None)  # the certificate holds
        assert got == _dense_excluded(mask, c)
