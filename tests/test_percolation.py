"""Open-component analysis of thickened noise masks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisysft.core import NoiseMask
from noisysft.noise import Bernoulli, derive_seed, sample_mask
from noisysft.percolation import (
    ExclusionEstimate,
    exclusion_bound,
    open_components,
    origin_exclusion_estimates,
    origin_excluded,
)


def mask_from(rows):
    data = np.array(rows, dtype=np.uint8)
    return NoiseMask((0, 0), data)


class TestOpenComponents:
    def test_all_clear_single_component(self):
        comp = open_components(mask_from(np.zeros((8, 8), dtype=np.uint8)), c=0)
        assert comp.largest_label == 1
        assert comp.sizes[1] == 64
        assert comp.sizes[0] == 0
        assert np.all(comp.labels == 1)

    def test_all_obscured_no_component(self):
        comp = open_components(mask_from(np.ones((6, 6), dtype=np.uint8)), c=0)
        assert comp.largest_label == 0
        assert comp.sizes[0] == 36

    def test_single_blob_carves_hole(self):
        rows = np.zeros((9, 9), dtype=np.uint8)
        rows[4, 4] = 1
        comp = open_components(mask_from(rows), c=1)
        # thickening turns the point into a 3x3 hole and crops the box to 7x7
        assert comp.origin == (1, 1)
        assert comp.labels.shape == (7, 7)
        assert comp.sizes[0] == 9
        assert comp.sizes[comp.largest_label] == 49 - 9
        assert comp.labels[3, 3] == 0  # absolute (4, 4)
        assert comp.labels[2, 2] == 0  # absolute (3, 3)
        assert comp.labels[1, 1] == comp.largest_label

    def test_wall_splits_and_largest_wins(self):
        rows = np.zeros((7, 7), dtype=np.uint8)
        rows[:, 2] = 1  # vertical wall: 14 left cells, 28 right cells
        comp = open_components(mask_from(rows), c=0)
        assert len(comp.sizes) == 3
        big = comp.largest_label
        assert comp.sizes[big] == 28
        assert comp.labels[0, 6] == big
        assert comp.labels[0, 0] != big
        assert comp.labels[0, 0] != 0

    def test_tie_breaks_to_smallest_label(self):
        rows = np.zeros((5, 7), dtype=np.uint8)
        rows[:, 3] = 1  # two 5x3 halves
        comp = open_components(mask_from(rows), c=0)
        assert comp.sizes[1] == comp.sizes[2] == 15
        assert comp.largest_label == 1

    def test_diagonal_is_not_adjacent(self):
        rows = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        comp = open_components(mask_from(rows), c=0)
        # the two clear corners touch only diagonally
        assert comp.labels[0, 0] != comp.labels[1, 1]

    def test_side_spanning_label(self):
        rows = np.zeros((6, 6), dtype=np.uint8)
        comp = open_components(mask_from(rows), c=0)
        assert comp.side_spanning_label() == comp.largest_label

        rows = np.ones((6, 6), dtype=np.uint8)
        rows[2, :] = 0  # horizontal corridor: spans x but not y
        comp = open_components(mask_from(rows), c=0)
        assert comp.side_spanning_label() == 0


class TestOriginExcluded:
    def test_clear_box_includes_origin(self):
        mask = mask_from(np.zeros((33, 33), dtype=np.uint8))
        assert not origin_excluded(mask, c=1)
        assert not origin_excluded(mask, c=1, proxy="sides")

    def test_blocked_centre_is_excluded(self):
        rows = np.zeros((33, 33), dtype=np.uint8)
        rows[16, 16] = 1
        mask = mask_from(rows)
        assert origin_excluded(mask, c=1)

    def test_ring_around_centre_excludes(self):
        rows = np.zeros((33, 33), dtype=np.uint8)
        for t in range(10, 23):
            rows[10, t] = rows[22, t] = rows[t, 10] = rows[t, 22] = 1
        mask = mask_from(rows)
        # centre survives thickening but sits in a small enclosed pocket
        assert origin_excluded(mask, c=1)
        assert origin_excluded(mask, c=1, proxy="sides")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_exclusion_monotone_in_noise(self, seed):
        # coupled masks: cells obscured at eps1 stay obscured at eps2
        shape = (41, 41)
        from noisysft.noise import cell_uniform

        u = cell_uniform(np.uint64(seed), (0, 0), shape)
        lo = NoiseMask((0, 0), (u < 0.01).astype(np.uint8))
        hi = NoiseMask((0, 0), (u < 0.05).astype(np.uint8))
        for proxy in ("largest", "sides"):
            if origin_excluded(lo, c=1, proxy=proxy):
                assert origin_excluded(hi, c=1, proxy=proxy)


class TestEstimate:
    def test_zero_noise_never_excludes(self):
        est, = origin_exclusion_estimates([0.0], c=1, box=65, trials=40,
                                          seed=9)
        assert est.value == 0.0
        assert est.trials == 40
        # the CI floor keeps within_bound honest even at zero noise
        assert est.bound == 0.0
        assert est.ci95 > 0

    def test_bound_formula(self):
        assert exclusion_bound(1e-4, 1) == pytest.approx(48 * 9 * 1e-4)
        assert exclusion_bound(2e-3, 2) == pytest.approx(48 * 25 * 2e-3)

    def test_estimate_is_deterministic(self):
        a, = origin_exclusion_estimates([0.02], c=1, box=33, trials=30,
                                        seed=4)
        b, = origin_exclusion_estimates([0.02], c=1, box=33, trials=30,
                                        seed=4)
        assert a == b

    def test_estimate_tracks_rate(self):
        # at eps=0.2 with c=1 the 33x33 thickened box is mostly holes
        est, = origin_exclusion_estimates([0.2], c=1, box=33, trials=60,
                                          seed=1)
        assert est.value > 0.5

    def test_ci_floor(self):
        est, = origin_exclusion_estimates([0.0], c=1, box=33, trials=100,
                                          seed=2)
        # zero variance still reports the 1/T resolution floor
        assert est.ci95 == pytest.approx(1.96 * np.sqrt(1.0 / 100 / 100))


class TestSharedField:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]), min_size=1,
                    max_size=4),
           st.integers(0, 2), st.integers(9, 25), st.integers(1, 4),
           st.integers(0, 2 ** 64 - 1), st.sampled_from(["largest", "sides"]))
    def test_equals_per_epsilon_estimates(self, epsilons, c, box, trials,
                                          seed, proxy):
        shared = origin_exclusion_estimates(epsilons, c, box, trials, seed,
                                            proxy=proxy)
        assert shared == [origin_exclusion_estimates([e], c, box, trials,
                                                     seed, proxy=proxy)[0]
                          for e in epsilons]
        # reference: a fresh Bernoulli mask per (epsilon, trial)
        hits = [sum(origin_excluded(
            sample_mask(Bernoulli(e), (box, box), derive_seed(seed, "perc", t)),
            c, proxy=proxy) for t in range(trials)) for e in epsilons]
        assert [est.value for est in shared] == [h / trials for h in hits]

    def test_epsilon_range(self):
        with pytest.raises(ValueError, match="epsilon"):
            origin_exclusion_estimates([0.1, 1.5], 1, 17, 2, 0)
