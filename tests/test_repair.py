"""Window repair in 1D and majority-vote repair of periodic 2D systems."""

import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import noisysft.automaton1d as a1d
from noisysft import core, percolation, repair
from noisysft import harness as H
from noisysft.core import (
    GOLDEN_MEAN,
    CapExceeded,
    Grid,
    NoiseMask,
    Pattern,
    Sft,
    SftParseError,
    thicken,
    word_sft,
)
from noisysft.noise import Bernoulli, sample_mask
from noisysft.repair import (
    PeriodicSft,
    Repair1DReport,
    local_global_constant,
    parse_periodic,
    repair_1d,
    repair_periodic,
)

LONELY_ONE = word_sft("01", ["11", "010"])
TWO_THREE = word_sft("012", ["00", "02", "11", "21", "22"])
# a only before b, b only before b: (a,) is transient
A_THEN_B = word_sft("ab", ["aa", "ba"])

CHECKER_TEXT = """
dim 2
alphabet a b
forbid (0,0)=a (0,1)=a
forbid (0,0)=b (0,1)=b
forbid (0,0)=a (1,0)=a
forbid (0,0)=b (1,0)=b
period 2
base a b b a
"""

STRIPES_TEXT = """
dim 2
alphabet a b c
forbid (0,0)=a (0,1)=b
forbid (0,0)=a (0,1)=c
forbid (0,0)=b (0,1)=a
forbid (0,0)=b (0,1)=c
forbid (0,0)=c (0,1)=a
forbid (0,0)=c (0,1)=b
forbid (0,0)=a (1,0)=a
forbid (0,0)=a (1,0)=c
forbid (0,0)=b (1,0)=a
forbid (0,0)=b (1,0)=b
forbid (0,0)=c (1,0)=b
forbid (0,0)=c (1,0)=c
period 3
base a a a b b b c c c
"""


def _runs(flags: np.ndarray):
    """Maximal [start, stop) runs of True in a 1D boolean array."""
    if flags.size == 0:
        return []
    padded = np.concatenate(([False], flags, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[::2], edges[1::2]))


def random_admissible_word(auto, length, rng):
    """Uniformish random walk over live states."""
    live = a1d.live_states(auto)
    states = sorted(live)
    cur = states[rng.integers(len(states))]
    out = list(auto.states[cur])
    while len(out) < length:
        succ = [(b, j) for b, j in auto.edges[cur] if j in live]
        b, cur = succ[rng.integers(len(succ))]
        out.append(b)
    return tuple(out[:length])


def noisy_copy(word, mask_data, nsym, rng):
    out = np.array(word, dtype=np.int64)
    idx = np.flatnonzero(mask_data)
    out[idx] = rng.integers(0, nsym, size=len(idx))
    return out


class TestRepairConstants:
    def test_golden_mean(self):
        rc = a1d.repair_constants(a1d.build_automaton(GOLDEN_MEAN))
        assert (rc.word_len, rc.n0, rc.C, rc.D, rc.E) == (1, 1, 1, 1, 2)

    def test_lonely_one(self):
        rc = a1d.repair_constants(a1d.build_automaton(LONELY_ONE))
        assert (rc.word_len, rc.n0, rc.C, rc.D, rc.E) == (2, 1, 2, 2, 3)

    def test_two_three(self):
        rc = a1d.repair_constants(a1d.build_automaton(TWO_THREE))
        assert (rc.word_len, rc.n0, rc.C, rc.D, rc.E) == (1, 4, 1, 2, 3)


class TestRepair1D:
    def test_zero_noise_is_identity(self):
        word = tuple([0, 1] * 20)
        grid = Grid((0,), np.array(word))
        mask = NoiseMask((0,), np.zeros(40, dtype=np.uint8))
        rep = repair_1d(GOLDEN_MEAN, grid, mask)
        assert not rep.changed.any()
        assert rep.changed_fraction == 0.0
        assert not rep.boundary_gap
        assert rep.end_rewrites == 0
        assert rep.interior == (1, 39)

    def test_single_violation_fixed_locally(self):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        data = np.array([0, 1] * 30)
        data[30] = 1  # 11 at 29..30
        mask = np.zeros(60, dtype=np.uint8)
        mask[30] = 1
        rep = repair_1d(auto, Grid((0,), data), NoiseMask((0,), mask))
        lo, hi = rep.interior
        assert a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])
        changed = np.flatnonzero(rep.changed)
        assert len(changed) > 0
        e = rep.constants.E
        assert all(abs(i - 30) <= e for i in changed)
        assert type(rep.changed_fraction) is float

    def test_all_obscured_reports_boundary_gap(self):
        data = np.ones(50, dtype=np.int64)
        mask = np.ones(50, dtype=np.uint8)
        rep = repair_1d(GOLDEN_MEAN, Grid((0,), data), NoiseMask((0,), mask))
        assert rep.boundary_gap
        lo, hi = rep.interior
        assert rep.grid.data[lo:hi].tolist() == [0] * 48

    def test_box_too_small(self):
        data = np.zeros(5, dtype=np.int64)
        with pytest.raises(ValueError, match="too small"):
            repair_1d(GOLDEN_MEAN, Grid((0,), data),
                      NoiseMask((0,), np.zeros(5, dtype=np.uint8)))

    def test_non_integer_symbols_raise(self):
        # truncating 0.5 used to give a mix of 0.5 and 0 with no boundary gap
        data = np.full(40, 0.5)
        mask = np.zeros(40, dtype=np.uint8)
        mask[10:12] = 1
        with pytest.raises(ValueError,
                           match=r"^grid symbols must lie in \[0, 2\) as integers$"):
            repair_1d(GOLDEN_MEAN, Grid((0,), data), NoiseMask((0,), mask))

    def test_clear_symbol_outside_alphabet_raises(self):
        # a clear 7 used to pass through with changed_fraction 0
        data = np.array([0, 1] * 20, dtype=np.uint8)
        data[20] = 7
        with pytest.raises(ValueError,
                           match=r"^grid symbols must lie in \[0, 2\) as integers$"):
            repair_1d(GOLDEN_MEAN, Grid((0,), data),
                      NoiseMask((0,), np.zeros(40, dtype=np.uint8)))

    @pytest.mark.parametrize("sft", [GOLDEN_MEAN,
                                     word_sft("012", ["11", "202", "0220"])])
    def test_words_stay_narrow(self, sft):
        # sampler, corruption and repair hold the word in one byte a letter
        auto = a1d.build_automaton(sft)
        word = H.sample_admissible_word(auto, 2000, seed=4)
        mask = sample_mask(Bernoulli(0.02), word.shape, seed=5)
        noisy = H.corrupt(word, mask.data, len(sft.alphabet), seed=6)
        rep = repair_1d(auto, Grid((0,), noisy), mask)
        assert word.dtype == noisy.dtype == rep.grid.data.dtype == np.uint8
        lo, hi = rep.interior
        assert a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])

    def test_origin_carries_through(self):
        word = tuple([0, 1] * 20)
        grid = Grid((-7,), np.array(word))
        mask = NoiseMask((-7,), np.zeros(40, dtype=np.uint8))
        rep = repair_1d(GOLDEN_MEAN, grid, mask)
        assert rep.grid.origin == (-7,)
        assert rep.interior == (-6, 32)

    @pytest.mark.parametrize("sft", [GOLDEN_MEAN, LONELY_ONE, TWO_THREE],
                             ids=["golden-mean", "lonely-one", "two-three"])
    def test_repair_guarantees_on_random_trials(self, sft):
        auto = a1d.build_automaton(sft)
        rc = a1d.repair_constants(auto)
        nsym = len(auto.sft.alphabet)
        length = 400
        for trial in range(15):
            rng = np.random.default_rng(1000 + trial)
            word = random_admissible_word(auto, length, rng)
            mask = sample_mask(Bernoulli(0.03), (length,), seed=trial)
            data = noisy_copy(word, mask.data, nsym, rng)
            rep = repair_1d(auto, Grid((0,), data), NoiseMask((0,), mask.data))
            assert not rep.boundary_gap
            lo, hi = rep.interior
            assert a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])
            # locality: interior changes happen within E of an obscured cell
            # or within C of the interior edge (end peeling)
            obscured = np.flatnonzero(mask.data)
            for i in np.flatnonzero(rep.changed):
                if i < rc.C or i >= length - rc.C:
                    continue
                near_noise = len(obscured) and np.min(np.abs(obscured - i)) <= rc.E
                near_end = i < rc.C + rc.C or i >= length - 2 * rc.C
                assert near_noise or near_end, f"far rewrite at {i}"
            assert rep.end_rewrites <= 2 * rc.C

    @pytest.mark.parametrize("bad, gap", [(3, False), (4, True)])
    def test_one_sided_anchor_widens_c_wl_plus_one(self, bad, gap):
        # (b,) is the only live state; C = wl = h = 1, E = 2.  The run [0, 3)
        # touches the low margin, so its anchor is looked for at 2..5
        auto = a1d.build_automaton(A_THEN_B)
        data = np.ones(40, dtype=np.int64)
        data[2:2 + bad] = 0
        mask = np.zeros(40, dtype=np.uint8)
        mask[0] = 1
        rep = repair_1d(auto, Grid((0,), data), NoiseMask((0,), mask))
        assert rep.boundary_gap == gap
        assert (rep.grid.data == 1).all()

    @pytest.mark.parametrize("bad, gap", [(10, False), (11, True)])
    def test_two_sided_window_moves_at_most_10(self, bad, gap):
        # 2 (C + wl + n0) + 4 = 10 moves; the run [48, 53) has its right
        # anchor at 52, and each a from there on, which no gap word can
        # enter, costs a move
        auto = a1d.build_automaton(A_THEN_B)
        data = np.ones(100, dtype=np.int64)
        data[52:52 + bad] = 0
        mask = np.zeros(100, dtype=np.uint8)
        mask[50] = 1
        rep = repair_1d(auto, Grid((0,), data), NoiseMask((0,), mask))
        assert rep.constants.n0 == 1
        assert rep.boundary_gap == gap
        assert (rep.grid.data == 1).all()

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        auto = a1d.build_automaton(GOLDEN_MEAN)
        word = random_admissible_word(auto, 200, rng)
        mask = sample_mask(Bernoulli(0.05), (200,), seed=3)
        data = noisy_copy(word, mask.data, 2, rng)
        reps = [repair_1d(auto, Grid((0,), data.copy()),
                          NoiseMask((0,), mask.data.copy())) for _ in range(2)]
        assert np.array_equal(reps[0].grid.data, reps[1].grid.data)
        assert reps[0].interior == reps[1].interior
        assert reps[0].end_rewrites == reps[1].end_rewrites


def _repair_1d_reference(auto, grid, mask, spans=None):
    """The window loop repair_1d had before its anchor helpers were merged,
    kept to check that the merge moved no output.  When a list is given as
    `spans`, the (start, stop) of every fill is appended to it, in the
    order the fills are written."""
    rc = a1d.repair_constants(auto)
    wl, e_const, c_const, n0 = rc.word_len, rc.E, rc.C, rc.n0
    h = -(-auto.sft.diameter // 2)
    length = grid.shape[0]
    padded = NoiseMask((0,), np.pad(mask.data, e_const))
    fat = thicken(padded, e_const).data.astype(bool)
    out = np.array(grid.data, copy=True)
    origin = grid.origin[0]
    interior = (origin + c_const, origin + length - c_const)
    boundary_gap = False
    end_rewrites = 0
    live = a1d.live_states(auto)

    def window_start(pos, side):
        lo = pos - wl if side == "left" else pos
        return lo if 0 <= lo <= length - wl else None

    def anchor_state(pos, side):
        lo = window_start(pos, side)
        if lo is None:
            return None
        return auto.index.get(tuple(int(v) for v in grid.data[lo:lo + wl]))

    def peel_state(pos, side):
        lo = window_start(pos, side)
        if lo is None:
            return None
        return auto.index.get(tuple(int(v) for v in out[lo:lo + wl]))

    windows = _runs(fat)
    margin_lo, margin_hi = c_const, length - c_const
    fills = []

    kept_any = any(b - a > 0 for a, b in _runs(~fat[margin_lo:margin_hi]))
    if not kept_any:
        boundary_gap = True
        word = a1d.lex_least_admissible_word(auto, length)
        fills.append((0, length, word))
        windows = []

    for a, b in windows:
        touches_lo = a < margin_lo + 1
        touches_hi = b > margin_hi - 1
        if touches_lo and touches_hi:
            boundary_gap = True
            fills = [(0, length, a1d.lex_least_admissible_word(auto, length))]
            break
        if touches_lo:
            stop = b - h
            right = anchor_state(stop, "right")
            widen = 0
            while right is None or right not in live:
                stop += 1
                widen += 1
                if stop + wl > length or widen > c_const + wl + 1:
                    right = None
                    break
                right = anchor_state(stop, "right")
            if right is None:
                boundary_gap = True
                fills = [(0, length,
                          a1d.lex_least_admissible_word(auto, length))]
                break
            fills.append((0, stop, a1d.extend_from(auto, right, stop,
                                                   forward=False)))
            continue
        if touches_hi:
            start = a + h
            left = anchor_state(start, "left")
            widen = 0
            while left is None or left not in live:
                start -= 1
                widen += 1
                if start - wl < 0 or widen > c_const + wl + 1:
                    left = None
                    break
                left = anchor_state(start, "left")
            if left is None:
                boundary_gap = True
                fills = [(0, length,
                          a1d.lex_least_admissible_word(auto, length))]
                break
            fills.append((start, length,
                          a1d.extend_from(auto, left, length - start,
                                          forward=True)))
            continue
        start, stop = a + h, b - h
        widen_total = 0
        while True:
            left = anchor_state(start, "left")
            right = anchor_state(stop, "right")
            filler = None
            if left is not None and right is not None:
                filler = a1d.fill_gap(auto, left, right, stop - start)
            if filler is not None:
                fills.append((start, stop, filler))
                break
            widen_total += 1
            if left is None or left not in live:
                start -= 1
            elif right is None or right not in live:
                stop += 1
            else:
                start -= 1
                stop += 1
            if start - wl < 0 or stop + wl > length or \
                    widen_total > 2 * (c_const + wl + n0) + 4:
                boundary_gap = True
                fills = [(0, length,
                          a1d.lex_least_admissible_word(auto, length))]
                break
        if boundary_gap and fills and fills[-1][0] == 0 and \
                fills[-1][1] == length:
            break

    for start, stop, word in fills:
        out[start:stop] = word
    if spans is not None:
        spans.extend((start, stop) for start, stop, _ in fills)

    if not boundary_gap and wl <= length:
        for side in ("lo", "hi"):
            for j in range(c_const + 1):
                if side == "lo":
                    st_ = peel_state(margin_lo + j + wl, "left")
                else:
                    st_ = peel_state(margin_hi - j - wl, "right")
                if st_ is not None and st_ in live:
                    if j > 0:
                        if side == "lo":
                            seg = a1d.extend_from(auto, st_, margin_lo + j,
                                                  forward=False)
                            if not np.array_equal(out[:margin_lo + j], seg):
                                end_rewrites += max(
                                    0, int(np.sum(out[margin_lo:margin_lo + j]
                                                  != seg[margin_lo:])))
                                out[:margin_lo + j] = seg
                        else:
                            seg = a1d.extend_from(auto, st_,
                                                  length - margin_hi + j,
                                                  forward=True)
                            old = out[margin_hi - j:]
                            if not np.array_equal(old, seg):
                                end_rewrites += int(
                                    np.sum(out[margin_hi - j:margin_hi]
                                           != seg[:j]))
                                out[margin_hi - j:] = seg
                    break

    changed = out != grid.data
    inside = slice(c_const, length - c_const)
    denom = max(length - 2 * c_const, 1)
    return Repair1DReport(
        grid=Grid(grid.origin, out), interior=interior, changed=changed,
        changed_fraction=float(changed[inside].sum()) / denom,
        boundary_gap=boundary_gap, end_rewrites=end_rewrites, constants=rc)


@st.composite
def irreducible_aperiodic_automata(draw):
    """Word automata of random SFTs: 2-3 letters, 1-4 forbidden words of
    length 1-4, kept when irreducible aperiodic."""
    alphabet = "012"[:draw(st.integers(2, 3))]
    words = draw(st.lists(st.text(alphabet, min_size=1, max_size=4),
                          min_size=1, max_size=4, unique=True))
    auto = a1d.build_automaton(word_sft(alphabet, words))
    assume(a1d.classify(auto).kind == "irreducible_aperiodic")
    return auto


# forbidden letters, so state index i does not spell letter i
FORBID_ONE = word_sft("0123", ["1", "12", "30"])
ONE_LIVE_LETTER = word_sft("012", ["0", "01", "21", "11"])
# golden mean on 0 1, and 2, which nothing precedes, only before 1: the
# state (2,) is no live state, but a gap word leaves it
TRANSIENT_TWO = word_sft("012", ["11", "02", "12", "22", "20"])


class TestRandomSft1D:
    """repair_1d over random small SFTs, forbidden single letters included,
    against its guarantees and the body it replaced."""

    @settings(max_examples=300, deadline=None)
    @example(a1d.build_automaton(FORBID_ONE), 0.01, 0, 60)
    @example(a1d.build_automaton(ONE_LIVE_LETTER), 0.05, 0, 0)
    @given(irreducible_aperiodic_automata(),
           st.sampled_from([0.0, 0.01, 0.05, 0.2, 1.0]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 120))
    def test_guarantees_and_reference(self, auto, eps, seed, extra):
        rc = a1d.repair_constants(auto)
        length = 2 * (rc.C + rc.E + rc.word_len) + rc.n0 + 2 + extra
        clean = H.sample_admissible_word(auto, length, seed)
        mask = sample_mask(Bernoulli(eps), (length,), seed=seed)
        noisy = Grid((0,), H.corrupt(clean, mask.data.astype(bool),
                                     len(auto.sft.alphabet), seed))
        rep = repair_1d(auto, noisy, mask)
        lo, hi = rep.interior
        assert a1d.is_globally_admissible(auto, rep.grid.data[lo:hi])
        pos = np.flatnonzero(rep.changed)
        pos = pos[(pos >= lo) & (pos < hi)]
        assert H._locality_flags(pos, np.flatnonzero(mask.data), rc,
                                 lo, hi).all()
        assert rep.end_rewrites <= 2 * rc.C
        again = repair_1d(auto, Grid((0,), noisy.data.copy()),
                          NoiseMask((0,), mask.data.copy()))
        for other in (again, _repair_1d_reference(auto, noisy, mask)):
            _assert_same_1d(rep, other)

    @settings(max_examples=300, deadline=None)
    @example(a1d.build_automaton(TRANSIENT_TWO), 0.05, 0.7, 641, 20)
    @given(irreducible_aperiodic_automata(),
           st.sampled_from([0.0, 0.01, 0.05, 0.2]),
           st.sampled_from([0.01, 0.05]),
           st.integers(0, 2 ** 32 - 1), st.integers(0, 120))
    def test_unmasked_errors_match_reference(self, auto, eps, hidden, seed,
                                             extra):
        """Errors outside the mask put non-live states under the anchors,
        so windows widen; the guarantees need not hold, but the output is
        still that of the replaced body."""
        rc = a1d.repair_constants(auto)
        length = 2 * (rc.C + rc.E + rc.word_len) + rc.n0 + 2 + extra
        rng = np.random.default_rng(seed)
        clean = H.sample_admissible_word(auto, length, seed)
        mask = NoiseMask((0,), rng.random(length) < eps)
        hit = mask.data.astype(bool) | (rng.random(length) < hidden)
        noisy = Grid((0,), H.corrupt(clean, hit, len(auto.sft.alphabet),
                                     seed))
        _assert_same_1d(repair_1d(auto, noisy, mask),
                        _repair_1d_reference(auto, noisy, mask))

    @settings(max_examples=200, deadline=None)
    @given(irreducible_aperiodic_automata(), st.data())
    def test_window_states_at_starts(self, auto, data):
        """window_states against the state dict, at starts on and off the
        word; the letter nsym is off the alphabet."""
        nsym, wl = len(auto.sft.alphabet), auto.word_len
        word = np.array(data.draw(st.lists(st.integers(0, nsym), max_size=40)),
                        dtype=data.draw(st.sampled_from(
                            [np.uint8, np.int16, np.int64])))
        starts = data.draw(st.lists(st.integers(-wl - 2, len(word) + 2),
                                    max_size=60))
        want = [auto.index.get(tuple(word[s:s + wl].tolist()), -1)
                if 0 <= s <= len(word) - wl else -1 for s in starts]
        got = a1d.window_states(auto, word, starts)
        assert got.tolist() == want
        assert got.dtype == np.min_scalar_type(-len(auto.states))

    def test_widened_fill_overlaps_next_batched_fill(self):
        """Unmasked 2s right of the first window push its right anchor onto
        the second window, whose left anchor is a 2: the widened fill
        [9, 16) and the batched fill [15, 18) share cell 15, where the
        later window's letter 1 must win over the widened fill's 0."""
        auto = a1d.build_automaton(TRANSIENT_TWO)
        data = np.zeros(40, dtype=np.int64)
        data[12:16] = 2
        mask = np.zeros(40, dtype=bool)
        mask[[10, 16]] = True
        noisy, mask = Grid((0,), data), NoiseMask((0,), mask)
        spans = []
        ref = _repair_1d_reference(auto, noisy, mask, spans)
        assert spans == [(9, 16), (15, 18)]
        assert a1d.fill_gap(auto, 0, 0, 7)[15 - 9] == 0
        assert ref.grid.data[15] == 1
        _assert_same_1d(repair_1d(auto, noisy, mask), ref)


def _thickened_runs(obscured, e):
    """The runs [a, b) of the e-thickened mask found densely: pad by e,
    thicken by e back to the box, and the edges of the result."""
    fat = thicken(NoiseMask((0,), np.pad(obscured, e)), e).data
    edges = np.flatnonzero(np.diff(fat, prepend=False, append=False))
    return edges[::2], edges[1::2]


class _HaveRuns(Exception):
    """Raised by the `_fill_windows` spy once it has seen the runs."""


class TestWindowRuns:
    """The runs `repair_1d` hands to `_fill_windows`, merged from the
    obscured cells, against the dense thickening.  E is set directly, so
    every radius from 1 to 6 is drawn; boxes are near `min_length`."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 12),
           st.sets(st.integers(0, 10 ** 6)),
           st.sampled_from(["inside", "lo", "hi", "both", "full"]))
    @example(1, 0, {3, 7}, "inside")  # 2E + 2 apart: two runs
    @example(1, 0, {3, 6}, "inside")  # 2E + 1 apart: one run
    @example(6, 5, {9, 23}, "both")  # the same at E = 6, ends obscured
    @example(6, 0, set(), "inside")  # nothing obscured: no run
    @example(4, 0, set(), "full")
    def test_runs_equal_dense_thickening(self, e, extra, cells, ends):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        rc = dataclasses.replace(a1d.repair_constants(auto), E=e)
        length = rc.min_length + extra
        obscured = np.zeros(length, dtype=bool)
        obscured[[c % length for c in cells]] = True
        obscured[0] |= ends in ("lo", "both")
        obscured[-1] |= ends in ("hi", "both")
        obscured |= ends == "full"
        seen = []

        def spy(auto, rc, a, b, *rest):
            seen.append((a, b))
            raise _HaveRuns

        with mock.patch.object(a1d, "repair_constants", return_value=rc), \
                mock.patch.object(repair, "_fill_windows", spy), \
                pytest.raises(_HaveRuns):
            repair_1d(auto, Grid((-4,), np.zeros(length, dtype=np.int64)),
                      NoiseMask((-4,), obscured))
        (a, b), = seen
        want_a, want_b = _thickened_runs(obscured, e)
        assert a.dtype == want_a.dtype and b.dtype == want_b.dtype
        assert np.array_equal(a, want_a) and np.array_equal(b, want_b)


def _assert_same_1d(rep, other):
    assert np.array_equal(rep.grid.data, other.grid.data)
    assert rep.interior == other.interior
    assert np.array_equal(rep.changed, other.changed)
    assert rep.boundary_gap == other.boundary_gap
    assert rep.end_rewrites == other.end_rewrites
    assert rep.changed_fraction == other.changed_fraction


class TestPeriodicSft:
    def test_parse_checkerboard(self):
        p = parse_periodic(CHECKER_TEXT)
        assert p.period == 2
        assert p.dim == 2
        assert p.base.tolist() == [[0, 1], [1, 0]]
        p.validate()

    def test_orbit_and_canonical(self):
        p = parse_periodic(CHECKER_TEXT)
        assert p.orbit() == [(0, 0), (0, 1)]
        # the orbit lists each translate by its lex-least offset
        for t, canon in (((1, 0), (0, 1)), ((1, 1), (0, 0))):
            assert np.array_equal(p.tiling(t, (0, 0), (2, 2)).data,
                                  p.tiling(canon, (0, 0), (2, 2)).data)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_tiling_reads_base_at_each_cell(self, dim):
        # cell x holds base[(x - offset) mod period], whatever the order in
        # which the axes are tiled
        rng = np.random.default_rng(dim)
        for period in (1, 2, 3, 5):
            sft = Sft(dim=dim, alphabet=("a", "b", "c"), forbidden=frozenset())
            p = PeriodicSft(sft=sft, period=period,
                            base=rng.integers(0, 3, size=(period,) * dim))
            for _ in range(10):
                shape = tuple(int(s) for s in rng.integers(0, 12, size=dim))
                origin = tuple(int(o) for o in rng.integers(-20, 20, size=dim))
                offset = tuple(int(o) for o in rng.integers(-9, 9, size=dim))
                got = p.tiling(offset, origin, shape)
                idx = np.indices(shape)
                want = p.base[tuple((idx[i] + origin[i] - offset[i]) % period
                                    for i in range(dim))]
                assert got.data.dtype == p.base.dtype
                assert np.array_equal(got.data, want)

    def test_tiling_values(self):
        p = parse_periodic(CHECKER_TEXT)
        g = p.tiling((0, 0), (0, 0), (3, 4))
        assert g.data.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        # translating the offset shifts the pattern
        g1 = p.tiling((0, 1), (0, 0), (2, 2))
        assert g1.data.tolist() == [[1, 0], [0, 1]]
        # negative origins and offsets wrap around the period
        s = parse_periodic(STRIPES_TEXT)
        for offset in [(-1, 2), (4, -5), (-3, -7)]:
            for origin in [(-4, -1), (-7, 3), (2, -2)]:
                got = s.tiling(offset, origin, (4, 5))
                assert got.origin == origin
                assert got.data.tolist() == [
                    [int(s.base[(origin[0] + i - offset[0]) % 3,
                                (origin[1] + j - offset[1]) % 3])
                     for j in range(5)] for i in range(4)]

    def test_tiling_origin_consistency(self):
        p = parse_periodic(CHECKER_TEXT)
        big = p.tiling((0, 0), (0, 0), (8, 8))
        sub = p.tiling((0, 0), (3, 5), (2, 2))
        assert np.array_equal(sub.data, big.data[3:5, 5:7])

    def test_stripes_orbit(self):
        p = parse_periodic(STRIPES_TEXT)
        assert p.orbit() == [(0, 0), (1, 0), (2, 0)]
        p.validate()

    def test_parse_errors(self):
        with pytest.raises(SftParseError, match="period and base"):
            parse_periodic("dim 2\nalphabet a b\nbase a b b a\n")
        with pytest.raises(SftParseError, match="base"):
            parse_periodic("dim 2\nalphabet a b\nperiod 2\nbase a b b\n")
        with pytest.raises(SftParseError, match="unknown directive"):
            parse_periodic(CHECKER_TEXT + "\nwibble 3\n")

    def test_validate_rejects_bad_base(self):
        bad = CHECKER_TEXT.replace("base a b b a", "base a a b a")
        with pytest.raises(ValueError, match="3-period box"):
            parse_periodic(bad)

    @pytest.mark.parametrize("base, bad", [
        ([[0, 5], [5, 0]], "5"),
        ([[0, -1], [-1, 0]], "-1"),
        ([[0.5, 1], [1, 0]], "0.5"),
    ])
    def test_invalid_base_raises(self, base, bad):
        sft = parse_periodic(CHECKER_TEXT).sft
        with pytest.raises(ValueError, match=rf"^base symbol {bad} is not an "
                           r"integer in \[0, 2\)$"):
            PeriodicSft(sft=sft, period=2, base=np.array(base))

    def test_base_and_tilings_narrow(self):
        for text in (CHECKER_TEXT, STRIPES_TEXT):
            p = parse_periodic(text)
            assert p.base.dtype == np.uint8
            assert p.tiling((1, 0), (-3, 2), (5, 4)).data.dtype == np.uint8
        # the caller's array is copied, not narrowed or frozen in place
        base = np.array([[0, 1], [1, 0]])
        PeriodicSft(sft=parse_periodic(CHECKER_TEXT).sft, period=2, base=base)
        assert base.dtype == np.int64 and base.flags.writeable

    def test_local_global_constants(self):
        assert local_global_constant(parse_periodic(CHECKER_TEXT)) == 1
        assert local_global_constant(parse_periodic(STRIPES_TEXT)) == 2

    def test_local_global_constant_of_domino_stripes(self):
        # vertical stripes, and horizontal ones with a third symbol unused
        for base, nsym in (([[0, 1], [0, 1]], 2), ([[2, 2], [0, 0]], 3)):
            p = _domino_periodic(np.array(base), nsym)
            assert local_global_constant(p) == 1

    def test_local_global_constant_cap_exceeded(self):
        # the domino rules of these period-3 bases admit, on every ball up
        # to the cap, a pattern that no translate of the orbit shows
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = _domino_periodic(rng.integers(0, 3, size=(3, 3)), 3)
            with pytest.raises(CapExceeded, match="do not pin"):
                local_global_constant(p)


class TestRepairPeriodic:
    def setup_method(self):
        self.p = parse_periodic(CHECKER_TEXT)

    def empty_mask(self, shape):
        return NoiseMask((0, 0), np.zeros(shape, dtype=np.uint8))

    def test_identity_on_clean_tiling(self):
        g = self.p.tiling((0, 1), (0, 0), (20, 20))
        rep = repair_periodic(self.p, g, self.empty_mask((20, 20)), c=1)
        assert rep.offset == (0, 1)
        assert rep.changed_fraction == 0.0
        assert not rep.no_votes
        ref = self.p.tiling((0, 1), rep.grid.origin, rep.grid.shape)
        assert np.array_equal(rep.grid.data, ref.data)

    def test_single_flip_recovered(self):
        shape = (24, 24)
        clean = self.p.tiling((0, 0), (0, 0), shape)
        noisy = np.array(clean.data)
        noisy[10, 10] ^= 1
        mask = np.zeros(shape, dtype=np.uint8)
        mask[10, 10] = 1
        rep = repair_periodic(self.p, Grid((0, 0), noisy),
                              NoiseMask((0, 0), mask), c=1)
        assert rep.offset == (0, 0)
        ref = self.p.tiling((0, 0), rep.grid.origin, rep.grid.shape)
        assert np.array_equal(rep.grid.data, ref.data)
        assert rep.changed_fraction == pytest.approx(1 / rep.grid.data.size)
        assert type(rep.changed_fraction) is float

    def test_majority_wins(self):
        shape = (30, 30)
        a = self.p.tiling((0, 0), (0, 0), shape).data
        b = self.p.tiling((0, 1), (0, 0), shape).data
        mixed = np.array(a)
        mixed[22:, :] = b[22:, :]  # minority patch of the other translate
        rep = repair_periodic(self.p, Grid((0, 0), mixed),
                              self.empty_mask(shape), c=1)
        assert rep.offset == (0, 0)
        assert rep.vote_counts[(0, 0)] > rep.vote_counts[(0, 1)] > 0

    def test_all_obscured_falls_back_lex_greatest(self):
        shape = (16, 16)
        g = self.p.tiling((0, 0), (0, 0), shape)
        mask = NoiseMask((0, 0), np.ones(shape, dtype=np.uint8))
        rep = repair_periodic(self.p, g, mask, c=1)
        assert rep.no_votes
        assert rep.offset == (0, 1)  # lex-greatest orbit element
        ref = self.p.tiling((0, 1), rep.grid.origin, rep.grid.shape)
        assert np.array_equal(rep.grid.data, ref.data)

    def test_mismatched_boxes_raise(self):
        g = self.p.tiling((0, 0), (0, 0), (16, 16))
        with pytest.raises(ValueError, match="mask box"):
            repair_periodic(self.p, g, self.empty_mask((16, 17)), c=1)

    def test_noisy_recovery_stripes(self):
        p = parse_periodic(STRIPES_TEXT)
        shape = (36, 36)
        clean = p.tiling((2, 0), (0, 0), shape)
        mask = sample_mask(Bernoulli(0.01), shape, seed=8)
        rng = np.random.default_rng(8)
        noisy = np.array(clean.data)
        idx = np.argwhere(mask.data)
        for i, j in idx:
            noisy[i, j] = rng.integers(0, 3)
        rep = repair_periodic(p, Grid((0, 0), noisy), mask, c=2)
        assert rep.offset == (2, 0)
        ref = p.tiling((2, 0), rep.grid.origin, rep.grid.shape)
        assert np.array_equal(rep.grid.data, ref.data)

    def test_idempotent(self):
        shape = (20, 20)
        clean = self.p.tiling((0, 0), (0, 0), shape)
        mask = sample_mask(Bernoulli(0.02), shape, seed=5)
        noisy = np.array(clean.data)
        noisy[np.nonzero(mask.data)] ^= 1
        rep = repair_periodic(self.p, Grid((0, 0), noisy), mask, c=1)
        again = repair_periodic(self.p, rep.grid,
                                NoiseMask(rep.grid.origin,
                                          np.zeros(rep.grid.shape,
                                                   dtype=np.uint8)), c=1)
        assert again.offset == rep.offset
        assert again.changed_fraction == 0.0

    def test_symbols_outside_alphabet_raise(self):
        g = self.p.tiling((0, 0), (0, 0), (16, 16)).data
        for bad in (-1, 2):
            noisy = g.astype(np.int64)  # a uint8 tiling cannot hold -1
            noisy[3, 4] = bad
            with pytest.raises(ValueError, match=r"symbols must lie in \[0, 2\)"):
                repair_periodic(self.p, Grid((0, 0), noisy),
                                self.empty_mask((16, 16)), c=1)

    def test_non_integer_grid_raises(self):
        g = self.p.tiling((0, 0), (0, 0), (16, 16)).data.astype(np.float64)
        g[3, 4] = 0.5
        with pytest.raises(ValueError, match="as integers"):
            repair_periodic(self.p, Grid((0, 0), g), self.empty_mask((16, 16)),
                            c=1)

    @pytest.mark.parametrize("target", ["checkerboard", "stripes"])
    def test_traced_peak_of_a_512_box(self, target):
        # uint8 symbols, MATCH key and words, bool vote masks and an int32
        # label array; int64 symbols and keys alone would be 4 MiB
        _, p = H.resolve_periodic(target)
        c = local_global_constant(p)
        shape = (512, 512)
        clean = p.tiling(p.orbit()[-1], (0, 0), shape).data
        mask = sample_mask(Bernoulli(0.01), shape, seed=17)
        grid = Grid((0, 0), H.corrupt(clean, mask.data, len(p.sft.alphabet),
                                      seed=17))
        p._match  # built once per SFT, outside the call
        tracemalloc.start()
        try:
            rep = repair_periodic(p, grid, mask, c=c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.offset == p.orbit()[-1]
        assert peak < 5 * 2 ** 20


def _domino_periodic(base: np.ndarray, nsym: int) -> PeriodicSft:
    """The periodic SFT of `base` whose forbidden patterns are the
    horizontal and vertical dominoes absent from the base tiling."""
    p = base.shape[0]
    seen = {((0, 1), base[i, j], base[i, (j + 1) % p]) for i in range(p)
            for j in range(p)}
    seen |= {((1, 0), base[i, j], base[(i + 1) % p, j]) for i in range(p)
             for j in range(p)}
    forbidden = frozenset(
        Pattern.from_cells([((0, 0), a), (d, b)])
        for d in ((0, 1), (1, 0)) for a in range(nsym) for b in range(nsym)
        if (d, a, b) not in seen)
    sft = Sft(dim=2, alphabet=tuple("abcd"[:nsym]), forbidden=forbidden)
    return PeriodicSft(sft=sft, period=p, base=base)


def _repair_periodic_reference(p, grid, mask, c):
    """repair_periodic as it was: one full-box tiling and thickening per
    orbit translate, later translates overwriting earlier votes, counted
    on a giant component labelled here."""
    tm = thicken(mask, c)
    labels, count = ndimage.label(tm.data == 0)
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    giant = np.zeros(labels.shape, dtype=bool)
    if count:
        giant = labels == int(np.argmax(sizes[1:])) + 1
    inner = tuple(slice(c, s - c) for s in grid.shape)
    orbit = p.orbit()
    vote = np.full(labels.shape, -1, dtype=np.int32)
    for i, t in enumerate(orbit):
        ref = p.tiling(t, grid.origin, grid.shape).data
        mismatch = NoiseMask(grid.origin, grid.data != ref)
        vote[thicken(mismatch, c).data == 0] = i
    on_comp = giant & (vote >= 0)
    counts = np.bincount(vote[on_comp], minlength=len(orbit)) \
        if on_comp.any() else np.zeros(len(orbit), dtype=int)
    no_votes = not on_comp.any()
    if no_votes:
        best = len(orbit) - 1
    else:
        top = counts.max()
        best = max(i for i, n in enumerate(counts) if n == top)
    offset = orbit[best]
    repaired = p.tiling(offset, tm.origin, labels.shape)
    changed = float(np.mean(grid.data[inner] != repaired.data))
    return (offset, {orbit[i]: int(n) for i, n in enumerate(counts)},
            no_votes, changed, repaired)


def _assert_same_as_reference(p, grid, mask, c):
    rep = repair_periodic(p, grid, mask, c=c)
    offset, counts, no_votes, changed, repaired = \
        _repair_periodic_reference(p, grid, mask, c)
    assert rep.offset == offset
    assert rep.vote_counts == counts
    assert rep.no_votes == no_votes
    assert rep.changed_fraction == changed
    assert rep.grid.origin == repaired.origin
    assert np.array_equal(rep.grid.data, repaired.data)
    return rep


def _random_case(seed, period, nsym, c, eps):
    """A random domino periodic SFT, a translate t of it on a random box
    and that tiling with a Bernoulli(eps) mask resampled."""
    rng = np.random.default_rng(seed)
    p = _domino_periodic(rng.integers(0, nsym, size=(period, period)), nsym)
    orbit = p.orbit()
    shape = tuple(int(s) for s in rng.integers(2 * c + 1, 2 * c + 24, size=2))
    origin = tuple(int(o) for o in rng.integers(-50, 50, size=2))
    t = orbit[int(rng.integers(len(orbit)))]
    clean = p.tiling(t, origin, shape).data
    hit = rng.random(shape) < eps
    noisy = np.where(hit, rng.integers(0, nsym, size=shape), clean)
    return p, t, origin, clean, noisy, hit


_RANDOM_CASES = (st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
                 st.integers(2, 4), st.integers(0, 3),
                 st.sampled_from([0.0, 0.05, 0.3, 1.0]))


class TestRandomPeriodic:
    """Random bases of period 2-4 (orbits up to 16 translates) against the
    per-translate body repair_periodic replaced."""

    @settings(max_examples=200, deadline=None)
    @given(*_RANDOM_CASES)
    def test_matches_per_translate_votes(self, seed, period, nsym, c, eps):
        p, t, origin, clean, noisy, hit = _random_case(seed, period, nsym, c,
                                                       eps)
        orbit = p.orbit()
        shape = noisy.shape
        rep = _assert_same_as_reference(p, Grid(origin, noisy),
                                        NoiseMask(origin, hit), c)
        assert rep.offset in orbit
        assert np.array_equal(
            rep.grid.data,
            p.tiling(rep.offset, rep.grid.origin, rep.grid.shape).data)
        # a c-box that holds a full period tells distinct translates apart
        if 2 * c + 1 >= period:
            clear = NoiseMask(origin, np.zeros(shape, dtype=np.uint8))
            got = repair_periodic(p, Grid(origin, clean), clear, c=c)
            assert got.offset == t
            assert got.changed_fraction == 0.0

    def test_orbit_over_64_translates(self):
        # period 9 gives up to 81 translates: 11 uint8 words of votes
        rng = np.random.default_rng(11)
        p = _domino_periodic(rng.integers(0, 3, size=(9, 9)), 3)
        assert len(p.orbit()) > 64
        assert p._match.shape[0] == -(-len(p.orbit()) // 8)
        for c, eps in ((0, 0.2), (1, 0.05), (4, 0.0), (4, 0.01)):
            shape = (40, 37)
            t = p.orbit()[int(rng.integers(len(p.orbit())))]
            clean = p.tiling(t, (3, -5), shape).data
            hit = rng.random(shape) < eps
            noisy = np.where(hit, rng.integers(0, 3, size=shape), clean)
            rep = _assert_same_as_reference(p, Grid((3, -5), noisy),
                                            NoiseMask((3, -5), hit), c)
            if c == 4:
                assert rep.offset == t

    @settings(max_examples=60, deadline=None)
    @given(*_RANDOM_CASES)
    def test_report_independent_of_grid_dtype(self, seed, period, nsym, c,
                                              eps):
        p, _, origin, _, noisy, hit = _random_case(seed, period, nsym, c, eps)
        mask = NoiseMask(origin, hit)
        want = repair_periodic(p, Grid(origin, noisy.astype(np.int64)), mask,
                               c=c)
        for dtype in (np.int32, np.int8, np.uint8):
            got = repair_periodic(p, Grid(origin, noisy.astype(dtype)), mask,
                                  c=c)
            assert got.grid.origin == want.grid.origin
            assert got.grid.data.dtype == want.grid.data.dtype == np.uint8
            assert np.array_equal(got.grid.data, want.grid.data)
            assert (got.offset, got.c, got.changed_fraction, got.vote_counts,
                    got.no_votes) == (want.offset, want.c,
                                      want.changed_fraction,
                                      want.vote_counts, want.no_votes)

    def test_orbit_over_128_translates(self):
        # period 12 gives up to 144 translates: vote indices past 127, the
        # last of int8, come from words 16 and 17
        rng = np.random.default_rng(12)
        p = _domino_periodic(rng.integers(0, 3, size=(12, 12)), 3)
        orbit = p.orbit()
        assert len(orbit) > 128
        shape, origin = (40, 37), (-7, 5)
        for i, c, eps in ((130, 6, 0.0), (len(orbit) - 1, 6, 0.01),
                          (129, 0, 0.2)):
            clean = p.tiling(orbit[i], origin, shape).data
            hit = rng.random(shape) < eps
            noisy = np.where(hit, rng.integers(0, 3, size=shape), clean)
            rep = _assert_same_as_reference(p, Grid(origin, noisy),
                                            NoiseMask(origin, hit), c)
            assert max(j for j, t in enumerate(orbit)
                       if rep.vote_counts[t]) >= 128
            if c == 6:
                assert rep.offset == orbit[i]


def _complement_or_vote(p, grid, mask, c):
    """repair_periodic's vote as it was before the AND windows: each word's
    match bits complemented, OR-ed over the c-box windows and complemented
    back, zeroed on an explicit copy of the off-giant cells.  Returns
    (offset, vote_counts, no_votes, changed_fraction)."""
    nsym, g = len(p.sft.alphabet), grid.data
    giant = percolation.open_components(mask, c)
    inner = tuple(slice(c, s - c) for s in grid.shape)
    orbit = p.orbit()
    kt = np.min_scalar_type(p._match[0].size)
    key = sum((((o + np.arange(s)) % p.period) * (nsym * p.period ** k))
              .astype(kt).reshape((-1,) + (1,) * k)
              for k, (o, s) in enumerate(zip(grid.origin[::-1],
                                             grid.shape[::-1])))
    np.add(key, g, out=key, casting="unsafe")
    counts = np.zeros(len(orbit), dtype=np.intp)
    off = giant.data.copy()
    for w in range(len(p._match) - 1, -1, -1):
        ok = ~core._windows(~core._gather(p._match[w].ravel(), key), c,
                            np.bitwise_or)
        np.copyto(ok, 0, where=off)
        size = min(8, len(orbit) - 8 * w)
        at_least = np.array([np.count_nonzero(ok >= 1 << i)
                             for i in range(size)] + [0])
        counts[8 * w:8 * w + size] = at_least[:-1] - at_least[1:]
        if w:
            off |= ok != 0
    no_votes = not counts.any()
    if no_votes:
        best = len(orbit) - 1
    else:
        best = max(i for i, n in enumerate(counts) if n == counts.max())
    offset = orbit[best]
    repaired = p.tiling(offset, giant.origin, giant.shape)
    changed = int(np.count_nonzero(g[inner] != repaired.data)) \
        / repaired.data.size
    return (offset, {orbit[i]: int(n) for i, n in enumerate(counts)},
            no_votes, changed)


class TestAndWindowVote:
    """The vote by AND windows read straight off the giant against the
    complement-OR vote on a copy of it."""

    def _check(self, p, grid, mask, c):
        seen = []

        def spy(*args, **kwargs):
            out = percolation.open_components(*args, **kwargs)
            seen.append((out, np.array(out.data)))
            return out

        with mock.patch.object(repair, "open_components", spy):
            rep = repair_periodic(p, grid, mask, c=c)
        (giant, before), = seen
        assert np.array_equal(giant.data, before)  # the repair never wrote it
        assert (rep.offset, rep.vote_counts, rep.no_votes,
                rep.changed_fraction) == _complement_or_vote(p, grid, mask, c)
        return rep

    @settings(max_examples=120, deadline=None)
    @given(*_RANDOM_CASES)
    def test_matches_complement_or_vote(self, seed, period, nsym, c, eps):
        p, _, origin, _, noisy, hit = _random_case(seed, period, nsym, c, eps)
        self._check(p, Grid(origin, noisy), NoiseMask(origin, hit), c)

    @pytest.mark.parametrize("period, c, eps", [(3, 1, 0.05), (4, 2, 0.02),
                                                (9, 4, 0.01), (9, 0, 0.3)])
    def test_orbits_of_several_words(self, period, c, eps):
        # more than 8 translates: the lower words skip the cells that voted
        # in a higher word, through a new array, not the giant
        rng = np.random.default_rng(period * 10 + c)
        while True:
            p = _domino_periodic(rng.integers(0, 3, size=(period, period)), 3)
            if len(p.orbit()) > 8:
                break
        assert len(p._match) > 1
        shape, origin = (61, 47), (-4, 9)
        for t in (p.orbit()[0], p.orbit()[-1]):
            clean = p.tiling(t, origin, shape).data
            hit = rng.random(shape) < eps
            noisy = np.where(hit, rng.integers(0, 3, size=shape), clean)
            rep = self._check(p, Grid(origin, noisy), NoiseMask(origin, hit),
                              c)
            if 2 * c + 1 >= period:
                assert rep.offset == t


class TestCheckSymbols:
    """`_check_symbols` pays for a minimum only on signed dtypes."""

    class _NoMin(np.ndarray):
        def min(self, *args, **kwargs):
            raise AssertionError("min() taken of an unsigned grid")

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_negative_signed_symbol_raises(self, dtype):
        data = np.array([[0, 1], [-1, 2]], dtype=dtype)
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 3\)"):
            repair._check_symbols(data, 3)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8,
                                       np.uint16])
    @pytest.mark.parametrize("bad", [3, 4])
    def test_symbol_at_or_above_nsym_raises(self, dtype, bad):
        data = np.array([[0, 1], [bad, 2]], dtype=dtype)
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 3\)"):
            repair._check_symbols(data, 3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint64, bool])
    def test_unsigned_and_bool_skip_the_minimum(self, dtype):
        data = np.array([[0, 1], [1, 0]], dtype=dtype).view(self._NoMin)
        repair._check_symbols(data, 2)
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 1\)"):
            repair._check_symbols(data, 1)
