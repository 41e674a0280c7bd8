"""Core SFT data model: parsing, admissibility, thickening, enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from noisysft import core
from noisysft.core import (
    ALTERNATING,
    GOLDEN_MEAN,
    BudgetExceeded,
    Grid,
    NoiseMask,
    Pattern,
    Sft,
    SftParseError,
    is_locally_admissible,
    parse_sft,
    thicken,
    word_sft,
)

GOLDEN_TEXT = """
# the golden mean shift: no two adjacent ones
dim 1
alphabet 0 1
forbid (0)=1 (1)=1
"""

CHECKER_TEXT = """
dim 2
alphabet a b
forbid (0,0)=a (0,1)=a
forbid (0,0)=b (0,1)=b
forbid (0,0)=a (1,0)=a
forbid (0,0)=b (1,0)=b
"""


def grid1(values, origin=0):
    return Grid((origin,), np.array(values, dtype=np.int64))


def mask1(values, origin=0):
    return NoiseMask((origin,), np.array(values, dtype=bool))


class TestParse:
    def test_golden_mean(self):
        s = parse_sft(GOLDEN_TEXT)
        assert s.dim == 1
        assert s.alphabet == ("0", "1")
        assert s == GOLDEN_MEAN
        assert s.diameter == 1

    def test_checkerboard(self):
        s = parse_sft(CHECKER_TEXT)
        assert s.dim == 2
        assert len(s.forbidden) == 4
        assert s.diameter == 1

    def test_pattern_canonical(self):
        # the same word declared at shifted offsets parses to one pattern
        a = parse_sft("dim 1\nalphabet 0 1\nforbid (5)=1 (6)=1\n")
        assert a == GOLDEN_MEAN

    def test_errors(self):
        with pytest.raises(SftParseError, match="line 1"):
            parse_sft("dim x\n")
        with pytest.raises(SftParseError, match="alphabet"):
            parse_sft("dim 1\n")
        with pytest.raises(SftParseError, match="unknown symbol"):
            parse_sft("dim 1\nalphabet 0 1\nforbid (0)=2\n")
        with pytest.raises(SftParseError, match="not 1-dimensional"):
            parse_sft("dim 1\nalphabet 0 1\nforbid (0,0)=1\n")
        with pytest.raises(SftParseError, match="unknown directive"):
            parse_sft("dim 1\nalphabet 0 1\nperiod 2\n")

    def test_forbid_without_cells(self):
        # a forbid line with content but no cell used to read as empty
        with pytest.raises(SftParseError, match=r"line 3: malformed forbid "
                           r"cells 'aa', expected \(<c1,...,cd>\)=<sym>"):
            parse_sft("dim 1\nalphabet a b\nforbid aa\n")
        with pytest.raises(SftParseError, match="line 3: empty forbid"):
            parse_sft("dim 1\nalphabet a b\nforbid\n")

    def test_extra_directives_collected(self):
        extra = {}
        parse_sft("dim 1\nalphabet 0 1\nperiod 2\nbase 0 1\n", extra=extra)
        assert extra["period"] == [(3, "2")]
        assert extra["base"] == [(4, "0 1")]


class TestGather:
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32,
                                       np.intp])
    @pytest.mark.parametrize("shape", [
        (0,), (1,), (core._BAND - 1,), (core._BAND,), (core._BAND + 1,),
        (0, 3), (181, 363)])
    def test_equals_fancy_indexing(self, dtype, shape):
        rng = np.random.default_rng(len(shape) * 1000 + shape[-1])
        table = rng.integers(-1000, 1000, 250).astype(np.int16)
        key = rng.integers(0, len(table), shape).astype(dtype)
        got, want = core._gather(table, key), table[key]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


class TestAdmissibility:
    def test_golden_mean_words(self):
        assert is_locally_admissible(GOLDEN_MEAN, grid1([0, 1, 0, 1, 0]))
        assert not is_locally_admissible(GOLDEN_MEAN, grid1([0, 1, 1, 0]))
        # a symbol outside the alphabet matches no pattern, so it is refused
        with pytest.raises(ValueError, match=r"^grid symbols must lie in "
                                             r"\[0, 2\) as integers$"):
            is_locally_admissible(GOLDEN_MEAN, Grid((0,), [7, 7, 7, 0.5]))

    def test_obscured_cells_are_exempt(self):
        g = grid1([0, 1, 1, 0])
        assert not is_locally_admissible(GOLDEN_MEAN, g, mask1([0, 0, 0, 0]))
        assert is_locally_admissible(GOLDEN_MEAN, g, mask1([0, 1, 0, 0]))
        assert is_locally_admissible(GOLDEN_MEAN, g, mask1([0, 0, 1, 0]))

    def test_any_nonzero_mask_value_is_obscured(self):
        # a uint8 copy once wrapped 256 to 0, a clear cell
        m = NoiseMask((0,), np.array([0, 256, -1, 0]))
        assert m.data.dtype == bool
        assert m.data.tolist() == [False, True, True, False]
        g = grid1([0, 1, 1, 0])
        assert not is_locally_admissible(GOLDEN_MEAN, g, mask1([0, 0, 0, 0]))
        assert is_locally_admissible(
            GOLDEN_MEAN, g, NoiseMask((0,), np.array([0, 256, 0, 0])))

    def test_bool_input_stays_writable(self):
        a = np.zeros(4, dtype=bool)
        m = NoiseMask((0,), a)
        assert not m.data.flags.writeable
        a[1] = True  # the caller's array is not frozen with the mask's view

    def test_grid_input_stays_writable(self):
        b = np.zeros(5, dtype=np.int64)
        g = Grid((0,), b)
        assert not g.data.flags.writeable
        b[0] = 1  # the caller's array is not frozen with the grid's view
        assert g.data[0] == 1

    def test_free_boundary(self):
        # a forbidden pattern hanging off the edge does not count
        s = word_sft("01", ["111"])
        assert is_locally_admissible(s, grid1([1, 1]))
        assert not is_locally_admissible(s, grid1([1, 1, 1]))

    def test_2d(self):
        checker = parse_sft(CHECKER_TEXT)
        good = Grid((0, 0), np.indices((4, 4)).sum(0) % 2)
        assert is_locally_admissible(checker, good)
        arr = np.array(good.data)
        arr[2, 2] = 1 - arr[2, 2]
        assert not is_locally_admissible(checker, Grid((0, 0), arr))

    def test_pattern_hits_positions(self):
        # anchors are box-relative, whatever the grid's origin
        g = grid1([1, 1, 0, 1, 1], origin=10)
        (p,) = GOLDEN_MEAN.forbidden
        assert np.flatnonzero(core.pattern_hits(g, p)).tolist() == [0, 3]


class TestThicken:
    def test_identity_radius_zero(self):
        m = mask1([0, 1, 0, 0])
        assert thicken(m, 0) is m

    def test_basic(self):
        m = NoiseMask((0, 0), np.eye(5, dtype=np.uint8))
        t = thicken(m, 1)
        assert t.origin == (1, 1)
        assert t.shape == (3, 3)
        # the interior cells all sit within distance 1 of a diagonal cell
        assert t.data.all()

    def test_interior_shrinks(self):
        m = mask1([0, 0, 0, 1, 0, 0, 0])
        t = thicken(m, 2)
        assert t.origin == (2,)
        assert list(t.data) == [1, 1, 1]
        assert thicken(m, 3).shape == (1,)
        with pytest.raises(ValueError):
            thicken(m, 4)

    @settings(max_examples=50)
    @given(st.integers(1, 2), st.integers(1, 2),
           st.lists(st.integers(0, 1), min_size=15, max_size=30))
    def test_semigroup(self, a, b, bits):
        m = mask1(bits)
        lhs = thicken(thicken(m, a), b)
        rhs = thicken(m, a + b)
        assert lhs.origin == rhs.origin
        assert np.array_equal(lhs.data, rhs.data)

    @settings(max_examples=50)
    @given(st.integers(0, 2), st.lists(st.integers(0, 1), min_size=8, max_size=20))
    def test_monotone(self, n, bits):
        m = mask1(bits)
        t = thicken(m, n)
        lo = n
        assert (t.data >= m.data[lo:lo + t.shape[0]]).all()


    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 20), st.data())
    def test_matches_maximum_filter(self, dim, n, data):
        side = 2 * n + 1
        shape = tuple(data.draw(st.integers(side, side + 5)) for _ in range(dim))
        if dim == 3:
            shape = (side,) * 2 + shape[2:]  # keep 3D boxes small
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        m = NoiseMask((0,) * dim, rng.random(shape) < rng.random() * 0.2)
        fat = ndimage.maximum_filter(m.data, size=2 * n + 1, mode="constant")
        t = thicken(m, n)
        assert t.origin == (n,) * dim
        assert np.array_equal(t.data, fat[tuple(slice(n, s - n) for s in shape)])

    @given(st.integers(1, 3), st.integers(1, 20), st.data())
    def test_too_small_raises(self, dim, n, data):
        shape = [2 * n + 1] * dim
        shape[data.draw(st.integers(0, dim - 1))] = data.draw(st.integers(1, 2 * n))
        with pytest.raises(ValueError, match="too small"):
            thicken(NoiseMask((0,) * dim, np.zeros(shape)), n)


def _brute_windows(arr, n, op):
    """`op` reduced over each (2n+1)-cube window of `arr`, one at a time."""
    w = 2 * n + 1
    out = np.empty(tuple(s - 2 * n for s in arr.shape), dtype=arr.dtype)
    for idx in np.ndindex(*out.shape):
        out[idx] = op.reduce(arr[tuple(slice(i, i + w) for i in idx)],
                             axis=None)
    return out


class TestWindows:
    """The window kernel behind `thicken` and the periodic vote, against a
    brute-force reduction per window, into a fresh buffer and in place."""

    @pytest.mark.parametrize("op, dtype", [(np.bitwise_or, bool),
                                           (np.bitwise_and, np.uint8)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("layout", ["c", "sliced"])
    def test_matches_brute_force(self, op, dtype, dim, n, layout):
        rng = np.random.default_rng([dim, n, int(layout == "c"),
                                     int(dtype is bool)])
        for _ in range(4):
            shape = tuple(int(s) for s in rng.integers(2 * n + 1, 2 * n + 7,
                                                       size=dim))
            if dtype is bool:
                draw = lambda sh: rng.random(sh) < rng.random() * 0.3
            else:  # bytes mostly set, so an AND over a window is not 0
                draw = lambda sh: ~(rng.integers(0, 256, sh, dtype=np.uint8)
                                    & rng.integers(0, 256, sh, dtype=np.uint8)
                                    & rng.integers(0, 256, sh, dtype=np.uint8))
            if layout == "c":
                arr = draw(shape)
            else:  # strided, offset and with the axes reversed
                big = draw(tuple(2 * s + 1 for s in shape[::-1])).T
                arr = big[tuple(slice(1, 1 + 2 * s, 2) for s in shape)]
                assert not arr.flags.c_contiguous or arr.size <= 1
            want = _brute_windows(arr, n, op)
            got = core._windows(arr, n, op)
            assert got.dtype == arr.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            # in place, as the periodic vote reduces its gathered words
            buf = np.array(arr, order="C")
            assert np.array_equal(core._windows(buf, n, op, out=buf), want)


def _brute_admissible(sft, cells):
    """Every assignment on the cells, in lexicographic order, that holds
    no forbidden translate lying wholly inside the cell set."""
    cells = sorted(cells)
    cellset = set(cells)
    out = []
    for syms in itertools.product(range(len(sft.alphabet)), repeat=len(cells)):
        assign = dict(zip(cells, syms))
        bad = False
        for p in sft.forbidden:
            for c in cells:
                anchor = tuple(ci - oi for ci, oi in zip(c, p.cells[0][0]))
                placed = [(tuple(a + o for a, o in zip(anchor, off)), sym)
                          for off, sym in p.cells]
                if all(q in cellset and assign[q] == sym for q, sym in placed):
                    bad = True
        if not bad:
            out.append(assign)
    return out


def _solve_sft(sft, cells, budget):
    """core._solve on the SFT's shapes over the sorted cells, as dicts."""
    cells = sorted(cells)
    return [dict(zip(cells, a)) for a in core._solve(
        cells, len(sft.alphabet), core._sft_shapes(sft), budget=budget)]


class TestEnumerateAdmissible:
    # draws {(0,1)=a, (1,0)=a} alone, whose canonical corner is no cell:
    # the translate on (-1,1) and (0,0) has its corner outside the set
    @example(2, 2489)
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
    def test_matches_brute_force(self, dim, seed):
        # random patterns of one to three cells within side 3, and a random
        # set of up to seven cells within side 5, gaps included
        rng = np.random.default_rng(seed)
        nsym = int(rng.integers(2, 4))
        box = list(itertools.product(range(3), repeat=dim))
        forbidden = []
        for _ in range(rng.integers(0, 4)):
            at = rng.choice(len(box), size=rng.integers(1, 4),
                            replace=False)
            forbidden.append(Pattern.from_cells(
                (box[k], int(rng.integers(0, nsym))) for k in at))
        sft = Sft(dim=dim, alphabet=tuple("abc"[:nsym]),
                  forbidden=frozenset(forbidden))
        space = list(itertools.product(range(-2, 3), repeat=dim))
        size = rng.integers(1, min(len(space), 7) + 1)
        cells = [space[k] for k in rng.choice(len(space), size, replace=False)]
        assert _solve_sft(sft, cells, 10 ** 6) == _brute_admissible(sft, cells)

    def test_budget_counts_every_symbol_tried(self):
        # the full shift on three cells tries 2 + 4 + 8 = 14 symbols
        full = word_sft("01", [])
        cells = [(0,), (1,), (2,)]
        assert len(_solve_sft(full, cells, 14)) == 8
        with pytest.raises(BudgetExceeded, match="13 nodes"):
            _solve_sft(full, cells, 13)
        # the golden mean prunes 11 but still counts its second 1: the
        # cells try 2 + 2 * 2 + 3 * 2 = 12 symbols for 5 words
        assert len(_solve_sft(GOLDEN_MEAN, cells, 12)) == 5
        with pytest.raises(BudgetExceeded, match="11 nodes"):
            _solve_sft(GOLDEN_MEAN, cells, 11)


class TestCanonicalForm:
    @settings(max_examples=100)
    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5),
                              st.integers(0, 1)), min_size=1, max_size=6))
    def test_translation_invariance(self, cells):
        seen = {}
        ok = []
        for x, y, s in cells:
            if (x, y) in seen:
                if seen[(x, y)] != s:
                    return
            seen[(x, y)] = s
            ok.append(((x, y), s))
        p = Pattern.from_cells(ok)
        q = Pattern.from_cells([((x + 3, y - 7), s) for (x, y), s in ok])
        assert p == q
        mins = tuple(min(off[i] for off, _ in p.cells) for i in range(2))
        assert mins == (0, 0)
