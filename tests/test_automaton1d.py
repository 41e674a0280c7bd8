"""Word automaton structure, classification, constants, gap filling."""

import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisysft.core import ALTERNATING, GOLDEN_MEAN, word_sft
from noisysft import automaton1d as a1d


FULL_SHIFT_2 = word_sft("01", [])

# alphabet {0,1,2} with only the pairs 01, 10, 12, 20 allowed: the cycle
# lengths through the single class are 2 and 3, so it is aperiodic but
# needs a few letters before arbitrary gaps become fillable
TWO_THREE = word_sft("012", ["00", "02", "11", "21", "22"])

# a -> b with b looping: one communication class {b} plus a transient state
TRANSIENT = word_sft("ab", ["aa", "ba"])


def _word_admissible(sft, word):
    """No forbidden pattern occurs in the word, read with free boundary."""
    for p in sft.forbidden:
        if not p.cells:
            return False
        span = p.extent[0]
        for a in range(len(word) - span + 1):
            if all(word[a + o[0]] == s for o, s in p.cells):
                return False
    return True


def brute_words(sft, n):
    """All length-n words with no forbidden factor, as tuples."""
    out = []
    for w in itertools.product(range(len(sft.alphabet)), repeat=n):
        if _word_admissible(sft, w):
            out.append(w)
    return out


# random SFTs of 2-3 letters and 1-4 forbidden words of 1-4 letters, as
# (alphabet, words) for word_sft
_RANDOM_WORD_SFTS = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just("012"[:k]), st.lists(st.text("012"[:k], min_size=1, max_size=4),
                                 min_size=1, max_size=4, unique=True)))


class TestBuild:
    def test_golden_mean(self):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        assert auto.word_len == 1
        assert auto.states == ((0,), (1,))
        assert auto.edges == (((0, 0), (1, 1)), ((0, 0),))

    def test_full_shift(self):
        auto = a1d.build_automaton(FULL_SHIFT_2)
        assert auto.word_len == 1
        assert len(auto.states) == 2
        assert all(len(e) == 2 for e in auto.edges)

    @example(("01", ["11", "010"]))
    @settings(max_examples=100, deadline=None)
    @given(_RANDOM_WORD_SFTS)
    def test_states_match_brute_force(self, sft):
        # states are the admissible words of word_len letters; the edges,
        # in order, are the admissible words of one letter more
        s = word_sft(*sft)
        auto = a1d.build_automaton(s)
        assert auto.word_len == max(s.diameter, 1)
        assert list(auto.states) == brute_words(s, auto.word_len)
        assert [st_ + (b,) for st_, outs in zip(auto.states, auto.edges)
                for b, _ in outs] == brute_words(s, auto.word_len + 1)
        for i, st_ in enumerate(auto.states):
            for b, j in auto.edges[i]:
                assert auto.states[j] == (st_ + (b,))[1:]


class TestClassify:
    def test_golden_mean_aperiodic(self):
        c = a1d.classify(a1d.build_automaton(GOLDEN_MEAN))
        assert c.kind == "irreducible_aperiodic"
        assert c.period == 1

    def test_alternating_periodic(self):
        c = a1d.classify(a1d.build_automaton(ALTERNATING))
        assert c.kind == "irreducible_periodic"
        assert c.period == 2

    def test_empty(self):
        # every pair forbidden: no cycles at all
        dead = word_sft("01", ["00", "01", "10", "11"])
        c = a1d.classify(a1d.build_automaton(dead))
        assert c.kind == "empty"

    def test_transient_state_keeps_single_class(self):
        auto = a1d.build_automaton(TRANSIENT)
        c = a1d.classify(auto)
        assert c.kind == "irreducible_aperiodic"
        (cls,) = c.classes
        assert [auto.states[i] for i in sorted(cls)] == [(1,)]

    def test_reducible(self):
        # 0...0 and 1...1 blocks only: two separate loops
        s = word_sft("01", ["01", "10"])
        c = a1d.classify(a1d.build_automaton(s))
        assert c.kind == "reducible"
        assert c.class_count == 2

    def test_two_three_aperiodic(self):
        c = a1d.classify(a1d.build_automaton(TWO_THREE))
        assert c.kind == "irreducible_aperiodic"


class TestGlobalAdmissibility:
    def test_golden_mean(self):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.is_globally_admissible(auto, "0110") is False
        assert a1d.is_globally_admissible(auto, "0101") is True

    def test_transient_states_rejected(self):
        # 11 and 010 forbidden: a lone 1 cannot live in any bi-infinite
        # configuration because both neighbours must be 0
        s = word_sft("01", ["11", "010"])
        auto = a1d.build_automaton(s)
        assert a1d.is_globally_admissible(auto, "0") is True
        assert a1d.is_globally_admissible(auto, "1") is False
        assert a1d.is_globally_admissible(auto, "00") is True
        assert a1d.is_globally_admissible(auto, "001") is False

    @pytest.mark.parametrize("sft", [TWO_THREE, word_sft("01", ["11", "010"]),
                                     GOLDEN_MEAN, TRANSIENT])
    def test_oracle_against_long_extension(self, sft):
        # brute-force oracle: w is globally admissible iff it extends on
        # both sides by pad letters while staying admissible.  With pad
        # exceeding the state count the extension paths must repeat a
        # state, so they pump to bi-infinite configurations.  Forbidden
        # words here span at most 3 letters, so for |w| >= 2 a factor never
        # crosses from the left pad to the right pad and the two sides can
        # be checked separately.
        auto = a1d.build_automaton(sft)
        pad = len(auto.states) + auto.word_len + 1
        nsym = len(sft.alphabet)
        pads = list(itertools.product(range(nsym), repeat=pad))
        for n in (2, 3):
            for w in itertools.product(range(nsym), repeat=n):
                ext = any(_word_admissible(sft, l + w) for l in pads) and \
                    any(_word_admissible(sft, w + r) for r in pads)
                assert a1d.is_globally_admissible(auto, w) == ext, w


class TestSticking:
    def test_golden_mean(self):
        assert a1d.sticking_constant_n0(a1d.build_automaton(GOLDEN_MEAN)) == 1

    def test_full_shift(self):
        assert a1d.sticking_constant_n0(a1d.build_automaton(FULL_SHIFT_2)) == 1

    def test_two_three(self):
        auto = a1d.build_automaton(TWO_THREE)
        n0 = a1d.sticking_constant_n0(auto)
        assert n0 >= 2
        # oracle: direct path counting on the class graph
        assert n0 == _brute_sticking(auto)

    def test_periodic_rejected(self):
        with pytest.raises(ValueError):
            a1d.sticking_constant_n0(a1d.build_automaton(ALTERNATING))

    def test_gap_fill_agrees(self):
        # for every n >= n0 and every pair of class states a filler exists;
        # for n0 - 1 some pair must fail (minimality)
        for sft in (GOLDEN_MEAN, TWO_THREE):
            auto = a1d.build_automaton(sft)
            n0 = a1d.sticking_constant_n0(auto)
            cls = sorted(a1d.classify(auto).classes[0])
            for n in (n0, n0 + 1, n0 + 2):
                for li in cls:
                    for ri in cls:
                        assert a1d.fill_gap(auto, li, ri, n) is not None
            if n0 > 1:
                missing = [
                    (li, ri)
                    for li in cls
                    for ri in cls
                    if a1d.fill_gap(auto, li, ri, n0 - 1) is None
                ]
                assert missing


def _brute_sticking(auto):
    cls = sorted(a1d.classify(auto).classes[0])
    wl = auto.word_len
    for n0 in range(1, 50):
        if all(
            a1d.fill_gap(auto, li, ri, n) is not None
            for n in range(n0, n0 + 2 * len(auto.states) + 2)
            for li in cls
            for ri in cls
        ):
            return n0
    raise AssertionError("no sticking constant found")


class TestPeel:
    def test_golden_mean(self):
        assert a1d.peel_constant_C(a1d.build_automaton(GOLDEN_MEAN)) == 1

    def test_transient(self):
        # one state outside the class and diameter 1
        assert a1d.peel_constant_C(a1d.build_automaton(TRANSIENT)) == 1

    def test_peeling_makes_words_global(self):
        for sft in (GOLDEN_MEAN, TRANSIENT, TWO_THREE,
                    word_sft("01", ["11", "010"])):
            auto = a1d.build_automaton(sft)
            if len(a1d.communication_classes(auto)) != 1:
                continue
            c = a1d.peel_constant_C(auto)
            n = auto.word_len + 2 * c + 2
            for w in brute_words(sft, n):
                peeled = w[c:len(w) - c]
                assert a1d.is_globally_admissible(auto, peeled), (sft, w)


class TestRepairConstants:
    def test_golden_mean(self):
        rc = a1d.repair_constants(a1d.build_automaton(GOLDEN_MEAN))
        assert (rc.n0, rc.C, rc.D, rc.E) == (1, 1, 1, 2)

    def test_full_shift(self):
        rc = a1d.repair_constants(a1d.build_automaton(FULL_SHIFT_2))
        assert rc.n0 == 1
        assert rc.E >= 1


class TestFillGap:
    def test_examples(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        zero, one = golden.index[(0,)], golden.index[(1,)]
        assert a1d.fill_gap(golden, one, one, 1) == (0,)
        assert a1d.fill_gap(golden, zero, zero, 0) == ()
        alt = a1d.build_automaton(ALTERNATING)
        zero = alt.index[(0,)]
        # a path 0 -> 0 has even length; 2 filler letters plus the single
        # letter consumed entering the right state make 3, which is odd
        assert a1d.fill_gap(alt, zero, zero, 2) is None
        assert a1d.fill_gap(alt, zero, zero, 1) == (1,)

    def test_lex_least(self):
        auto = a1d.build_automaton(TWO_THREE)
        wl = auto.word_len
        for li, left in enumerate(auto.states):
            for ri, right in enumerate(auto.states):
                for n in range(0, 6):
                    got = a1d.fill_gap(auto, li, ri, n)
                    best = None
                    for w in itertools.product(range(3), repeat=n):
                        full = left + w + right
                        if _word_admissible(auto.sft, full):
                            best = w if best is None else min(best, w)
                    assert got == best, (left, right, n)

    def test_filled_word_admissible(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        one = golden.index[(1,)]
        w = a1d.fill_gap(golden, one, one, 5)
        assert w == (0, 0, 0, 0, 0)
        assert _word_admissible(GOLDEN_MEAN, (1,) + w + (1,))

    @settings(max_examples=60)
    @given(st.integers(0, 40))
    def test_alternating_parity(self, n):
        # 0 -> 0 paths have even edge count; n filler letters plus the one
        # entering the right state make n + 1 edges
        alt = a1d.build_automaton(ALTERNATING)
        zero = alt.index[(0,)]
        got = a1d.fill_gap(alt, zero, zero, n)
        if n % 2 == 1:
            assert got == tuple((i + 1) % 2 for i in range(n))
        else:
            assert got is None


def _gap_reference(auto, li, ri, n, reach=None):
    """fill_gap's walk with its own reach table and no result cache."""
    reach = reach or a1d._ReachTable(auto, ri)
    wl = auto.word_len
    if li not in reach(n + wl):
        return None
    out, cur = [], li
    for i in range(n):
        b, cur = next((b, j) for b, j in auto.edges[cur]
                      if j in reach(n - i - 1 + wl))
        out.append(b)
    return tuple(out)


small_sfts = st.integers(2, 3).flatmap(lambda k: st.tuples(
    st.just("abc"[:k]),
    st.lists(st.text("abc"[:k], min_size=2, max_size=4), min_size=1,
             max_size=4)))


def _admissible_reference(auto, word):
    """is_globally_admissible as a Python loop over the word's states."""
    w = a1d.coerce_word(auto.sft, word)
    wl = auto.word_len
    live = a1d.live_states(auto)
    if len(w) < wl:
        for i in live:
            s = auto.states[i]
            if any(s[a:a + len(w)] == w for a in range(wl - len(w) + 1)):
                return True
        return False
    index = {s: i for i, s in enumerate(auto.states)}
    prev = index.get(w[:wl])
    if prev is None or prev not in live:
        return False
    for i in range(wl, len(w)):
        nxt = index.get(w[i - wl + 1:i + 1])
        if nxt is None or nxt not in live:
            return False
        if not any(b == w[i] and j == nxt for b, j in auto.edges[prev]):
            return False
        prev = nxt
    return True


class TestGlobalOracle:
    # random SFTs, with fixed ones that have transient and dead states
    sfts = st.one_of(small_sfts, st.sampled_from([
        ("01", ["11", "010"]), ("ab", ["aa", "ba"]),
        ("abc", ["ab", "ba", "cc", "aca"])]))

    @settings(max_examples=200, deadline=None)
    @given(sfts, st.data())
    def test_matches_loop(self, sft, data):
        auto = a1d.build_automaton(word_sft(*sft))
        nsym = len(auto.sft.alphabet)
        n = data.draw(st.integers(0, 70))
        if auto.states and data.draw(st.booleans()):
            # a path from any state, live or not, then maybe one bad letter
            cur = data.draw(st.integers(0, len(auto.states) - 1))
            word = list(auto.states[cur])
            while len(word) < n and auto.edges[cur]:
                b, cur = data.draw(st.sampled_from(auto.edges[cur]))
                word.append(b)
            word = word[:n]
            if word and data.draw(st.booleans()):
                word[data.draw(st.integers(0, len(word) - 1))] = \
                    data.draw(st.integers(0, nsym - 1))
        else:
            word = data.draw(st.lists(st.integers(0, nsym - 1), max_size=n))
        want = _admissible_reference(auto, word)
        assert a1d.is_globally_admissible(auto, word) is want
        assert a1d.is_globally_admissible(
            auto, np.array(word, dtype=np.int64)) is want

    @pytest.mark.parametrize("sft, word", [
        # window numbers past int64: exact Python integers
        (word_sft("01", ["00", "11", "0" * 66]), "01" * 40),
        (word_sft("01", ["00", "11", "0" * 66]), "01" * 20 + "1"),
        # a table of 3^12 windows is larger than the word: binary search
        (word_sft("01", ["11", "0" * 13]), "0010" * 10),
        (word_sft("01", ["11", "0" * 13]), "0" * 14 + "10"),
    ])
    def test_long_states(self, sft, word):
        auto = a1d.build_automaton(sft)
        assert a1d.is_globally_admissible(auto, word) is \
            _admissible_reference(auto, word)
        w, wl = a1d.coerce_word(sft, word), auto.word_len
        assert a1d.window_states(auto, word, range(len(w))).tolist() == [
            auto.index.get(w[s:s + wl], -1) if s + wl <= len(w) else -1
            for s in range(len(w))]

    def test_letters_outside_alphabet(self):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        assert not a1d.is_globally_admissible(auto, np.array([0, 2, 0]))
        assert not a1d.is_globally_admissible(auto, [0, -1, 0])
        assert list(a1d.window_states(auto, [0, 2, -1, 1],
                                      range(4))) == [0, -1, -1, 1]

    def test_non_integer_letters_raise(self):
        # truncation used to read both words as 0100, which is admissible
        auto = a1d.build_automaton(GOLDEN_MEAN)
        for word in (np.array([0.0, 0.5, 0.0, 1.9]), [0, 0.5, 0, 1.9],
                     np.array([0.0, 1.0, 0.0])):
            with pytest.raises(ValueError, match="integers"):
                a1d.is_globally_admissible(auto, word)
            with pytest.raises(ValueError, match="integers"):
                a1d.window_states(auto, word, range(len(word)))

    @pytest.mark.parametrize("word", [
        np.array([False, True, False, False]),
        np.array([0, 1, 0, 0], dtype=np.int8),
        np.array([0, 1, 0, 0], dtype=np.uint16),
        np.array([0, 1, 0, 0], dtype=np.int64),
        "0100", [0, 1, 0, 0], [0, 1.0, 0, 0]])
    def test_integer_words_read_as_given(self, word):
        auto = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.is_globally_admissible(auto, word)
        assert list(a1d.window_states(auto, word, range(4))) == [0, 1, 0, 0]


class TestCaches:
    @settings(max_examples=60, deadline=None)
    @given(small_sfts)
    def test_memoised_fill_gap_matches_fresh_walk(self, sft):
        auto = a1d.build_automaton(word_sft(*sft))
        states = range(len(auto.states))
        for ri in states:
            reach = a1d._ReachTable(auto, ri)
            for li, n in itertools.product(states, range(7)):
                want = _gap_reference(auto, li, ri, n, reach)
                # the second call reads the cache
                assert a1d.fill_gap(auto, li, ri, n) == want, (sft, li, ri, n)
                assert a1d.fill_gap(auto, li, ri, n) == want

    def test_gap_cache_is_bounded(self, monkeypatch):
        auto = dataclasses.replace(a1d.build_automaton(TWO_THREE))
        monkeypatch.setattr(a1d, "_GAP_CACHE", 5)
        states = range(len(auto.states))
        for li, ri, n in itertools.product(states, states, range(4)):
            assert a1d.fill_gap(auto, li, ri, n) == \
                _gap_reference(auto, li, ri, n)
            assert len(auto._gaps) <= 5
        assert set(auto._reach) <= set(states)

    def test_index_built_once(self):
        auto = a1d.build_automaton(TWO_THREE)
        assert auto.index is auto.index
        assert auto.index == {w: i for i, w in enumerate(auto.states)}

    def test_equality_and_hash_ignore_caches(self):
        auto = a1d.build_automaton(TWO_THREE)
        fresh = dataclasses.replace(auto)
        assert "index" not in vars(fresh)
        a1d.fill_gap(auto, 0, 1, 3)
        auto.index
        assert auto == fresh and hash(auto) == hash(fresh)
        assert auto == pickle.loads(pickle.dumps(auto))
        assert a1d.fill_gap(pickle.loads(pickle.dumps(auto)), 0, 1, 3) == \
            a1d.fill_gap(fresh, 0, 1, 3)


class TestExtend:
    def test_forward(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.extend_from(golden, golden.index[(1,)], 4) == (0, 0, 0, 0)

    def test_backward(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.extend_from(golden, golden.index[(1,)], 3,
                               forward=False) == (0, 0, 0)

    def test_stays_live(self):
        s = word_sft("01", ["11", "010"])
        auto = a1d.build_automaton(s)
        live = a1d.live_states(auto)
        (zero_zero,) = [i for i in live if auto.states[i] == (0, 0)]
        w = a1d.extend_from(auto, zero_zero, 6)
        assert w == (0,) * 6

    def test_backward_stays_live(self):
        # 'a' leads into 'b' but has no history of its own
        auto = a1d.build_automaton(TRANSIENT)
        assert a1d.extend_from(auto, auto.index[(1,)], 3,
                               forward=False) == (1, 1, 1)

    def test_lex_least_word(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.lex_least_admissible_word(golden, 4) == (0, 0, 0, 0)
        alt = a1d.build_automaton(ALTERNATING)
        assert a1d.lex_least_admissible_word(alt, 4) == (0, 1, 0, 1)

    @settings(max_examples=100, deadline=None)
    @given(_RANDOM_WORD_SFTS, st.data())
    def test_matches_enumeration(self, sft, data):
        """Random SFTs drawn as in test_repair's TestRandomSft1D, any
        class structure: from every state, both directions, against the
        first globally admissible word in lexicographic order."""
        auto = a1d.build_automaton(word_sft(*sft))
        live = a1d.live_states(auto)
        n = data.draw(st.integers(0, 6))
        nsym = len(auto.sft.alphabet)
        for state, letters in enumerate(auto.states):
            for forward in (True, False):
                if state not in live:
                    with pytest.raises(ValueError, match="no bi-infinite"):
                        a1d.extend_from(auto, state, n, forward=forward)
                    continue
                want = next((w for w in itertools.product(range(nsym),
                                                          repeat=n)
                             if a1d.is_globally_admissible(
                                 auto, letters + w if forward
                                 else w + letters)), None)
                if want is None:
                    with pytest.raises(ValueError, match="no live history"):
                        a1d.extend_from(auto, state, n, forward=forward)
                else:
                    assert a1d.extend_from(auto, state, n,
                                           forward=forward) == want


class TestStateIndex:
    """With word_len 1 and a letter forbidden, state index i need not spell
    letter i; a bare int is always read as a state index."""

    def test_index_is_not_a_letter(self):
        auto = a1d.build_automaton(word_sft("0123", ["1", "12", "30"]))
        assert auto.states == ((0,), (2,), (3,))
        # state 2 is (3,), which 0 may not follow
        assert a1d.extend_from(auto, 2, 3) == (2, 0, 0)
        assert a1d.fill_gap(auto, 2, 0, 1) == (2,)

    def test_live_state_by_index(self):
        # letters 1 and 2, 1 only ever followed by 2: (2,), index 1, is the
        # one live state
        auto = a1d.build_automaton(word_sft("012", ["0", "01", "21", "11"]))
        assert auto.states == ((1,), (2,))
        assert a1d.live_states(auto) == {1}
        assert a1d.extend_from(auto, 1, 3) == (2, 2, 2)
        assert a1d.extend_from(auto, 1, 3, forward=False) == (2, 2, 2)
        assert a1d.fill_gap(auto, 1, 1, 2) == (2, 2)

    def test_numpy_integer_index(self):
        golden = a1d.build_automaton(GOLDEN_MEAN)
        assert a1d.fill_gap(golden, np.int64(0), 0, 2) == \
            a1d.fill_gap(golden, 0, 0, 2)
        assert a1d.extend_from(golden, np.int32(1), 2) == \
            a1d.extend_from(golden, 1, 2)

    def test_out_of_range_refused(self):
        """An index outside the automaton, or a negative gap, is refused
        and never enters the gap cache."""
        auto = a1d.build_automaton(TWO_THREE)
        a1d.fill_gap(auto, 0, 1, 3)
        before = dict(auto._gaps)
        k = len(auto.states)
        for left, right, n in ((-1, 0, 2), (0, -1, 2), (k, 0, 2),
                               (0, k, 2), (0, 0, -1)):
            with pytest.raises(ValueError):
                a1d.fill_gap(auto, left, right, n)
            assert auto._gaps == before, (left, right, n)
        for state in (-1, k):
            for forward in (True, False):
                with pytest.raises(ValueError):
                    a1d.extend_from(auto, state, 2, forward=forward)


class TestRepairConstantsCache:
    def test_built_once_and_equal_to_fresh(self):
        for sft in (GOLDEN_MEAN, FULL_SHIFT_2, word_sft("01", ["11", "010"])):
            auto = a1d.build_automaton(sft)
            first = a1d.repair_constants(auto)
            assert a1d.repair_constants(auto) is first
            assert first == a1d.repair_constants.__wrapped__(auto)


def _networkx_reference(auto):
    """Classes, live states and the longest transient chain (None unless
    there is one class) as networkx computes them."""
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    g.add_nodes_from(range(len(auto.states)))
    for i, outs in enumerate(auto.edges):
        for _, j in outs:
            g.add_edge(i, j)
    classes = [frozenset(c) for c in nx.strongly_connected_components(g)
               if len(c) > 1 or any(g.has_edge(v, v) for v in c)]
    classes.sort(key=sorted)
    seeds = set().union(*classes)
    fwd, bwd, rg = set(), set(), g.reverse()
    for s in seeds:
        # a seed already reached adds nothing new
        if s not in fwd:
            fwd |= {s} | nx.descendants(g, s)
        if s not in bwd:
            bwd |= {s} | nx.descendants(rg, s)
    chain = None
    if len(classes) == 1:
        sub = g.subgraph(v for v in g if v not in classes[0])
        chain = nx.dag_longest_path_length(sub) + 1 if sub.edges else 1
    return tuple(classes), frozenset(fwd & bwd), chain


class TestGraphLayer:
    # fixed SFTs with transient and dead states; the last has a transient
    # chain of 4 states against ceil(d/2) = 2
    sfts = st.one_of(small_sfts, st.sampled_from([
        ("01", ["11", "010"]), ("ab", ["aa", "ba"]),
        ("abc", ["ab", "ba", "cc", "aca"]), ("ab", ["bbbb", "bab", "aab"])]))

    def check(self, auto):
        classes, live, chain = _networkx_reference(auto)
        assert a1d.communication_classes(auto) == classes
        assert a1d.live_states(auto) == live
        cls = a1d.classify(auto)
        assert cls.classes == classes
        if not classes:
            assert (cls.kind, cls.period) == ("empty", None)
        elif len(classes) > 1:
            assert (cls.kind, cls.period) == ("reducible", None)
        else:
            p = a1d._class_period(auto, classes[0])
            kind = "irreducible_aperiodic" if p == 1 else "irreducible_periodic"
            assert (cls.kind, cls.period) == (kind, p)
        if chain is None:
            with pytest.raises(ValueError, match="exactly one"):
                a1d.peel_constant_C(auto)
            return
        half_d = -(-auto.sft.diameter // 2)
        transient = len(auto.states) - len(classes[0])
        c = max(transient, half_d)
        assert a1d.peel_constant_C(auto) == c
        if cls.kind == "irreducible_aperiodic":
            n0 = a1d.sticking_constant_n0(auto)
            d = max(c, -(-n0 // 2))
            assert a1d.repair_constants(auto) == \
                a1d.RepairConstants(word_len=auto.word_len, n0=n0, C=c,
                                    D=d, E=d + half_d)

    @settings(max_examples=300, deadline=None)
    @given(sfts)
    def test_matches_networkx(self, sft):
        self.check(a1d.build_automaton(word_sft(*sft)))

    def test_4096_states_without_recursion(self):
        auto = a1d.build_automaton(word_sft("01", ["1" * 13, "0" * 13]))
        assert len(auto.states) == 4096
        self.check(auto)
        assert a1d.classify(auto).kind == "irreducible_aperiodic"

    def test_cli_import_leaves_networkx_out(self):
        import os
        import subprocess
        import sys

        import noisysft
        src = os.path.dirname(os.path.dirname(noisysft.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, noisysft.cli; print('networkx' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


def _sticking_matmul(auto):
    """sticking_constant_n0 as it was: uint8 matrix powers of the class."""
    nodes = sorted(a1d.classify(auto).classes[0])
    pos = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    a = np.zeros((k, k), dtype=np.uint8)
    for u in nodes:
        for _, v in auto.edges[u]:
            if v in pos:
                a[pos[u], pos[v]] = 1
    power = a.copy()
    for m in range(1, a1d._wielandt_cap(k) + 1):
        if power.all():
            return max(1, m - auto.word_len)
        power = np.minimum(power @ a, 1)
    raise AssertionError("class matrix is not primitive")


class TestStickingBitsetRows:
    @settings(max_examples=300, deadline=None)
    @given(small_sfts)
    def test_matches_matrix_powers(self, sft):
        auto = a1d.build_automaton(word_sft(*sft))
        if a1d.classify(auto).kind != "irreducible_aperiodic":
            with pytest.raises(ValueError, match="irreducible aperiodic"):
                a1d.sticking_constant_n0(auto)
            return
        assert a1d.sticking_constant_n0(auto) == _sticking_matmul(auto)

    def test_512_states(self):
        auto = a1d.build_automaton(word_sft("01", ["1" * 10, "0" * 10]))
        assert len(auto.states) == 512
        assert a1d.sticking_constant_n0(auto) == _sticking_matmul(auto) == 2
