"""Word automata for one-dimensional SFTs.

States are the locally admissible words of length max(d, 1) where d is the
largest forbidden-word spread; reading a letter slides the window one step.
Bi-infinite configurations correspond to bi-infinite paths, so all global
questions (admissibility of a finite word, classification, mixing
constants, gap filling) reduce to reachability in this graph.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Sft, _gather

Word = tuple[int, ...]


@dataclass(frozen=True)
class WordAutomaton:
    sft: Sft
    word_len: int
    states: tuple[Word, ...]
    # edges[i] = sorted tuple of (letter, target state index)
    edges: tuple[tuple[tuple[int, int], ...], ...]

    # computed on first read and kept on the instance; equality and hash
    # still come from the fields alone
    @functools.cached_property
    def index(self) -> dict:
        return {w: i for i, w in enumerate(self.states)}

    @functools.cached_property
    def _reach(self) -> dict:
        """`_ReachTable` per target state, built on first use."""
        return {}

    @functools.cached_property
    def _gaps(self) -> dict:
        """`fill_gap` results per (left, right, n), at most _GAP_CACHE long."""
        return {}

    @functools.cached_property
    def _preds(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """_preds[v] = (source state index, letter) of every edge into v."""
        preds: list[list[tuple[int, int]]] = [[] for _ in self.states]
        for u, outs in enumerate(self.edges):
            for b, v in outs:
                preds[v].append((u, b))
        return tuple(tuple(p) for p in preds)


@dataclass(frozen=True)
class Classification:
    kind: str  # empty | irreducible_aperiodic | irreducible_periodic | reducible
    period: int | None
    classes: tuple[frozenset, ...]  # communication classes, state indices

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def __str__(self) -> str:
        if self.kind == "irreducible_periodic":
            return f"irreducible_periodic({self.period})"
        if self.kind == "reducible":
            return f"reducible({self.class_count})"
        return self.kind


def _word_admissible(sft: Sft, word: Word) -> bool:
    for p in sft.forbidden:
        if not p.cells:
            return False
        span = p.extent[0]
        if span > len(word):
            continue
        offs = [o[0] for o, _ in p.cells]
        syms = [s for _, s in p.cells]
        for a in range(len(word) - span + 1):
            if all(word[a + o] == s for o, s in zip(offs, syms)):
                return False
    return True


@functools.lru_cache(maxsize=None)
def build_automaton(sft: Sft) -> WordAutomaton:
    if sft.dim != 1:
        raise ValueError("word automata are for 1D SFTs")
    wl = max(sft.diameter, 1)
    nsym = len(sft.alphabet)
    states: list[Word] = []
    stack: list[Word] = [()]
    # depth-first extension keeps the admissibility checks incremental
    while stack:
        w = stack.pop()
        if len(w) == wl:
            states.append(w)
            continue
        for s in range(nsym - 1, -1, -1):
            w2 = w + (s,)
            if _word_admissible(sft, w2):
                stack.append(w2)
    states.sort()
    index = {w: i for i, w in enumerate(states)}
    edges = []
    for w in states:
        outs = []
        for b in range(nsym):
            if _word_admissible(sft, w + (b,)):
                tgt = w[1:] + (b,)
                if tgt in index:
                    outs.append((b, index[tgt]))
        edges.append(tuple(outs))
    return WordAutomaton(sft=sft, word_len=wl, states=tuple(states),
                         edges=tuple(edges))


def _postorder(auto: WordAutomaton) -> list[int]:
    """Every state in depth-first finishing order.  The search keeps its
    own stack, so automata with thousands of states do not reach the
    recursion limit."""
    seen: set[int] = set()
    order = []
    for root in range(len(auto.states)):
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(auto.edges[root]))]
        while stack:
            v, outs = stack[-1]
            for _, w in outs:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(auto.edges[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    return order


def _closure(seeds, step) -> set[int]:
    """The seeds and every state reached from them through `step`."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for w in step(todo.pop()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@functools.lru_cache(maxsize=None)
def communication_classes(auto: WordAutomaton) -> tuple[frozenset, ...]:
    """Strongly connected components that contain a cycle, in sorted order.

    Kosaraju's two passes: components are the predecessor closures taken
    in reverse finishing order, each restricted to states not yet placed.
    """
    placed: set[int] = set()
    out = []
    for root in reversed(_postorder(auto)):
        if root in placed:
            continue
        comp = _closure([root], lambda v: (
            u for u, _ in auto._preds[v] if u not in placed))
        placed |= comp
        if len(comp) > 1 or any(w == root for _, w in auto.edges[root]):
            out.append(frozenset(comp))
    out.sort(key=sorted)
    return tuple(out)


def _class_period(auto: WordAutomaton, cls: frozenset) -> int:
    nodes = sorted(cls)
    level = {nodes[0]: 0}
    queue = [nodes[0]]
    g = 0
    while queue:
        u = queue.pop()
        for letter, v in auto.edges[u]:
            if v not in cls:
                continue
            if v in level:
                g = math.gcd(g, level[u] + 1 - level[v])
            else:
                level[v] = level[u] + 1
                queue.append(v)
    return abs(g) if g else 1


def classify(auto: WordAutomaton) -> Classification:
    classes = communication_classes(auto)
    if not classes:
        return Classification(kind="empty", period=None, classes=())
    if len(classes) > 1:
        return Classification(kind="reducible", period=None, classes=classes)
    p = _class_period(auto, classes[0])
    if p == 1:
        return Classification(kind="irreducible_aperiodic", period=1, classes=classes)
    return Classification(kind="irreducible_periodic", period=p, classes=classes)


@functools.lru_cache(maxsize=None)
def _live_sets(auto: WordAutomaton):
    """(reachable from a cycle, co-reachable to a cycle) as frozensets."""
    seeds = set().union(*communication_classes(auto))
    fwd = _closure(seeds, lambda v: (w for _, w in auto.edges[v]))
    bwd = _closure(seeds, lambda v: (u for u, _ in auto._preds[v]))
    return frozenset(fwd), frozenset(bwd)


def live_states(auto: WordAutomaton) -> frozenset:
    """States through which some bi-infinite path passes."""
    fwd, bwd = _live_sets(auto)
    return fwd & bwd


def coerce_word(sft: Sft, word) -> Word:
    """A string read through the alphabet, or a sequence of integral
    letters, as a tuple of ints; ValueError for a letter that is not an
    integer."""
    if isinstance(word, str):
        return tuple(sft.symbol_index(ch) for ch in word)
    word = tuple(word)
    out = tuple(int(x) for x in word)
    if out != word:
        raise ValueError("word letters must be integers")
    return out


def _letters(sft: Sft, word) -> np.ndarray:
    """The word as an array of letters: a bool or integer array as given,
    anything else through `coerce_word`.  Arrays of any other dtype, such
    as floats, are refused."""
    if isinstance(word, np.ndarray) and word.dtype.kind != "O":
        if word.dtype.kind not in "biu":
            raise ValueError(f"word letters must be integers, got {word.dtype}")
        return word
    return np.array(coerce_word(sft, word), dtype=np.int64)


def window_states(auto: WordAutomaton, word, starts) -> np.ndarray:
    """Index of the state spelled by word[p:p + word_len] at every start p
    of the 1D sequence `starts`, or -1 where that window leaves the word or
    is no state, in the smallest signed integer type that holds every
    index.  Only those windows are read, from an integer array as given;
    ValueError for letters that are not integers.
    """
    w, wl = _letters(auto.sft, word), auto.word_len
    nsym = len(auto.sft.alphabet)
    starts = np.asarray(starts, dtype=np.intp)
    inside = (starts >= 0) & (starts <= len(w) - wl)
    windows = w[starts[inside, None] + np.arange(wl)]
    found = _window_index(_digits(windows, nsym), auto.states, nsym)
    out = np.full(starts.shape, -1, dtype=found.dtype)
    out[inside] = found
    return out


def _digits(w: np.ndarray, nsym: int) -> np.ndarray:
    """The letters of w, with nsym for every letter outside [0, nsym)."""
    if w.size and (w.min() < 0 or w.max() >= nsym):
        return np.where((w >= 0) & (w < nsym), w, nsym)
    return w


def _window_index(windows: np.ndarray, words: tuple[Word, ...],
                  nsym: int) -> np.ndarray:
    """Index in `words`, sorted words of `width` letters, of every row of
    `windows`, a (count, width) array of `_digits`, or -1 where the row is
    none of them, in the smallest signed integer type that holds any index.

    Each row is read as a number in base nsym + 1, accumulated digit by
    digit over all rows at once; the digit nsym stands for any letter
    outside the alphabet, so such rows match no word.  The numbers are
    held in the narrowest unsigned type that holds base ** width (exact
    Python integers past int64).  They index a lookup table when it is no
    larger than the row count; otherwise a binary search over the sorted
    word numbers finds them.
    """
    count, width = windows.shape
    out_type = np.min_scalar_type(-max(len(words), 1))
    if not words:
        return np.full(count, -1, dtype=out_type)
    base = nsym + 1
    size = base ** width
    dtype = np.min_scalar_type(size) if size < 2 ** 63 else object
    codes = np.zeros(count, dtype=dtype)
    table = np.zeros(len(words), dtype=dtype)
    letters = np.array(words, dtype=dtype).reshape(len(words), width)
    for i in range(width):
        codes *= base
        np.add(codes, windows[:, i], out=codes, casting="unsafe")
        table = table * base + letters[:, i]
    if size <= count:
        lut = np.full(size, -1, dtype=out_type)
        lut[table] = np.arange(len(table))
        return _gather(lut, codes)
    idx = np.minimum(np.searchsorted(table, codes), len(table) - 1)
    return np.where(table[idx] == codes, idx, -1).astype(out_type)


@functools.lru_cache(maxsize=None)
def _live_edges(auto: WordAutomaton) -> tuple[Word, ...]:
    """The word_len + 1 letters of every edge between live states, sorted."""
    live = live_states(auto)
    return tuple(sorted(auto.states[u] + (b,) for u in live
                        for b, v in auto.edges[u] if v in live))


def is_globally_admissible(auto: WordAutomaton, word) -> bool:
    """Does the word occur in some bi-infinite admissible configuration?

    For words at least as long as the state length this is a path check
    where every visited state must be reachable from a cycle and
    co-reachable to a cycle.  Consecutive windows overlap in word_len - 1
    letters, so a longer word is such a path iff each of its windows of
    word_len + 1 letters spells an edge between live states: one lookup
    over the word, read as given when it is an integer array.  Shorter
    words only need to occur inside some live state.  ValueError for
    letters that are not integers.
    """
    w = _letters(auto.sft, word)
    wl, nsym = auto.word_len, len(auto.sft.alphabet)
    live = live_states(auto)
    if len(w) <= wl:
        w = tuple(int(v) for v in w)
        for i in live:
            s = auto.states[i]
            if any(s[a:a + len(w)] == w for a in range(wl - len(w) + 1)):
                return True
        return False
    edges = _window_index(sliding_window_view(_digits(w, nsym), wl + 1),
                          _live_edges(auto), nsym)
    return bool((edges >= 0).all())


def _wielandt_cap(k: int) -> int:
    return (k - 1) ** 2 + 2 if k > 1 else 2


def sticking_constant_n0(auto: WordAutomaton) -> int:
    """Least n0 >= 1 such that any two states of the communication class
    can be joined through a gap of any length n >= n0.

    A gap of length n corresponds to a path of n + word_len edges, so this
    is the primitivity index of the class adjacency matrix shifted by the
    state length.  Only defined for irreducible aperiodic automata.
    """
    cls = classify(auto)
    if cls.kind != "irreducible_aperiodic":
        raise ValueError(f"sticking constant needs irreducible aperiodic, got {cls}")
    nodes = sorted(cls.classes[0])
    pos = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    succ = [{pos[v] for _, v in auto.edges[u] if v in pos} for u in nodes]
    # row i of A^m as a k-bit integer; row i of A^{m+1} = A A^m is the OR
    # of the rows of A^m over the out-edges i -> j
    full = (1 << k) - 1
    power = [sum(1 << j for j in s) for s in succ]
    for m in range(1, _wielandt_cap(k) + 1):
        if all(row == full for row in power):
            return max(1, m - auto.word_len)
        power = [functools.reduce(operator.or_, (power[j] for j in s), 0)
                 for s in succ]
    raise ValueError("class matrix is not primitive despite aperiodicity")


def peel_constant_C(auto: WordAutomaton) -> int:
    """Letters to strip from each end of a locally admissible word so the
    rest is globally admissible: every state outside the communication
    class, and at least ceil(d/2).  Requires exactly one communication
    class.
    """
    classes = communication_classes(auto)
    if len(classes) != 1:
        raise ValueError("peel constant needs exactly one communication class")
    transient = len(auto.states) - len(classes[0])
    return max(transient, -(-auto.sft.diameter // 2))


@dataclass(frozen=True)
class RepairConstants:
    word_len: int
    n0: int
    C: int
    D: int
    E: int

    @property
    def min_length(self) -> int:
        """The shortest box `repair.repair_1d` accepts."""
        return 2 * (self.C + self.E + self.word_len) + self.n0 + 2


@functools.lru_cache(maxsize=None)
def repair_constants(auto: WordAutomaton) -> RepairConstants:
    """The constants of `repair.repair_1d`, built once per automaton and
    shared: `RepairConstants` is frozen."""
    n0 = sticking_constant_n0(auto)
    c = peel_constant_C(auto)
    half_d = -(-auto.sft.diameter // 2)
    d_const = max(c, -(-n0 // 2))
    return RepairConstants(word_len=auto.word_len, n0=n0, C=c,
                           D=d_const, E=d_const + half_d)


class _ReachTable:
    """R(t) = set of states with a path of exactly t edges to the target.

    The sequence of sets is eventually periodic, so only the preperiod and
    one period are stored; lookups for any t are O(1).
    """

    def __init__(self, auto: WordAutomaton, target: int):
        preds = auto._preds
        seen: dict[frozenset, int] = {}
        seq: list[frozenset] = [frozenset([target])]
        seen[seq[0]] = 0
        self.start = None
        self.period = None
        while True:
            nxt = frozenset(u for v in seq[-1] for u, _ in preds[v])
            if nxt in seen:
                self.start = seen[nxt]
                self.period = len(seq) - self.start
                break
            seen[nxt] = len(seq)
            seq.append(nxt)
        self.seq = seq

    def __call__(self, t: int) -> frozenset:
        if t < len(self.seq):
            return self.seq[t]
        return self.seq[self.start + (t - self.start) % self.period]


_GAP_CACHE = 4096


def fill_gap(auto: WordAutomaton, left: int, right: int,
             n: int) -> Word | None:
    """Lexicographically least word w of length n with left.w.right locally
    admissible as a path, or None when no such word exists.  `left` and
    `right` are state indices.

    Deterministic: ties are broken by alphabet order at every letter.
    Results are kept per automaton, the oldest dropped past _GAP_CACHE; a
    key is checked on its first walk, so an invalid one raises ValueError
    and is never kept.
    """
    key = (left, right, n)
    gaps = auto._gaps
    try:
        return gaps[key]
    except KeyError:
        pass
    if not (0 <= left < len(auto.states) and 0 <= right < len(auto.states)):
        raise ValueError(f"no state pair ({left}, {right})")
    if n < 0:
        raise ValueError("gap length must be nonnegative")
    if len(gaps) >= _GAP_CACHE:
        del gaps[next(iter(gaps))]
    gaps[key] = word = _walk_gap(auto, left, right, n)
    return word


def _walk_gap(auto: WordAutomaton, li: int, ri: int, n: int) -> Word | None:
    if ri not in auto._reach:
        auto._reach[ri] = _ReachTable(auto, ri)
    reach = auto._reach[ri]
    wl = auto.word_len
    if li not in reach(n + wl):
        return None
    out = []
    cur = li
    for i in range(n):
        remaining = n - i - 1 + wl
        step = None
        for b, j in auto.edges[cur]:
            if j in reach(remaining):
                step = (b, j)
                break
        assert step is not None
        out.append(step[0])
        cur = step[1]
    return tuple(out)


def extend_from(auto: WordAutomaton, state: int, n: int, *,
                forward: bool = True) -> Word:
    """Lex-least n-letter continuation from (or into) the state with index
    `state`, staying within the live part so the result remains globally
    admissible.  ValueError for an index that is no live state."""
    live = live_states(auto)
    if state not in live:
        raise ValueError("state has no bi-infinite extension")
    out = []
    if forward:
        cur = state
        for _ in range(n):
            b, j = min((b, j) for b, j in auto.edges[cur] if j in live)
            out.append(b)
            cur = j
        return tuple(out)
    # backwards: choose predecessors; lex-least means minimizing earlier
    # letters first, so scan positions left to right among live paths
    # reach[t] = states that reach `state` in exactly t live steps
    reach = [{state}]
    for _ in range(n):
        reach.append({u for v in reach[-1] for u, _ in auto._preds[v]
                      if u in live})
    if not reach[n]:
        raise ValueError("state has no live history long enough")
    start = min(reach[n], key=lambda u: auto.states[u])
    cur = start
    for t in range(n, 0, -1):
        b, j = min((b, j) for b, j in auto.edges[cur]
                   if j in live and j in reach[t - 1])
        out.append(b)
        cur = j
    assert cur == state
    # the full word is start-state letters then edge labels; the last
    # word_len letters of it spell the target state, so the prepended
    # word is the first n letters
    full = auto.states[start] + tuple(out)
    return full[:n]


def lex_least_admissible_word(auto: WordAutomaton, n: int) -> Word | None:
    """Lex-least globally admissible word of length n, None if none exists."""
    live = live_states(auto)
    if not live:
        return None
    wl = auto.word_len
    if n <= wl:
        best = None
        for i in sorted(live, key=lambda j: auto.states[j]):
            s = auto.states[i]
            for a in range(wl - n + 1):
                w = s[a:a + n]
                if best is None or w < best:
                    best = w
        return best
    start = min(live, key=lambda j: auto.states[j])
    return auto.states[start] + extend_from(auto, start, n - wl, forward=True)
