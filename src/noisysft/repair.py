"""Repair procedures for noisy configurations.

One-dimensional repair rewrites a neighbourhood of the obscured cells so
the result is globally admissible on a peeled interior, anchoring every
rewritten window on untouched clear cells and filling the gaps with the
word automaton.  Two-dimensional repair for periodic SFTs infers the
translation of the unique periodic orbit by majority over the largest
clear percolation component and rewrites everything from it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import automaton1d as a1d
from . import core
from .core import Grid, NoiseMask, Sft
from .percolation import open_components


@dataclass(frozen=True)
class Repair1DReport:
    grid: Grid
    interior: tuple[int, int]  # absolute [start, stop) where guarantees hold
    changed: np.ndarray
    changed_fraction: float  # measured on the interior
    boundary_gap: bool
    end_rewrites: int  # interior cells rewritten only because of box-end peeling
    constants: a1d.RepairConstants


def _coerce_automaton(sft_or_auto) -> a1d.WordAutomaton:
    if isinstance(sft_or_auto, a1d.WordAutomaton):
        return sft_or_auto
    return a1d.build_automaton(sft_or_auto)


def _check_symbols(data: np.ndarray, nsym: int) -> None:
    """ValueError unless every symbol is an integer in [0, nsym)."""
    kind = data.dtype.kind  # only a signed dtype needs its minimum
    if data.size and not (kind in "biu" and (kind != "i" or data.min() >= 0)
                          and data.max() < nsym):
        raise ValueError(f"grid symbols must lie in [0, {nsym}) as integers")


def repair_1d(sft_or_auto, grid: Grid, mask: NoiseMask) -> Repair1DReport:
    """Repair a noisy 1D configuration.

    The obscured set is thickened by E, its runs [a, b) merged straight from
    the obscured cells: a new run starts where two lie more than 2E + 1 apart.
    Each run is refilled through the automaton between anchor states read off
    the clear cells just inside its edges, which are always genuinely clear.
    An anchor pair is accepted when both anchors are states and `fill_gap`
    finds a word between them; otherwise the window widens, moving the side
    whose anchor is no live state, or both sides.  Runs accepted at once are
    filled in one batch, one `fill_gap` call per distinct (left, right, length)
    gap; the others go through the widening loop.  The box ends are
    admissible-word boundaries: C cells are peeled at each physical end and the
    guarantees hold on the interior between them.  Cells changed on the
    interior lie within E of an obscured cell except for at most a few end
    rewrites next to the peel margins, counted separately.  When some run
    cannot be anchored the whole box becomes the lex-least admissible word and
    `boundary_gap` is set.  The repaired word keeps the grid's dtype; symbols
    that are not integers in [0, nsym) are refused.
    """
    auto = _coerce_automaton(sft_or_auto)
    rc = a1d.repair_constants(auto)
    if grid.dim != 1 or mask.dim != 1:
        raise ValueError("repair_1d needs 1D boxes")
    if grid.shape != mask.shape or grid.origin != mask.origin:
        raise ValueError("mask box does not match grid box")
    length = grid.shape[0]
    if length < rc.min_length:
        raise ValueError("box too small to repair")
    _check_symbols(grid.data, len(auto.sft.alphabet))

    p = np.flatnonzero(mask.data)
    cut = np.flatnonzero(np.diff(p) > 2 * rc.E + 1)  # p[cut] ends a run
    a = np.maximum(np.concatenate((p[:1], p[cut + 1])) - rc.E, 0)
    b = np.minimum(np.concatenate((p[cut], p[-1:])) + rc.E + 1, length)
    out = np.array(grid.data, copy=True)
    live = a1d.live_states(auto)
    # every anchor is read from the noisy word, grid.data, never written
    boundary_gap = not _fill_windows(auto, rc, a, b, grid.data, live, out)
    if boundary_gap:
        out[:] = a1d.lex_least_admissible_word(auto, length)
        end_rewrites = 0
    else:
        end_rewrites = _peel_ends(auto, out, rc.C, live)

    changed = out != grid.data
    origin, c_const = grid.origin[0], rc.C
    return Repair1DReport(
        grid=Grid(grid.origin, out),
        interior=(origin + c_const, origin + length - c_const),
        changed=changed,
        changed_fraction=int(np.count_nonzero(
            changed[c_const:length - c_const])) / (length - 2 * c_const),
        boundary_gap=boundary_gap,
        end_rewrites=end_rewrites,
        constants=rc,
    )


def _fill_windows(auto: a1d.WordAutomaton, rc: a1d.RepairConstants,
                  a: np.ndarray, b: np.ndarray, noisy: np.ndarray,
                  live: frozenset, out: np.ndarray) -> bool:
    """Refill every run [a, b) of the thickened mask in `out` as if the runs
    were written one by one in run order; False, with `out` untouched, when
    some run cannot be anchored.

    Anchors are read from the word `noisy`.  An interior run [a, b) is
    anchored on the states ending at a + h and starting at b - h.  When
    both are states and `fill_gap` has a word between them, which is what
    the first step of the widening loop accepts, the run takes the batched
    path; every other run goes through `_widened_fills`.
    """
    wl, length = rc.word_len, len(noisy)
    h = -(-auto.sft.diameter // 2)
    touches_lo, touches_hi = a <= rc.C, b >= length - rc.C
    if np.any(touches_lo & touches_hi):
        return False
    start, stop = a + h, b - h
    left = a1d.window_states(auto, noisy, start - wl)
    right = a1d.window_states(auto, noisy, stop)
    fast = np.flatnonzero(~touches_lo & ~touches_hi & (left >= 0)
                          & (right >= 0))
    nstates = len(auto.states)
    if nstates ** 2 * (length + 1) >= 2 ** 63:
        fast = fast[:0]  # the packed gap key would overflow int64
    # one fill_gap call per distinct (left, right, n), packed in one int64
    n = stop[fast] - start[fast]
    keys, which = np.unique(
        (left[fast].astype(np.int64) * nstates + right[fast]) * (length + 1)
        + n, return_inverse=True)
    words = [a1d.fill_gap(auto, *divmod(k // (length + 1), nstates),
                          k % (length + 1)) for k in keys.tolist()]
    found = np.array([w is not None for w in words], dtype=bool)
    fast, n, which = fast[found[which]], n[found[which]], which[found[which]]
    slow = np.ones(len(a), dtype=bool)
    slow[fast] = False
    slow = np.flatnonzero(slow)
    widened = _widened_fills(auto, rc, zip(a[slow].tolist(), b[slow].tolist()),
                             noisy, live)
    if widened is None:
        return False

    # word letters of every distinct gap back to back; a fast run's fill is
    # the slice of its key's word, scattered with one index array
    lens = np.array([len(w) if w is not None else 0 for w in words],
                    dtype=np.int64)
    word_at = np.cumsum(lens) - lens
    flat = np.fromiter(itertools.chain.from_iterable(
        w for w in words if w is not None), dtype=np.int64, count=lens.sum())
    ends = np.cumsum(n)
    steps = np.arange(ends[-1] if len(ends) else 0)
    first = start[fast]
    out[np.repeat(first - ends + n, n) + steps] = \
        flat[np.repeat(word_at[which] - ends + n, n) + steps]
    # Fast fills lie inside their disjoint runs, so they never overlap one
    # another, but a widened fill can reach into a neighbouring run.  After
    # each widened fill, in run order, rewrite the fast fills of later runs
    # that it overlaps: every cell then holds the fill of the last run that
    # covers it.
    last = first + n
    for run, (lo, hi, word) in zip(slow.tolist(), widened):
        out[lo:hi] = word
        for j in range(np.searchsorted(last, lo, side="right"),
                       np.searchsorted(first, hi)):
            if fast[j] > run:
                out[first[j]:last[j]] = flat[word_at[which[j]]:][:n[j]]
    return True


def _widened_fills(auto: a1d.WordAutomaton, rc: a1d.RepairConstants,
                   runs, noisy: np.ndarray, live: frozenset):
    """(start, stop, letters) refills of the given [a, b) runs of the
    thickened mask, in the order given, or None when some run cannot be
    anchored.

    A run reaching into one C-cell peel margin is anchored on its inner
    side only and filled to the box end; runs reaching into both are
    rejected before this is called.
    """
    wl, c_const, length = rc.word_len, rc.C, len(noisy)
    h = -(-auto.sft.diameter // 2)

    def anchor(pos: int, left: bool) -> int | None:
        """State of noisy[pos-wl:pos] (left) or noisy[pos:pos+wl] (right),
        None when that window leaves the box or is no state."""
        lo = pos - wl if left else pos
        state = int(a1d.window_states(auto, noisy, [lo])[0])
        return state if state >= 0 else None

    def widen(pos: int, step: int, left: bool):
        """(position, state) of the first live anchor among the C + wl + 2
        positions pos, pos + step, ...; None when there is none."""
        for p in range(pos, pos + step * (c_const + wl + 2), step):
            state = anchor(p, left)
            if state in live:
                return p, state
        return None

    fills = []
    for a, b in runs:
        touches_lo, touches_hi = a <= c_const, b >= length - c_const
        if touches_lo or touches_hi:
            # one-sided: anchored on the inner side, filled to the box end
            hit = (widen(b - h, 1, False) if touches_lo
                   else widen(a + h, -1, True))
            if hit is None:
                return None
            p, state = hit
            n = p if touches_lo else length - p
            word = a1d.extend_from(auto, state, n, forward=touches_hi)
            fills.append((0, p, word) if touches_lo else (p, length, word))
            continue
        # interior run: anchors straddle the run edges by h, which keeps
        # them on genuinely clear cells; widen the side whose anchor is not
        # live, or both when fill_gap finds no word between live anchors
        start, stop, moves = a + h, b - h, 0
        while True:
            left, right = anchor(start, True), anchor(stop, False)
            if left is not None and right is not None:
                filler = a1d.fill_gap(auto, left, right, stop - start)
                if filler is not None:
                    fills.append((start, stop, filler))
                    break
            moves += 1
            if left not in live:
                start -= 1
            elif right not in live:
                stop += 1
            else:
                start, stop = start - 1, stop + 1
            if start < wl or stop + wl > length or \
                    moves > 2 * (c_const + wl + rc.n0) + 4:
                return None
    return fills


def _peel_ends(auto: a1d.WordAutomaton, out: np.ndarray, c_const: int,
               live: frozenset) -> int:
    """Peel the box ends of the filled word in place: where the word
    entering the interior is not a live state, rewrite the shortest prefix
    (suffix) reaching j <= C cells into the interior that ends (starts) in
    one.  Returns the interior cells so rewritten."""
    wl, length = auto.word_len, len(out)
    rewrites = 0
    for left in (True, False):
        for j in range(c_const + 1):
            lo = c_const + j if left else length - c_const - j - wl
            state = auto.index.get(tuple(out[lo:lo + wl].tolist()))
            if state in live:
                break
        if state not in live or j == 0:
            continue
        seg = np.array(a1d.extend_from(auto, state, c_const + j,
                                       forward=not left))
        if left:
            rewrites += int(np.sum(out[c_const:c_const + j] != seg[c_const:]))
            out[:c_const + j] = seg
        else:
            rewrites += int(np.sum(out[length - c_const - j:length - c_const]
                                   != seg[:j]))
            out[length - c_const - j:] = seg
    return rewrites


# ---------------------------------------------------------------------------
# periodic 2D repair


@dataclass(frozen=True)
class PeriodicSft:
    """An SFT whose globally admissible configurations form one periodic
    orbit: translates of a single period x period base pattern."""

    sft: Sft
    period: int
    base: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.base)
        if arr.shape != (self.period,) * self.sft.dim:
            raise ValueError("base pattern must be a full period box")
        nsym = len(self.sft.alphabet)
        bad = [v for v in arr.ravel().tolist()
               if arr.dtype.kind not in "iu" or not 0 <= v < nsym]
        if bad:
            raise ValueError(
                f"base symbol {bad[0]!r} is not an integer in [0, {nsym})")
        arr = arr.astype(np.min_scalar_type(nsym - 1))  # narrowest unsigned
        arr.setflags(write=False)
        object.__setattr__(self, "base", arr)

    @property
    def dim(self) -> int:
        return self.sft.dim

    def tiling(self, offset, origin, shape) -> Grid:
        """The translate by `offset` of the base tiling, on the given box:
        one period cell in the phase of the box corner, tiled over it."""
        n = self.period
        cell = self.base[np.ix_(*(np.mod(np.arange(n) + origin[i] - offset[i],
                                         n) for i in range(self.dim)))]
        for k in range(self.dim - 1, -1, -1):  # last axis first: long copies
            cell = np.tile(cell, [-(-shape[k] // n)] + [1] * (self.dim - 1 - k))
        return Grid(tuple(origin), cell[tuple(slice(0, s) for s in shape)])

    def orbit(self):
        """Distinct translates as canonical (lex-least) offsets."""
        return list(self._orbit)

    @functools.cached_property
    def _orbit(self) -> tuple:
        n = self.period
        seen = {}
        for t in itertools.product(range(n), repeat=self.dim):
            key = self.tiling(t, (0,) * self.dim, (n,) * self.dim).data.tobytes()
            seen.setdefault(key, t)
        return tuple(sorted(seen.values()))

    @functools.cached_property
    def _match(self) -> np.ndarray:
        """MATCH[w][residue..., symbol]: bit i of the uint8 word w is set
        when orbit translate 8 w + i has that symbol at that residue mod
        the period."""
        n, nsym = len(self._orbit), len(self.sft.alphabet)
        box = (self.period,) * self.dim
        table = np.zeros((-(-n // 8),) + box + (nsym,), dtype=np.uint8)
        for i, t in enumerate(self._orbit):
            ref = self.tiling(t, (0,) * self.dim, box).data
            hit = (ref[..., None] == np.arange(nsym)).astype(np.uint8)
            table[i // 8] |= hit << np.uint8(i % 8)
        table.setflags(write=False)
        return table

    def validate(self):
        """Check the base tiling is locally admissible on a 3-period box."""
        shape = (3 * self.period,) * self.dim
        g = self.tiling((0,) * self.dim, (0,) * self.dim, shape)
        if not core.is_locally_admissible(self.sft, g):
            raise ValueError("base tiling violates the SFT on a 3-period box")


def parse_periodic(text: str) -> PeriodicSft:
    """SFT format extended with `period N` and `base <row-major symbols>`."""
    extra: dict = {}
    sft = core.parse_sft(text, extra=extra)
    unknown = set(extra) - {"period", "base"}
    if unknown:
        raise core.SftParseError(f"unknown directive {sorted(unknown)[0]!r}")
    if "period" not in extra or "base" not in extra:
        raise core.SftParseError("periodic SFT needs period and base directives")
    for key in ("period", "base"):
        if len(extra[key]) > 1:
            raise core.SftParseError(f"line {extra[key][1][0]}: duplicate {key}")
    (lineno, rest), = extra["period"]
    if not rest.isdecimal() or int(rest) < 1:
        raise core.SftParseError(
            f"line {lineno}: period must be a positive integer, got {rest!r}")
    period = int(rest)
    (lineno_b, rest_b), = extra["base"]
    toks = rest_b.split()
    want = period ** sft.dim
    if len(toks) != want:
        raise core.SftParseError(
            f"line {lineno_b}: base needs {want} symbols, got {len(toks)}")
    vals = np.array([sft.symbol_index(t) for t in toks]).reshape(
        (period,) * sft.dim)
    p = PeriodicSft(sft=sft, period=period, base=vals)
    p.validate()
    return p


_CAP = 4
_BUDGET = 2_000_000


def local_global_constant(p: PeriodicSft) -> int:
    """Radius c such that a clear window of radius c pins the orbit locally:
    for the least k <= _CAP, every locally admissible pattern on B_{r+k}
    agrees on B_r with some translate, where r = ceil(period/2); c is
    max(k, r), at least r so a window spans a period.  Raises
    core.CapExceeded when no such k exists, core.BudgetExceeded when an
    enumeration passes _BUDGET search nodes."""
    r = -(-p.period // 2)
    window = core.ball(r, p.dim)  # sorted, so row-major
    shape = (2 * r + 1,) * p.dim
    origin = (-r,) * p.dim
    translates = {tuple(p.tiling(t, origin, shape).data.ravel().tolist())
                  for t in p.orbit()}
    for k in range(_CAP + 1):
        cells = core.ball(r + k, p.dim)
        if all(tuple(a[c] for c in window) in translates
               for a in core._enumerate_admissible(p.sft, cells, _BUDGET)):
            return max(k, r)
    raise core.CapExceeded(f"the local rules do not pin the periodic orbit "
                           f"within the cap ({_CAP} cells past radius {r})")


@dataclass(frozen=True)
class RepairPeriodicReport:
    grid: Grid  # the repaired interior (thickened box)
    offset: tuple
    c: int
    changed_fraction: float
    vote_counts: dict
    no_votes: bool


def repair_periodic(p: PeriodicSft, grid: Grid, mask: NoiseMask, *,
                    c: int) -> RepairPeriodicReport:
    """Majority-vote repair: infer the translate on the largest open
    component of the c-thickened clear cells, then rewrite the whole
    interior as that translate.

    A cell votes for the lexicographically greatest orbit translate the
    grid matches on its c-box.  Each cell's match bits (bit i: the cell
    agrees with translate i) come from one gather in the MATCH table of
    the periodic SFT; AND-ing them over the (2c+1) box (`core._windows`)
    leaves the translates consistent on all of it.  Bits are held in uint8
    words of 8 translates.  A cell votes for translate 8 w + i exactly
    when its word w lies in [2^i, 2^(i+1)) and every higher word is 0, so
    the words are taken highest first: a word is zeroed on the cells off
    the giant or already voting in a higher word, and the count of
    translate 8 w + i is the number of cells with word >= 2^i less those
    with word >= 2^(i+1); no per-cell vote is built.  The giant is read,
    never copied or written (higher-word voters join it in a new array).
    Vote ties pick the lexicographically greatest offset, matching the
    maximal-configuration convention.
    """
    if grid.shape != mask.shape or grid.origin != mask.origin:
        raise ValueError("mask box does not match grid box")
    nsym, g = len(p.sft.alphabet), grid.data
    _check_symbols(g, nsym)
    giant = open_components(mask, c)
    inner = tuple(slice(c, s - c) for s in grid.shape)
    orbit = p.orbit()
    # per cell x, the flat MATCH-word index of (x mod period..., grid[x])
    kt = np.min_scalar_type(p._match[0].size)
    key = sum((((o + np.arange(s)) % p.period) * (nsym * p.period ** k))
              .astype(kt).reshape((-1,) + (1,) * k)
              for k, (o, s) in enumerate(zip(grid.origin[::-1],
                                             grid.shape[::-1])))
    np.add(key, g, out=key, casting="unsafe")
    counts = np.zeros(len(orbit), dtype=np.intp)
    off = giant.data  # cells that cast no vote in the words left
    for w in range(len(p._match) - 1, -1, -1):  # one word per 8 translates
        ok = core._gather(p._match[w].ravel(), key)
        ok = core._windows(ok, c, np.bitwise_and, out=ok)
        np.copyto(ok, 0, where=off)
        if w:
            off = off | (ok != 0)
        size = min(8, len(orbit) - 8 * w)
        at_least = np.array([np.count_nonzero(ok >= 1 << i)
                             for i in range(size)] + [0])
        counts[8 * w:8 * w + size] = at_least[:-1] - at_least[1:]
    no_votes = not counts.any()
    if no_votes:
        best = len(orbit) - 1
    else:
        top = counts.max()
        best = max(i for i, n in enumerate(counts) if n == top)
    offset = orbit[best]
    repaired = p.tiling(offset, giant.origin, giant.shape)
    changed = int(np.count_nonzero(g[inner] != repaired.data)) \
        / repaired.data.size
    return RepairPeriodicReport(
        grid=repaired, offset=offset, c=c, changed_fraction=changed,
        vote_counts={orbit[i]: int(n) for i, n in enumerate(counts)},
        no_votes=no_votes)
