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
from .core import Grid, NoiseMask, Sft, thicken
from .percolation import OpenComponents, open_components


def _runs(flags: np.ndarray):
    """Maximal [start, stop) runs of True in a 1D boolean array."""
    if flags.size == 0:
        return []
    padded = np.concatenate(([False], flags, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return list(zip(edges[::2], edges[1::2]))


@dataclass(frozen=True)
class Repair1DReport:
    grid: Grid
    interior: tuple[int, int]  # absolute [start, stop) where guarantees hold
    changed: np.ndarray
    changed_fraction: float  # measured on the interior
    boundary_gap: bool
    end_rewrites: int  # interior cells rewritten only because of box-end peeling
    constants: a1d.RepairConstants

    def interior_word(self):
        lo = self.interior[0] - self.grid.origin[0]
        hi = self.interior[1] - self.grid.origin[0]
        return tuple(int(v) for v in self.grid.data[lo:hi])


def _coerce_automaton(sft_or_auto) -> a1d.WordAutomaton:
    if isinstance(sft_or_auto, a1d.WordAutomaton):
        return sft_or_auto
    return a1d.build_automaton(sft_or_auto)


def repair_1d(sft_or_auto, grid: Grid, mask: NoiseMask, *,
              refined: bool = False) -> Repair1DReport:
    """Repair a noisy 1D configuration.

    The obscured set is thickened by E; each thickened window is refilled
    through the automaton between anchor states read off the clear cells
    just inside the window edges, which are always genuinely clear.  The
    box ends are treated as admissible-word boundaries: C cells are peeled
    at each physical end and the guarantees hold on the interior between
    them.  Cells changed on the interior lie within E of an obscured cell
    except for at most a few end rewrites next to the peel margins, which
    are counted separately.
    """
    auto = _coerce_automaton(sft_or_auto)
    rc = a1d.repair_constants(auto, refined=refined)
    wl, e_const, c_const, n0 = rc.word_len, rc.E, rc.C, rc.n0
    h = -(-auto.sft.diameter // 2)
    if grid.dim != 1 or mask.dim != 1:
        raise ValueError("repair_1d needs 1D boxes")
    if grid.shape != mask.shape or grid.origin != mask.origin:
        raise ValueError("mask box does not match grid box")
    length = grid.shape[0]
    if length < 2 * (c_const + e_const + wl) + n0 + 2:
        raise ValueError("box too small to repair")

    padded = NoiseMask((0,), np.pad(mask.data, e_const))
    fat = thicken(padded, e_const).data.astype(bool)
    out = np.array(grid.data, copy=True)
    origin = grid.origin[0]
    interior = (origin + c_const, origin + length - c_const)
    boundary_gap = False
    end_rewrites = 0
    live = a1d.live_states(auto)

    def window_start(pos: int, side: str) -> int | None:
        """Start of out[pos-wl:pos] (left) or out[pos:pos+wl] (right), None
        when that window leaves the box."""
        lo = pos - wl if side == "left" else pos
        return lo if 0 <= lo <= length - wl else None

    # out is not written until every window is filled, so the anchors
    # read their states from one pass over the noisy word
    states_at = a1d.window_states(auto, out)

    def anchor_state(pos: int, side: str) -> int | None:
        lo = window_start(pos, side)
        if lo is None or states_at[lo] < 0:
            return None
        return int(states_at[lo])

    def peel_state(pos: int, side: str) -> int | None:
        """As anchor_state, read from out after the fills."""
        lo = window_start(pos, side)
        if lo is None:
            return None
        return auto.index.get(tuple(int(v) for v in out[lo:lo + wl]))

    windows = _runs(fat)
    # windows reaching into the peel margins count as boundary windows
    margin_lo, margin_hi = c_const, length - c_const
    fills: list[tuple[int, int, tuple]] = []

    kept_any = any(b - a > 0 for a, b in _runs(~fat[margin_lo:margin_hi]))
    if not kept_any:
        boundary_gap = True
        word = a1d.lex_least_admissible_word(auto, length)
        if word is None:
            raise ValueError("the SFT admits no bi-infinite configuration")
        fills.append((0, length, word))
        windows = []

    for a, b in windows:
        touches_lo = a < margin_lo + 1
        touches_hi = b > margin_hi - 1
        if touches_lo and touches_hi:
            boundary_gap = True
            word = a1d.lex_least_admissible_word(auto, length)
            fills = [(0, length, word)]
            break
        if touches_lo:
            # one-sided: anchored on the right only, filled to the box end
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
                word = a1d.lex_least_admissible_word(auto, length)
                fills = [(0, length, word)]
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
                word = a1d.lex_least_admissible_word(auto, length)
                fills = [(0, length, word)]
                break
            fills.append((start, length,
                          a1d.extend_from(auto, left, length - start,
                                          forward=True)))
            continue
        # interior window: anchors straddle the window edges by h, which
        # keeps them on genuinely clear cells
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
                word = a1d.lex_least_admissible_word(auto, length)
                fills = [(0, length, word)]
                break
        if boundary_gap and fills and fills[-1][0] == 0 and fills[-1][1] == length:
            break

    for start, stop, word in fills:
        out[start:stop] = word

    # peel the box ends: if the word entering the interior is not anchored
    # in a live state, rewrite the shortest prefix (suffix) that fixes it
    if not boundary_gap and wl <= length:
        for side in ("lo", "hi"):
            for j in range(c_const + 1):
                if side == "lo":
                    st = peel_state(margin_lo + j + wl, "left")
                else:
                    st = peel_state(margin_hi - j - wl, "right")
                if st is not None and st in live:
                    if j > 0:
                        if side == "lo":
                            seg = a1d.extend_from(auto, st, margin_lo + j,
                                                  forward=False)
                            if not np.array_equal(out[:margin_lo + j], seg):
                                end_rewrites += max(
                                    0, int(np.sum(out[margin_lo:margin_lo + j]
                                                  != seg[margin_lo:])))
                                out[:margin_lo + j] = seg
                        else:
                            seg = a1d.extend_from(auto, st,
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
    report = Repair1DReport(
        grid=Grid(grid.origin, out),
        interior=interior,
        changed=changed,
        changed_fraction=float(changed[inside].sum()) / denom,
        boundary_gap=boundary_gap,
        end_rewrites=end_rewrites,
        constants=rc,
    )
    return report


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
        whole = np.tile(cell, [-(-s // n) for s in shape])
        return Grid(tuple(origin), whole[tuple(slice(0, s) for s in shape)])

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
    (lineno, rest), = extra["period"]
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


def local_global_constant(p: PeriodicSft, cap: int = 4, *,
                          budget: int = 2_000_000) -> int:
    """Radius c such that a clear window of radius c pins the orbit locally:
    local admissibility on B_{r+k} forces agreement with some translate on
    B_r, where r = ceil(period/2); at least r so a window spans a period."""
    r = -(-p.period // 2)
    window = core.ball(r, p.dim)
    orbit = p.orbit()
    shape = (2 * r + 1,) * p.dim
    origin = (-r,) * p.dim
    translates = [p.tiling(t, origin, shape).data for t in orbit]

    def oracle(cells: dict) -> bool:
        got = np.empty(shape, dtype=int)
        for off, sym in cells.items():
            got[tuple(o + r for o in off)] = sym
        return any(np.array_equal(got, tr) for tr in translates)

    k = core.reconstruction_phi(p.sft, window, cap, global_oracle=oracle,
                                budget=budget)
    return max(k, r)


@dataclass(frozen=True)
class RepairPeriodicReport:
    grid: Grid  # the repaired interior (thickened box)
    offset: tuple
    c: int
    changed_fraction: float
    vote_counts: dict
    no_votes: bool
    components: OpenComponents


def _top_bit(x: np.ndarray) -> np.ndarray:
    """Index of the highest set bit of each uint8 word, -1 where it is 0."""
    return np.frexp(x.astype(np.float32))[1] - 1


def repair_periodic(p: PeriodicSft, grid: Grid, mask: NoiseMask, *,
                    c: int | None = None) -> RepairPeriodicReport:
    """Majority-vote repair: infer the translate on the largest open
    component of the c-thickened clear cells, then rewrite the whole
    interior as that translate.

    A cell votes for the lexicographically greatest orbit translate the
    grid matches on its c-box.  Each cell's match bits (bit i: the cell
    agrees with translate i) come from one gather in the MATCH table of
    the periodic SFT; OR-ing their complements over the (2c+1) box leaves
    the translates broken somewhere in it, so the consistent translates
    are the complement of that, and the vote is its highest set bit.
    Bits are held in uint8 words of 8 translates, one pass per word.
    Vote ties pick the lexicographically greatest offset, matching the
    maximal-configuration convention.
    """
    if grid.shape != mask.shape or grid.origin != mask.origin:
        raise ValueError("mask box does not match grid box")
    nsym = len(p.sft.alphabet)
    if grid.data.size and (grid.data.min() < 0 or grid.data.max() >= nsym):
        raise ValueError(f"grid symbols must lie in [0, {nsym})")
    if c is None:
        c = local_global_constant(p)
    comps = open_components(mask, c)
    inner = tuple(slice(c, s - c) for s in grid.shape)
    orbit = p.orbit()
    # flat index of (x mod period..., grid[x]) in a MATCH word, per cell x
    res = np.ix_(*((o + np.arange(s)) % p.period
                   for o, s in zip(grid.origin, grid.shape)))
    key = grid.data + sum(r * (nsym * p.period ** k)
                          for k, r in enumerate(res[::-1]))
    for w, table in enumerate(p._match):  # one word per 8 translates
        bits = np.take(table, key)
        top = _top_bit(~core._or_windows(~bits, c))
        vote = top if w == 0 else np.where(top >= 0, top + 8 * w, vote)
    on_comp = comps.largest_mask() & (vote >= 0)
    counts = np.bincount(vote[on_comp], minlength=len(orbit)) if on_comp.any() \
        else np.zeros(len(orbit), dtype=int)
    no_votes = not on_comp.any()
    if no_votes:
        best = len(orbit) - 1
    else:
        top = counts.max()
        best = max(i for i, n in enumerate(counts) if n == top)
    offset = orbit[best]
    interior_origin = comps.origin
    interior_shape = comps.labels.shape
    repaired = p.tiling(offset, interior_origin, interior_shape)
    original = grid.data[inner]
    changed = float(np.mean(original != repaired.data))
    return RepairPeriodicReport(
        grid=repaired, offset=offset, c=c, changed_fraction=changed,
        vote_counts={orbit[i]: int(n) for i, n in enumerate(counts)},
        no_votes=no_votes, components=comps)
