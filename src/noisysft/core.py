"""Finite-box subshifts of finite type with obscured cells.

A subshift of finite type (SFT) is given by a finite alphabet and a finite
set of forbidden patterns.  Configurations here always live on finite boxes
with free boundary: a forbidden pattern only counts if it fits entirely
inside the box.  A noise mask marks cells as obscured; a constraint is
violated only when every cell it touches is clear, so obscured cells are
exempt from all checks.

Symbols are stored as integer indices into the declared alphabet order.
That order is also the universal tie-break order for every deterministic
choice made downstream (gap filling, offset votes, enumeration).
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

Offset = tuple[int, ...]


class SftParseError(ValueError):
    """Malformed SFT description text."""


class CapExceeded(RuntimeError):
    """repair.local_global_constant found no radius up to its cap: the
    local rules do not pin the periodic orbit."""


class BudgetExceeded(RuntimeError):
    """An enumeration hit its node budget before finishing."""


def _as_offset(cell) -> Offset:
    if isinstance(cell, int):
        return (cell,)
    return tuple(int(c) for c in cell)


@dataclass(frozen=True)
class Pattern:
    """A finite partial configuration in canonical form.

    Cells are (offset, symbol) pairs sorted by offset, translated so the
    minimum corner of the bounding box is the origin.  Two patterns that
    differ by a translation are therefore equal.
    """

    cells: tuple[tuple[Offset, int], ...]

    @staticmethod
    def from_cells(cells: Iterable[tuple[Offset, int]]) -> "Pattern":
        items = [(_as_offset(o), int(s)) for o, s in cells]
        if not items:
            return Pattern(cells=())
        dim = len(items[0][0])
        for off, _ in items:
            if len(off) != dim:
                raise ValueError("mixed offset dimensions in pattern")
        mins = tuple(min(off[i] for off, _ in items) for i in range(dim))
        shifted = {}
        for off, sym in items:
            key = tuple(off[i] - mins[i] for i in range(dim))
            if key in shifted and shifted[key] != sym:
                raise ValueError(f"conflicting symbols at offset {key}")
            shifted[key] = sym
        return Pattern(cells=tuple(sorted(shifted.items())))

    @property
    def dim(self) -> int:
        if not self.cells:
            return 0
        return len(self.cells[0][0])

    @property
    def extent(self) -> Offset:
        """Bounding-box side lengths (max offset + 1 per axis)."""
        d = self.dim
        return tuple(max(off[i] for off, _ in self.cells) + 1 for i in range(d))

    @property
    def diameter(self) -> int:
        if not self.cells:
            return 0
        return max(e - 1 for e in self.extent)


@dataclass(frozen=True)
class Sft:
    """An SFT: dimension, ordered alphabet, canonical forbidden patterns."""

    dim: int
    alphabet: tuple[str, ...]
    forbidden: frozenset[Pattern]

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("duplicate alphabet symbols")
        for p in self.forbidden:
            if p.cells and p.dim != self.dim:
                raise ValueError("forbidden pattern dimension mismatch")
            for _, s in p.cells:
                if not 0 <= s < len(self.alphabet):
                    raise ValueError(f"symbol index {s} out of range")

    @property
    def diameter(self) -> int:
        """Largest bounding-box spread of any forbidden pattern."""
        if not self.forbidden:
            return 0
        return max(p.diameter for p in self.forbidden)

    def symbol_index(self, token: str) -> int:
        try:
            return self.alphabet.index(token)
        except ValueError:
            raise KeyError(f"unknown symbol {token!r}") from None


@dataclass(frozen=True)
class _Box:
    """Values on a finite box anchored at an absolute origin; `data` is a
    read-only view cast to the subclass's `_dtype`, not the caller's array."""

    origin: Offset
    data: np.ndarray
    _dtype = None

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=self._dtype).view()
        if arr.ndim != len(self.origin):
            raise ValueError("origin dimension does not match data")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dim(self) -> int:
        return self.data.ndim

    @property
    def shape(self) -> Offset:
        return tuple(self.data.shape)


class Grid(_Box):
    """Symbol values on a finite box, anchored at an absolute origin."""


class NoiseMask(_Box):
    """Obscured-cell indicator on a finite box; any nonzero value is True."""

    _dtype = bool


_DIRECTIVE_RE = re.compile(r"^(\w+)\s*(.*)$")
_FORBID_CELL_RE = re.compile(r"\(([^)]*)\)\s*=\s*(\S+)")


def _directives(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DIRECTIVE_RE.match(line)
        if not m:
            raise SftParseError(f"line {lineno}: cannot parse {raw!r}")
        yield lineno, m.group(1), m.group(2).strip()


def parse_sft(text: str, *, extra: dict | None = None) -> Sft:
    """Parse the plain-text SFT format.

    Directives, one per line, comments starting with '#':

        dim <d>
        alphabet <sym> <sym> ...
        forbid (<c1,...,cd>)=<sym> (<c1,...,cd>)=<sym> ...

    Each ``forbid`` line describes one forbidden pattern.  Unknown
    directives are an error unless ``extra`` is given, in which case they
    are collected there as ``{key: [(lineno, rest), ...]}`` for callers
    that extend the format.
    """
    dim: int | None = None
    alphabet: tuple[str, ...] | None = None
    forbid_lines: list[tuple[int, str]] = []
    for lineno, key, rest in _directives(text):
        if key == "dim":
            if dim is not None:
                raise SftParseError(f"line {lineno}: duplicate dim")
            try:
                dim = int(rest)
            except ValueError:
                raise SftParseError(f"line {lineno}: bad dimension {rest!r}") from None
            if dim < 1:
                raise SftParseError(f"line {lineno}: dimension must be positive")
        elif key == "alphabet":
            if alphabet is not None:
                raise SftParseError(f"line {lineno}: duplicate alphabet")
            alphabet = tuple(rest.split())
            if not alphabet:
                raise SftParseError(f"line {lineno}: empty alphabet")
        elif key == "forbid":
            forbid_lines.append((lineno, rest))
        elif extra is not None:
            extra.setdefault(key, []).append((lineno, rest))
        else:
            raise SftParseError(f"line {lineno}: unknown directive {key!r}")
    if dim is None:
        raise SftParseError("missing dim directive")
    if alphabet is None:
        raise SftParseError("missing alphabet directive")

    patterns = []
    for lineno, rest in forbid_lines:
        cells = []
        for m in _FORBID_CELL_RE.finditer(rest):
            coords = m.group(1).split(",")
            if len(coords) != dim:
                raise SftParseError(
                    f"line {lineno}: offset ({m.group(1)}) is not {dim}-dimensional")
            try:
                off = tuple(int(c) for c in coords)
            except ValueError:
                raise SftParseError(f"line {lineno}: bad offset ({m.group(1)})") from None
            tok = m.group(2)
            if tok not in alphabet:
                raise SftParseError(f"line {lineno}: unknown symbol {tok!r}")
            cells.append((off, alphabet.index(tok)))
        if not cells:
            what = (f"malformed forbid cells {rest!r}, expected "
                    "(<c1,...,cd>)=<sym> ..." if rest else "empty forbid")
            raise SftParseError(f"line {lineno}: {what}")
        if len(re.sub(r"\s", "", rest)) != len(re.sub(r"\s", "", "".join(
                m.group(0) for m in _FORBID_CELL_RE.finditer(rest)))):
            raise SftParseError(f"line {lineno}: trailing junk in forbid")
        patterns.append(Pattern.from_cells(cells))
    return Sft(dim=dim, alphabet=alphabet, forbidden=frozenset(patterns))


def word_sft(alphabet: Sequence[str], words: Iterable[str]) -> Sft:
    """Convenience constructor for 1D SFTs with forbidden words.

    Each word is a string of alphabet tokens (single characters) or an
    iterable of tokens.
    """
    alpha = tuple(alphabet)
    pats = []
    for w in words:
        toks = list(w)
        cells = [((i,), alpha.index(t)) for i, t in enumerate(toks)]
        pats.append(Pattern.from_cells(cells))
    return Sft(dim=1, alphabet=alpha, forbidden=frozenset(pats))


def _check_box(grid: Grid, mask: NoiseMask | None = None,
               nsym: int | None = None, what: str = "grid symbols") -> None:
    """ValueError unless the mask (None: no mask) lies on the grid's box
    and, given nsym, every symbol is an integer in [0, nsym)."""
    if mask is not None and (mask.shape != grid.shape
                             or tuple(mask.origin) != tuple(grid.origin)):
        raise ValueError("mask box does not match grid box")
    data = grid.data
    kind = data.dtype.kind  # only a signed dtype needs its minimum
    if nsym is not None and data.size and not (
            kind in "biu" and (kind != "i" or data.min() >= 0)
            and data.max() < nsym):
        raise ValueError(f"{what} must lie in [0, {nsym}) as integers")


def _check_repair_box(grid: Grid, mask: NoiseMask, nsym=None) -> None:
    """`_check_box` for a repair kernel, which needs a mask."""
    if mask is None:
        raise ValueError("repair needs a NoiseMask, got mask=None")
    _check_box(grid, mask, nsym)


def pattern_hits(grid: Grid, pattern: Pattern,
                 clear: np.ndarray | None = None) -> np.ndarray:
    """Boolean array over anchor positions where the pattern occurs.

    Anchor positions are box-relative; only translates fully inside the
    box are considered.  With a clear array, occurrences involving any
    obscured cell do not count.
    """
    shape = grid.shape
    ext = pattern.extent
    out_shape = tuple(shape[i] - ext[i] + 1 for i in range(grid.dim))
    if any(s <= 0 for s in out_shape):
        return np.zeros(tuple(max(s, 0) for s in out_shape), dtype=bool)
    hit = np.ones(out_shape, dtype=bool)
    for off, sym in pattern.cells:
        sl = tuple(slice(off[i], off[i] + out_shape[i]) for i in range(grid.dim))
        block = grid.data[sl] == sym
        if clear is not None:
            block = block & clear[sl]
        hit &= block
    return hit


def is_locally_admissible(sft: Sft, grid: Grid, mask: NoiseMask | None = None) -> bool:
    """True when no forbidden pattern occurs entirely on clear cells."""
    if grid.dim != sft.dim:
        raise ValueError("grid dimension does not match SFT")
    _check_box(grid, mask, len(sft.alphabet))
    clear = None if mask is None else ~mask.data
    for p in sft.forbidden:
        if not p.cells:
            return False
        if pattern_hits(grid, p, clear).any():
            return False
    return True


def _sft_shapes(sft: Sft) -> list:
    """The forbidden patterns as `_solve` shapes, one bad symbol a cell."""
    return [tuple((off, 1 << s) for off, s in p.cells) for p in sft.forbidden]


def _solve(cells, nsym: int, shapes, pairs=None, fixed=None,
           budget: float = float("inf")):
    """Yield, in lexicographic order, every assignment of symbols in
    [0, nsym) to the distinct `cells` that breaks no rule, as a tuple in
    cell order.  The free cells are walked in the order given, each
    trying the symbols (bits of a mask) its assigned neighbours leave:

    - a pair table pairs[d][u] is the mask allowed at p when p + d holds
      u, or is unassigned for u = nsym;
    - a shape, a tuple of (offset, bad mask), is broken where each of its
      cells holds a bad symbol.  It is placed with its first cell on each
      cell, where it lies in the set; an empty shape breaks everywhere.

    `fixed` pins cells first; pins that break a rule yield nothing.  The
    budget counts every symbol tried at a visited cell, pruned or not;
    passing it raises BudgetExceeded.
    """
    if not all(shapes):
        return
    pairs, fixed = pairs or {}, fixed or {}
    # cells as integers in a balanced base too wide for any p + d of a
    # rule to wrap, so a neighbour is one addition away
    offs = [*pairs, *(off for shape in shapes for off, _ in shape)]
    base = 2 * (max(map(abs, itertools.chain(*cells)), default=0)
                + 2 * max(map(abs, itertools.chain(*offs)), default=0)) + 1
    dim = max(map(len, itertools.chain(cells, offs)), default=0)
    weights = [base ** (dim - 1 - i) for i in range(dim)]

    def key(p):
        return sum(map(operator.mul, p, weights))

    index = {key(p): i for i, p in enumerate(cells)}
    steps = [(key(d), table) for d, table in pairs.items()]
    placements = [[(key(off) - key(shape[0][0]), bad) for off, bad in shape]
                  for shape in shapes]
    # per cell: (neighbour, pair table) inside the set, and (the other
    # cells with their bad masks, its own bad mask) per shape holding it
    near, held = [[] for _ in cells], [[] for _ in cells]
    for k, p in enumerate(index):
        near[k] = [(j, table) for d, table in steps
                   if (j := index.get(p + d)) is not None]
        for shape in placements:
            placed = [(index.get(p + d), bad) for d, bad in shape]
            if all(j is not None for j, _ in placed):
                for j, bad in placed:
                    held[j].append(([x for x in placed if x[0] != j], bad))

    def allowed(k):
        m = (1 << nsym) - 1
        for j, table in near[k]:
            m &= table[val[j]]
        for others, bad in held[k]:
            for j, b in others:
                if not b >> val[j] & 1:
                    break
            else:  # every other cell of the shape is bad
                m &= ~bad
        return m

    pinned = {index[key(p)]: s for p, s in fixed.items()}
    val = [pinned.get(k, nsym) for k in range(len(cells))]
    if not all(allowed(k) >> s & 1 for k, s in pinned.items()):
        return
    todo = [k for k in range(len(cells)) if k not in pinned]
    nodes = 0

    def rec(i):
        nonlocal nodes
        if i == len(todo):
            yield tuple(val)
            return
        k, m, tried = todo[i], allowed(todo[i]), 0
        while True:
            # count the next allowed symbol and the pruned ones below it,
            # or the pruned ones left when no allowed symbol is
            s = (m & -m).bit_length() - 1 if m else nsym - 1
            nodes += s + 1 - tried
            if nodes > budget:
                raise BudgetExceeded(
                    f"admissible enumeration exceeded {budget} nodes")
            if not m:
                break
            tried, val[k] = s + 1, s
            yield from rec(i + 1)
            m &= m - 1
        val[k] = nsym

    yield from rec(0)


def thicken(mask: NoiseMask, n: int) -> NoiseMask:
    """The n-thickening: a cell is obscured when any cell within
    L-infinity distance n of it is.  Free boundary, so the box shrinks by
    n on every side; n = 0 is the identity."""
    if n < 0:
        raise ValueError("thickening radius must be nonnegative")
    if n == 0:
        return mask
    if any(s <= 2 * n for s in mask.shape):
        raise ValueError("box too small to thicken")
    return NoiseMask(tuple(o + n for o in mask.origin),
                     _windows(mask.data, n))


def _windows(arr: np.ndarray, n: int, op=np.bitwise_or,
             out: np.ndarray | None = None) -> np.ndarray:
    """The bitwise `op`, OR or AND, of `arr` over every (2n+1)-cube window
    (a dilation or an erosion), a view of `out` (C-ordered, arr's shape)
    that drops 2n cells at each axis's far end.  Per axis: op over windows
    of doubling width k, then over two overlapping k-windows, each step one
    in-place pass over the flat buffer shifted by k lines of the axis."""
    w = 2 * n + 1
    out = np.empty(arr.shape, dtype=arr.dtype) if out is None else out
    src, flat = np.ascontiguousarray(arr).reshape(-1), out.reshape(-1)
    top = 1 << (w.bit_length() - 1)
    for stride in [s // out.itemsize for s in out.strides]:
        for k in [1 << i for i in range(w.bit_length() - 1)] + [w - top]:
            op(src[:src.size - k * stride], src[k * stride:],
               out=flat[:flat.size - k * stride])
            src = flat
    return out[tuple(slice(s - 2 * n) for s in arr.shape)]


_BAND = 1 << 15


def _gather(table: np.ndarray, key: np.ndarray) -> np.ndarray:
    """table[key] for a 1D table and an integer key of any shape, by np.take
    over bands of _BAND cells: fancy indexing casts a narrow key to intp in
    slow buffered chunks, np.take casts a whole band at once."""
    out = np.empty(key.shape, dtype=table.dtype)
    flat, at = out.reshape(-1), key.reshape(-1)
    for i in range(0, at.size, _BAND):
        np.take(table, at[i:i + _BAND], out=flat[i:i + _BAND])
    return out


GOLDEN_MEAN = word_sft("01", ["11"])
ALTERNATING = word_sft("01", ["00", "11"])
