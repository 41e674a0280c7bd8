"""The enhanced Robinson tileset and its scale-N repair.

A tile is a corner parity (bumpy or dented) plus four side labels, one per
side in U, R, D, L order.  Each label carries a black-line state (no line,
head pointing out, head pointing in) and a signal colour (blue or red).
Two tiles match across an edge when the colours agree and the black states
are none/none or out/in.  Three further local rules hold:

  * square rule: every 2x2 block contains exactly one bumpy tile;
  * lattice rule: two bumpy crosses within Chebyshev distance 2 must agree
    with a single 4-periodic orientation lattice;
  * centre rule: a cell whose four diagonal neighbours are inward-pointing
    bumpy crosses must itself be a dented cross.

The lattice and centre rules encode the geometry of the corner bumps,
which the side labels alone cannot see.  All constraints span at most a
3x3 window.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Grid, NoiseMask
from .noise import derive_seed
from .percolation import open_components

U, R, D, L = 0, 1, 2, 3
NONE, OUT, IN = 0, 1, 2
BLUE, RED = 0, 1
DENTED, BUMPY = 0, 1

ORIENT_NAMES = ("SE", "NE", "NW", "SW")
_ORIENT_BY_NAME = {n.lower(): i for i, n in enumerate(ORIENT_NAMES)}

# orientation of a bumpy cross -> its (row, col) class mod 4 on the lattice
CROSS_CLASS = {0: (0, 0), 1: (2, 0), 2: (2, 2), 3: (0, 2)}


def rot90_tile(tile):
    """Rotate 90 degrees counterclockwise: side s picks up the old cw(s)."""
    parity, s = tile
    return (parity, (s[R], s[D], s[L], s[U]))


def reflect_tile(tile):
    parity, s = tile
    return (parity, (s[U], s[L], s[D], s[R]))


def colour_swap(tile):
    parity, s = tile
    return (parity, tuple((b, 1 - c) for b, c in s))


# Principal cross, SE orientation: black arms point down and right, the
# right arm and left signal are blue, the down arm and up signal red.
_CROSS_SIDES = ((NONE, RED), (OUT, BLUE), (OUT, RED), (NONE, BLUE))

# Ten base tiles; crosses close under rotation only, arm pieces under the
# full dihedral group.
_BASES = (
    ("cross-bumpy", "rot", (BUMPY, _CROSS_SIDES)),
    ("cross-dented", "rot", (DENTED, _CROSS_SIDES)),
    ("thrucoll-blue", "d4",
     (DENTED, ((IN, BLUE), (OUT, BLUE), (IN, RED), (IN, BLUE)))),
    ("thrucoll-red", "d4",
     (DENTED, ((IN, BLUE), (OUT, RED), (IN, RED), (IN, RED)))),
    ("collsig-red", "d4",
     (DENTED, ((NONE, RED), (IN, RED), (NONE, RED), (IN, BLUE)))),
    ("collsig-blue", "d4",
     (DENTED, ((NONE, BLUE), (IN, RED), (NONE, BLUE), (IN, BLUE)))),
    ("thrusig-blue", "d4",
     (DENTED, ((NONE, BLUE), (OUT, BLUE), (NONE, RED), (IN, BLUE)))),
    ("thrusig-red", "d4",
     (DENTED, ((NONE, BLUE), (OUT, RED), (NONE, RED), (IN, RED)))),
    ("sigsig-red", "d4",
     (DENTED, ((NONE, RED), (NONE, BLUE), (NONE, RED), (NONE, RED)))),
    ("sigsig-blue", "d4",
     (DENTED, ((NONE, BLUE), (NONE, BLUE), (NONE, BLUE), (NONE, RED)))),
)


def _generate():
    """The closure of the base tiles under rotation (and reflection for
    "d4" bases), sorted: a tile's id is its position."""
    found = set()
    for _, mode, base in _BASES:
        frontier = [base]
        while frontier:
            tile = frontier.pop()
            if tile in found:
                continue
            found.add(tile)
            frontier.append(rot90_tile(tile))
            if mode == "d4":
                frontier.append(reflect_tile(tile))
    return tuple(sorted(found))


TILES = _generate()
TILE_INDEX = {t: i for i, t in enumerate(TILES)}
NTILES = len(TILES)


def classic_projection():
    """Canonical representatives of the colour-swap quotient."""
    return sorted({min(t, colour_swap(t)) for t in TILES})


# ---------------------------------------------------------------------------
# lookup tables

PARITY = np.array([t[0] for t in TILES], dtype=np.int8)
SIDE_BLACK = np.array([[b for b, _ in t[1]] for t in TILES], dtype=np.int8)
SIDE_COLOUR = np.array([[c for _, c in t[1]] for t in TILES], dtype=np.int8)
ROT = np.array([TILE_INDEX[rot90_tile(t)] for t in TILES], dtype=np.int8)

# cross ids and lattice classes
_CROSS_ID = {}
for _o in range(4):
    _t = (BUMPY, _CROSS_SIDES)
    _d = (DENTED, _CROSS_SIDES)
    for _ in range(_o):
        _t, _d = rot90_tile(_t), rot90_tile(_d)
    _CROSS_ID[(BUMPY, _o)] = TILE_INDEX[_t]
    _CROSS_ID[(DENTED, _o)] = TILE_INDEX[_d]

BUMPY_ORIENT = np.full(NTILES, -1, dtype=np.int8)
CLASS_R = np.full(NTILES, -1, dtype=np.int8)
CLASS_C = np.full(NTILES, -1, dtype=np.int8)
IS_DENTED_CROSS = np.zeros(NTILES, dtype=bool)
for _o in range(4):
    _i = _CROSS_ID[(BUMPY, _o)]
    BUMPY_ORIENT[_i] = _o
    CLASS_R[_i], CLASS_C[_i] = CROSS_CLASS[_o]
    IS_DENTED_CROSS[_CROSS_ID[(DENTED, _o)]] = True


def make_cross(orient, parity=BUMPY) -> int:
    """Tile id of a cross; orient is 0..3 or one of se/ne/nw/sw."""
    if isinstance(orient, str):
        orient = _ORIENT_BY_NAME[orient.lower()]
    return _CROSS_ID[(parity, orient % 4)]


# side codes pack (black, colour) into 0..5 for the strip-tile lookup
_SIDE_CODE = (SIDE_BLACK * 2 + SIDE_COLOUR).astype(np.int8)
_FLIP_CODE = np.array([0, 1, 4, 5, 2, 3], dtype=np.int8)  # out <-> in
_DENTED_BY_SIDES = np.full((6, 6, 6, 6), -1, dtype=np.int8)
for _i, _t in enumerate(TILES):
    if _t[0] == DENTED:
        _cu, _cr, _cd, _cl = (_SIDE_CODE[_i, s] for s in (U, R, D, L))
        _DENTED_BY_SIDES[_cu, _cr, _cd, _cl] = _i


# ---------------------------------------------------------------------------
# macro-tile synthesis

def _arm_dirs(orient):
    return {0: (D, R), 1: (R, U), 2: (U, L), 3: (L, D)}[orient]


@lru_cache(maxsize=None)
def build_macro(N: int, orient=0) -> np.ndarray:
    """The N-macro-tile as a (2^N-1)-sided id array.

    Four inward-pointing (N-1)-macros in the corners, a dented cross in the
    requested orientation at the centre, and four strips whose tiles are
    forced by the cross colours and the plugs of the facing quadrants.
    """
    if isinstance(orient, str):
        orient = _ORIENT_BY_NAME[orient.lower()]
    orient %= 4
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > 12:
        raise ValueError("macro side 2^N-1 exceeds the memory budget")
    if N == 1:
        g = np.array([[make_cross(orient, BUMPY)]], dtype=np.int8)
        g.setflags(write=False)
        return g
    size = 2 ** N - 1
    q = 2 ** (N - 1) - 1
    g = np.full((size, size), -1, dtype=np.int8)
    for (qr, qc), qo in (((0, 0), 0), ((0, 1), 3), ((1, 0), 1), ((1, 1), 2)):
        g[qr * (q + 1):qr * (q + 1) + q,
          qc * (q + 1):qc * (q + 1) + q] = build_macro(N - 1, qo)
    c0 = q
    centre = make_cross(orient, DENTED)
    g[c0, c0] = centre
    principal = _arm_dirs(orient)
    for direction in (U, R, D, L):
        colour = int(SIDE_COLOUR[centre, direction])
        if direction in principal:
            toward_code = IN * 2 + colour
            away_code = OUT * 2 + colour
        else:
            toward_code = away_code = NONE * 2 + colour
        if direction in (L, R):
            cols = np.arange(c0 - 1, -1, -1) if direction == L \
                else np.arange(c0 + 1, size)
            cu = _FLIP_CODE[_SIDE_CODE[g[c0 - 1, cols], D]]
            cd = _FLIP_CODE[_SIDE_CODE[g[c0 + 1, cols], U]]
            if direction == L:
                ids = _DENTED_BY_SIDES[cu, toward_code, cd, away_code]
            else:
                ids = _DENTED_BY_SIDES[cu, away_code, cd, toward_code]
            g[c0, cols] = ids
        else:
            rows = np.arange(c0 - 1, -1, -1) if direction == U \
                else np.arange(c0 + 1, size)
            cl = _FLIP_CODE[_SIDE_CODE[g[rows, c0 - 1], R]]
            cr = _FLIP_CODE[_SIDE_CODE[g[rows, c0 + 1], L]]
            if direction == U:
                ids = _DENTED_BY_SIDES[away_code, cr, toward_code, cl]
            else:
                ids = _DENTED_BY_SIDES[toward_code, cr, away_code, cl]
            g[rows, c0] = ids
    if (g < 0).any():
        raise AssertionError("macro assembly hit a missing tile")
    g.setflags(write=False)
    return g


def rotate_grid(grid: np.ndarray) -> np.ndarray:
    """Rotate a tile-id array 90 degrees counterclockwise."""
    return ROT[np.rot90(np.asarray(grid), 1)]


# ---------------------------------------------------------------------------
# edge words

@dataclass(frozen=True)
class EdgeWords:
    scale: int
    l: str  # left edge colours, bottom to top; blue=0, red=1
    t: str  # top edge colours, left to right


def edge_words(N: int) -> EdgeWords:
    """Recurrence: l1=0, t1=1; l_{N+1} = t_N 0 l_N; t_{N+1} = t_N 1 l_N."""
    lw, tw = "0", "1"
    for _ in range(N - 1):
        lw, tw = tw + "0" + lw, tw + "1" + lw
    return EdgeWords(N, lw, tw)


def read_edge_words(grid: np.ndarray) -> EdgeWords:
    """Read the words off a macro in the default orientation."""
    g = np.asarray(grid)
    size = g.shape[0]
    scale = int(size + 1).bit_length() - 1
    lw = "".join(str(int(c)) for c in SIDE_COLOUR[g[::-1, 0], L])
    tw = "".join(str(int(c)) for c in SIDE_COLOUR[g[0, :], U])
    return EdgeWords(scale, lw, tw)


# ---------------------------------------------------------------------------
# admissibility

# Every pair rule is one table ok[a, b] over tile a at p and tile b at p + d.
_BLACK_OK = np.zeros((3, 3), dtype=bool)
_BLACK_OK[NONE, NONE] = _BLACK_OK[OUT, IN] = _BLACK_OK[IN, OUT] = True


def _edge_ok(side, facing):
    """Tile a's `side` meets tile b's `facing` side: the colours agree and
    the black states are none/none or out/in."""
    return ((SIDE_COLOUR[:, side, None] == SIDE_COLOUR[:, facing])
            & _BLACK_OK[SIDE_BLACK[:, side, None], SIDE_BLACK[:, facing]])


H_OK = _edge_ok(R, L)  # d = (0, 1)
V_OK = _edge_ok(D, U)  # d = (1, 0)

# ordered displacements covering all unordered pairs within Chebyshev
# distance 2 of each other
_LATTICE_STEPS = tuple((dr, dc) for dr in range(3) for dc in range(-2, 3)
                       if (dr, dc) > (0, 0))


def _lattice_ok(dr, dc):
    """Two bumpy crosses at p and p + (dr, dc) sit on one 4-periodic
    orientation lattice: their classes differ by (dr, dc) mod 4."""
    cross = (CLASS_R >= 0)[:, None] & (CLASS_R >= 0)
    return ~cross | (((CLASS_R[:, None] + dr - CLASS_R) % 4 == 0)
                     & ((CLASS_C[:, None] + dc - CLASS_C) % 4 == 0))


LATTICE_OK = {d: _lattice_ok(*d) for d in _LATTICE_STEPS}

# inward bumpy orientations on the four diagonals of a centre cell
_INWARD = (((-1, -1), 0), ((-1, 1), 3), ((1, -1), 1), ((1, 1), 2))
# the centre rule as a shape of (offset, bad tiles), broken where every
# cell of the shape holds a bad tile
_CENTRE = (((0, 0), ~IS_DENTED_CROSS),) + tuple(
    (d, BUMPY_ORIENT == o) for d, o in _INWARD)
# `violations` and `solve_window` both read these tables
for _a in (H_OK, V_OK, *LATTICE_OK.values(), *(m for _, m in _CENTRE)):
    _a.setflags(write=False)


def _as_ids(grid):
    """Tile ids and origin of a Grid or a plain array (origin 0)."""
    if isinstance(grid, Grid):
        g, origin = np.asarray(grid.data), grid.origin
    else:
        g = np.asarray(grid)
        origin = (0,) * g.ndim
    if g.dtype.kind not in "iu" or (
            g.size and (g.min() < 0 or g.max() >= NTILES)):
        raise ValueError(f"tile ids must lie in [0, {NTILES}) as integers")
    return g, origin


def _as_obscured(mask, shape):
    """Obscured cells of a NoiseMask or bool array (None: none), no copy."""
    if mask is None:
        return np.zeros(shape, dtype=bool)
    data = mask.data if isinstance(mask, NoiseMask) else np.asarray(mask, bool)
    if data.shape != shape:
        raise ValueError("mask box does not match grid box")
    return data


def _tile_box(grid, mask):
    """Tile ids, origin and obscured cells; a NoiseMask must share the box."""
    g, origin = _as_ids(grid)
    if g.ndim != 2:
        raise ValueError("tile grids are 2D")
    if isinstance(mask, NoiseMask) and tuple(mask.origin) != tuple(origin):
        raise ValueError("mask box does not match grid box")
    return g, origin, _as_obscured(mask, g.shape)


def violations(grid, mask=None, limit: int | None = None) -> list:
    """All broken constraints whose cells are entirely clear.

    Returns at most `limit` (rule, cells) pairs with absolute cell
    coordinates, in rule order edge-h, edge-v, square, lattice by step,
    centre, and row-major within a rule.
    """
    g, origin, obscured = _tile_box(grid, mask)
    clear = ~obscured
    ids = g.astype(np.uint16)
    keys, bump = ids * NTILES, np.take(PARITY, ids)

    def pair(ok):
        bad = ~ok.ravel()
        return lambda a, b: np.take(bad, keys[a] + ids[b])

    centre = _CENTRE[1:] + _CENTRE[:1]  # cells listed inward crosses first
    rules = [("edge-h", ((0, 0), (0, 1)), pair(H_OK)),
             ("edge-v", ((0, 0), (1, 0)), pair(V_OK)),
             ("square", ((0, 0), (0, 1), (1, 0), (1, 1)),
              lambda *v: sum(bump[x] for x in v) != 1)]
    rules += [("lattice", ((0, 0), d), pair(ok))
              for d, ok in LATTICE_OK.items()]
    rules.append(("centre", [d for d, _ in centre],
                  lambda *v: np.logical_and.reduce(
                      [np.take(m, ids[x]) for (_, m), x in zip(centre, v)])))
    out = []
    for rule, offsets, broken in rules:
        # views[k] holds p + offsets[k] for the anchors p that fit the box
        lo = [-min(d[i] for d in offsets) for i in (0, 1)]
        hi = [max(lo[i], g.shape[i] - max(d[i] for d in offsets))
              for i in (0, 1)]
        views = [(slice(lo[0] + dr, hi[0] + dr),
                  slice(lo[1] + dc, hi[1] + dc)) for dr, dc in offsets]
        bad = broken(*views)
        if mask is not None:
            for v in views:
                bad &= clear[v]
        room = None if limit is None else max(limit - len(out), 0)
        rows, cols = np.divmod(np.flatnonzero(bad)[:room], bad.shape[1])
        rows += origin[0] + lo[0]
        cols += origin[1] + lo[1]
        out.extend((rule, cells) for cells in zip(*(
            zip((rows + dr).tolist(), (cols + dc).tolist())
            for dr, dc in offsets)))
        if limit is not None and len(out) >= limit:
            break
    return out


def is_admissible(grid, mask=None) -> bool:
    return not violations(grid, mask, limit=1)


# ---------------------------------------------------------------------------
# text and svg formats

def write_text(grid) -> str:
    g, _ = _as_ids(grid)
    h, w = g.shape
    lines = [f"robinson-v1 {w} {h}"]
    for row in g:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


_SVG_COLOURS = {BLUE: "#3a6ea5", RED: "#b5413a"}


def render_svg(grid) -> str:
    """Draw a tile grid: parity shading, coloured side marks, black heads."""
    g, _ = _as_ids(grid)
    h, w = g.shape
    if h * w > 256 * 256:
        raise ValueError("grid too large to render")
    cell = 18
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w * cell}" height="{h * cell}" '
        f'viewBox="0 0 {w * cell} {h * cell}">',
        f'<rect width="{w * cell}" height="{h * cell}" fill="#f4f1ea"/>',
    ]
    third = cell / 3.0
    for r in range(h):
        for c in range(w):
            t = int(g[r, c])
            x, y = c * cell, r * cell
            fill = "#d9d2c4" if PARITY[t] == BUMPY else "#f4f1ea"
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" '
                         f'height="{cell}" fill="{fill}" '
                         f'stroke="#999" stroke-width="0.5"/>')
            cx, cy = x + cell / 2.0, y + cell / 2.0
            ends = {U: (cx, y), R: (x + cell, cy),
                    D: (cx, y + cell), L: (x, cy)}
            for side in (U, R, D, L):
                black = int(SIDE_BLACK[t, side])
                col = _SVG_COLOURS[int(SIDE_COLOUR[t, side])]
                ex, ey = ends[side]
                mx = cx + (ex - cx) * (1 if black != NONE else 0.55)
                my = cy + (ey - cy) * (1 if black != NONE else 0.55)
                width = 2.2 if black != NONE else 1.0
                dash = "" if black != NONE else ' stroke-dasharray="2,2"'
                parts.append(f'<line x1="{cx:.1f}" y1="{cy:.1f}" '
                             f'x2="{mx:.1f}" y2="{my:.1f}" stroke="{col}" '
                             f'stroke-width="{width}"{dash}/>')
                if black == OUT:
                    parts.append(f'<circle cx="{ex:.1f}" cy="{ey:.1f}" '
                                 f'r="{third / 2:.1f}" fill="{col}"/>')
                elif black == IN:
                    hx = cx + (ex - cx) * 0.66
                    hy = cy + (ey - cy) * 0.66
                    parts.append(f'<circle cx="{hx:.1f}" cy="{hy:.1f}" '
                                 f'r="{third / 2:.1f}" fill="none" '
                                 f'stroke="{col}" stroke-width="1.2"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# exhaustive window solver (small scales only)

def _bits(flags) -> int:
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(),
                          "little")


_FULL = (1 << NTILES) - 1


@lru_cache(maxsize=None)
def _solver_tables():
    """Tile masks for `solve_window`, built on its first call from the
    tables that `violations` reads.

    pair[(dr, dc)][u] has bit t set when tile t at p and tile u at
    p + (dr, dc) break neither H_OK/V_OK nor LATTICE_OK (transposed for
    a negative step); entry NTILES stands for an unassigned neighbour and
    allows every tile.  The square and centre (_CENTRE) rules are shapes
    of (offset, bad tiles), broken when every cell of the shape holds a
    bad tile.  Two bumpy tiles in a block already break the lattice rule,
    as every offset inside a block has an odd component, so the square
    shape is four dented tiles.
    """
    edge = {(0, 1): H_OK, (1, 0): V_OK}
    pair = {}
    for (dr, dc), lattice in LATTICE_OK.items():
        ok = lattice & edge.get((dr, dc), True)
        pair[(dr, dc)] = tuple(_bits(col) for col in ok.T) + (_FULL,)
        pair[(-dr, -dc)] = tuple(_bits(row) for row in ok) + (_FULL,)
    dented = _bits(PARITY == DENTED)
    square = tuple(((dr, dc), dented) for dr in (0, 1) for dc in (0, 1))
    centre = tuple((d, _bits(bad)) for d, bad in _CENTRE)
    return pair, (square, centre)


def solve_window(cells, fixed, limit: int | None = None) -> list[dict]:
    """All assignments of tile ids to `cells` satisfying every rule.

    `cells` is an iterable of (r, c); `fixed` pins some of them, and a pin
    outside `cells` or not a tile id is refused.  Edge, square, lattice
    and centre constraints are generated for every pair and block inside
    the cell set.  The free cells are assigned in order, each to the
    tiles, in id order, that the rule masks of its assigned neighbours
    leave, so solutions come in lexicographic order.  Exponential: meant
    for windows of a few dozen cells.
    """
    cells = list(dict.fromkeys(cells))
    index = {p: k for k, p in enumerate(cells)}
    for p, t in fixed.items():
        if p not in index:
            raise ValueError(f"pin at {p} lies outside the cell set")
        if not isinstance(t, (int, np.integer)) or not 0 <= t < NTILES:
            raise ValueError(f"pin at {p} is {t!r}, not a tile id in "
                             f"[0, {NTILES})")
    pair, shapes = _solver_tables()
    # per cell: (neighbour, pair table) for the cells within distance 2,
    # and (the other cells with their bad masks, its own bad mask) for
    # each square or centre shape inside the cell set that holds it
    near = [[] for _ in cells]
    patterns = [[] for _ in cells]
    for k, (r, c) in enumerate(cells):
        for (dr, dc), table in pair.items():
            j = index.get((r + dr, c + dc))
            if j is not None:
                near[k].append((j, table))
        for shape in shapes:
            pattern = [(index.get((r + dr, c + dc)), bad)
                       for (dr, dc), bad in shape]
            if all(j is not None for j, _ in pattern):
                for j, bad in pattern:
                    patterns[j].append(
                        ([x for x in pattern if x[0] != j], bad))

    val = [NTILES] * len(cells)  # NTILES marks an unassigned cell
    for p, t in fixed.items():
        val[index[p]] = int(t)

    def allowed(k):
        m = _FULL
        for j, table in near[k]:
            m &= table[val[j]]
        for others, bad in patterns[k]:
            if all(b >> val[j] & 1 for j, b in others):
                m &= ~bad
        return m

    for p, t in fixed.items():
        val[index[p]] = NTILES
        good = allowed(index[p]) >> int(t) & 1
        val[index[p]] = int(t)
        if not good:
            return []

    todo = [index[p] for p in cells if p not in fixed]
    sols = []

    def rec(i):
        if limit is not None and len(sols) >= limit:
            return
        if i == len(todo):
            sols.append({**fixed, **{cells[k]: val[k] for k in todo}})
            return
        k, m = todo[i], allowed(todo[i])
        while m:
            val[k] = (m & -m).bit_length() - 1
            rec(i + 1)
            m &= m - 1
        val[k] = NTILES

    rec(0)
    return sols


def _macro_as_fixed(N, orient, dr=0, dc=0):
    g = build_macro(N, orient)
    return {(r + dr, c + dc): int(g[r, c])
            for r in range(g.shape[0]) for c in range(g.shape[1])}


# ---------------------------------------------------------------------------
# peeling

def cross_lattice_defects(grid, t4, origin=(0, 0)) -> list:
    """Crosses that sit off the macro-grid lattice anchored at t4 (mod 4).

    Bumpy crosses must satisfy p = t + class mod 4.  Dented crosses are
    block centres of some order k >= 2, so q = p - t + (1,1) must have
    both components even and q mod 4 in {(0,0), (2,2)}; only the part of
    the congruence visible mod 4 is checked, which never gives a false
    positive for larger k.  A Grid carries its own origin; `origin`
    places a plain array.
    """
    g, box = _as_ids(grid)
    origin = box if isinstance(grid, Grid) else origin
    out = []
    for r in range(g.shape[0]):
        for c in range(g.shape[1]):
            t = int(g[r, c])
            p = (origin[0] + r, origin[1] + c)
            if BUMPY_ORIENT[t] >= 0:
                if (p[0] - t4[0] - int(CLASS_R[t])) % 4 or \
                        (p[1] - t4[1] - int(CLASS_C[t])) % 4:
                    out.append((p, "bumpy"))
            elif IS_DENTED_CROSS[t]:
                qr = (p[0] - t4[0] + 1) % 4
                qc = (p[1] - t4[1] + 1) % 4
                if qr % 2 or qc % 2 or qr != qc:
                    out.append((p, "dented"))
    return out


# A locally admissible 9-square centred on a 2-macro whose 2-peel core
# contains an off-lattice dented cross at (2,4), kept as the standing
# optimality witness.  The checks in `verify_peel` (and
# test_witness_is_certified) certify it: admissible, centred, defective
# after 2 peels and clean after 3.
_PEEL_WITNESS_9 = np.array([
    [15, 36, 50, 51, 41, 41, 41, 51, 20],
    [8, 55, 44, 54, 30, 55, 29, 54, 7],
    [17, 17, 48, 8, 27, 11, 29, 3, 3],
    [10, 52, 42, 53, 21, 52, 28, 53, 15],
    [11, 33, 43, 43, 16, 36, 31, 51, 10],
    [8, 55, 23, 54, 48, 55, 29, 54, 17],
    [13, 13, 24, 6, 48, 18, 27, 1, 1],
    [10, 52, 0, 53, 50, 52, 12, 53, 15],
    [15, 36, 9, 51, 51, 41, 20, 51, 10]], dtype=np.int8)
_PEEL_WITNESS_9.setflags(write=False)


# ---------------------------------------------------------------------------
# reference configuration and repair

_REFERENCE_LEVEL = 11
_REFERENCE_SIDE = 2 ** _REFERENCE_LEVEL - 1
_REFERENCE_ANCHOR = 512  # 2^9; translates below keep every lattice k <= 9
# repair trials draw translates in [0, TRANSLATES); a box at origin 0 reaches
# furthest at translate 0, to anchor + its side, so sides <= MAX_BOX fit
TRANSLATES = _REFERENCE_ANCHOR
MAX_BOX = _REFERENCE_SIDE - _REFERENCE_ANCHOR


def reference_window(origin, shape, translate) -> np.ndarray:
    """Window of a fixed valid configuration, translated by `translate`.

    The configuration is the interior of the level-11 macro, re-anchored so
    that a translate t puts the scale-k cross lattices at
    t + (2^{k-1}-1, 2^{k-1}-1) mod 2^k for every k <= 9.
    """
    big = build_macro(_REFERENCE_LEVEL, 0)
    sls = []
    for i in range(2):
        lo = origin[i] - translate[i] + _REFERENCE_ANCHOR
        hi = lo + shape[i]
        if lo < 0 or hi > big.shape[i]:
            raise ValueError(
                f"window exceeds the reference configuration on axis {i}: "
                f"it needs 0 <= origin - translate + {_REFERENCE_ANCHOR} and "
                f"origin - translate + {_REFERENCE_ANCHOR} + shape <= "
                f"{big.shape[i]}, but origin {origin[i]}, translate "
                f"{translate[i]} and shape {shape[i]} give {lo} and {hi}")
        sls.append(slice(lo, hi))
    return big[tuple(sls)]


def robinson_slack(N: int, interior_side: int) -> float:
    """Finite-box excess of the grout density over the 2^{1-N} term."""
    size = 2 ** N
    m = interior_side
    if m <= 0:
        return 0.0
    blocks = m - -(-m // size)  # worst phase: ceil(m/2^N) grout lines
    finite = 1.0 - (blocks / m) ** 2
    return max(0.0, finite - 2.0 ** (1 - N))


def robinson_bound(epsilon: float, N: int) -> float:
    """96(2^{N+2}+1)^2 eps + 2^{1-N}; finite-box slack reported separately."""
    return 96.0 * (2 ** (N + 2) + 1) ** 2 * epsilon + 2.0 ** (1 - N)


# `infer_translate` codes a cell as its tile id if clear, NTILES + id if
# obscured, and _PAD off the box; _DENTED_CODE marks clear dented crosses
_PAD = 2 * NTILES
_DENTED_CODE = np.zeros(_PAD, dtype=bool)
_DENTED_CODE[:NTILES] = IS_DENTED_CROSS


def infer_translate(grid, mask, N: int):
    """The macro-grid translate mod P = 2^{N+1} read off the clear cells.

    Stage one: every clear bumpy cross votes for a translate mod 4
    through its orientation class; the most voted class wins, the first
    in row-major order on a tie.  Stage m = 3..N+1 refines the class mod
    2^{m-1} to one mod 2^m.  A translate t puts the scale-m crosses at
    t + 2^{m-1} - 1 mod 2^m (`reference_window`); of the four
    refinements, the one whose scale-m sites hold the highest share of
    dented crosses among their clear cells wins.  Returns
    (translate, no_votes).

    Each cell is coded once, in place in the padded buffer, as NTILES
    obscured + id: no box-sized temporary.  Stage one counts each bumpy
    tile by box row and column mod 4, over the box padded to whole 4x4
    blocks, and rolls the counts from box to absolute residues.  The sites
    of a stage-m candidate are one residue class mod 2^m, a strided slice
    of the box.
    """
    if N < 1:
        raise ValueError(f"Robinson scale must be at least 1, got {N}")
    g, origin, obscured = _tile_box(grid, mask)
    h, w = g.shape
    hb, wb = -(-h // 4), -(-w // 4)
    padded = np.full((4 * hb, 4 * wb), _PAD, dtype=np.int8)
    code = padded[:h, :w]
    np.multiply(obscured, np.int8(NTILES), out=code)
    code += g.astype(np.int8, copy=False)

    votes = np.zeros((4, 4), dtype=np.int64)
    hits = np.empty((hb, 16 * wb), dtype=bool)
    acc = np.min_scalar_type(hb)  # a column of hb blocks cannot overflow
    for o, (cr, cc) in CROSS_CLASS.items():
        np.equal(padded.reshape(hits.shape), _CROSS_ID[(BUMPY, o)], out=hits)
        by_row = np.add.reduce(hits.view(np.uint8), axis=0, dtype=acc)
        counts = by_row.reshape(4, wb, 4).sum(axis=1, dtype=np.int64)
        votes += np.roll(counts, ((origin[0] - cr) % 4, (origin[1] - cc) % 4),
                         axis=(0, 1))
    no_votes = not votes.any()
    tr, tc = divmod(int(np.argmax(votes)), 4)

    for m in range(3, N + 2):
        period = 2 ** m
        half = period // 2
        best_score, best_ext = -1.0, (0, 0)
        for ar in (0, 1):
            for ac in (0, 1):
                cr = (tr + ar * half + half - 1) % period
                cc = (tc + ac * half + half - 1) % period
                cells = code[(cr - origin[0]) % period::period,
                             (cc - origin[1]) % period::period]
                total = int(np.count_nonzero(cells < NTILES))
                dented = int(np.count_nonzero(_DENTED_CODE[cells]))
                score = dented / total if total else 0.0
                if score > best_score:
                    best_score, best_ext = score, (ar, ac)
        tr += best_ext[0] * half
        tc += best_ext[1] * half
    return (tr, tc), no_votes


@dataclass(frozen=True)
class RobinsonRepairReport:
    grid: Grid  # repaired ids on the thickened interior box
    scale: int
    c: int
    translate: tuple  # inferred macro-grid translate mod 2^{N+1}
    changed_fraction: float
    no_votes: bool
    slack: float


def robinson_repair(grid: Grid, mask: NoiseMask, N: int, *,
                    seed: int = 0) -> RobinsonRepairReport:
    """Scale-N repair: infer the translate on the largest open component
    of the 2^{N+1}-thickened clear set, then rewrite the interior as a
    reference configuration in that translate class.  Bits above 2^{N+1}
    are sampled fresh, so the hierarchy above scale N is replaced rather
    than recovered."""
    if grid.shape != mask.shape or grid.origin != mask.origin:
        raise ValueError("mask box does not match grid box")
    if N < 1:
        raise ValueError(f"Robinson scale must be at least 1, got {N}")
    c = 2 ** (N + 1)
    if any(s < 2 * c + 1 for s in grid.shape):
        raise ValueError("box too small for the thickening radius")
    giant = open_components(mask, c)
    inner = tuple(slice(c, s - c) for s in grid.shape)
    # only the giant component votes; it lies in the interior, so the
    # inference reads the interior alone
    translate, no_votes = infer_translate(
        Grid(giant.origin, grid.data[inner]), giant, N)

    period = 2 ** (N + 1)
    rng = np.random.default_rng(
        derive_seed(seed, "robinson-high-bits", N))
    span = TRANSLATES // period
    high = rng.integers(0, span, size=2)
    t_full = (translate[0] + int(high[0]) * period,
              translate[1] + int(high[1]) * period)

    ref = reference_window(giant.origin, giant.shape, t_full)
    original = grid.data[inner]
    changed = int(np.count_nonzero(original != ref)) / ref.size
    slack = robinson_slack(N, min(giant.shape))
    return RobinsonRepairReport(
        grid=Grid(giant.origin, ref), scale=N, c=c, translate=translate,
        changed_fraction=changed, no_votes=no_votes, slack=slack)


# ---------------------------------------------------------------------------
# structural verification suite

def verify_tileset() -> list:
    checks = []
    checks.append(("tile count 56", len(TILES) == 56, len(TILES)))
    classic = classic_projection()
    checks.append(("classic projection 32", len(classic) == 32,
                   len(classic)))
    n_bumpy = sum(1 for t in TILES if t[0] == BUMPY)
    checks.append(("bumpy tiles are the 4 crosses", n_bumpy == 4, n_bumpy))
    n_bumpy_classic = sum(1 for t in classic if t[0] == BUMPY)
    checks.append(("bumpy classic tiles 4", n_bumpy_classic == 4,
                   n_bumpy_classic))
    realized = set()
    for N in range(1, 7):
        for o in range(4):
            realized |= set(int(v) for v in build_macro(N, o).ravel())
    checks.append(("tiles realized in macros 48", len(realized) == 48,
                   len(realized)))
    ok = all(is_admissible(build_macro(N, o))
             for N in range(1, 7) for o in range(4))
    checks.append(("macros admissible to N=6", ok, None))
    ok = all(np.array_equal(rotate_grid(build_macro(N, o)),
                            build_macro(N, (o + 1) % 4))
             for N in range(1, 6) for o in range(4))
    checks.append(("rotation equivariance", ok, None))
    return checks


def verify_edge_words() -> list:
    checks = []
    ew3 = edge_words(3)
    checks.append(("l3=1100100", ew3.l == "1100100", ew3.l))
    checks.append(("t3=1101100", ew3.t == "1101100", ew3.t))
    ok = True
    for N in range(1, 21):
        ew = edge_words(N)
        mirror_comp = "".join("1" if ch == "0" else "0" for ch in ew.l[::-1])
        diff = [i for i, (a, b) in enumerate(zip(ew.l, ew.t)) if a != b]
        if ew.t != mirror_comp or len(ew.l) != 2 ** N - 1 \
                or diff != [2 ** (N - 1) - 1] \
                or (N > 1 and ew.t == "".join(
                    "1" if ch == "0" else "0" for ch in ew.t[::-1])):
            ok = False
    checks.append(("edge word algebra to N=20", ok, None))
    ok = all(read_edge_words(build_macro(N, 0)) == edge_words(N)
             for N in range(1, 7))
    checks.append(("read-off words match to N=6", ok, None))
    return checks


def _tileable_pairs(N: int, axis: str, dy: int) -> list:
    """Orientation pairs of two N-macros that tile with one gap line
    between them, the second macro shifted by dy along the gap.

    Horizontal ("h"): left macro at the origin, right macro at column
    2^N and row dy, the gap column 2^N - 1 between them.  Vertical ("v")
    likewise with a gap row.  Misaligned offsets admit none.
    """
    side = 2 ** N - 1
    h = axis == "h"
    shift = (dy, side + 1) if h else (side + 1, dy)
    gap = [(i, side) if h else (side, i) for i in range(side + dy)]
    pairs = []
    for o1 in range(4):
        for o2 in range(4):
            fixed = {**_macro_as_fixed(N, o1), **_macro_as_fixed(N, o2, *shift)}
            if solve_window(list(fixed) + gap, fixed, limit=1):
                pairs.append((ORIENT_NAMES[o1], ORIENT_NAMES[o2]))
    return pairs


def verify_alignment() -> list:
    # single crosses sit on the orientation lattice, so only the pairs a
    # valid row actually contains survive; ill-oriented pairs all die
    h1, v1 = _tileable_pairs(1, "h", 0), _tileable_pairs(1, "v", 0)
    h2, v2 = _tileable_pairs(2, "h", 0), _tileable_pairs(2, "v", 0)
    h_off = [_tileable_pairs(2, "h", dy) for dy in (1, 2)]
    v_off = [_tileable_pairs(2, "v", dy) for dy in (1, 2)]
    h_expect = sorted([("SE", "SW"), ("NE", "NW"), ("NW", "SE"),
                       ("NW", "NE"), ("SW", "SE"), ("SW", "NE")])
    v_expect = sorted([("SE", "NE"), ("NE", "SE"), ("NE", "SW"),
                       ("NW", "SE"), ("NW", "SW"), ("SW", "NW")])
    return [
        ("scale-1 horizontal pairs", sorted(h1) == sorted(
            [("NE", "NW"), ("NW", "NE"), ("SE", "SW"), ("SW", "SE")]), h1),
        ("scale-1 vertical pairs", sorted(v1) == sorted(
            [("NE", "SE"), ("NW", "SW"), ("SE", "NE"), ("SW", "NW")]), v1),
        ("scale-2 aligned pairs (6)", sorted(h2) == h_expect, sorted(h2)),
        ("scale-2 offset 1 blocked", h_off[0] == [], h_off[0]),
        ("scale-2 offset 2 blocked", h_off[1] == [], h_off[1]),
        ("scale-2 vertical aligned pairs", sorted(v2) == v_expect,
         sorted(v2)),
        ("scale-2 vertical offsets blocked", v_off == [[], []], None),
    ]


def verify_peel() -> list:
    """Base forcing fact plus the C2 = 3 peeling statement on 9-squares.

    Peeling 3 layers from an admissible 9-square centred on a 2-macro
    exposes exactly that macro; peeling only 2 can leave a core with an
    off-lattice cross, witnessed by the frozen `_PEEL_WITNESS_9`.  Every
    9-window of the scale-5 macro centred on a 2-macro is checked: none
    shows a defect at any peel depth.  An exhaustive 3x3 search counts
    the solutions, and the 2-macros among them, for each pinned bumpy
    cross: inward pins force the four 2-macro completions exactly.
    """
    macros = [build_macro(2, o) for o in range(4)]
    g5 = build_macro(5, 0)
    # every 9-window of a valid tiling centred on a 2-macro: 3-peel core
    # is the macro, and no peel depth surfaces an off-lattice cross
    clean = True
    centres = [(r, c) for r in range(4, g5.shape[0] - 4)
               for c in range(4, g5.shape[1] - 4)
               if r % 4 == 1 and c % 4 == 1]
    for r, c in centres:
        win = g5[r - 4:r + 5, c - 4:c + 5]
        t4 = ((r - 1) % 4, (c - 1) % 4)
        if not any(np.array_equal(win[3:6, 3:6], m) for m in macros):
            clean = False
        for j in range(4):
            core = win[j:9 - j, j:9 - j]
            if cross_lattice_defects(core, t4, (r - 4 + j, c - 4 + j)):
                clean = False

    witness = _PEEL_WITNESS_9
    t4 = (3, 3)  # centre cross at (4,4) is a block centre: t = (4,4)-(1,1)
    two_peel = len(cross_lattice_defects(witness[2:7, 2:7], t4, (2, 2)))
    three_peel = len(cross_lattice_defects(witness[3:6, 3:6], t4, (3, 3)))
    needs = 3 if two_peel > 0 and three_peel == 0 and clean else None

    # key (corner, orient_name); value (solutions, macros among them)
    fixed_macros = [_macro_as_fixed(2, o) for o in range(4)]
    cells = [(r, c) for r in range(3) for c in range(3)]
    forcing = {}
    for corner in ((0, 0), (0, 2), (2, 0), (2, 2)):
        for o in range(4):
            sols = solve_window(cells, {corner: make_cross(o, BUMPY)})
            forcing[(corner, ORIENT_NAMES[o])] = (
                len(sols), sum(s in fixed_macros for s in sols))
    inward = {((0, 0), "SE"), ((0, 2), "SW"), ((2, 0), "NE"), ((2, 2), "NW")}
    others = {k: v for k, v in forcing.items() if k not in inward}
    return [
        ("macro windows: all peels defect-free", clean, None),
        ("witness 9-square admissible", is_admissible(witness), None),
        ("witness centred on a 2-macro", any(
            np.array_equal(witness[3:6, 3:6], m) for m in macros), None),
        ("witness: 2-peel core off-lattice", two_peel > 0, two_peel),
        ("9-square needs exactly 3 peels", needs == 3, needs),
        ("inward 3-square pins force the four 2-macros",
         all(forcing[k] == (4, 4) for k in inward),
         {k: forcing[k] for k in sorted(inward)}),
        ("other pins leave 52 solutions, none macros",
         all(v == (52, 0) for v in others.values()),
         sorted(set(others.values()))),
    ]


VERIFY_GROUPS = ("tileset", "edges", "align", "peel")


def verify_suite(groups=VERIFY_GROUPS) -> list:
    if not groups or any(g not in VERIFY_GROUPS for g in groups):
        raise ValueError(f"check groups are a comma list from "
                         f"{','.join(VERIFY_GROUPS)}, got {','.join(groups)!r}")
    out = []
    if "tileset" in groups:
        out += verify_tileset()
    if "edges" in groups:
        out += verify_edge_words()
    if "align" in groups:
        out += verify_alignment()
    if "peel" in groups:
        out += verify_peel()
    return out
