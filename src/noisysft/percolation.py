"""Site percolation of clear cells after thickening the noise.

Thickening by c turns a low-density mask into scattered fat islands; the
clear cells of the thickened mask percolate and the centre cell belongs
to the dominant open component with high probability.  On a finite box
the infinite cluster is read through a proxy: the largest open component.

On a 2D mask with c >= 1, `origin_excluded` reads the answer off the
obscured points P instead of labelling the thickened box T.  Two points
within Chebyshev distance 2c + 1 have touching or overlapping c-squares,
so the linked clusters of P are exactly the 8-connected components C_i
of the thickened obscured set.  Let B_i be the bounding box of C_i in T
and W_i the window B_i grown by one cell, clipped to T.  The certificate
is: no B_i spans the full height or the full width of T, and
|T| - sum |W_i| > max |W_i|.  Why it is exact:

- T minus a box that spans neither its height nor its width is
  4-connected, so the cells of T outside B_i lie in one 4-component O_i
  of T minus C_i; the other components, the pockets of C_i, lie in B_i.
- Seen as closed unit squares, different clusters are disjoint (they are
  not 8-adjacent), so the outside of the box joined with C_i and the
  outside joined with all other clusters meet in the outside alone, a
  connected set.  By Janiszewski's theorem, two cells that no single
  cluster separates are not separated by all of them together; clear cells
  connect 4-wise and obscured cells 8-wise, the pairing under which this
  plane topology holds on the grid (Rosenfeld, JACM 17, 1970).  So every
  clear cell outside all pockets lies in one clear component M, which
  holds every cell outside all windows: |M| >= |T| - sum |W_i| >
  max |W_i|.  Every other component lies in a pocket, hence in one
  window, so M is strictly the largest and no tie is broken.
- A clear centre is outside M exactly when, in some window holding it,
  its 4-component touches none of the window's sides that are interior
  to T: a pocket never reaches them (they lie outside B_i), and a
  component that cannot leave its window is smaller than M.  The window
  is thickened locally from the mask grown by c, which gives the same
  cells as thickening the whole box.

An obscured centre is excluded whatever else the box holds, so it is
answered before any clustering.  Any other case labels T whole: other
dimensions, c = 0, a failed certificate, or points so dense
that the neighbour scan, (2c + 2)(4c + 3) cells per point, would cover
more than the box (its cost and memory would then exceed the labelling's,
and the clusters percolate, so the certificate would fail anyway).
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .core import NoiseMask, thicken

# 4-adjacency
_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)


def open_components(mask: NoiseMask, c: int) -> NoiseMask:
    """Thicken the mask by c and keep its largest 4-connected clear
    component: the result obscures every other cell of the thickened box,
    and every cell when none is clear.  Ties go to the lowest label, the
    component whose first cell comes first in row-major order."""
    tm = thicken(mask, c)
    struct = _CROSS if tm.data.ndim == 2 else ndimage.generate_binary_structure(
        tm.data.ndim, 1)
    labels, count = ndimage.label(~tm.data, structure=struct)
    if count <= 1:
        return tm  # its clear cells are the one component, or none
    origin = tm.origin
    del tm  # before the intp copy of the labels that bincount makes
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    return NoiseMask(origin, labels != int(np.argmax(sizes[1:])) + 1)


def _clusters(keys: np.ndarray, rows: np.ndarray, cols: np.ndarray,
              width: int, d: int) -> np.ndarray:
    """Cluster root per point, linking points within Chebyshev distance d.

    `keys` are the sorted flat indices of the points in a box of the given
    width.  A point's partners in row offset dr = 0..d have keys in
    [key + dr width - d, key + dr width + d] (later keys only at dr = 0);
    two binary searches per offset find them, and the explicit distance
    test drops the matches that wrapped round a row end.  Roots come from
    min-label hooking with pointer jumping, so a root is its cluster's
    smallest point index.
    """
    n = len(keys)
    base = keys + (np.arange(d + 1) * width)[:, None]
    lo = np.searchsorted(keys, base - d)
    lo[0] = np.arange(1, n + 1)
    hi = np.searchsorted(keys, base + d, side="right")
    counts = (hi - lo).ravel()
    src = np.repeat(np.tile(np.arange(n), d + 1), counts)
    dst = np.repeat(lo.ravel() - np.cumsum(counts) + counts, counts) \
        + np.arange(counts.sum())
    near = (np.abs(rows[dst] - rows[src]) <= d) \
        & (np.abs(cols[dst] - cols[src]) <= d)
    a, b = src[near], dst[near]
    lab = np.arange(n)
    while True:
        la, lb = lab[a], lab[b]
        if np.array_equal(la, lb):
            return lab
        low = np.minimum(la, lb)
        np.minimum.at(lab, la, low)  # hook each root under its least neighbour
        np.minimum.at(lab, lb, low)
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def _sparse_excluded(data: np.ndarray, c: int):
    """The `origin_excluded` answer for a 2D mask read from its obscured
    points, or None when the certificate fails (see the module docstring).
    Needs c >= 1 and every side of the box longer than 2c."""
    h, w = data.shape
    th, tw = h - 2 * c, w - 2 * c  # the thickened box T
    ch, cw = th // 2, tw // 2  # its centre
    # the point at mask cell (r, q) obscures rows r-2c..r, cols q-2c..q of T
    if data[ch:ch + 2 * c + 1, cw:cw + 2 * c + 1].any():
        return True
    keys = np.flatnonzero(data)
    n, d = len(keys), 2 * c + 1
    if n == 0:
        return False
    if n * (d + 1) * (2 * d + 1) > data.size:
        return None  # the neighbour scan would outgrow the box
    rows, cols = np.divmod(keys, w)
    lab = _clusters(keys, rows, cols, w, d)
    roots = np.flatnonzero(lab == np.arange(n))
    bottom, left, right = np.full(n, -1), np.full(n, w), np.full(n, -1)
    np.maximum.at(bottom, lab, rows)
    np.minimum.at(left, lab, cols)
    np.maximum.at(right, lab, cols)
    # each cluster's bounding box in T, clipped; a root is its cluster's
    # first point in row-major order, so it sits in the cluster's top row
    top = np.maximum(rows[roots] - 2 * c, 0)
    left = np.maximum(left[roots] - 2 * c, 0)
    bottom = np.minimum(bottom[roots], th - 1)
    right = np.minimum(right[roots], tw - 1)
    if np.any(((top == 0) & (bottom == th - 1))
              | ((left == 0) & (right == tw - 1))):
        return None
    # windows: the boxes grown by one cell, clipped to T
    top, left = np.maximum(top - 1, 0), np.maximum(left - 1, 0)
    bottom, right = np.minimum(bottom + 1, th - 1), np.minimum(right + 1, tw - 1)
    areas = (bottom - top + 1) * (right - left + 1)
    if th * tw - int(areas.sum()) <= int(areas.max()):
        return None
    for i in np.flatnonzero((top <= ch) & (ch <= bottom)
                            & (left <= cw) & (cw <= right)):
        t, b, l, r = int(top[i]), int(bottom[i]), int(left[i]), int(right[i])
        window = data[t:b + 2 * c + 1, l:r + 2 * c + 1]
        fat = thicken(NoiseMask((t, l), window), c).data
        labels, _ = ndimage.label(~fat, structure=_CROSS)
        own = labels[ch - t, cw - l]
        sides = ((t > 0, labels[0]), (b < th - 1, labels[-1]),
                 (l > 0, labels[:, 0]), (r < tw - 1, labels[:, -1]))
        if not any(inner and own in side for inner, side in sides):
            return True
    return False


def origin_excluded(mask: NoiseMask, c: int) -> bool:
    """Is the centre cell of the thickened box outside the largest open
    component?

    A 2D mask with c >= 1 is decided from the obscured points when the
    certificate holds; otherwise the thickened box is labelled whole."""
    if mask.data.ndim == 2 and c >= 1 and min(mask.shape) > 2 * c:
        excluded = _sparse_excluded(mask.data, c)
        if excluded is not None:
            return excluded
    giant = open_components(mask, c)
    return bool(giant.data[tuple(s // 2 for s in giant.shape)])


def exclusion_bound(epsilon: float, c: int) -> float:
    """The union bound on P(centre outside the giant component)."""
    return 48.0 * (2 * c + 1) ** 2 * epsilon
