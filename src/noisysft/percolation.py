"""Site percolation of clear cells after thickening the noise.

Thickening by c turns a low-density mask into scattered fat islands; the
clear cells of the thickened mask percolate and the centre cell belongs
to the dominant open component with high probability.  On a finite box
the infinite cluster is read through a proxy: the largest open component.

`origin_excluded` takes the obscured points P of a box as sorted flat
indices, as `noise.bernoulli_points` samples them, so a trial builds no
mask.  In 2D with c >= 1 it reads the answer off P instead of labelling
the thickened box T.  Two points within Chebyshev distance 2c + 1 have
touching or overlapping c-squares, so the linked clusters of P are
exactly the 8-connected components C_i of the thickened obscured set.
Let B_i be the bounding box of C_i in T and W_i the window B_i grown by
one cell, clipped to T.  The certificate is: no B_i spans the full
height or the full width of T, and |T| - sum |W_i| > max |W_i|.  Why it
is exact:

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
  is thickened locally from a small mask of the points under it, grown
  by c, which gives the same cells as thickening the whole box.

An obscured centre is excluded whatever else the box holds, so it is
answered before any clustering, by binary searches for a point in the
(2c + 1)^2 mask cells that cover it.  Only when the certificate fails,
or the case is not covered, are the points written into one mask of the
box for `open_components`.

`open_components`, which the repairs call, labels T by its clear runs
along the last axis (Hoshen & Kopelman, Phys. Rev. B 14, 1976).  Each run
is linked to the runs it overlaps one step along each leading axis, found
by two binary searches per axis, and the runs are rooted by the min-label
hooking that roots the point clusters, so a component's root is its first
run in row-major order.  With at most one root, T is returned as it is.
Otherwise one bincount of run lengths by root sizes the components, and a
tie goes to the first maximum: the component met first in row-major
order, the one `scipy.ndimage.label` numbers lowest.  The cost is a few
byte-wide passes over T's cells, to find the runs and to paint the giant
back, and O(r log r) in the number r of runs; no label array the size of
T is made.  `origin_excluded` falls back to it in every case the
certificate does not settle: other dimensions, c = 0, a failed
certificate, or points too dense for the neighbour scan, (2c + 2)(4c + 3)
cells per point, to cover less than the box (the clusters would then
percolate and fail the certificate anyway).  `_sparse_excluded` labels
each window holding the centre the same way and reads the window's sides
from the runs in its first and last rows and the runs that start at its
first column or end at its last.
"""

from __future__ import annotations

import numpy as np

from .core import NoiseMask, thicken


def open_components(mask: NoiseMask, c: int) -> NoiseMask:
    """Thicken the mask by c and keep its largest 4-connected clear
    component: the result obscures every other cell of the thickened box,
    and every cell when none is clear.  Ties go to the component whose
    first cell comes first in row-major order.  The box is labelled by
    its clear runs (see the module docstring); the result's data is a
    view of the painted, padded box or of the thickened mask, not a copy."""
    tm = thicken(mask, c)
    starts, ends, lab = _runs(tm.data)
    if np.count_nonzero(lab == np.arange(len(lab))) <= 1:
        return tm  # its clear cells are the one component, or none
    # a root is its component's first run, so argmax keeps the first
    giant = np.argmax(np.bincount(lab, weights=ends - starts))
    # the padded box as alternating gaps (obscured) and runs (clear on the
    # giant's), each value repeated over its segment
    padded = tuple(s + 1 for s in tm.shape)
    values = np.ones(2 * len(lab) + 1, dtype=bool)
    values[1::2] = lab != giant
    bounds = np.concatenate(([0], np.column_stack((starts, ends)).ravel(),
                             [np.prod(padded)]))
    out = np.repeat(values, np.diff(bounds)).reshape(padded)
    return NoiseMask(tm.origin, out[tuple(slice(s) for s in tm.shape)])


def _runs(fat: np.ndarray):
    """The clear runs of `fat` along its last axis, labelled by
    4-connected component: (starts, ends, roots).  Bounds are flat
    indices, ends exclusive, into `fat` padded by one trailing index on
    every axis, so no run wraps and a step along an axis never lands in
    another line; runs come in row-major order, and a run's root is the
    index of its component's first run."""
    shape = tuple(s + 1 for s in fat.shape)
    buf = np.zeros(shape, dtype=bool)
    np.logical_not(fat, out=buf[tuple(slice(s) for s in fat.shape)])
    flat = buf.reshape(-1)
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    if flat[0]:
        edges = np.concatenate(([0], edges))
    starts, ends = edges[0::2], edges[1::2]
    n = len(starts)
    # each run meets, one step along a leading axis, the runs that start
    # before its shifted end and end after its shifted start
    none = np.zeros(0, dtype=np.intp)
    src, dst, stride = [none], [none], 1
    for side in shape[:0:-1]:
        stride *= side
        lo = np.searchsorted(ends, starts + stride, side="right")
        counts = np.searchsorted(starts, ends + stride) - lo
        src.append(np.repeat(np.arange(n), counts))
        dst.append(np.repeat(lo - np.cumsum(counts) + counts, counts)
                   + np.arange(counts.sum()))
    return starts, ends, _roots(n, np.concatenate(src), np.concatenate(dst))


def _roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The root of each of n nodes linked by the pairs (a, b): its
    component's smallest node, by min-label hooking with pointer
    jumping."""
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


def _clusters(keys: np.ndarray, shape: tuple, c: int):
    """(rows, cols, cluster root) per obscured point of a 2D box of the
    given shape, the points given by their sorted flat indices `keys`,
    linking points within Chebyshev distance d = 2c + 1; None when the
    neighbour scan would cover more than the box.  A point's partners in
    row offset dr = 0..d have flat indices in [key + dr width - d,
    key + dr width + d] (later keys only at dr = 0); two binary searches
    per offset find them, and the explicit distance test drops the matches
    that wrapped round a row end.  Roots come from min-label hooking with
    pointer jumping, so a root is its cluster's smallest point index."""
    d, width = 2 * c + 1, shape[1]
    n = len(keys)
    if n * (d + 1) * (2 * d + 1) > shape[0] * width:
        return None
    rows, cols = np.divmod(keys, width)
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
    return rows, cols, _roots(n, src[near], dst[near])


def _windows(rows: np.ndarray, cols: np.ndarray, lab: np.ndarray,
             shape: tuple, c: int):
    """The windows W_i, as (top, bottom, left, right) arrays in the
    thickened box of the given shape, or None when the certificate fails."""
    (th, tw), n = shape, len(lab)
    roots = np.flatnonzero(lab == np.arange(n))
    bottom, left, right = np.full(n, -1), np.full(n, tw + 2 * c), np.full(n, -1)
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
    if th * tw - int(areas.sum()) <= int(areas.max(initial=0)):
        return None
    return top, bottom, left, right


def _sparse_excluded(keys: np.ndarray, shape: tuple, c: int):
    """The `origin_excluded` answer for a 2D box read from its obscured
    points, or None when the certificate fails (see the module docstring).
    Needs c >= 1 and every side of the box longer than 2c."""
    th, tw = (s - 2 * c for s in shape)  # the thickened box T
    ch, cw = th // 2, tw // 2  # its centre
    # the point at mask cell (r, q) obscures rows r-2c..r, cols q-2c..q of
    # T: the centre is obscured by a point in the rows ch..ch+2c whose key
    # lies in that row's columns cw..cw+2c
    first = (ch + np.arange(2 * c + 1)) * shape[1] + cw
    if np.any(np.searchsorted(keys, first + 2 * c, side="right")
              > np.searchsorted(keys, first)):
        return True
    points = _clusters(keys, shape, c)
    windows = None if points is None else _windows(*points, (th, tw), c)
    if windows is None:
        return None
    rows, cols, _ = points
    top, bottom, left, right = windows
    for i in np.flatnonzero((top <= ch) & (ch <= bottom)
                            & (left <= cw) & (cw <= right)):
        t, b, l, r = int(top[i]), int(bottom[i]), int(left[i]), int(right[i])
        # the mask under the window, from the points inside it
        window = np.zeros((b - t + 2 * c + 1, r - l + 2 * c + 1), dtype=bool)
        inside = (t <= rows) & (rows < t + len(window)) \
            & (l <= cols) & (cols < l + window.shape[1])
        window[rows[inside] - t, cols[inside] - l] = True
        fat = thicken(NoiseMask((t, l), window), c).data
        fh, fw = fat.shape
        starts, ends, lab = _runs(fat)
        row, col = np.divmod(starts, fw + 1)
        own = lab == lab[np.searchsorted(
            starts, (ch - t) * (fw + 1) + cw - l, side="right") - 1]
        if not np.any(own & (((t > 0) & (row == 0))
                             | ((b < th - 1) & (row == fh - 1))
                             | ((l > 0) & (col == 0))
                             | ((r < tw - 1) & (ends % (fw + 1) == fw)))):
            return True
    return False


def origin_excluded(keys: np.ndarray, shape, c: int) -> bool:
    """Is the centre cell of the thickened box outside the largest open
    component?  `keys` are the sorted flat indices of the obscured cells
    of a box of the given shape, as `noise.bernoulli_points` gives them.

    A 2D box with c >= 1 is decided from the points when the certificate
    holds, labelling only the windows that hold the centre; otherwise the
    points are written into one mask and the answer is read off
    `open_components`."""
    shape = tuple(shape)
    if len(shape) == 2 and c >= 1 and min(shape) > 2 * c:
        excluded = _sparse_excluded(keys, shape, c)
        if excluded is not None:
            return excluded
    data = np.zeros(shape, dtype=bool)
    data.reshape(-1)[keys] = True
    giant = open_components(NoiseMask((0,) * len(shape), data), c)
    return bool(giant.data[tuple(s // 2 for s in giant.shape)])


def exclusion_bound(epsilon: float, c: int) -> float:
    """The union bound on P(centre outside the giant component)."""
    return 48.0 * (2 * c + 1) ** 2 * epsilon
