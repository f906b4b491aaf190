"""Numeric kernels: nearest-neighbour distances, batched Chamfer distances,
even-odd rasterization, optimal assignment and a banded Cholesky solve.

Every point-to-point distance here is sqrt(dx*dx + dy*dy), with the sum
under the square root computed as `sq_dist_table` computes it. Two kernels
find nearest neighbours with it, one per input scale, and the rule between
them is the number of pairs to score: one pair of large pooled sets goes to
the grid search, many small same-class pairs go to `chamfer_pairs`.
`nearest_sq_dist` is the exact grid search: one uniform-grid pass scores
each point against the points of its neighbouring cells only, and the exact
table scores the few points that pass leaves unresolved; through
`nn_mean_dist` it serves `geometry.chamfer_distance`, which scores one pair
of large sets: a class's pooled map points against its ground truth
(`metrics.global_map_cd`) and a merged curve against its reference
(`curvefit.sweep_smoothing`). `chamfer_pairs` scores a list of pairs of
small sets, grouped by their point counts, with the single-pair Chamfer
distance's arithmetic and summation order, so each value it gives has that
distance's bits. It serves `instance.frames_chamfer_by_class`, which scores
frames of same-class instances in one pass: one frame's detection outlines
against the track buffer's (`association.geometric_affinity`), a scene's
predictions against ground truth for AP and CLEAR-MOT
(`metrics.frame_distances`), and a scene's detections against ground truth
when `pipeline.scene_observations` picks sweep cases.
`mapstore.fuse_with_history` and `curvefit.reorder_concat` read
`sq_dist_table` itself.

`linear_sum_assignment` is the one optimal-assignment solver: it matches a
frame's detections to tracks (`association.optimal_match`) and predictions
to ground truth for CLEAR-MOT (`metrics.clear_mot_counts`). It is scipy's
rectangular shortest-augmenting-path solver (Crouse, IEEE TAES 2016) step
for step, so it returns scipy's assignment, ties included. Its matrices, one
frame's detections against the track buffer or one class's unmatched
predictions against its ground truth, have a few rows and columns, so the
loops run in Python.

`solveh_banded` solves the merge fit's normal equations
(`curvefit._solve_spline`), one symmetric positive definite band of
bandwidth 3 per polyline merge. It calls LAPACK's `dpbsv`, the routine
behind `scipy.linalg.solveh_banded`, in the OpenBLAS that numpy's wheels
bundle and have already loaded, so it returns scipy's bits without loading
scipy. A numpy built without that OpenBLAS gets scipy's solve instead.
"""
from __future__ import annotations

import ctypes
import math

import numpy as np

from .errors import EmptyPointSet


def _as_pts(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# point pairs scored in one step by the grid search and by its fallback:
# 2**16 pairs, 0.5 MB per array of them, however the points cluster
PAIR_CHUNK = 1 << 16
# point pairs in one step of `chamfer_pairs`: 2**14, 128 kB per table of
# them. In a loop of evals, unchunked tables raised the peak RSS by 2-3 MB
# and 2**16-pair steps by about 1 MB; the first call of np.unique or of a
# stable argsort makes 0.1-0.4 MB of numpy code resident, so the groups are
# formed in Python
PAIR_STEP = 1 << 14
# the grid's cell side over the side at which b's bounding box holds as many
# cells as b has points: the sets are curves, on which a point's nearest
# neighbour lies well inside that side, so smaller cells mean fewer
# candidates (a third was the fastest of a half, a third and a quarter on
# the sets eval scores)
CELL_FRACTION = 1 / 3


def nn_mean_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over points of `a` of the distance to the nearest point of `b`,
    the square roots summed by `.sum` in `a`'s order.

    Both sets must be non-empty and finite (the loaders reject NaN and inf).
    """
    a = _as_pts(a)
    return float(np.sqrt(nearest_sq_dist(a, b)).sum() / a.shape[0])


def nearest_sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a),) squared distance from each point of `a` to its nearest
    point of `b` (non-empty): row i's minimum of `sq_dist_table(a, b)`, bit
    for bit, found by the cell method (Bentley, Weide & Yao, ACM TOMS 1980).

    `b` is sorted into square cells; each point of `a` is scored against
    the points of `b` in its 3 x 3 block of cells. Points outside the block
    lie at least a cell side away, so a minimum within that side (less a
    margin for rounding) is the nearest. The points this one pass leaves
    unresolved are scored against all of `b`, PAIR_CHUNK pairs at a time.
    """
    a, b = _as_pts(a), _as_pts(b)
    lo = b.min(axis=0).tolist()
    hi = b.max(axis=0).tolist()
    span = (hi[0] - lo[0], hi[1] - lo[1])
    out, ok = _grid_search(a, b, lo, span, _cell_side(span, len(b)))
    todo = np.flatnonzero(~ok)
    rows = max(1, PAIR_CHUNK // len(b))
    for s in range(0, len(todo), rows):
        i = todo[s:s + rows]
        out[i] = sq_dist_table(a[i], b).min(axis=1)
    return out


def _cell_side(span: tuple, m: int) -> float:
    """The grid's cell side for m points whose bounding box has
    sides `span`: CELL_FRACTION of the side at which the box holds m cells,
    or m along its length when the points lie on one line."""
    side = max(math.sqrt(span[0] * span[1] / m), max(span) / m) * CELL_FRACTION
    return side or 1.0  # any side serves a set of one location


def _grid_search(q: np.ndarray, b: np.ndarray, lo: list, span: tuple, h: float):
    """(d2, ok): for each point of `q`, the least dx*dx + dy*dy to the points
    of `b` in its 3 x 3 block of cells of side `h`, inf for an empty block,
    and whether that least value is provably the nearest. The grid starts at
    b's lower corner `lo` and covers b's extent `span`; a point of `q` off
    the grid searches the block of the nearest edge cell, which holds every
    point of `b` its own block would.
    """
    inv = 1.0 / h
    nx, ny = int(span[0] * inv) + 1, int(span[1] * inv) + 1
    # cell (i, j) has the flat index j * w + i, with w = nx + 2: the three
    # cells of a block's row are one run of b sorted by cell, and the cells
    # a run reads past the grid's columns (i = -1 or nx) hold no point
    w = nx + 2
    to_flat = np.array([1.0, w])
    cell_b = (np.floor((b - lo) * inv) @ to_flat).astype(np.intp)
    order = np.argsort(cell_b)
    bx, by = b[:, 0].take(order), b[:, 1].take(order)
    # start[f + w + 1] is the position in sorted b of cell f's first point,
    # for f from -w - 1 on, so that a block on the grid's edge reads cells
    # of the empty border around it
    start = np.zeros((ny + 2) * w + 1, np.intp)
    np.cumsum(np.bincount(cell_b, minlength=len(start) - w - 2), out=start[w + 2:])
    cell_q = np.floor((q - lo) * inv)
    np.minimum(cell_q, (nx - 1, ny - 1), out=cell_q)
    np.maximum(cell_q, 0.0, out=cell_q)
    flat = (cell_q @ to_flat).astype(np.intp)[:, None]
    first = start[flat + (0, w, 2 * w)]  # of each row's run, rows j - 1 .. j + 1
    lens = start[flat + (3, w + 3, 2 * w + 3)] - first
    count = lens.sum(axis=1)
    d2 = np.full(len(q), np.inf)
    step = max(1, PAIR_CHUNK // max(1, int(count.max(initial=0))))
    for s in range(0, len(q), step):
        c, runs = count[s:s + step], lens[s:s + step].ravel()
        # the candidates of the chunk's runs, one after another; the k-th of
        # a run sits at its `first` + k in sorted b
        off = np.cumsum(runs)
        idx = np.arange(off[-1])
        off -= runs
        idx += np.repeat(first[s:s + step].ravel() - off, runs)
        dx = np.repeat(q[s:s + step, 0], c)
        dx -= bx.take(idx)
        dy = np.repeat(q[s:s + step, 1], c)
        dy -= by.take(idx)
        np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
        has = c > 0
        d2[s:s + step][has] = np.minimum.reduceat(dx, off[::3][has])
    # rounding moves a point's cell coordinate by a few 1e-16 of its
    # distance from `lo`, so a point outside the block may lie that much
    # nearer than h: a few 1e-16 (span + h), which the margin covers
    reach = h - 1e-9 * (max(span) + h)
    return d2, d2 <= reach * reach


def sq_dist_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances dx*dx + dy*dy, built in place: two
    temporaries, not four. Every distance in this module is the square root
    of this sum, computed in this order."""
    a, b = _as_pts(a), _as_pts(b)
    dx, dy = (np.subtract.outer(a[:, k], b[:, k]) for k in (0, 1))
    return np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)


def chamfer_pairs(As, Bs, rows, cols) -> np.ndarray:
    """(len(rows),) symmetric Chamfer distances of the pairs
    (As[rows[k]], Bs[cols[k]]); entry k has the bits of
    `geometry.chamfer_distance(As[rows[k]], Bs[cols[k]])`.

    The pairs are grouped by their point counts (m, n), and a group is
    scored PAIR_STEP point pairs at a time (one pair, if it alone holds
    more) in a table of pairs by m by n. numpy takes a minimum fast only
    when the stored table's innermost axis is long (on a 2-CPU x86 host,
    over the n of a (100, 80, 2) table it took 12 times as long as over a
    (2, 100, 80) one), so the table is stored with the pairs innermost
    when they outnumber b's points (many small pairs, as in eval) and with
    b's points innermost otherwise (a few large pairs, as in association).
    Every paired set must be non-empty; a set no pair names may be empty.
    """
    out = np.empty(len(rows))
    if not len(rows):
        return out
    rows, cols = np.asarray(rows), np.asarray(cols)
    count_a = np.array([len(p) for p in As])
    count_b = np.array([len(p) for p in Bs])
    groups: dict[tuple[int, int], list[int]] = {}  # in Python: see PAIR_STEP
    for k, shape in enumerate(zip(count_a[rows].tolist(), count_b[cols].tolist())):
        groups.setdefault(shape, []).append(k)
    if any(m == 0 or n == 0 for m, n in groups):
        raise EmptyPointSet("chamfer_pairs requires non-empty point sets")
    ax, ay = np.concatenate(As).T.copy()
    bx, by = np.concatenate(Bs).T.copy()
    # each pair's first point in the stacked sets
    first_a = (np.cumsum(count_a) - count_a)[rows]
    first_b = (np.cumsum(count_b) - count_b)[cols]
    for (m, n), ks in groups.items():
        step = max(1, PAIR_STEP // (m * n))
        ks = np.array(ks)
        for s in range(0, len(ks), step):
            k = ks[s:s + step]
            # the points of each pair's sets, indexed so that the table comes
            # out (m, n, pairs) or (pairs, m, n)
            pairs_inner = len(k) > n
            if pairs_inner:
                ia = first_a[k] + np.arange(m)[:, None, None]
                ib = first_b[k] + np.arange(n)[:, None]
            else:
                ia = first_a[k, None, None] + np.arange(m)[:, None]
                ib = first_b[k, None, None] + np.arange(n)
            # sq_dist_table's arithmetic
            dx = np.subtract(ax[ia], bx[ib])
            dy = np.subtract(ay[ia], by[ib])
            d2 = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
            if pairs_inner:
                d2 = d2.transpose(2, 0, 1)  # a view, (pairs, m, n)
            # each pair's roots in one contiguous row, summed as nn_mean_dist sums
            a_to_b = np.ascontiguousarray(np.sqrt(d2.min(axis=2))).sum(axis=1) / m
            b_to_a = np.ascontiguousarray(np.sqrt(d2.min(axis=1))).sum(axis=1) / n
            out[k] = 0.5 * (a_to_b + b_to_a)
    return out


def inside_mask(xs: np.ndarray, ys: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Boolean (len(ys), len(xs)) grid of even-odd containment in `ring`."""
    gx = _as_pts(xs).ravel()[None, :]
    gy = _as_pts(ys).ravel()[:, None]
    ring = _as_pts(ring)
    inside = np.zeros((gy.shape[0], gx.shape[1]), dtype=bool)
    n = ring.shape[0]
    for k in range(n):
        x1, y1 = ring[k]
        x2, y2 = ring[(k + 1) % n]
        if y1 == y2:
            continue
        cond = (y1 > gy) != (y2 > gy)
        xcross = (x2 - x1) * (gy - y1) / (y2 - y1) + x1
        inside ^= cond & (gx < xcross)
    return inside


def linear_sum_assignment(cost, maximize: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of a minimum (or maximum) total cost matching
    of min(rows, columns) pairs, rows ascending; scipy's
    `scipy.optimize.linear_sum_assignment`, with its arithmetic and ties.

    Raises ValueError for NaN or -inf entries (+inf when maximizing) and
    when no complete matching avoids +inf entries.
    """
    c = np.asarray(cost, dtype=np.float64)
    transpose = c.shape[1] < c.shape[0]
    if transpose:
        c = c.T
    if maximize:
        c = -c
    if np.isnan(c).any() or (c == -np.inf).any():
        raise ValueError("matrix contains invalid numeric entries")
    nr, nc = c.shape
    if nr == 0:
        return np.empty(0, np.intp), np.empty(0, np.intp)
    rows = c.tolist()
    u = [0.0] * nr
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    for cur in range(nr):
        # shortest augmenting path from row `cur` (Crouse's Algorithm 1) to
        # the free column `sink`, over rows `sr` and columns `sc`
        spc = [math.inf] * nc  # path cost to each column
        sr = [False] * nr
        sc = [False] * nc
        # filled in reverse, so that a constant matrix gets the identity
        remaining = list(range(nc - 1, -1, -1))
        num_remaining = nc
        min_val = 0.0
        i = cur
        sink = -1
        while sink == -1:
            index = -1
            lowest = math.inf
            sr[i] = True
            row, ui = rows[i], u[i]
            for it in range(num_remaining):
                j = remaining[it]
                r = min_val + row[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                # among equal path costs prefer a free column: a new sink
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest = spc[j]
                    index = it
            min_val = lowest
            if min_val == math.inf:
                raise ValueError("cost matrix is infeasible")
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]
        # update the dual variables
        u[cur] += min_val
        for i in range(nr):
            if sr[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(nc):
            if sc[j]:
                v[j] -= min_val - spc[j]
        # augment the previous solution along the path
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    col4row = np.array(col4row, dtype=np.intp)
    if transpose:
        order = np.argsort(col4row)
        return col4row[order], order
    return np.arange(nr), col4row


# LAPACK's Fortran dpbsv, 64-bit integers, as numpy's wheels bundle it in
# OpenBLAS: with scipy-openblas's prefix (numpy >= 2), then without (1.x)
DPBSV_SYMBOLS = ("scipy_dpbsv_64_", "dpbsv_64_")
_I64 = ctypes.POINTER(ctypes.c_int64)


def _find_dpbsv():
    """`dpbsv` in the BLAS that numpy's core extension links, or None.

    The dynamic linker resolves the name through the extension's own
    dependencies, so this is the OpenBLAS numpy has already loaded, never
    another copy. A numpy without one (a source or distro build) gives None.
    """
    try:
        from numpy._core import _multiarray_umath as core
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as core
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for name in DPBSV_SYMBOLS:
        fn = getattr(lib, name, None)
        if fn is not None:
            # uplo, n, kd, nrhs, ab, ldab, b, ldb, info, then the hidden
            # length of uplo that gfortran passes by value
            fn.argtypes = [ctypes.c_char_p, _I64, _I64, _I64, ctypes.c_void_p, _I64,
                           ctypes.c_void_p, _I64, _I64, ctypes.c_size_t]
            fn.restype = None
            return fn
    return None


_DPBSV = _find_dpbsv()


def solveh_banded(ab, b) -> np.ndarray:
    """Solve a x = b for symmetric positive definite banded `a`, given in
    scipy's upper form: ab[kd + i - j, j] == a[i, j] for i <= j.

    `b` is (n,) or (n, nrhs) and the result has its shape. This is LAPACK's
    banded Cholesky `dpbsv`, which `scipy.linalg.solveh_banded(ab, b,
    check_finite=False)` calls for kd >= 2 (it solves kd = 1 with `dptsv`),
    so it returns scipy's bits; where numpy bundles no OpenBLAS it calls
    scipy. Like scipy it raises np.linalg.LinAlgError when a leading minor is
    not positive definite, and checks no entry for NaN or inf.
    """
    if _DPBSV is None:
        from scipy.linalg import solveh_banded as scipy_solveh_banded
        return scipy_solveh_banded(ab, b, check_finite=False)
    a = np.array(ab, dtype=np.float64, order="F")  # copies: dpbsv overwrites
    x = np.array(b, dtype=np.float64, order="F")
    if a.ndim != 2 or x.ndim not in (1, 2) or a.shape[1] != x.shape[0]:
        raise ValueError("shapes of ab and b are not compatible.")
    if x.size == 0:
        return x
    kd, n = a.shape[0] - 1, a.shape[1]
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    info = ctypes.c_int64(0)
    _DPBSV(b"U", ctypes.byref(ctypes.c_int64(n)), ctypes.byref(ctypes.c_int64(kd)),
           ctypes.byref(ctypes.c_int64(nrhs)), a.ctypes.data,
           ctypes.byref(ctypes.c_int64(kd + 1)), x.ctypes.data,
           ctypes.byref(ctypes.c_int64(n)), ctypes.byref(info), 1)
    if info.value > 0:
        raise np.linalg.LinAlgError(f"{info.value}th leading minor not positive definite")
    if info.value < 0:
        raise ValueError(f"illegal value in {-info.value}th argument of internal pbsv")
    return x
