"""Numeric kernels: nearest-neighbour mean distance, batched Chamfer
distances, even-odd rasterization and optimal assignment.

There are two nearest-neighbour primitives, one per size of input.
`nn_mean_dist` is a k-d tree query (`scipy.spatial.cKDTree`), which computes
each distance as sqrt(dx*dx + dy*dy); it serves `geometry.chamfer_distance`,
which scores one pair of large sets: a class's pooled map points against its
ground truth (`metrics.global_map_cd`) and a merged curve against its
reference (`curvefit.sweep_smoothing`). `chamfer_matrix` scores many small
sets against many others in one broadcast, with the same arithmetic and
summation order, so each entry has the bits of the single-pair Chamfer
distance; it serves `instance.chamfer_by_class`, which scores one frame's
instances: detections against tracks in association, predictions against
ground truth for AP and CLEAR-MOT, and detections against ground truth when
`pipeline.scene_observations` picks sweep cases.

`linear_sum_assignment` is the one optimal-assignment solver: it matches a
frame's detections to tracks (`association.optimal_match`) and predictions
to ground truth for CLEAR-MOT (`metrics.clear_mot_counts`). It is scipy's
rectangular shortest-augmenting-path solver (Crouse, IEEE TAES 2016) step
for step, so it returns scipy's assignment, ties included. Its matrices, one
frame's detections against the track buffer or one class's unmatched
predictions against its ground truth, have a few rows and columns, so the
loops run in Python.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyPointSet


def _as_pts(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def nn_mean_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over points of `a` of the distance to the nearest point of `b`.

    Both sets must be non-empty and finite (the loaders reject NaN and inf).
    """
    a = _as_pts(a)
    dist, _ = cKDTree(_as_pts(b)).query(a)
    return float(dist.sum() / a.shape[0])


def _runs(sets) -> tuple[np.ndarray, np.ndarray]:
    """Start offset and point count of each set once they are stacked."""
    counts = np.array([len(p) for p in sets])
    if counts.min() == 0:
        raise EmptyPointSet("chamfer_matrix requires non-empty point sets")
    return np.cumsum(counts) - counts, counts


def _run_means(near: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean of each set's run of columns of `near`, one row per set. Each run
    is summed by `.sum`, the pairwise order `nn_mean_dist` sums in;
    `np.add.reduceat` would add in another order and change the last bits."""
    sums = [near[:, s:s + n].sum(axis=1) for s, n in zip(starts.tolist(), counts.tolist())]
    return np.array(sums) / counts[:, None]


def chamfer_matrix(As, Bs) -> np.ndarray:
    """(len(As), len(Bs)) symmetric Chamfer distances between two lists of
    point sets; entry (i, j) has the bits of
    `geometry.chamfer_distance(As[i], Bs[j])`.

    Both lists and every set in them must be non-empty. All points meet in
    one broadcast, so the lists should be small: the callers score one
    frame's instances, a few hundred thousand point pairs at most.
    """
    start_a, count_a = _runs(As)
    start_b, count_b = _runs(Bs)
    a = _as_pts(np.concatenate(As))
    b = _as_pts(np.concatenate(Bs))
    # (dx)**2 + (dy)**2 as in nn_mean_dist, in place: two temporaries, not four
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 **= 2
    dy2 = np.subtract.outer(a[:, 1], b[:, 1])
    dy2 **= 2
    d2 += dy2
    del dy2
    # nearest distance from each point of one side to each set of the other,
    # one row per set of the other side
    a_to_b = np.ascontiguousarray(np.sqrt(np.minimum.reduceat(d2, start_b, axis=1)).T)
    b_to_a = np.sqrt(np.minimum.reduceat(d2, start_a, axis=0))
    return 0.5 * (_run_means(a_to_b, start_a, count_a)
                  + _run_means(b_to_a, start_b, count_b).T)


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
