"""Numeric kernels: nearest-neighbour mean distance, batched Chamfer
distances and even-odd rasterization.

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
"""
from __future__ import annotations

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
