"""Numeric kernels: nearest-neighbour mean distance and even-odd rasterization.

`nn_mean_dist` is the one nearest-neighbour primitive (the inner loop of the
Chamfer metric). Small sets are scanned by one numpy broadcast; large sets
go through a k-d tree (`scipy.spatial.cKDTree`). Both compute each distance
as sqrt(dx*dx + dy*dy) and sum the same per-point array, so the two paths
return the same bits.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# Pair count (len(a) * len(b)) above which the k-d tree beats the broadcast.
# Measured on a 2-CPU host (build plus query against one broadcast): 0.014
# vs 0.036 ms at 20x20, 0.11 vs 0.13 ms at 141x141, 0.12 vs 0.11 ms at
# 150x150, 50 vs 2.1 ms at 2000x2000.
BRUTE_FORCE_MAX_PAIRS = 20_000


def _as_pts(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def nn_mean_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over points of `a` of the distance to the nearest point of `b`.

    Both sets must be non-empty and finite (the loaders reject NaN and inf).
    """
    a = _as_pts(a)
    b = _as_pts(b)
    if a.shape[0] * b.shape[0] <= BRUTE_FORCE_MAX_PAIRS:
        d2 = (a[:, None, 0] - b[None, :, 0]) ** 2 + (a[:, None, 1] - b[None, :, 1]) ** 2
        dist = np.sqrt(d2.min(axis=1))
    else:
        dist, _ = cKDTree(b).query(a)
    return float(dist.sum() / a.shape[0])


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
