"""Hot numeric kernels: numba-jitted loops with a pure-numpy fallback.

The jitted path is used whenever numba imports cleanly; set
``IC_MAPPER_NUMBA=0`` to force the numpy path (useful for debugging).
Both paths compute identical results up to floating-point rounding.
"""
from __future__ import annotations

import os

import numpy as np

_flag = os.environ.get("IC_MAPPER_NUMBA", "1").strip().lower()
NUMBA_ENABLED = _flag not in ("0", "false", "off", "no")

if NUMBA_ENABLED:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a hard dep, but stay usable
        NUMBA_ENABLED = False


def _as_pts(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


# ---------------------------------------------------------------------------
# nearest-neighbor mean distance (the inner loop of the Chamfer metric)

def _nn_mean_numpy(a: np.ndarray, b: np.ndarray) -> float:
    # blockwise to bound the (chunk, len(b)) temporary
    total = 0.0
    step = max(1, 4_000_000 // max(1, b.shape[0]))
    for i in range(0, a.shape[0], step):
        chunk = a[i : i + step]
        d2 = (chunk[:, None, 0] - b[None, :, 0]) ** 2 + (chunk[:, None, 1] - b[None, :, 1]) ** 2
        total += np.sqrt(d2.min(axis=1)).sum()
    return total / a.shape[0]


def _nn_mean_loops(a, b):  # pragma: no cover - exercised via jit
    total = 0.0
    for i in range(a.shape[0]):
        best = np.inf
        for j in range(b.shape[0]):
            dx = a[i, 0] - b[j, 0]
            dy = a[i, 1] - b[j, 1]
            d2 = dx * dx + dy * dy
            if d2 < best:
                best = d2
        total += np.sqrt(best)
    return total / a.shape[0]


# ---------------------------------------------------------------------------
# even-odd point-in-polygon over a grid of cell centers (rasterization oracle)

def _inside_mask_numpy(xs: np.ndarray, ys: np.ndarray, ring: np.ndarray) -> np.ndarray:
    gx = xs[None, :]
    gy = ys[:, None]
    inside = np.zeros((ys.shape[0], xs.shape[0]), dtype=bool)
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


def _inside_mask_loops(xs, ys, ring):  # pragma: no cover - exercised via jit
    ny = ys.shape[0]
    nx = xs.shape[0]
    n = ring.shape[0]
    out = np.zeros((ny, nx), dtype=np.bool_)
    j = n - 1
    for k in range(n):
        y1 = ring[k, 1]
        y2 = ring[j, 1]
        if y1 != y2:
            x1 = ring[k, 0]
            slope = (ring[j, 0] - x1) / (y2 - y1)
            for iy in range(ny):
                y = ys[iy]
                if (y1 > y) != (y2 > y):
                    xc = slope * (y - y1) + x1
                    row = out[iy]
                    for ix in range(nx):
                        if xs[ix] < xc:
                            row[ix] = not row[ix]
        j = k
    return out


if NUMBA_ENABLED:
    _nn_mean_impl = njit(cache=True)(_nn_mean_loops)
    _inside_mask_impl = njit(cache=True)(_inside_mask_loops)
else:
    _nn_mean_impl = _nn_mean_numpy
    _inside_mask_impl = _inside_mask_numpy


def nn_mean_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over points of `a` of the distance to the nearest point of `b`."""
    return float(_nn_mean_impl(_as_pts(a), _as_pts(b)))


def inside_mask(xs: np.ndarray, ys: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """Boolean (len(ys), len(xs)) grid of even-odd containment in `ring`."""
    return np.asarray(_inside_mask_impl(_as_pts(xs).ravel(), _as_pts(ys).ravel(), _as_pts(ring)))
