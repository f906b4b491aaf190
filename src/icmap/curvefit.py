"""Polyline merging by penalized least-squares spline fitting.

Two matched point sets are reordered into a single chain, a cubic B-spline
is fit over a chord-length parameterization by minimizing

    sum_i ||C(u_i) - p_i||^2  +  s * sum_k ||d2 c_k||^2

where d2 is the second difference of the control points (a P-spline
roughness penalty, weight `s`; Eilers & Marx, Stat. Sci. 1996), and the
fitted curve is resampled at even arc-length spacing. Larger `s` trades data
fidelity for smoothness.

Each site touches k+1 = 4 consecutive basis functions (k = DEGREE) and the
penalty couples control points two apart, so the normal equations are
banded. `_cubic_basis` computes each site's four basis values by de Boor's
recurrence (de Boor, J. Approx. Theory 1972) with scipy's operations in
scipy's order, so fits and curves have the bits `scipy.interpolate.BSpline`
gave them; one call, at the data sites and the dense output grid together,
serves both the normal equations and the fitted curve. The equations are
assembled in banded form and solved by banded Cholesky
(`_kernels.solveh_banded`, LAPACK's `dpbsv`, so the bits of
`scipy.linalg.solveh_banded`): a fixed number of numpy calls and O(n)
arithmetic per fit, each quantity computed once. One diff of the chain
gives both its dedupe and its chord lengths (`geometry._dedupe_steps`,
the pass every resample and densify dedupes with),
the penalty band is built once per control-point count, and the
right-hand side is one `bincount`. The greedy chain before it reads one
distance table (`_kernels.sq_dist_table`, then its square root): it ranks
each point's three nearest up front, and takes an argmin over a row only
when all three are already chained.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from ._kernels import solveh_banded, sq_dist_table
from .errors import InsufficientPoints
# dedupe_points is not called here, but pipebench/spans.py wraps it as an
# import site of this module
from .geometry import (_dedupe_steps, as_points, chamfer_distance, dedupe_points,  # noqa: F401
                       densify, resample_even)

# resolution bounds, far beyond any desk-scale road; they keep degenerate
# low-s merges of noisy chains from inflating point counts across repeated
# merges instead of exhausting memory
MAX_MERGE_POINTS = 2500
MAX_CTRL_POINTS = 500
DEGREE = 3  # of the merge spline
# the fit's resolution, fixed: the penalty weight `s` alone sets smoothness
CTRL_SPACING = 2.0  # meters of chord length per control point
OUT_SPACING = 1.0  # meters between resampled output points
MIN_OUT_POINTS = 20  # lower bound on the output point count
# nearest points ranked per point for the greedy chain: with three, the next
# point is among the current one's at all but about 1 step in 150 of the
# benchmark scenes' merges
NEAR_RANKS = 3


@dataclass(frozen=True)
class SmoothingFitParams:
    """The merge fit's one setting, the roughness penalty weight `s` (>= 0);
    the spline is always cubic (DEGREE)."""

    s: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        if self.s < 0:
            raise ValueError("smoothing weight s must be >= 0")


def reorder_concat(global_pts, det_pts) -> np.ndarray:
    """Combine two matched polylines into one consistently ordered chain.

    The detection is flipped when its chord opposes the global chord, the
    pooled points are chained greedily by nearest neighbor from one end of
    the farthest-apart pair, and the result is oriented along the global
    polyline's direction. Every input point appears exactly once.
    """
    g = as_points(global_pts)
    d = as_points(det_pts)
    g_chord = g[-1] - g[0]
    d_chord = d[-1] - d[0]
    if float(g_chord @ d_chord) < 0:
        d = d[::-1]
    pool = np.vstack([g, d])
    n = len(pool)
    dist = sq_dist_table(pool, pool)
    np.sqrt(dist, out=dist)
    i, j = divmod(int(dist.argmax()), n)
    # start from whichever extreme sits nearer the global start
    cur = i if np.hypot(*(pool[i] - g[0])) <= np.hypot(*(pool[j] - g[0])) else j
    # rank each point's NEAR_RANKS nearest other points in argmin's order
    # (least distance, then least index), setting their entries and the
    # diagonal to inf. The next point is the first of the current point's
    # ranked points not yet chained. When all of them are chained, so is
    # every point whose entry in its row is inf, and one argmin over the row
    # with the other chained points set to inf finds it. Either way it is
    # the argmin over the unchained points, ties included.
    dist.flat[::n + 1] = np.inf
    rows = np.arange(n)
    ranked = []
    for _ in range(NEAR_RANKS):
        nearest = dist.argmin(axis=1)
        dist[rows, nearest] = np.inf
        ranked.append(nearest.tolist())
    near = list(zip(*ranked))
    chained = [False] * n
    order = [cur]
    for _ in range(1, n):
        chained[cur] = True
        for nxt in near[cur]:
            if not chained[nxt]:
                break
        else:
            row = dist[cur]  # read once: cur is never current again
            row[order] = np.inf
            nxt = int(row.argmin())
        cur = nxt
        order.append(cur)
    chain = pool[order]
    if float((chain[-1] - chain[0]) @ g_chord) < 0:
        chain = chain[::-1]
    return chain


def _clamped_knots(n_ctrl: int, u: np.ndarray) -> np.ndarray:
    # interior knots at parameter quantiles so every basis function keeps
    # data support (uniform data gives uniform knots; chains with long empty
    # spans would otherwise leave control points unconstrained). `u` is
    # sorted, so this is np.quantile's "linear" rule written out, bit for bit.
    v = np.linspace(0.0, 1.0, n_ctrl - DEGREE + 1) * (len(u) - 1)
    lo = np.floor(v)
    t = v - lo
    i = lo.astype(np.intp)
    a = u[i]
    b = u[np.minimum(i + 1, len(u) - 1)]
    inner = np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)
    inner[0], inner[-1] = u[0], u[-1]
    return np.concatenate([np.full(DEGREE, u[0]), inner, np.full(DEGREE, u[-1])])


def _cubic_basis(t: np.ndarray, n_ctrl: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero cubic B-spline values at sites `x` in [t[3], t[n_ctrl]]:
    (first, vals), where site i touches basis functions first[i] ..
    first[i] + 3 with values vals[i]. This is scipy's interval search and
    `_deBoor_D`, each operation in the same order, over all sites at once.
    """
    k = DEGREE
    # t[ell] <= x < t[ell + 1]; x >= t[k] keeps ell >= k, and the last knot
    # falls in the last interval
    ell = np.minimum(np.searchsorted(t, x, "right"), n_ctrl) - 1
    # row r holds t[ell - k + 1 + r]: the knots t[ell - 2] .. t[ell + 3]
    win = t[ell + np.arange(1 - k, k + 1)[:, None]]
    right = win[k:] - x  # t[ell + n] - x, n = 1..k
    left = x - win[:k]  # x - t[ell + n - k], n = 1..k
    h = np.ones((1, len(x)))
    for j in range(1, k + 1):
        # step j of _deBoor_D, its loop over n = 1..j as rows: with
        # w[n-1] = h[n-1] / (t[ell+n] - t[ell+n-j]), the loop leaves
        # h[0] = 0.0 + w[0] * right, h[n] = w[n-1] * left + w[n] * right for
        # 0 < n < j, and h[j] = w[j-1] * left
        span = win[k:k + j] - win[k - j:k]
        # repeated knots: w = 0 leaves h[n - 1] and zeroes h[n], as scipy's
        # skip of a zero span does
        span[span == 0.0] = np.inf
        w = h / span
        up = w * right[:j]
        down = w * left[k - j:]
        h = np.empty((j + 1, len(x)))
        np.add(0.0, up[0], out=h[0])
        np.add(down[:-1], up[1:], out=h[1:j])
        h[j] = down[-1]
    return ell - k, h.T


def _curve_at(c: np.ndarray, first: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The curve of control points `c` at the sites of basis values (first,
    vals): each coordinate is 0.0 + c[first] * vals[:, 0] + ... + c[first +
    3] * vals[:, 3], summed in that order, as `BSpline.__call__` sums."""
    # terms[d, a, i] = c[first[i] + a, d] * vals[i, a]
    terms = c.T.take(first + np.arange(DEGREE + 1)[:, None], axis=1) * vals.T
    out = np.add(0.0, terms[:, 0])
    for a in range(1, DEGREE + 1):
        out += terms[:, a]
    return np.ascontiguousarray(out.T)


class Spline(NamedTuple):
    """A clamped cubic B-spline: knots `t` and (n_ctrl, 2) control points `c`."""

    t: np.ndarray
    c: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Points of the curve at parameters `x` in [t[0], t[-1]]."""
        return _curve_at(self.c, *_cubic_basis(self.t, len(self.c), x))


# the pairs (a, b), a <= b, of a site's DEGREE + 1 basis values whose
# products make up BᵀB's upper band
_BASIS_PAIRS = np.triu_indices(DEGREE + 1)


@cache
def _penalty_band(n_ctrl: int) -> np.ndarray:
    """DᵀD for the second-difference operator D, in upper banded form:
    row 2 - d, column j holds (DᵀD)[j - d, j]. Built once per `n_ctrl`, and
    read-only."""
    band = np.zeros((3, n_ctrl))
    w = (1.0, -2.0, 1.0)  # row r of D is w at columns r, r+1, r+2
    m = n_ctrl - 2
    for a in range(3):
        for b in range(a, 3):
            band[2 - (b - a), b:b + m] += w[a] * w[b]
    band.flags.writeable = False
    return band


def _solve_spline(points, params: SmoothingFitParams):
    """Penalized least-squares solve; returns (spline, data sites, data,
    n_out, dense): the output point count and the curve at the dense grid
    that `fit_smoothing_spline` resamples.

    The normal equations (BᵀB + s DᵀD) c = Bᵀp have bandwidth k; they are
    assembled in upper banded form and solved by banded Cholesky.

    The first and last control points are pinned to the chain's endpoints;
    otherwise the roughness penalty pushes them past the data extent and
    repeated merges would creep outward.
    """
    pts, _, seg = _dedupe_steps([points])
    k = DEGREE
    if len(pts) < k + 1:
        raise InsufficientPoints(f"need at least {k + 1} points, got {len(pts)}")
    u = np.concatenate([[0.0], np.cumsum(seg)])
    length = float(u[-1])
    n_ctrl = min(max(int(length // CTRL_SPACING) + 1, k + 1), len(pts), MAX_CTRL_POINTS)
    # bound output resolution by spatial extent, not chain length: unpenalized
    # fits of noisy interleaved chains can oscillate, and resampling along
    # that inflated arc would let the point count grow across repeated merges
    diag = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    cap = min(int(4.0 * diag / OUT_SPACING) + 2, MAX_MERGE_POINTS)
    n_out = max(MIN_OUT_POINTS, min(round(length / OUT_SPACING) + 1, cap))
    t = _clamped_knots(n_ctrl, u)
    # site i touches basis functions first[i] .. first[i] + k; the rows after
    # the data sites' are the dense output grid's
    first, vals = _cubic_basis(t, n_ctrl, np.concatenate(
        [u, np.linspace(0.0, length, max(200, 8 * n_out))]))
    grid = first[len(u):], vals[len(u):]
    first, vals = first[:len(u)], vals[:len(u)]

    # BᵀB in upper banded form: ab[k - d, j] = A[j - d, j]
    lo, hi = _BASIS_PAIRS
    slot = (k - (hi - lo)) * n_ctrl + first[:, None] + hi
    ab = np.bincount(slot.ravel(), weights=(vals[:, lo] * vals[:, hi]).ravel(),
                     minlength=(k + 1) * n_ctrl).reshape(k + 1, n_ctrl)
    ab[k - 2:] += params.s * _penalty_band(n_ctrl)
    # Bᵀp: entry (c, dim) at 2c + dim, each summed in site order
    cols = 2 * (first[:, None] + np.arange(k + 1))
    rhs = np.bincount((cols[..., None] + np.arange(2)).ravel(),
                      weights=(vals[..., None] * pts[:, None]).ravel(),
                      minlength=2 * n_ctrl).reshape(n_ctrl, 2)

    # move the pinned end columns to the right-hand side
    rhs = rhs[1:-1]
    d = np.arange(1, min(k, n_ctrl - 2) + 1)
    rhs[d - 1] -= ab[k - d, d, None] * pts[0]
    rhs[-d] -= ab[k - d, -1, None] * pts[-1]
    ab = ab[:, 1:-1]
    ab[k] += 1e-12
    coef = np.empty((n_ctrl, 2))
    coef[0] = pts[0]
    coef[-1] = pts[-1]
    coef[1:-1] = solveh_banded(ab, rhs)
    return Spline(t, coef), u, pts, n_out, _curve_at(coef, *grid)


def fit_smoothing_spline(points, params: SmoothingFitParams) -> np.ndarray:
    """Fit the penalized spline to an ordered chain and resample it evenly."""
    *_, n_out, dense = _solve_spline(points, params)
    return resample_even(dense, n_out)


def merge_polylines(global_pts, det_pts, params: SmoothingFitParams) -> np.ndarray:
    """Merge a stored polyline with a matched detection into one smooth curve."""
    g = as_points(global_pts)
    if len(g) > MAX_MERGE_POINTS:
        g = resample_even(g, MAX_MERGE_POINTS)
    return fit_smoothing_spline(reorder_concat(g, det_pts), params)


def sweep_smoothing(observations, s_grid):
    """Fit-error sweep over the smoothing weight.

    `observations` maps class name -> list of cases, each a pair
    (reference_points, [observation_pointset, ...]); for each `s` the
    observations of a case are merged sequentially and the Chamfer distance
    of the result to the densified reference is recorded. Returns rows of
    (s, {class: mean_error}).
    """
    rows = []
    refs = {
        cls: [(densify(ref, 0.25), obs_list) for ref, obs_list in cases]
        for cls, cases in observations.items()
    }
    for s in s_grid:
        p = SmoothingFitParams(s=float(s))
        errs: dict[str, float] = {}
        for cls, cases in refs.items():
            vals = []
            for ref_dense, obs_list in cases:
                merged = as_points(obs_list[0])
                for obs in obs_list[1:]:
                    merged = merge_polylines(merged, obs, p)
                if len(obs_list) == 1:
                    merged = fit_smoothing_spline(merged, p)
                vals.append(chamfer_distance(densify(merged, 0.25), ref_dense))
            errs[cls] = float(np.mean(vals)) if vals else float("nan")
        rows.append((float(s), errs))
    return rows


@dataclass
class SweepTable:
    """Plot-ready sweep result: one row per smoothing weight."""

    classes: list[str]
    rows: list[tuple[float, dict[str, float]]] = field(default_factory=list)

    def to_text(self) -> str:
        header = "s\t" + "\t".join(f"cd_{c}" for c in self.classes)
        lines = [header]
        for s, errs in self.rows:
            lines.append("\t".join([f"{s:.3f}"] + [f"{errs[c]:.6f}" for c in self.classes]))
        return "\n".join(lines) + "\n"
