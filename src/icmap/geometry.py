"""Planar frames, polyline/polygon primitives, clipping, and resampling.

Points are float64 arrays of shape (N, 2), in meters. All operations are
pure functions; poses and rectangles are immutable values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ._kernels import nn_mean_dist
from .errors import EmptyPointSet, InvalidSampleCount

EGO_TO_WORLD = "ego_to_world"
WORLD_TO_EGO = "world_to_ego"
EPS = 1e-9  # meters: points closer than this are one point


def wrap_angle(theta: float) -> float:
    """Normalize an angle into (-pi, pi]."""
    t = theta % math.tau
    if t > math.pi:
        t -= math.tau
    return t


@dataclass(frozen=True)
class Pose2:
    """SE(2) pose: translation (x, y) and heading theta, world frame."""

    x: float
    y: float
    theta: float

    def __post_init__(self):
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))

    def compose(self, other: "Pose2") -> "Pose2":
        """This pose followed by `other` expressed in this pose's frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(
            self.x + c * other.x - s * other.y,
            self.y + s * other.x + c * other.y,
            self.theta + other.theta,
        )

    def inverse(self) -> "Pose2":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2(-c * self.x - s * self.y, s * self.x - c * self.y, -self.theta)


def as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) point array, got shape {pts.shape}")
    return pts


def transform_points(pose: Pose2, points, direction: str = EGO_TO_WORLD) -> np.ndarray:
    """Apply the rigid transform of `pose` (or its inverse) to a point array."""
    return _rigid(math.cos(pose.theta), math.sin(pose.theta), pose.x, pose.y,
                  as_points(points), direction)


def transform_stacked(poses, points, direction: str) -> np.ndarray:
    """`transform_points(poses[k], points[k], direction)` for each k, with
    the same bits, as one (len(poses), N, 2) array."""
    c, s, tx, ty = np.array([[math.cos(p.theta), math.sin(p.theta), p.x, p.y]
                             for p in poses]).reshape(-1, 4, 1).transpose(1, 0, 2)
    return _rigid(c, s, tx, ty, np.asarray(points, dtype=np.float64), direction)


def _rigid(c, s, tx, ty, pts: np.ndarray, direction: str) -> np.ndarray:
    """`transform_points` for the pose with heading cosine `c`, sine `s` and
    translation (tx, ty). Each of them may be an array that broadcasts
    against the (..., N) coordinates of `pts`, transforming one point
    array by many poses at once with the same arithmetic per pose."""
    if direction == EGO_TO_WORLD:
        x = c * pts[..., 0] - s * pts[..., 1] + tx
        y = s * pts[..., 0] + c * pts[..., 1] + ty
    elif direction == WORLD_TO_EGO:
        dx = pts[..., 0] - tx
        dy = pts[..., 1] - ty
        x = c * dx + s * dy
        y = -s * dx + c * dy
    else:
        raise ValueError(f"unknown direction {direction!r}")
    out = np.empty(x.shape + (2,))
    out[..., 0] = x
    out[..., 1] = y
    return out


def dedupe_points(points, eps: float = EPS) -> np.ndarray:
    """Drop every point within `eps` of its predecessor in the input.

    Each point is compared with the input point just before it, not with
    the last point kept: in a run of several sub-`eps` steps every point
    after the first is dropped, even where the run as a whole spans more
    than `eps`.
    """
    pts = as_points(points)
    return pts[_dedupe_mask(pts, eps, [])[0]]


def _dedupe_mask(pts: np.ndarray, eps: float, starts) -> tuple[np.ndarray, np.ndarray]:
    """The points that `dedupe_points` keeps of each line of `pts`, where
    a line begins at index 0 and at each of `starts`: each line's first
    point, and every point more than `eps` from its input predecessor.
    Also returns the diff of `pts` that the mask read."""
    step = np.diff(pts, axis=0)
    keep = np.ones(len(pts), dtype=bool)
    keep[1:] = np.hypot(step[:, 0], step[:, 1]) > eps
    keep[starts] = True
    return keep, step


def _dedupe_steps(lines) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`dedupe_points` of each of `lines`, in one pass: (pts, sizes, steps),
    the kept points concatenated, each line's count of them, and the length
    of each step between consecutive kept points, sqrt(dx*dx + dy*dy) (the
    bits of `np.linalg.norm(..., axis=1)`). A step from one line's last
    point into the next line is meaningless.

    The dedupe and the lengths read one diff; only where the dedupe drops a
    point are the kept points differenced again.
    """
    lines = [as_points(line) for line in lines]
    sizes = [len(line) for line in lines]
    ends = list(accumulate(sizes))
    pts = lines[0] if len(lines) == 1 else np.concatenate(lines or [np.empty((0, 2))])
    keep, step = _dedupe_mask(pts, EPS, [e for e, m in zip(ends, sizes[1:]) if m])
    if not keep.all():
        kept = np.append(0, np.cumsum(keep))
        sizes = np.diff(kept[[0, *ends]]).tolist()
        pts = pts[keep]
        step = np.diff(pts, axis=0)
    dx, dy = step[:, 0], step[:, 1]
    return pts, sizes, np.sqrt(dx * dx + dy * dy)


def polyline_length(points) -> float:
    pts = as_points(points)
    if len(pts) < 2:
        return 0.0
    return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())


def chamfer_distance(p, q) -> float:
    """Symmetric Chamfer distance between two point sets, in meters.

    Defined as the average of the two directed mean nearest-neighbor
    distances, so the result reads as a typical point error.
    """
    a = as_points(p)
    b = as_points(q)
    if len(a) == 0 or len(b) == 0:
        raise EmptyPointSet("chamfer_distance requires two non-empty point sets")
    return 0.5 * (nn_mean_dist(a, b) + nn_mean_dist(b, a))


def resample_even(points, n: int) -> np.ndarray:
    """Resample a polyline to `n` points at equal arc-length spacing, after
    `dedupe_points`.

    The first and last output points coincide exactly with the deduped
    line's endpoints.
    """
    return resample_even_many([points], [n])


def resample_even_many(lines, counts) -> np.ndarray:
    """`resample_even(line, n)` of each of `lines` and its count `n` in
    `counts`, concatenated as one (sum(counts), 2) array.

    One pass dedupes every line and measures its steps (`_dedupe_steps`);
    then each line takes one `cumsum` and two `np.interp` calls.
    """
    if len(counts) != len(lines):
        raise ValueError(f"resample_even_many: {len(counts)} counts for {len(lines)} lines")
    if min(counts, default=2) < 2:
        raise InvalidSampleCount(f"need at least 2 sample points, got {min(counts)}")
    pts, sizes, steps = _dedupe_steps(lines)
    if min(sizes, default=2) < 2:
        raise EmptyPointSet("resample_even requires a polyline with positive length")
    return _resample_lines(pts, sizes, steps, counts)


def _resample_lines(pts: np.ndarray, sizes, steps: np.ndarray, counts) -> np.ndarray:
    """Each deduped line of `pts` (`_dedupe_steps`) resampled to its count
    of points; a line of fewer than 2 points, whose count must be its size,
    is copied as it is."""
    out = np.empty((sum(counts), 2))
    lo = a = 0
    for m, n in zip(sizes, counts):
        line = pts[lo:lo + m]
        if m < 2:
            out[a:a + m] = line
        else:
            # arc length at each point, and np.linspace(0.0, total, n):
            # k * (total / (n - 1)), then `total` itself last
            s = np.empty(m)
            s[0] = 0.0
            np.cumsum(steps[lo:lo + m - 1], out=s[1:])
            targets = np.arange(n) * (s[-1] / (n - 1))
            targets[-1] = s[-1]
            out[a:a + n, 0] = np.interp(targets, s, line[:, 0])
            out[a:a + n, 1] = np.interp(targets, s, line[:, 1])
            out[a] = line[0]
            out[a + n - 1] = line[-1]
        lo += m
        a += n
    return out


def _sample_count(length: float, spacing: float) -> int:
    """The points `densify` resamples a line of `length` to: about
    `spacing` meters apart, and at least 2."""
    return max(2, int(round(length / spacing)) + 1)


def densify(points, spacing: float) -> np.ndarray:
    """Resample a deduped polyline (`dedupe_points`) to approximately
    `spacing` meters between points, with `resample_even`, which dedupes it
    again.

    A line that either dedupe leaves with fewer than 2 points is returned as
    the second one leaves it. The second one can drop more: of x = 0,
    0.6e-9 and -0.5e-9, the first keeps 0 and -0.5e-9, each point being
    compared with its input predecessor, and the second keeps 0 alone.
    """
    return densify_many([points], spacing)[0]


def densify_many(lines, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """`densify(line, spacing)` of each of `lines`, as (pts, bounds): line
    k's points are pts[bounds[k]:bounds[k + 1]].

    A line's sample count comes from its length after the first dedupe,
    summed over its own slice of the steps, as `polyline_length` sums it;
    the second dedupe is one more `_dedupe_steps` pass over every line,
    needed only where the first one dropped a point.
    """
    pts, sizes, steps = _dedupe_steps(lines)
    bounds = [0, *accumulate(sizes)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    counts = [_sample_count(float(steps[lo:hi - 1].sum()), spacing) if hi - lo > 1 else 0
              for lo, hi in spans]
    if len(pts) < sum(map(len, lines)):  # what the first dedupe kept may lose more
        pts, sizes, steps = _dedupe_steps([pts[lo:hi] for lo, hi in spans])
    counts = [n if m >= 2 else m for n, m in zip(counts, sizes)]
    return _resample_lines(pts, sizes, steps, counts), np.array([0, *accumulate(counts)])


@dataclass(frozen=True)
class Rect:
    """Oriented rectangle: center pose, half extent along heading, half width."""

    center: Pose2
    half_length: float
    half_width: float

    def __post_init__(self):
        if self.half_length <= 0 or self.half_width <= 0:
            raise ValueError("Rect extents must be positive")

    def expand(self, margin: float) -> "Rect":
        return Rect(self.center, self.half_length + margin, self.half_width + margin)

    def contains(self, points, eps: float = EPS) -> np.ndarray:
        """Boolean mask of points inside (or on) the rectangle."""
        local = transform_points(self.center, as_points(points), WORLD_TO_EGO)
        return (np.abs(local[:, 0]) <= self.half_length + eps) & (
            np.abs(local[:, 1]) <= self.half_width + eps
        )


def _clip_segments_box(p, q, lim):
    """Liang-Barsky clip of the segments p[..., k, :] -> q[..., k, :] against
    the box [-hl, hl] x [-hw, hw], where lim[..., 0] is hl and lim[..., 1]
    is hw.

    `lim` broadcasts against `p`, so a (..., 1, 2) array clips against one
    box per leading index. Returns (keep, t0, t1, a, b): `keep` marks the
    segments that meet the box, t0/t1 their entry and exit parameters, and
    a/b the entry and exit points, clamped onto the box so crossing points
    land exactly on the boundary. Entries of segments not kept are
    meaningless.
    """
    d = q - p
    hl, hw = lim[..., 0], lim[..., 1]
    t0 = np.zeros(p.shape[:-1])
    t1 = np.ones(p.shape[:-1])
    keep = np.ones(p.shape[:-1], dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pc, qc in (
            (-d[..., 0], p[..., 0] + hl),
            (d[..., 0], hl - p[..., 0]),
            (-d[..., 1], p[..., 1] + hw),
            (d[..., 1], hw - p[..., 1]),
        ):
            keep &= (pc != 0.0) | (qc >= 0.0)
            t = qc / pc
            t0 = np.where((pc < 0.0) & (t > t0), t, t0)
            t1 = np.where((pc > 0.0) & (t < t1), t, t1)
    # t0 only grows and t1 only shrinks, so a segment that leaves the box
    # before entering it ends with t0 > t1 whichever plane decided it
    keep &= t0 <= t1
    a = np.clip(p + t0[..., None] * d, -lim, lim)
    b = np.clip(p + t1[..., None] * d, -lim, lim)
    return keep, t0, t1, a, b


def clip_polyline_to_rect(lines, rects):
    """Clip each of `lines` to each of `rects`, as one world-frame array.

    Returns (pts, bounds, owner): piece k is pts[bounds[k]:bounds[k + 1]],
    a maximal connected piece of line `owner[k] % len(lines)` inside
    rectangle `owner[k] // len(lines)`, with crossing points inserted on
    the boundary. Pieces run in rectangle order, then line order, then
    input order. Every piece that keeps at least 2 points after a 1e-12
    dedupe against each point's predecessor in its piece is returned; the
    kernel measures no lengths (`longest_pieces` does).

    Each line is deduped at `EPS` by `dedupe_points`, the one call of it on
    a polygon-free run, which pipebench's `geometry.dedupe_points` span
    requires. The lines are concatenated, transformed into every
    rectangle's frame at once, and clipped as one (rectangle, segment)
    table in which a segment from one line into the next is never kept.
    The joining of segments into pieces, the piece dedupe and the
    transform back to the world run once over the whole table.
    """
    kept = [dedupe_points(line) for line in lines]
    src = np.concatenate(kept or [np.empty((0, 2))])
    line_of = np.repeat(np.arange(len(lines)), [len(line) for line in kept])
    if len(src) < 2 or not rects:
        return np.empty((0, 2)), np.zeros(1, dtype=np.intp), np.empty(0, dtype=np.intp)
    # one row per rectangle: its pose, then its half extents
    rows = np.array([[math.cos(r.center.theta), math.sin(r.center.theta), r.center.x,
                      r.center.y, r.half_length, r.half_width] for r in rects])[:, None, :]
    local = _rigid(rows[..., 0], rows[..., 1], rows[..., 2], rows[..., 3], src, WORLD_TO_EGO)
    keep, t0, t1, a, b = _clip_segments_box(local[:, :-1], local[:, 1:], rows[..., 4:])
    keep &= line_of[:-1] == line_of[1:]
    # a kept segment continues the current piece when the previous segment
    # was kept and left through its end, and this one enters at its start;
    # a rectangle's first kept segment always starts a piece
    joined = np.zeros_like(keep)
    joined[:, 1:] = keep[:, :-1] & (t1[:, :-1] == 1.0)
    joined &= t0 == 0.0
    kept = np.flatnonzero(keep)
    starts = ~joined.ravel()[kept]
    # each piece is its first segment's entry point, then every segment's exit
    at_b = np.arange(len(kept)) + np.cumsum(starts)
    at_a = at_b[starts] - 1
    piece = np.empty((len(kept) + len(at_a), 2))
    piece[at_b] = b.reshape(-1, 2)[kept]
    piece[at_a] = a.reshape(-1, 2)[kept[starts]]
    first = np.zeros(len(piece), dtype=bool)
    first[at_a] = True
    keep_pt, _ = _dedupe_mask(piece, 1e-12, at_a)
    piece, first = piece[keep_pt], first[keep_pt]
    bounds = np.append(np.flatnonzero(first), len(piece))
    sizes = np.diff(bounds)
    good = sizes >= 2
    piece = piece[np.repeat(good, sizes)]
    first_seg = kept[starts][good]
    rect_of, sizes = first_seg // keep.shape[1], sizes[good]
    owner = rect_of * len(lines) + line_of[first_seg % keep.shape[1]]
    # back to the world, each point by its own rectangle's pose
    world = _rigid(*(np.repeat(rows[rect_of, 0, k], sizes) for k in range(4)), piece,
                   EGO_TO_WORLD)
    return world, np.append(0, np.cumsum(sizes)), owner


def longest_pieces(lines, rects, min_length: float, n: int):
    """The longest piece of each (rectangle, line) pair that
    `clip_polyline_to_rect(lines, rects)` clips, resampled to `n` points.

    Returns (owners, samples): the pairs that have a piece, as a list of
    ascending `owner` values of the clip, and the (len(owners), n, 2) array of
    `resample_even(piece, n)` of each one's piece, with the same bits
    (`resample_even_many`). One world-frame length per piece, summed as
    `polyline_length` sums it, both admits the piece (longer than
    `min_length`) and picks the longest: the first longest wins, as `max`
    picks it. A piece with no step above `EPS` cannot be resampled and is
    passed over.
    """
    pts, bounds, owner = clip_polyline_to_rect(lines, rects)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    big = np.append(0, np.cumsum(seg > EPS))  # steps above EPS before each point
    usable = (big[bounds[1:] - 1] > big[bounds[:-1]]).tolist()
    best: dict[int, tuple[float, int, int]] = {}
    for lo, hi, o, ok in zip(bounds[:-1].tolist(), bounds[1:].tolist(), owner.tolist(), usable):
        length = float(seg[lo:hi - 1].sum())
        if ok and length > min_length and (o not in best or length > best[o][0]):
            best[o] = (length, lo, hi)
    pieces = [pts[lo:hi] for _, lo, hi in best.values()]
    return list(best), resample_even_many(pieces, [n] * len(pieces)).reshape(-1, n, 2)
