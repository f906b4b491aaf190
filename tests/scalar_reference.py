"""Per-point loop versions of the vectorised geometry primitives, and
per-pair loop versions of the code that now reads batched Chamfer matrices.

These are the scalar implementations that `icmap.geometry`, `icmap.polygon`
and `icmap._kernels` used before their loops became array code, and the
versions of `instance_ap`, `clear_mot_counts`, `geometric_affinity`
and `scene_observations` that called
`chamfer_distance` once per same-class pair, and the merge fit's greedy
chain loop and dense normal-equation solve. `clip_polyline_to_rect_array`,
`clip_gt_frame` and `sample_history` are the one-rectangle array clip, the
per-frame ground-truth clip and the per-instance history sampling that one
clip of many polylines against many rectangles replaced;
`clip_polygon_to_rect` is the Sutherland-Hodgman loop on numpy scalars
and 2-vectors that a loop on Python floats and then the array pass of many
rings against many rectangles replaced, and the oracle's `clip_gt_frame`
clips crossings with it, one frame at a time. `centerline` is the road's
centerline as synth wrote it before an s_curve reused the arc's formula
for its first half.
`_stitch` is the walk over (u, v) edge pairs, matching nodes by
`int(round(x * 1e7))` keys, that the union used before it kept its pieces
in arrays. `fuse_with_history` squares and sums its own broadcast of point
differences, as the fusion did before it read `_kernels.sq_dist_table`.
`is_simple` rejects non-adjacent edges that touch within EPS,
as the library does. `resample_even`, `densify` and `banded_fit` are the
even resample, the densify and the banded merge fit (`fit_smoothing_spline`
with its `_solve_spline`) as they were before one diff of a line served
both its dedupe and its step lengths: each dedupes, then differences the
kept points again; the fit reads `np.clip` for its control-point count,
builds the penalty band on every call and sums the right-hand side one
coordinate at a time. `densify` raises, through `resample_even`, on a line
that its dedupe leaves with 2 points and the second dedupe with 1.
`banded_merge` is `merge_polylines` over them. The tests use them as oracles: the array code must return the same values. The
arithmetic of every computed output coordinate is the same in both; only
distances that are compared against an epsilon may differ in the last bit
(a 2-vector `@` may use a fused multiply-add).

`dedupe_points` here keeps the older "last kept point" rule; the library
compares each point with its input predecessor, which differs only inside a
run of several sub-eps steps.
"""
import logging
import math

import numpy as np
from scipy.interpolate import BSpline
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from icmap._kernels import solveh_banded
from icmap.curvefit import Spline, _cubic_basis
from icmap.errors import EmptyPointSet, InsufficientPoints, InvalidSampleCount, NonSimplePolygon
from icmap.geometry import (EGO_TO_WORLD, WORLD_TO_EGO, Rect, as_points, chamfer_distance,
                            dedupe_points as dedupe_by_predecessor, polyline_length,
                            transform_points)
from icmap.instance import MapInstance
from icmap.metrics import DEFAULT_MOT_GATE, MotCounts, _ap_from_records
from icmap.polygon import DISJOINT, ensure_ccw, polygon_area
from icmap.synth import ARC, CENTERLINE_STEP, N_POINTS, STRAIGHT

log = logging.getLogger(__name__)

# the oracle's own values, stated here, not imported from the code it checks
DEGREE = 3  # of the merge spline
MAX_CTRL_POINTS = 500
MAX_MERGE_POINTS = 2500
EPS = 1e-9  # point tolerance of the polygon predicates


def dedupe_points(points, eps: float = 1e-9) -> np.ndarray:
    pts = as_points(points)
    if len(pts) < 2:
        return pts
    keep = [0]
    for i in range(1, len(pts)):
        if np.hypot(*(pts[i] - pts[keep[-1]])) > eps:
            keep.append(i)
    return pts[keep]


# ---------------------------------------------------------------------------
# geometry: the even resample and densify, each dedupe followed by a second
# diff of the kept points

def resample_even(points, n: int) -> np.ndarray:
    if n < 2:
        raise InvalidSampleCount(f"need at least 2 sample points, got {n}")
    pts = dedupe_by_predecessor(points)
    if len(pts) < 2:
        raise EmptyPointSet("resample_even requires a polyline with positive length")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.linspace(0.0, s[-1], n)
    out = np.column_stack([np.interp(targets, s, pts[:, 0]), np.interp(targets, s, pts[:, 1])])
    out[0] = pts[0]
    out[-1] = pts[-1]
    return out


def densify(points, spacing: float) -> np.ndarray:
    pts = dedupe_by_predecessor(points)
    if len(pts) < 2:
        return pts
    return resample_even(pts, max(2, int(round(polyline_length(pts) / spacing)) + 1))


# ---------------------------------------------------------------------------
# kernels: nearest-neighbour mean distance and even-odd rasterization

def nn_mean_dist(a, b) -> float:
    """Brute force: every point of `a` against every point of `b`, summed
    exactly (`math.fsum`)."""
    a, b = as_points(a), as_points(b)
    nearest = [math.sqrt(float(((b - p) ** 2).sum(axis=1).min())) for p in a]
    return math.fsum(nearest) / len(a)


def inside_mask(xs, ys, ring) -> np.ndarray:
    """Even-odd containment of every (x, y) grid cell centre, one cell at a
    time; the crossing abscissa uses the same arithmetic as the array code."""
    xs, ys, ring = np.ravel(xs), np.ravel(ys), as_points(ring)
    n = len(ring)
    out = np.zeros((len(ys), len(xs)), dtype=bool)
    for k in range(n):
        x1, y1 = ring[k]
        x2, y2 = ring[(k + 1) % n]
        if y1 == y2:
            continue
        for iy, y in enumerate(ys):
            if (y1 > y) != (y2 > y):
                xc = (x2 - x1) * (y - y1) / (y2 - y1) + x1
                for ix, x in enumerate(xs):
                    if x < xc:
                        out[iy, ix] = not out[iy, ix]
    return out


# ---------------------------------------------------------------------------
# geometry: polyline clipping

def _clip_segment_box(p, q, hl: float, hw: float):
    d = q - p
    t0, t1 = 0.0, 1.0
    for pc, qc in (
        (-d[0], p[0] + hl),
        (d[0], hl - p[0]),
        (-d[1], p[1] + hw),
        (d[1], hw - p[1]),
    ):
        if pc == 0.0:
            if qc < 0.0:
                return None
            continue
        t = qc / pc
        if pc < 0.0:
            if t > t1:
                return None
            if t > t0:
                t0 = t
        else:
            if t < t0:
                return None
            if t < t1:
                t1 = t
    a = p + t0 * d
    b = p + t1 * d
    for v in (a, b):
        v[0] = min(hl, max(-hl, v[0]))
        v[1] = min(hw, max(-hw, v[1]))
    return t0, t1, a, b


def clip_polyline_to_rect(points, rect, min_length: float = 0.0) -> list[np.ndarray]:
    pts = transform_points(rect.center, dedupe_points(points), WORLD_TO_EGO)
    hl, hw = rect.half_length, rect.half_width
    pieces: list[np.ndarray] = []
    cur = None

    def close():
        nonlocal cur
        if cur is not None:
            piece = dedupe_points(np.array(cur), 1e-12)
            if len(piece) >= 2 and polyline_length(piece) > min_length:
                pieces.append(transform_points(rect.center, piece, EGO_TO_WORLD))
        cur = None

    for i in range(len(pts) - 1):
        res = _clip_segment_box(pts[i], pts[i + 1], hl, hw)
        if res is None:
            close()
            continue
        t0, t1, a, b = res
        if t0 > 0.0 or cur is None:
            close()
            cur = [a]
        cur.append(b)
        if t1 < 1.0:
            close()
    close()
    return pieces


def _clip_segments_box_array(p, q, hl: float, hw: float):
    d = q - p
    t0 = np.zeros(len(p))
    t1 = np.ones(len(p))
    keep = np.ones(len(p), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for pc, qc in (
            (-d[:, 0], p[:, 0] + hl),
            (d[:, 0], hl - p[:, 0]),
            (-d[:, 1], p[:, 1] + hw),
            (d[:, 1], hw - p[:, 1]),
        ):
            keep &= (pc != 0.0) | (qc >= 0.0)
            t = qc / pc
            t0 = np.where((pc < 0.0) & (t > t0), t, t0)
            t1 = np.where((pc > 0.0) & (t < t1), t, t1)
    keep &= t0 <= t1
    lim = np.array([hl, hw])
    a = np.clip(p + t0[:, None] * d, -lim, lim)
    b = np.clip(p + t1[:, None] * d, -lim, lim)
    return keep, t0, t1, a, b


def clip_polyline_to_rect_array(points, rect, min_length: float = 0.0) -> list[np.ndarray]:
    """The one-rectangle array clip, one plane at a time, that the clip
    over many rectangles at once replaced."""
    pts = transform_points(rect.center, dedupe_by_predecessor(points), WORLD_TO_EGO)
    if len(pts) < 2:
        return []
    keep, t0, t1, a, b = _clip_segments_box_array(pts[:-1], pts[1:], rect.half_length,
                                                  rect.half_width)
    joined = np.concatenate([[False], keep[:-1] & (t1[:-1] == 1.0)]) & (t0 == 0.0)
    kept = np.flatnonzero(keep)
    starts = np.flatnonzero(~joined[kept])
    pieces: list[np.ndarray] = []
    for lo, hi in zip(starts, [*starts[1:], len(kept)]):
        seg = kept[lo:hi]
        piece = dedupe_by_predecessor(np.vstack([a[seg[:1]], b[seg]]), 1e-12)
        if len(piece) >= 2 and polyline_length(piece) > min_length:
            pieces.append(transform_points(rect.center, piece, EGO_TO_WORLD))
    return pieces


def clip_polygon_to_rect(ring, rect) -> list[np.ndarray]:
    pts = transform_points(rect.center, as_points(ring), WORLD_TO_EGO)
    hl, hw = rect.half_length, rect.half_width
    # half-planes as (a, b, c) with a*x + b*y <= c inside
    planes = [(1.0, 0.0, hl), (-1.0, 0.0, hl), (0.0, 1.0, hw), (0.0, -1.0, hw)]
    poly = [p for p in pts]
    for a, b, c in planes:
        if not poly:
            break
        out: list[np.ndarray] = []
        n = len(poly)
        for i in range(n):
            p, q = poly[i], poly[(i + 1) % n]
            pin = a * p[0] + b * p[1] <= c
            qin = a * q[0] + b * q[1] <= c
            if pin:
                out.append(p)
            if pin != qin:
                dp = a * p[0] + b * p[1] - c
                dq = a * q[0] + b * q[1] - c
                t = dp / (dp - dq)
                out.append(p + t * (q - p))
        poly = out
    if len(poly) < 3:
        return []
    result = dedupe_by_predecessor(np.array(poly), 1e-9)
    if len(result) >= 2 and np.hypot(*(result[0] - result[-1])) <= 1e-9:
        result = result[:-1]
    if len(result) < 3 or abs(polygon_area(result)) < 1e-12:
        return []
    return [transform_points(rect.center, ensure_ccw(result), EGO_TO_WORLD)]


# ---------------------------------------------------------------------------
# synth: the ground truth clipped one frame at a time, and the centerline

def clip_gt_frame(gt, pose, range_lw, n_points: int = N_POINTS) -> list[MapInstance]:
    rect = Rect(pose, range_lw[0] / 2.0, range_lw[1] / 2.0)
    out: list[MapInstance] = []
    for inst_id in sorted(gt.instances):
        inst = gt.instances[inst_id]
        if inst.is_polyline:
            pieces = clip_polyline_to_rect_array(inst.points, rect, min_length=0.5)
            if not pieces:
                continue
            longest = max(pieces, key=polyline_length)
            pts = resample_even(longest, n_points)
        else:
            pieces = clip_polygon_to_rect(inst.points, rect)
            if not pieces or abs(polygon_area(pieces[0])) < 0.25:
                continue
            pts = pieces[0]
        local = transform_points(pose, pts, WORLD_TO_EGO)
        out.append(MapInstance(inst.cls, local, id=inst.id))
    return out


def centerline(config):
    """The road's centerline with the arc written out for each curvature:
    an s_curve fills its first half (s <= L/2) from its own copy of the
    arc formula."""
    L = config.road_length
    n = int(round(L / CENTERLINE_STEP)) + 1
    s = np.linspace(0.0, L, n)
    if config.curvature == STRAIGHT:
        x = s
        y = np.zeros_like(s)
        th = np.zeros_like(s)
    elif config.curvature == ARC:
        R = config.radius
        phi = s / R
        x = R * np.sin(phi)
        y = R * (1.0 - np.cos(phi))
        th = phi
    else:  # s_curve: left arc then right arc of the same radius
        R = config.radius
        half = L / 2.0
        x = np.empty_like(s)
        y = np.empty_like(s)
        th = np.empty_like(s)
        first = s <= half
        phi = s[first] / R
        x[first] = R * np.sin(phi)
        y[first] = R * (1.0 - np.cos(phi))
        th[first] = phi
        phi1 = half / R
        x1, y1 = R * math.sin(phi1), R * (1.0 - math.cos(phi1))
        psi = (s[~first] - half) / R
        lx = R * np.sin(psi)
        ly = -R * (1.0 - np.cos(psi))
        c, sn = math.cos(phi1), math.sin(phi1)
        x[~first] = x1 + c * lx - sn * ly
        y[~first] = y1 + sn * lx + c * ly
        th[~first] = phi1 - psi
    return np.column_stack([x, y]), th, s


# ---------------------------------------------------------------------------
# polygon: predicates and the arrangement union

def _cross2(a, b) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    d1 = p2 - p1
    d2 = q2 - q1
    den = _cross2(d1, d2)
    if abs(den) < 1e-14:
        return False
    t = _cross2(q1 - p1, d2) / den
    u = _cross2(q1 - p1, d1) / den
    return 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9


def _point_segment_dist(pt, a, b) -> float:
    d = b - a
    den = float(d @ d)
    if den == 0.0:
        return float(np.hypot(*(pt - a)))
    t = float((pt - a) @ d) / den
    t = min(1.0, max(0.0, t))
    return float(np.hypot(*(pt - (a + t * d))))


def is_simple(ring) -> bool:
    r = dedupe_points(as_points(ring), EPS)
    n = len(r)
    if n < 3:
        return False
    if np.hypot(*(r[0] - r[-1])) <= EPS:
        return False
    for i in range(n):
        p1, p2 = r[i], r[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            q1, q2 = r[j], r[(j + 1) % n]
            if _segments_properly_intersect(p1, p2, q1, q2):
                return False
            # edges that touch without crossing: an end of one within EPS of the other
            if min(_point_segment_dist(p1, q1, q2), _point_segment_dist(p2, q1, q2),
                   _point_segment_dist(q1, p1, p2), _point_segment_dist(q2, p1, p2)) <= EPS:
                return False
    return True


def classify_point(pt, ring, eps: float = EPS) -> int:
    r = as_points(ring)
    n = len(r)
    for i in range(n):
        if _point_segment_dist(pt, r[i], r[(i + 1) % n]) <= eps:
            return 0
    inside = False
    j = n - 1
    for i in range(n):
        yi, yj = r[i, 1], r[j, 1]
        if (yi > pt[1]) != (yj > pt[1]):
            xc = (r[j, 0] - r[i, 0]) * (pt[1] - yi) / (yj - yi) + r[i, 0]
            if pt[0] < xc:
                inside = not inside
        j = i
    return 1 if inside else -1


def _contained(a, b, eps: float = EPS) -> bool:
    n = len(a)
    for i in range(n):
        if classify_point(a[i], b, eps) < 0:
            return False
        mid = 0.5 * (a[i] + a[(i + 1) % n])
        if classify_point(mid, b, eps) < 0:
            return False
    return polygon_area(a) <= polygon_area(b) + eps


def _collect_nodes(a, b, eps: float) -> list[np.ndarray]:
    nodes: list[np.ndarray] = []

    def add(pt):
        for q in nodes:
            if np.hypot(*(pt - q)) <= 10 * eps:
                return
        nodes.append(np.asarray(pt, dtype=np.float64))

    na, nb = len(a), len(b)
    for i in range(na):
        p1, p2 = a[i], a[(i + 1) % na]
        d1 = p2 - p1
        for j in range(nb):
            q1, q2 = b[j], b[(j + 1) % nb]
            d2 = q2 - q1
            den = _cross2(d1, d2)
            if abs(den) < 1e-14:
                continue
            t = _cross2(q1 - p1, d2) / den
            u = _cross2(q1 - p1, d1) / den
            if -eps <= t <= 1 + eps and -eps <= u <= 1 + eps:
                add(p1 + min(1.0, max(0.0, t)) * d1)
    for ring, other in ((a, b), (b, a)):
        n, m = len(ring), len(other)
        for i in range(n):
            for j in range(m):
                if _point_segment_dist(ring[i], other[j], other[(j + 1) % m]) <= eps:
                    add(ring[i])
                    break
    return nodes


def _split_edges(ring, nodes, eps: float):
    edges = []
    n = len(ring)
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        d = q - p
        L2 = float(d @ d)
        cuts = [(0.0, p), (1.0, q)]
        for node in nodes:
            if _point_segment_dist(node, p, q) <= eps:
                t = float((node - p) @ d) / L2 if L2 > 0 else 0.0
                if eps < t < 1 - eps or (0 <= t <= 1 and min(
                    np.hypot(*(node - p)), np.hypot(*(node - q))
                ) > 10 * eps):
                    cuts.append((t, node))
        cuts.sort(key=lambda c: c[0])
        for k in range(len(cuts) - 1):
            u, v = cuts[k][1], cuts[k + 1][1]
            if np.hypot(*(v - u)) > 10 * eps:
                edges.append((np.asarray(u, float), np.asarray(v, float)))
    return edges


def _key(pt) -> tuple[int, int]:
    return (int(round(pt[0] * 1e7)), int(round(pt[1] * 1e7)))


def _stitch(edges) -> list[np.ndarray]:
    """Walk directed edges into closed loops, picking the most clockwise
    continuation at nodes with several outgoing edges (keeps the walk on the
    outer boundary at degenerate seams)."""
    out_map: dict[tuple[int, int], list[int]] = {}
    for idx, (u, _v) in enumerate(edges):
        out_map.setdefault(_key(u), []).append(idx)
    used = [False] * len(edges)
    loops = []
    for start in range(len(edges)):
        if used[start]:
            continue
        loop = [edges[start][0]]
        cur = start
        guard = 0
        while guard <= len(edges):
            guard += 1
            used[cur] = True
            u, v = edges[cur]
            loop.append(v)
            if _key(v) == _key(loop[0]) and guard > 1:
                loops.append(np.array(loop[:-1]))
                break
            cands = [i for i in out_map.get(_key(v), []) if not used[i]]
            if not cands:
                break  # open chain; discarded
            if len(cands) == 1:
                cur = cands[0]
            else:
                din = v - u
                ain = np.arctan2(din[1], din[0])

                def turn(i):
                    d = edges[i][1] - edges[i][0]
                    rel = (np.arctan2(d[1], d[0]) - ain + np.pi) % (2 * np.pi) - np.pi
                    return rel

                cur = min(cands, key=turn)
    return loops


def polygon_union(a, b, eps: float = EPS):
    a = ensure_ccw(dedupe_points(as_points(a), eps))
    b = ensure_ccw(dedupe_points(as_points(b), eps))
    if not is_simple(a) or not is_simple(b):
        raise NonSimplePolygon("polygon_union requires simple polygons")
    if _contained(a, b, eps):
        return b.copy()
    if _contained(b, a, eps):
        return a.copy()
    nodes = _collect_nodes(a, b, eps)
    if not nodes:
        return DISJOINT

    kept = []
    for u, v in _split_edges(a, nodes, eps):
        if classify_point(0.5 * (u + v), b, eps) <= 0:
            kept.append((u, v))
    for u, v in _split_edges(b, nodes, eps):
        if classify_point(0.5 * (u + v), a, eps) < 0:
            kept.append((u, v))

    loops = _stitch(kept)
    best = None
    best_area = 0.0
    for loop in loops:
        area = abs(polygon_area(loop))
        if area > best_area:
            best, best_area = loop, area
    floor = max(abs(polygon_area(a)), abs(polygon_area(b)))
    if best is None or best_area < floor - 1e-6:
        log.warning("polygon union traversal failed; keeping larger input")
        return (a if abs(polygon_area(a)) >= abs(polygon_area(b)) else b).copy()
    ring = dedupe_points(best, eps)
    return ensure_ccw(ring)


# ---------------------------------------------------------------------------
# per-pair Chamfer loops: one `chamfer_distance` call per same-class pair

def geometric_affinity(dets, tracks, tau: float, densify_spacing: float = 1.0) -> np.ndarray:
    h = np.zeros((len(dets), len(tracks)))
    pairs = [(i, j) for i, d in enumerate(dets) for j, t in enumerate(tracks) if d.cls == t.cls]
    dense_d = {i: densify(dets[i].closed_points, densify_spacing)
               for i in sorted({i for i, _ in pairs})}
    dense_t = {j: densify(tracks[j].closed_points, densify_spacing)
               for j in sorted({j for _, j in pairs})}
    for i, j in pairs:
        h[i, j] = np.exp(-chamfer_distance(dense_d[i], dense_t[j]) / tau)
    return h


# ---------------------------------------------------------------------------
# mapstore: history sampled one instance at a time

def sample_history(gmap, patch, expand: float, ids, n_sample: int) -> dict:
    expanded = patch.expand(expand)
    out = {}
    for inst_id in ids:
        inst = gmap.instances.get(inst_id)
        if inst is None or not inst.is_polyline:
            continue
        pieces = clip_polyline_to_rect_array(inst.points, expanded)
        if not pieces:
            continue
        longest = max(pieces, key=polyline_length)
        out[inst_id] = resample_even(longest, n_sample)
    return out


# ---------------------------------------------------------------------------
# the fusion blend on its own broadcast of point differences

def fuse_with_history(det, hist, radius: float, weight: float):
    if hist is None or len(hist) == 0 or weight == 0.0 or not det.is_polyline:
        return det
    h = as_points(hist)
    pts = det.points.copy()
    d2 = ((pts[:, None, :] - h[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(pts)), nearest])
    mask = dist <= radius
    pts[mask] = (1.0 - weight) * pts[mask] + weight * h[nearest[mask]]
    return det.with_points(pts)


def scene_observations(scene) -> dict:
    cases, ref = {}, {}
    for inst_id in sorted(scene.gt.instances):
        inst = scene.gt.instances[inst_id]
        if inst.is_polyline:
            ref[inst_id] = inst
            cases[inst_id] = []
    for frame in scene.frames:
        gt_world = {
            g.id: g.transformed(frame.ego_pose, EGO_TO_WORLD)
            for g in frame.gt_local
            if g.is_polyline
        }
        if not gt_world:
            continue
        for det in frame.detections:
            if not det.is_polyline:
                continue
            world = det.transformed(frame.ego_pose, EGO_TO_WORLD)
            best_id, best_d = None, np.inf
            for gid, g in gt_world.items():
                if g.cls != det.cls:
                    continue
                d = chamfer_distance(world.points, g.points)
                if d < best_d:
                    best_id, best_d = gid, d
            if best_id is not None and best_d < 5.0:
                cases[best_id].append(world.points)
    out = {}
    for gid, obs in cases.items():
        if obs:
            out.setdefault(ref[gid].cls, []).append((ref[gid].points, obs))
    return out


def instance_ap(pred_frames, gt_frames, thresholds):
    classes = sorted(
        {g.cls for fr in gt_frames for g in fr} | {p.cls for fr in pred_frames for p in fr}
    )
    ap, counts = {}, {}
    for cls in classes:
        n_gt = sum(1 for fr in gt_frames for g in fr if g.cls == cls)
        if n_gt == 0:
            continue
        frames = []
        for preds, gts in zip(pred_frames, gt_frames):
            gts_c = [g for g in gts if g.cls == cls]
            order = sorted(
                (i for i, p in enumerate(preds) if p.cls == cls),
                key=lambda i: (-preds[i].score, i),
            )
            dist = [[chamfer_distance(preds[i].points, g.points) for g in gts_c] for i in order]
            frames.append(([preds[i].score for i in order], dist, len(gts_c)))
        per_thr = []
        counts[cls] = {}
        for thr in thresholds:
            records = []
            for scores, dist, n_gts in frames:
                used = [False] * n_gts
                for score, row in zip(scores, dist):
                    best_j, best_d = -1, np.inf
                    for j, d in enumerate(row):
                        if not used[j] and d < best_d:
                            best_j, best_d = j, d
                    hit = best_j >= 0 and best_d < thr
                    if hit:
                        used[best_j] = True
                    records.append((score, hit))
            tp = sum(1 for r in records if r[1])
            counts[cls][thr] = (tp, len(records) - tp, n_gt - tp)
            per_thr.append(_ap_from_records(records, n_gt))
        ap[cls] = float(np.mean(per_thr))
    mean_ap = float(np.mean([ap[c] for c in ap])) if ap else float("nan")
    return ap, mean_ap, counts


def clear_mot_counts(pred_frames, gt_frames, match_threshold: float = DEFAULT_MOT_GATE):
    classes = sorted({g.cls for fr in gt_frames for g in fr})
    out = {}
    for cls in classes:
        counts = MotCounts()
        last_match, corr = {}, {}
        for preds_all, gts_all in zip(pred_frames, gt_frames):
            gts = [g for g in gts_all if g.cls == cls]
            preds = [p for p in preds_all if p.cls == cls]
            counts.gt += len(gts)
            if not gts and not preds:
                corr = {}
                continue
            dist = np.full((len(gts), len(preds)), np.inf)
            for i, g in enumerate(gts):
                for j, p in enumerate(preds):
                    dist[i, j] = chamfer_distance(g.points, p.points)
            matched_g, matched_p, pairs = set(), set(), []
            pred_by_id = {p.id: j for j, p in enumerate(preds)}
            for i, g in enumerate(gts):
                j = pred_by_id.get(corr.get(g.id))
                if j is not None and j not in matched_p and dist[i, j] < match_threshold:
                    pairs.append((i, j))
                    matched_g.add(i)
                    matched_p.add(j)
            free_g = [i for i in range(len(gts)) if i not in matched_g]
            free_p = [j for j in range(len(preds)) if j not in matched_p]
            if free_g and free_p:
                sub = dist[np.ix_(free_g, free_p)]
                cost = np.where(sub < match_threshold, sub, 1e9)
                rows, cols = linear_sum_assignment(cost)
                for r, c in zip(rows, cols):
                    if sub[r, c] < match_threshold:
                        pairs.append((free_g[r], free_p[c]))
            corr = {}
            for i, j in pairs:
                g, p = gts[i], preds[j]
                prev = last_match.get(g.id)
                if prev is not None and prev != p.id:
                    counts.id_switches += 1
                last_match[g.id] = p.id
                corr[g.id] = p.id
                counts.matches += 1
                counts.dist_sum += float(dist[i, j])
            counts.fn += len(gts) - len(pairs)
            counts.fp += len(preds) - len(pairs)
        out[cls] = counts
    return out


# ---------------------------------------------------------------------------
# curvefit: greedy chain and dense penalized spline solve

def reorder_concat(global_pts, det_pts) -> np.ndarray:
    """One masked row copy and argmin per chain step."""
    g = as_points(global_pts)
    d = as_points(det_pts)
    g_chord = g[-1] - g[0]
    d_chord = d[-1] - d[0]
    if float(g_chord @ d_chord) < 0:
        d = d[::-1]
    pool = np.vstack([g, d])
    n = len(pool)
    dist = cdist(pool, pool)
    i, j = np.unravel_index(np.argmax(dist), dist.shape)
    start = i if np.hypot(*(pool[i] - g[0])) <= np.hypot(*(pool[j] - g[0])) else j
    order = [start]
    used = np.zeros(n, dtype=bool)
    used[start] = True
    for _ in range(n - 1):
        row = dist[order[-1]].copy()
        row[used] = np.inf
        nxt = int(np.argmin(row))
        order.append(nxt)
        used[nxt] = True
    chain = pool[order]
    if float((chain[-1] - chain[0]) @ g_chord) < 0:
        chain = chain[::-1]
    return chain


def _clamped_knots(n_ctrl: int, u: np.ndarray) -> np.ndarray:
    inner = np.quantile(u, np.linspace(0.0, 1.0, n_ctrl - DEGREE + 1))
    inner[0], inner[-1] = u[0], u[-1]
    return np.concatenate([np.full(DEGREE, u[0]), inner, np.full(DEGREE, u[-1])])


def solve_spline(points, params):
    """Dense design matrix, dense second-difference penalty, dense solve."""
    pts = dedupe_by_predecessor(points, 1e-9)
    k = DEGREE
    if len(pts) < k + 1:
        raise InsufficientPoints(f"need at least {k + 1} points, got {len(pts)}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    u = np.concatenate([[0.0], np.cumsum(seg)])
    # one control point per 2 m of chord, stated here, not imported
    n_ctrl = int(np.clip(int(u[-1] // 2.0) + 1, k + 1,
                         min(len(pts), MAX_CTRL_POINTS)))
    t = _clamped_knots(n_ctrl, u)
    B = BSpline.design_matrix(u, t, k).toarray()
    d2 = np.diff(np.eye(n_ctrl), n=2, axis=0) if n_ctrl > 2 else np.zeros((0, n_ctrl))

    free = slice(1, n_ctrl - 1)
    ends = np.array([0, n_ctrl - 1])
    y_ends = pts[[0, -1]]
    r = pts - B[:, ends] @ y_ends
    e = d2[:, ends] @ y_ends
    Bf = B[:, free]
    Df = d2[:, free]
    A = Bf.T @ Bf + params.s * (Df.T @ Df)
    A[np.diag_indices_from(A)] += 1e-12
    rhs = Bf.T @ r - params.s * (Df.T @ e)
    coef = np.empty((n_ctrl, 2))
    coef[0] = pts[0]
    coef[-1] = pts[-1]
    coef[free] = np.linalg.solve(A, rhs) if n_ctrl > 2 else np.zeros((0, 2))
    return BSpline(t, coef, k), u, pts


def _penalty_band(n_ctrl: int) -> np.ndarray:
    band = np.zeros((3, n_ctrl))
    w = (1.0, -2.0, 1.0)
    m = n_ctrl - 2
    for a in range(3):
        for b in range(a, 3):
            band[2 - (b - a), b:b + m] += w[a] * w[b]
    return band


_BASIS_PAIRS = np.triu_indices(DEGREE + 1)


def banded_solve_spline(points, params):
    """The banded solve of the normal equations, each sum in its own call."""
    pts = dedupe_by_predecessor(points)
    k = DEGREE
    if len(pts) < k + 1:
        raise InsufficientPoints(f"need at least {k + 1} points, got {len(pts)}")
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    u = np.concatenate([[0.0], np.cumsum(seg)])
    n_ctrl = int(np.clip(int(u[-1] // 2.0) + 1, k + 1,
                         min(len(pts), MAX_CTRL_POINTS)))
    t = _clamped_knots(n_ctrl, u)
    first, vals = _cubic_basis(t, n_ctrl, u)
    lo, hi = _BASIS_PAIRS
    slot = (k - (hi - lo)) * n_ctrl + first[:, None] + hi
    ab = np.bincount(slot.ravel(), weights=(vals[:, lo] * vals[:, hi]).ravel(),
                     minlength=(k + 1) * n_ctrl).reshape(k + 1, n_ctrl)
    ab[k - 2:] += params.s * _penalty_band(n_ctrl)
    cols = (first[:, None] + np.arange(k + 1)).ravel()
    rhs = np.column_stack([np.bincount(cols, weights=(vals * pts[:, [dim]]).ravel(),
                                       minlength=n_ctrl) for dim in (0, 1)])
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
    return Spline(t, coef), u, pts


def banded_fit(points, params) -> np.ndarray:
    spline, u, pts = banded_solve_spline(points, params)
    length = u[-1]
    diag = float(np.hypot(*(pts.max(axis=0) - pts.min(axis=0))))
    # 1 m output spacing, at least 20 points
    cap = min(int(4.0 * diag / 1.0) + 2, MAX_MERGE_POINTS)
    n_out = max(20, min(int(round(length / 1.0)) + 1, cap))
    dense = spline(np.linspace(0.0, length, max(200, 8 * n_out)))
    return resample_even(dense, n_out)


def banded_merge(global_pts, det_pts, params) -> np.ndarray:
    g = as_points(global_pts)
    if len(g) > MAX_MERGE_POINTS:
        g = resample_even(g, MAX_MERGE_POINTS)
    return banded_fit(reorder_concat(g, det_pts), params)
