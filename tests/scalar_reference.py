"""Per-point loop versions of the vectorised geometry primitives.

These are the scalar implementations that `icmap.geometry`, `icmap.polygon`
and `icmap._kernels` used before their loops became array code. The tests
use them as oracles: the array code must return the same values. The
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

from icmap.errors import NonSimplePolygon
from icmap.geometry import EGO_TO_WORLD, WORLD_TO_EGO, as_points, polyline_length, transform_points
from icmap.polygon import DISJOINT, EPS, _stitch, ensure_ccw, polygon_area

log = logging.getLogger(__name__)


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
    return True


def _point_segment_dist(pt, a, b) -> float:
    d = b - a
    den = float(d @ d)
    if den == 0.0:
        return float(np.hypot(*(pt - a)))
    t = float((pt - a) @ d) / den
    t = min(1.0, max(0.0, t))
    return float(np.hypot(*(pt - (a + t * d))))


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
