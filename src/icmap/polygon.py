"""Boolean union of simple polygons, clipping to a rectangle, plus a grid
rasterization oracle.

The union walks the arrangement of the two boundaries: edges are split at
every crossing (and at T-junction touch points), fragments strictly inside
the other polygon are dropped, and the survivors are stitched back into the
outer boundary. Epsilon-based predicates are used throughout; inputs are
small, roughly convex rings, and the rasterization oracle cross-checks the
result in the test suite.
"""
from __future__ import annotations

import logging

import numpy as np

from ._kernels import inside_mask
from .errors import NonSimplePolygon
from .geometry import EGO_TO_WORLD, WORLD_TO_EGO, Rect, as_points, dedupe_points, transform_points

log = logging.getLogger(__name__)

EPS = 1e-9


class Disjoint:
    """Marker returned by polygon_union when the inputs do not touch."""

    def __repr__(self):  # pragma: no cover
        return "Disjoint"


DISJOINT = Disjoint()


def _cross2(a, b):
    """z-component of the cross product of 2-vectors stacked on the last axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _dot2(a, b):
    """Dot product of 2-vectors stacked on the last axis."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]


def _clamp01(t):
    # clamp into [0, 1] mapping -0.0 to 0.0 (np.clip keeps -0.0), so that
    # p + t*d never turns a 0.0 coordinate of p into -0.0
    t = np.where(t > 0.0, t, 0.0)
    return np.where(t < 1.0, t, 1.0)


def polygon_area(ring) -> float:
    """Shoelace area; positive for CCW rings."""
    r = as_points(ring)
    nxt = np.roll(r, -1, axis=0)
    return 0.5 * float((r[:, 0] * nxt[:, 1] - r[:, 1] * nxt[:, 0]).sum())


def ensure_ccw(ring) -> np.ndarray:
    r = as_points(ring)
    if polygon_area(r) < 0:
        r = r[::-1]
    return r


def clip_polygon_to_rect(ring, rect: Rect) -> list[np.ndarray]:
    """Sutherland-Hodgman intersection of a simple polygon with a rectangle.

    Returns a list with zero or one CCW rings (the clip window is convex;
    non-convex subjects may degenerate, which is fine for the small quads
    used here).
    """
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
    result = dedupe_points(np.array(poly), 1e-9)
    if len(result) >= 2 and np.hypot(*(result[0] - result[-1])) <= 1e-9:
        result = result[:-1]
    if len(result) < 3 or abs(polygon_area(result)) < 1e-12:
        return []
    return [transform_points(rect.center, ensure_ccw(result), EGO_TO_WORLD)]


def _crossing_params(p1, d1, q1, d2):
    """Denominator and parameters (t, u) where p1 + t*d1 meets q1 + u*d2.

    All arguments broadcast; t and u are inf or nan where den == 0.
    """
    den = _cross2(d1, d2)
    w = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        return den, _cross2(w, d2) / den, _cross2(w, d1) / den


def is_simple(ring) -> bool:
    """True when no two non-adjacent edges intersect and no vertex repeats."""
    r = dedupe_points(as_points(ring), EPS)
    n = len(r)
    if n < 3:
        return False
    if np.hypot(*(r[0] - r[-1])) <= EPS:
        return False
    i, j = np.triu_indices(n, 1)
    apart = ((j + 1) % n != i) & ((i + 1) % n != j)
    i, j = i[apart], j[apart]
    d = np.roll(r, -1, axis=0) - r
    den, t, u = _crossing_params(r[i], d[i], r[j], d[j])
    lo, hi = 1e-9, 1 - 1e-9
    proper = (np.abs(den) >= 1e-14) & (lo < t) & (t < hi) & (lo < u) & (u < hi)
    return not proper.any()


def _point_edge_dist(pts, ring) -> np.ndarray:
    """(len(pts), len(ring)) distances from each point to each edge of the
    closed ring (edge k runs from ring[k] to ring[k + 1])."""
    a = ring[None]
    d = np.roll(ring, -1, axis=0)[None] - a
    rel = pts[:, None] - a
    den = _dot2(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _clamp01(np.where(den == 0.0, 0.0, _dot2(rel, d) / den))
    off = pts[:, None] - (a + t[..., None] * d)
    return np.hypot(off[..., 0], off[..., 1])


def classify_points(pts, ring, eps: float = EPS) -> np.ndarray:
    """Per point: +1 strictly inside, 0 on the boundary (within eps), -1 outside."""
    pts = as_points(pts)
    r = as_points(ring)
    on = (_point_edge_dist(pts, r) <= eps).any(axis=1)
    # even-odd crossing count of a ray towards +x; edge i runs from r[i - 1]
    xi, yi = r[:, 0], r[:, 1]
    xj, yj = np.roll(xi, 1), np.roll(yi, 1)
    py = pts[:, 1:]
    spans = (yi > py) != (yj > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = (xj - xi) * (py - yi) / (yj - yi) + xi
    inside = np.count_nonzero(spans & (pts[:, :1] < xc), axis=1) % 2 == 1
    return np.where(on, 0, np.where(inside, 1, -1))


def classify_point(pt, ring, eps: float = EPS) -> int:
    """+1 strictly inside, 0 on the boundary (within eps), -1 outside."""
    return int(classify_points(np.reshape(pt, (1, 2)), ring, eps)[0])


def _contained(a, b, eps: float = EPS) -> bool:
    """Every vertex and edge midpoint of `a` lies inside or on `b`."""
    mids = 0.5 * (a + np.roll(a, -1, axis=0))
    if (classify_points(np.vstack([a, mids]), b, eps) < 0).any():
        return False
    return polygon_area(a) <= polygon_area(b) + eps


def _collect_nodes(a, b, eps: float) -> list[np.ndarray]:
    """Boundary crossing points plus vertices of one ring lying on the other."""
    nodes: list[np.ndarray] = []

    def add(pt):
        for q in nodes:
            if np.hypot(*(pt - q)) <= 10 * eps:
                return
        nodes.append(np.asarray(pt, dtype=np.float64))

    da = np.roll(a, -1, axis=0) - a
    db = np.roll(b, -1, axis=0) - b
    den, t, u = _crossing_params(a[:, None], da[:, None], b[None], db[None])
    hit = (np.abs(den) >= 1e-14) & (-eps <= t) & (t <= 1 + eps) & (-eps <= u) & (u <= 1 + eps)
    i, j = np.nonzero(hit)  # row-major, so nodes keep the order of the edge-pair scan
    for pt in a[i] + _clamp01(t[i, j])[:, None] * da[i]:
        add(pt)
    for ring, other in ((a, b), (b, a)):
        for pt in ring[(_point_edge_dist(ring, other) <= eps).any(axis=1)]:
            add(pt)
    return nodes


def _split_edges(ring, nodes, eps: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Directed sub-edges of `ring` split at every node lying on an edge."""
    nodes = np.asarray(nodes, dtype=np.float64)
    nxt = np.roll(ring, -1, axis=0)
    d = nxt - ring
    L2 = _dot2(d, d)
    on = (_point_edge_dist(nodes, ring) <= eps).T  # (edge, node)
    rel = nodes[None] - ring[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(L2[:, None] > 0, _dot2(rel, d[:, None]) / L2[:, None], 0.0)
    to_q = nodes[None] - nxt[:, None]
    gap = np.minimum(np.hypot(rel[..., 0], rel[..., 1]), np.hypot(to_q[..., 0], to_q[..., 1]))
    cut = on & (((eps < t) & (t < 1 - eps)) | ((0 <= t) & (t <= 1) & (gap > 10 * eps)))
    edges = []
    for i in range(len(ring)):
        k = np.flatnonzero(cut[i])
        # the ends first, so that a stable sort keeps them ahead of nodes at equal t
        pts = np.vstack([ring[i], nxt[i], nodes[k]])
        pts = pts[np.argsort(np.concatenate([[0.0, 1.0], t[i, k]]), kind="stable")]
        for u, v in zip(pts[:-1], pts[1:]):
            if np.hypot(*(v - u)) > 10 * eps:
                edges.append((u, v))
    return edges


def _midpoints(edges) -> np.ndarray:
    return np.array([0.5 * (u + v) for u, v in edges]).reshape(-1, 2)


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
    """Outer boundary of the union of two simple CCW polygons.

    Returns a CCW ring, or the DISJOINT marker when the polygons neither
    touch nor contain one another.
    """
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

    edges_a = _split_edges(a, nodes, eps)
    edges_b = _split_edges(b, nodes, eps)
    # keep a's fragments outside or on b, and b's strictly outside a
    kept = [e for e, c in zip(edges_a, classify_points(_midpoints(edges_a), b, eps)) if c <= 0]
    kept += [e for e, c in zip(edges_b, classify_points(_midpoints(edges_b), a, eps)) if c < 0]

    loops = _stitch(kept)
    best = None
    best_area = 0.0
    for loop in loops:
        area = abs(polygon_area(loop))
        if area > best_area:
            best, best_area = loop, area
    floor = max(abs(polygon_area(a)), abs(polygon_area(b)))
    if best is None or best_area < floor - 1e-6:
        # degenerate arrangement the traversal could not resolve
        log.warning("polygon union traversal failed; keeping larger input")
        return (a if abs(polygon_area(a)) >= abs(polygon_area(b)) else b).copy()
    ring = dedupe_points(best, eps)
    return ensure_ccw(ring)


def rasterize_oracle(rings, resolution: int = 1000, window=None) -> int:
    """Count grid-cell centers inside the union of `rings`.

    `rings` is a single ring or a list; `window` is ((xmin, ymin), (xmax,
    ymax)) and defaults to the joint bounding box. Used as the area oracle
    in tests.
    """
    if isinstance(rings, np.ndarray) or (len(rings) and np.ndim(rings[0]) == 1):
        rings = [rings]
    rings = [as_points(r) for r in rings]
    if window is None:
        allpts = np.vstack(rings)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
    else:
        lo = np.asarray(window[0], float)
        hi = np.asarray(window[1], float)
    dx = (hi[0] - lo[0]) / resolution
    dy = (hi[1] - lo[1]) / resolution
    xs = lo[0] + dx * (np.arange(resolution) + 0.5)
    ys = lo[1] + dy * (np.arange(resolution) + 0.5)
    mask = np.zeros((resolution, resolution), dtype=bool)
    for r in rings:
        mask |= inside_mask(xs, ys, r)
    return int(mask.sum())


def rasterize_area(rings, resolution: int = 1000, window=None) -> float:
    """Area estimate from the rasterization oracle, in square meters."""
    if isinstance(rings, np.ndarray) or (len(rings) and np.ndim(rings[0]) == 1):
        rings = [rings]
    rings = [as_points(r) for r in rings]
    if window is None:
        allpts = np.vstack(rings)
        lo = allpts.min(axis=0)
        hi = allpts.max(axis=0)
        window = (lo, hi)
    lo = np.asarray(window[0], float)
    hi = np.asarray(window[1], float)
    count = rasterize_oracle(rings, resolution, (lo, hi))
    cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (resolution * resolution)
    return count * cell
