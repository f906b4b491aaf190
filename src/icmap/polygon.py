"""Boolean union of simple polygons, clipping to a rectangle, plus a grid
rasterization oracle.

The union walks the arrangement of the two boundaries: edges are split at
every crossing (and at T-junction touch points), fragments strictly inside
the other polygon are dropped, and the survivors are stitched back into the
outer boundary. Epsilon-based predicates are used throughout; inputs are
small, roughly convex rings, and the rasterization oracle cross-checks the
result in the test suite. Each call builds one edge table per ring and
works on whole arrays of edges, nodes and pieces; only the final walk
steps edge by edge.
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


def _norm(a):
    """Length of 2-vectors stacked on the last axis."""
    return np.hypot(a[..., 0], a[..., 1])


def _clamp01(t):
    # clamp into [0, 1] mapping -0.0 to 0.0 (np.clip keeps -0.0), so that
    # p + t*d never turns a 0.0 coordinate of p into -0.0
    t = np.where(t > 0.0, t, 0.0)
    return np.where(t < 1.0, t, 1.0)


def _next(r):
    """Each vertex's successor around the closed ring."""
    return np.concatenate([r[1:], r[:1]])


def _shoelace(r, nxt) -> float:
    return 0.5 * float((r[:, 0] * nxt[:, 1] - r[:, 1] * nxt[:, 0]).sum())


def polygon_area(ring) -> float:
    """Shoelace area; positive for CCW rings."""
    r = as_points(ring)
    return _shoelace(r, _next(r))


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
    # the loop runs on Python floats, which round as numpy's float64 does
    poly = transform_points(rect.center, as_points(ring), WORLD_TO_EGO).tolist()
    hl, hw = rect.half_length, rect.half_width
    # half-planes as (a, b, c) with a*x + b*y <= c inside
    planes = [(1.0, 0.0, hl), (-1.0, 0.0, hl), (0.0, 1.0, hw), (0.0, -1.0, hw)]
    for a, b, c in planes:
        if not poly:
            break
        out: list[list[float]] = []
        n = len(poly)
        for i in range(n):
            (px, py), (qx, qy) = poly[i], poly[(i + 1) % n]
            pin = a * px + b * py <= c
            qin = a * qx + b * qy <= c
            if pin:
                out.append(poly[i])
            if pin != qin:
                dp = a * px + b * py - c
                dq = a * qx + b * qy - c
                t = dp / (dp - dq)
                out.append([px + t * (qx - px), py + t * (qy - py)])
        poly = out
    if len(poly) < 3:
        return []
    result = dedupe_points(np.array(poly), 1e-9)
    if len(result) >= 2 and np.hypot(*(result[0] - result[-1])) <= 1e-9:
        result = result[:-1]
    if len(result) < 3 or abs(polygon_area(result)) < 1e-12:
        return []
    return [transform_points(rect.center, ensure_ccw(result), EGO_TO_WORLD)]


class _Ring:
    """Edge table of a closed ring, built once per ring and call.

    Edge k runs from v[k] to w[k] (the next vertex; w[-1] is v[0]) along
    d[k], of squared length l2[k]; `area` is the shoelace area.
    """

    __slots__ = ("v", "w", "d", "l2", "area")

    def __init__(self, v: np.ndarray):
        self.v = v
        self.w = _next(v)
        self.d = self.w - v
        self.l2 = _dot2(self.d, self.d)
        self.area = _shoelace(v, self.w)


def _crossing_params(p1, d1, q1, d2):
    """Denominator and parameters (t, u) where p1 + t*d1 meets q1 + u*d2.

    All arguments broadcast; t and u are inf or nan where den == 0.
    """
    den = _cross2(d1, d2)
    w = q1 - p1
    with np.errstate(divide="ignore", invalid="ignore"):
        return den, _cross2(w, d2) / den, _cross2(w, d1) / den


def _project(pts, ring: _Ring):
    """Per (point, edge): the point's offset from the edge start, the edge
    parameter of its projection (unclamped; 0 on a zero-length edge) and its
    distance to the edge."""
    rel = pts[:, None] - ring.v
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ring.l2 == 0.0, 0.0, _dot2(rel, ring.d) / ring.l2)
    off = pts[:, None] - (ring.v + _clamp01(t)[..., None] * ring.d)
    return rel, t, _norm(off)


def _simple(ring: _Ring) -> bool:
    r = ring.v
    n = len(r)
    if n < 3:
        return False
    if np.hypot(*(r[0] - r[-1])) <= EPS:
        return False
    k = np.arange(n)
    gap = (k[:, None] - k) % n  # (i, j): i - j around the ring
    # edges i and j share no vertex, and cross at interior points
    den, t, u = _crossing_params(r[:, None], ring.d[:, None], r, ring.d)
    lo, hi = 1e-9, 1 - 1e-9
    cross = ((gap >= 2) & (gap <= n - 2) & (np.abs(den) >= 1e-14)
             & (lo < t) & (t < hi) & (lo < u) & (u < hi))
    # or touch: vertex i lies within EPS of edge j, which does not end at it
    # (a triangle has no two edges that share no vertex)
    touch = (gap >= 2) & (n > 3) & (_project(r, ring)[2] <= EPS)
    return not (cross | touch).any()


def is_simple(ring) -> bool:
    """True when no two non-adjacent edges come within EPS of each other (a
    crossing, a repeated vertex or a vertex on another edge) and the first
    and last vertex differ."""
    return _simple(_Ring(dedupe_points(as_points(ring), EPS)))


def _side(pts, ring: _Ring, on) -> np.ndarray:
    """+1 strictly inside, 0 where `on` (on the boundary), -1 outside."""
    # even-odd crossing count of a ray towards +x
    v, w = ring.v, ring.w
    py = pts[:, 1:]
    spans = (w[:, 1] > py) != (v[:, 1] > py)
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = (v[:, 0] - w[:, 0]) * (py - w[:, 1]) / (v[:, 1] - w[:, 1]) + w[:, 0]
    inside = np.count_nonzero(spans & (pts[:, :1] < xc), axis=1) % 2 == 1
    return np.where(on, 0, np.where(inside, 1, -1))


def _classify(pts, ring: _Ring) -> np.ndarray:
    return _side(pts, ring, (_project(pts, ring)[2] <= EPS).any(axis=1))


def classify_points(pts, ring) -> np.ndarray:
    """Per point: +1 strictly inside, 0 on the boundary (within EPS), -1 outside."""
    return _classify(as_points(pts), _Ring(as_points(ring)))


def classify_point(pt, ring) -> int:
    """+1 strictly inside, 0 on the boundary (within EPS), -1 outside."""
    return int(classify_points(np.reshape(pt, (1, 2)), ring)[0])


def _contained(a: _Ring, b: _Ring, a_on_b) -> bool:
    """Every vertex and edge midpoint of `a` lies inside or on `b`; `a_on_b`
    marks the vertices of `a` within EPS of an edge of `b`."""
    if (_side(a.v, b, a_on_b) < 0).any() or (_classify(0.5 * (a.v + a.w), b) < 0).any():
        return False
    return a.area <= b.area + EPS


def _collect_nodes(a: _Ring, b: _Ring, a_on_b, b_on_a) -> np.ndarray:
    """Boundary crossing points plus vertices of one ring lying on the other,
    in scan order, each dropped when within 10 * EPS of one kept before it."""
    den, t, u = _crossing_params(a.v[:, None], a.d[:, None], b.v, b.d)
    hit = (np.abs(den) >= 1e-14) & (-EPS <= t) & (t <= 1 + EPS) & (-EPS <= u) & (u <= 1 + EPS)
    i, j = np.nonzero(hit)  # row-major, the order of the edge-pair scan
    cands = np.concatenate([a.v[i] + _clamp01(t[i, j])[:, None] * a.d[i], a.v[a_on_b], b.v[b_on_a]])
    close = _norm(cands[:, None] - cands) <= 10 * EPS
    kept: list[int] = []
    for k in range(len(cands)):
        if not close[k, kept].any():
            kept.append(k)
    return cands[kept]


def _split(ring: _Ring, nodes):
    """Directed sub-edges U[k] -> V[k] of `ring`, split at every node lying
    on an edge, in edge order."""
    rel, t, dist = _project(nodes, ring)  # (node, edge)
    gap = np.minimum(_norm(rel), _norm(nodes[:, None] - ring.w))
    cut = (dist <= EPS) & (((EPS < t) & (t < 1 - EPS))
                           | ((0 <= t) & (t <= 1) & (gap > 10 * EPS)))
    k, e = np.nonzero(cut)
    n = len(ring.v)
    ends = np.arange(n)
    # per edge by t; at equal t its start, then its end, then nodes in order
    edge = np.concatenate([ends, ends, e])
    pos = np.concatenate([np.zeros(n), np.ones(n), t[k, e]])
    rank = np.concatenate([np.zeros(n, int), np.ones(n, int), 2 + k])
    order = np.lexsort((rank, pos, edge))
    pts, edge = np.concatenate([ring.v, ring.w, nodes[k]])[order], edge[order]
    keep = (edge[1:] == edge[:-1]) & (_norm(pts[1:] - pts[:-1]) > 10 * EPS)
    return pts[:-1][keep], pts[1:][keep]


def _stitch(U, V) -> list[np.ndarray]:
    """Walk the directed edges U[k] -> V[k] into closed loops, picking the
    most clockwise continuation at nodes with several outgoing edges (keeps
    the walk on the outer boundary at degenerate seams). Nodes are matched
    on coordinates rounded to 1e-7 (half to even)."""
    key_u = list(map(tuple, np.rint(U * 1e7).astype(np.int64).tolist()))
    key_v = list(map(tuple, np.rint(V * 1e7).astype(np.int64).tolist()))
    out_map: dict[tuple[int, int], list[int]] = {}
    for idx, key in enumerate(key_u):
        out_map.setdefault(key, []).append(idx)
    m = len(U)
    used = [False] * m
    loops = []
    for start in range(m):
        if used[start]:
            continue
        path: list[int] = []
        cur = start
        guard = 0
        while guard <= m:
            guard += 1
            used[cur] = True
            path.append(cur)
            if key_v[cur] == key_u[start] and guard > 1:
                loops.append(np.concatenate([U[start:start + 1], V[path[:-1]]]))
                break
            cands = [i for i in out_map.get(key_v[cur], ()) if not used[i]]
            if not cands:
                break  # open chain; discarded
            if len(cands) == 1:
                cur = cands[0]
            else:
                din = V[cur] - U[cur]
                ain = np.arctan2(din[1], din[0])

                def turn(i):
                    d = V[i] - U[i]
                    return (np.arctan2(d[1], d[0]) - ain + np.pi) % (2 * np.pi) - np.pi

                cur = min(cands, key=turn)
    return loops


def polygon_union(a, b):
    """Outer boundary of the union of two simple CCW polygons.

    Returns a CCW ring, or the DISJOINT marker when the polygons neither
    touch nor contain one another.
    """
    a = ensure_ccw(dedupe_points(as_points(a), EPS))
    b = ensure_ccw(dedupe_points(as_points(b), EPS))
    ta, tb = _Ring(a), _Ring(b)
    for ring in (ta, tb):
        # is_simple reads the ring deduped at EPS: the same table unless
        # that drops a vertex
        r = dedupe_points(ring.v, EPS)
        if not _simple(ring if len(r) == len(ring.v) else _Ring(r)):
            raise NonSimplePolygon("polygon_union requires simple polygons")
    a_on_b = (_project(a, tb)[2] <= EPS).any(axis=1)
    b_on_a = (_project(b, ta)[2] <= EPS).any(axis=1)
    if _contained(ta, tb, a_on_b):
        return b.copy()
    if _contained(tb, ta, b_on_a):
        return a.copy()
    nodes = _collect_nodes(ta, tb, a_on_b, b_on_a)
    if not len(nodes):
        return DISJOINT

    ua, va = _split(ta, nodes)
    ub, vb = _split(tb, nodes)
    # keep a's fragments outside or on b, and b's strictly outside a
    keep_a = _classify(0.5 * (ua + va), tb) <= 0
    keep_b = _classify(0.5 * (ub + vb), ta) < 0
    loops = _stitch(np.concatenate([ua[keep_a], ub[keep_b]]),
                    np.concatenate([va[keep_a], vb[keep_b]]))
    best = None
    best_area = 0.0
    for loop in loops:
        area = abs(polygon_area(loop))
        if area > best_area:
            best, best_area = loop, area
    if best is None or best_area < max(abs(ta.area), abs(tb.area)) - 1e-6:
        # degenerate arrangement the traversal could not resolve
        log.warning("polygon union traversal failed; keeping larger input")
        return (a if abs(ta.area) >= abs(tb.area) else b).copy()
    ring = dedupe_points(best, EPS)
    return ensure_ccw(ring)


def _rings_and_window(rings, window):
    """`rings` (one ring or a list) as a list of point arrays, and the
    window's lower and upper corners as arrays: those of `window`, else of
    the rings' joint bounding box."""
    if isinstance(rings, np.ndarray) or (len(rings) and np.ndim(rings[0]) == 1):
        rings = [rings]
    rings = [as_points(r) for r in rings]
    if window is None:
        allpts = np.vstack(rings)
        return rings, allpts.min(axis=0), allpts.max(axis=0)
    return rings, np.asarray(window[0], float), np.asarray(window[1], float)


def rasterize_oracle(rings, resolution: int = 1000, window=None) -> int:
    """Count grid-cell centers inside the union of `rings`.

    `rings` is a single ring or a list; `window` is ((xmin, ymin), (xmax,
    ymax)) and defaults to the joint bounding box. Used as the area oracle
    in tests.
    """
    rings, lo, hi = _rings_and_window(rings, window)
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
    rings, lo, hi = _rings_and_window(rings, window)
    count = rasterize_oracle(rings, resolution, (lo, hi))
    cell = (hi[0] - lo[0]) * (hi[1] - lo[1]) / (resolution * resolution)
    return count * cell
