"""Boolean union of simple polygons, clipping to a rectangle, plus a grid
rasterization oracle.

The union walks the arrangement of the two boundaries: edges are split at
every crossing (and at T-junction touch points), fragments strictly inside
the other polygon are dropped, and the survivors are stitched back into the
outer boundary. Epsilon-based predicates are used throughout; inputs are
small, roughly convex rings, and the rasterization oracle cross-checks the
result in the test suite. Each call builds one edge table of both rings
and works on whole arrays of edges, nodes and pieces; only the final walk
steps edge by edge. One crossing table of every pair of edges and one
projection of every vertex onto every edge serve the two simplicity tests,
the on-boundary tests and the crossing-node scan, and one split cuts the
edges of both rings at the nodes.
"""
from __future__ import annotations

import logging
import math
from functools import lru_cache

import numpy as np

from ._kernels import inside_mask
from .errors import NonSimplePolygon
from .geometry import EGO_TO_WORLD, EPS, WORLD_TO_EGO, Rect, _rigid, as_points, dedupe_points

log = logging.getLogger(__name__)


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
    return _ccw_edges(as_points(ring))[0]


def clip_polygon_to_rect(ring, rect: Rect) -> list[np.ndarray]:
    """Sutherland-Hodgman intersection of a simple polygon with a rectangle:
    `clip_rings_to_rects` of the one ring and the one rectangle.

    Returns a list with zero or one CCW rings (the clip window is convex;
    non-convex subjects may degenerate, which is fine for the small quads
    used here).
    """
    rings, sizes, _ = clip_rings_to_rects([ring], [rect])
    return [rings[0, :sizes[0]]] if len(sizes) else []


# the four half-planes a*x + b*y <= c of a rectangle's frame, in clipping
# order: (a, b, index of c among the half length and the half width)
_PLANES = ((1.0, 0.0, 0), (-1.0, 0.0, 0), (0.0, 1.0, 1), (0.0, -1.0, 1))


def clip_rings_to_rects(rings, rects):
    """Clip each of `rings` to each of `rects` (Sutherland-Hodgman).

    Returns (out, sizes, owner): out[k, :sizes[k]] is a CCW world-frame
    ring, the clip of ring `owner[k] % len(rings)` by rectangle
    `owner[k] // len(rings)`; rows run in rectangle order, then ring order,
    and a pair whose clip is empty or degenerate has no row.

    Per pair, the ring moves into the rectangle's frame and is cut by the
    half-planes x <= hl, -x <= hl, y <= hw and -y <= hw in turn: each vertex
    inside a half-plane is kept, and where the edge to its successor crosses
    the boundary the crossing point follows it. The clip is deduped at
    `EPS` (`dedupe_points`), loses a last point within `EPS` of its first,
    and is dropped with fewer than 3 points or a shoelace area under 1e-12;
    it is turned CCW and moved back to the world. Every pair is one row of
    a zero-padded (pair, vertex) table and each step is one array pass over
    the table, with the arithmetic of a loop over one pair's points, so
    every coordinate has that loop's bits.
    """
    rings = [as_points(r) for r in rings]
    # one row per rectangle: its pose, then its half extents
    rows = np.array([[math.cos(r.center.theta), math.sin(r.center.theta), r.center.x,
                      r.center.y, r.half_length, r.half_width] for r in rects]).reshape(-1, 6)
    table, sizes = _padded(np.concatenate(rings) if rings else np.empty((0, 2)),
                           np.array([len(r) for r in rings], dtype=np.intp))
    pose = rows[:, None, None, :4]
    pts = _rigid(*np.moveaxis(pose, -1, 0), table, WORLD_TO_EGO).reshape(-1, table.shape[1], 2)
    rect_of = np.repeat(np.arange(len(rects)), len(rings))
    n = np.tile(sizes, len(rects))
    # a crossing point is meaningless (or nan) where the edge does not cross
    with np.errstate(divide="ignore", invalid="ignore"):
        for a, b, k in _PLANES:
            pts, n = _cut(pts, n, a, b, rows[rect_of, 4 + k, None])
    step = pts[:, 1:] - pts[:, :-1]
    keep = _held(pts, n)
    keep[:, 1:] &= np.hypot(step[..., 0], step[..., 1]) > EPS
    pts, n = _padded(pts[keep], np.count_nonzero(keep, axis=1))
    at = np.arange(len(n))
    gap = pts[:, 0] - pts[at, np.maximum(n - 1, 0)]
    n = n - ((n >= 2) & (np.hypot(gap[:, 0], gap[:, 1]) <= EPS))
    area = _shoelace_rows(pts, n)
    good = (n >= 3) & ~(np.abs(area) < 1e-12)
    # CCW: a ring of negative area is read backwards
    j = np.arange(pts.shape[1])
    flip = (area < 0)[:, None] & _held(pts, n)
    pts = pts[at[:, None], np.where(flip, n[:, None] - 1 - j, j)]
    owner = np.flatnonzero(good)
    n = n[good]
    pose = rows[rect_of[good], None, :4]
    world = _rigid(*np.moveaxis(pose, -1, 0), pts[good], EGO_TO_WORLD)
    return world, n, owner


def _padded(flat: np.ndarray, n: np.ndarray):
    """The zero-padded (row, vertex) table whose row k holds the next n[k]
    points of `flat` in order, at least one column wide, and `n`."""
    out = np.zeros((len(n), max(n.max(initial=0), 1), 2))
    out[np.arange(out.shape[1]) < n[:, None]] = flat
    return out, n


def _held(pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Where each row of the table `pts` holds one of its first n[k] points."""
    return np.arange(pts.shape[1]) < n[:, None]


def _successors(pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Each point's successor around its row's ring of n[k] points."""
    nxt = np.concatenate([pts[:, 1:], pts[:, :1]], axis=1)
    nxt[np.arange(len(n)), n - 1] = pts[:, 0]
    return nxt


def _cut(pts: np.ndarray, n: np.ndarray, a: float, b: float, c: np.ndarray):
    """One Sutherland-Hodgman step: each row's ring of n[k] points of `pts`
    cut by the half-plane a*x + b*y <= c[k], as a table of the same kind."""
    q = _successors(pts, n)
    sp = a * pts[..., 0] + b * pts[..., 1]
    sq = a * q[..., 0] + b * q[..., 1]
    pin, qin = sp <= c, sq <= c
    dp, dq = sp - c, sq - c
    hit = pts + (dp / (dp - dq))[..., None] * (q - pts)
    valid = _held(pts, n)
    # each point, then its edge's crossing point
    shape = (len(pts), 2 * pts.shape[1])
    keep = np.stack([pin & valid, (pin != qin) & valid], axis=2).reshape(shape)
    both = np.stack([pts, hit], axis=2).reshape(shape + (2,))
    return _padded(both[keep], np.count_nonzero(keep, axis=1))


def _shoelace_rows(pts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """`polygon_area` of each row's ring of n[k] points of the table `pts`,
    with its bits. numpy sums a row of terms by blocks that depend on its
    length, so the rows of each length are summed together by
    `.sum(axis=1)`, which adds each row as `.sum()` adds it alone."""
    nxt = _successors(pts, n)
    terms = pts[..., 0] * nxt[..., 1] - pts[..., 1] * nxt[..., 0]
    total = np.zeros(len(n))
    for m in set(n.tolist()):
        rows = n == m
        total[rows] = terms[rows, :m].sum(axis=1)
    return 0.5 * total


class _Ring:
    """Edge table of a closed ring, built once per ring and call.

    Edge k runs from v[k] to w[k] (the next vertex; w[-1] is v[0]) along
    d[k], of squared length l2[k]; `area` is the shoelace area. A table may
    hold several rings one after the other (`joined`); its `area` is then
    meaningless, and `part` gives each ring's table.
    """

    __slots__ = ("v", "w", "d", "l2", "area")

    def __init__(self, v: np.ndarray):
        w = _next(v)
        self._fill(v, w, _shoelace(v, w))

    def _fill(self, v: np.ndarray, w: np.ndarray, area: float) -> "_Ring":
        self.v, self.w, self.d = v, w, w - v
        self.l2 = _dot2(self.d, self.d)
        self.area = area
        return self

    @classmethod
    def joined(cls, v: np.ndarray, w: np.ndarray) -> "_Ring":
        """The table of several rings one after the other, of vertices `v`
        whose successors in their own rings are `w`."""
        return object.__new__(cls)._fill(v, w, 0.0)

    def part(self, lo: int, hi: int, area: float) -> "_Ring":
        """The table of edges lo..hi - 1, a ring of shoelace area `area`."""
        ring = object.__new__(_Ring)
        ring.v, ring.w, ring.d, ring.l2 = (x[lo:hi] for x in (self.v, self.w, self.d, self.l2))
        ring.area = area
        return ring


def _ccw_edges(r: np.ndarray):
    """`ensure_ccw(r)`, each vertex's successor around it and its shoelace
    area: the area that decides the orientation, unless it reverses `r`."""
    nxt = _next(r)
    area = _shoelace(r, nxt)
    if area < 0:
        r = r[::-1]
        nxt = _next(r)
        area = _shoelace(r, nxt)
    return r, nxt, area


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


def _tables(ring: _Ring):
    """The crossing parameters (den, t, u) of every pair (i, j) of the
    table's edges, and whether vertex i lies within EPS of edge j."""
    den, t, u = _crossing_params(ring.v[:, None], ring.d[:, None], ring.v, ring.d)
    return den, t, u, _project(ring.v, ring)[2] <= EPS


def _simple(ring: _Ring) -> bool:
    return _simple_in(ring.v, *_tables(ring))


def _simple_in(r, den, t, u, on) -> bool:
    """Whether the ring of vertices `r` is simple, read from its own block
    of `_tables`."""
    n = len(r)
    if n < 3:
        return False
    if np.hypot(*(r[0] - r[-1])) <= EPS:
        return False
    apart, off = _gaps(n)
    # edges i and j share no vertex, and cross at interior points
    lo, hi = 1e-9, 1 - 1e-9
    cross = apart & (np.abs(den) >= 1e-14) & (lo < t) & (t < hi) & (lo < u) & (u < hi)
    # or touch: vertex i lies within EPS of edge j, which does not end at it
    return not (cross | (off & on)).any()


# the unions of a run see a few ring sizes again and again (a detection's 4
# or 5 vertices, the stored rings' tens); an entry holds 2 n² bytes
@lru_cache(maxsize=64)
def _gaps(n: int) -> tuple[np.ndarray, np.ndarray]:
    """For a ring of n >= 3 vertices, the pairs (i, j) of edges that share
    no vertex, and of vertex i and an edge j that does not end at it (a
    triangle has no such pair: its edges all meet). Read-only, built once
    per n."""
    k = np.arange(n)
    gap = (k[:, None] - k) % n  # (i, j): i - j around the ring
    apart = (gap >= 2) & (gap <= n - 2)
    off = (gap >= 2) & (n > 3)
    apart.flags.writeable = off.flags.writeable = False
    return apart, off


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


def _collect_nodes(a: _Ring, b: _Ring, den, t, u, a_on_b, b_on_a) -> np.ndarray:
    """Boundary crossing points plus vertices of one ring lying on the other,
    in scan order, each dropped when within 10 * EPS of one kept before it.
    (den, t, u) are the crossing parameters of a's edges against b's."""
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
    """Directed sub-edges U[k] -> V[k] of `ring`'s edges, split at every
    node lying on an edge, in edge order, and the edge E[k] each lies on."""
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
    return pts[:-1][keep], pts[1:][keep], edge[:-1][keep]


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
    a, next_a, area_a = _ccw_edges(dedupe_points(as_points(a), EPS))
    b, next_b, area_b = _ccw_edges(dedupe_points(as_points(b), EPS))
    na = len(a)
    both = _Ring.joined(np.concatenate([a, b]), np.concatenate([next_a, next_b]))
    ta, tb = both.part(0, na, area_a), both.part(na, len(both.v), area_b)
    den, t, u, on = _tables(both)
    # is_simple reads a ring deduped at EPS, which keeps vertex k + 1 when
    # edge k is longer than EPS: the ring's own block of the tables, unless
    # that drops a vertex
    kept = np.hypot(both.d[:, 0], both.d[:, 1]) > EPS
    for lo, hi in ((0, na), (na, len(both.v))):
        if kept[lo:max(lo, hi - 1)].all():
            simple = _simple_in(both.v[lo:hi], *(x[lo:hi, lo:hi] for x in (den, t, u, on)))
        else:
            simple = _simple(_Ring(dedupe_points(both.v[lo:hi], EPS)))
        if not simple:
            raise NonSimplePolygon("polygon_union requires simple polygons")
    a_on_b = on[:na, na:].any(axis=1)
    b_on_a = on[na:, :na].any(axis=1)
    if _contained(ta, tb, a_on_b):
        return b.copy()
    if _contained(tb, ta, b_on_a):
        return a.copy()
    nodes = _collect_nodes(ta, tb, den[:na, na:], t[:na, na:], u[:na, na:], a_on_b, b_on_a)
    if not len(nodes):
        return DISJOINT

    # both rings' sub-edges, a's first; keep a's fragments outside or on b,
    # and b's strictly outside a
    U, V, edge = _split(both, nodes)
    mid = 0.5 * (U + V)
    of_a = edge < na
    keep = np.empty(len(U), dtype=bool)
    keep[of_a] = _classify(mid[of_a], tb) <= 0
    keep[~of_a] = _classify(mid[~of_a], ta) < 0
    loops = _stitch(U[keep], V[keep])
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
