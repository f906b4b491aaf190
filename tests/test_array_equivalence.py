"""The array versions of the geometry primitives against their per-point
loop versions (tests/scalar_reference.py).

Coordinates come from a quarter-metre grid, so inputs are full of the
degenerate cases the loops handled one at a time: axis-parallel segments
(a zero Liang-Barsky direction), segments lying on the clip box edge,
collinear overlapping polygon edges, vertices on the other ring's edges
and exact duplicate points. On such inputs every step between points is
either 0 or at least 0.25 m, where both dedupe rules agree, so results
must be equal, not close.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from icmap.errors import NonSimplePolygon
from icmap.geometry import Pose2, Rect, clip_polyline_to_rect
from icmap.polygon import classify_point, classify_points, is_simple, polygon_union

# derandomized, so that a run of the suite is reproducible
equivalence = settings(max_examples=300, deadline=None, derandomize=True, database=None)

coord = st.integers(-24, 24).map(lambda k: k / 4)
point = st.tuples(coord, coord)
polyline = st.lists(point, min_size=0, max_size=10).map(lambda p: np.array(p, float).reshape(-1, 2))
ring = st.lists(point, min_size=3, max_size=7).map(lambda p: np.array(p, float))


@st.composite
def rectangle(draw):
    x0, y0 = draw(point)
    w, h = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    return np.array([[x0, y0], [x0 + w / 4, y0], [x0 + w / 4, y0 + h / 4], [x0, y0 + h / 4]])


@st.composite
def star_ring(draw):
    """Grid vertices sorted by angle about their mean: mostly simple rings."""
    pts = draw(ring)
    c = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]), kind="stable")]


polygon = st.one_of(rectangle(), star_ring(), ring)

# half extents on the grid put box edges on grid lines; the rotated box does not
clip_box = st.one_of(
    st.tuples(st.sampled_from([1.0, 2.5, 4.0]), st.sampled_from([1.0, 2.5, 4.0])).map(
        lambda e: Rect(Pose2(0.0, 0.0, 0.0), *e)),
    st.just(Rect(Pose2(0.3, -0.7, 0.4), 3.3, 2.1)),
)


def union_or_marker(fn, a, b):
    try:
        return fn(a, b)
    except NonSimplePolygon:
        return "raises"


def assert_same_union(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert got is want or got == want


class TestClipPolyline:
    @equivalence
    @given(polyline, clip_box, st.sampled_from([0.0, 0.5]))
    def test_matches_loop_clip(self, pts, rect, min_length):
        got = clip_polyline_to_rect(pts, rect, min_length)
        want = ref.clip_polyline_to_rect(pts, rect, min_length)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)

    @pytest.mark.parametrize("pts", [
        [(-6.0, 1.0), (6.0, 1.0)],                # horizontal: zero y direction
        [(1.0, -6.0), (1.0, 6.0)],                # vertical: zero x direction
        [(-1.0, 9.0), (1.0, 9.0)],                # parallel, outside
        [(-6.0, 4.0), (6.0, 4.0)],                # along the top edge
        [(4.0, -6.0), (4.0, 6.0), (-4.0, 6.0)],   # along the right edge, then out
        [(-6.0, 0.0), (0.0, 0.0), (0.0, 0.0), (6.0, 0.0)],   # exact duplicate
        [(0.0, 0.0), (9.0, 0.0), (9.0, 1.0), (0.0, 1.0)],    # leaves and re-enters
        [(2.0, 2.0)],
        [],
    ])
    def test_degenerate_segments(self, pts):
        rect = Rect(Pose2(0.0, 0.0, 0.0), 4.0, 4.0)
        got = clip_polyline_to_rect(pts, rect)
        want = ref.clip_polyline_to_rect(pts, rect)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestPolygonPredicates:
    @equivalence
    @given(ring)
    def test_is_simple_matches_loop(self, r):
        assert is_simple(r) == ref.is_simple(r)

    @equivalence
    @given(polygon, st.lists(point, min_size=1, max_size=12))
    def test_classify_matches_loop(self, r, pts):
        pts = np.array(pts, float)
        want = [ref.classify_point(p, r) for p in pts]
        assert [classify_point(p, r) for p in pts] == want
        assert classify_points(pts, r).tolist() == want

    def test_classify_on_collinear_and_repeated_vertices(self):
        r = np.array([[0, 0], [1, 0], [2, 0], [2, 0], [2, 2], [0, 2]], float)
        pts = np.array([[1.5, 0], [2, 0], [2, 1], [1, 1], [3, 0], [-1, 1], [0, 2]], float)
        assert classify_points(pts, r).tolist() == [ref.classify_point(p, r) for p in pts]


class TestUnion:
    @equivalence
    @given(polygon, polygon)
    def test_matches_loop_union(self, a, b):
        assert_same_union(union_or_marker(polygon_union, a, b),
                          union_or_marker(ref.polygon_union, a, b))

    @pytest.mark.parametrize("a, b", [
        # shared edge, and collinear edges overlapping in part
        ([(0, 0), (1, 0), (1, 1), (0, 1)], [(1, 0), (2, 0), (2, 1), (1, 1)]),
        ([(0, 0), (2, 0), (2, 1), (0, 1)], [(1, 0), (3, 0), (3, 2), (1, 2)]),
        ([(0, 0), (2, 0), (2, 2), (0, 2)], [(1, 2), (3, 2), (3, 4), (1, 4)]),
        # a vertex on the other ring's edge (T-junction)
        ([(0, 0), (2, 0), (2, 2), (0, 2)], [(2, 1), (4, 0), (4, 2)]),
        # an exact duplicate vertex
        ([(0, 0), (2, 0), (2, 0), (2, 2), (0, 2)], [(1, 1), (3, 1), (3, 3), (1, 3)]),
        # identical rings
        ([(0, 0), (2, 0), (2, 2), (0, 2)], [(0, 0), (2, 0), (2, 2), (0, 2)]),
    ])
    def test_degenerate_arrangements(self, a, b):
        a, b = np.array(a, float), np.array(b, float)
        for x, y in ((a, b), (b, a)):
            assert_same_union(polygon_union(x, y), ref.polygon_union(x, y))
