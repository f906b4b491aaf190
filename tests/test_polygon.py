import numpy as np
import pytest

from icmap.errors import NonSimplePolygon
from icmap.polygon import (
    DISJOINT,
    Disjoint,
    classify_point,
    ensure_ccw,
    is_simple,
    polygon_area,
    polygon_union,
    rasterize_area,
    rasterize_oracle,
)


def square(x0, y0, w=1.0):
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + w], [x0, y0 + w]], float)


def random_convex_quad(rng, lo=0.0, hi=10.0, min_area=2.0):
    while True:
        pts = rng.uniform(lo, hi, (4, 2))
        c = pts.mean(axis=0)
        ring = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]
        if is_simple(ring) and abs(polygon_area(ring)) > min_area:
            return ensure_ccw(ring)


class TestArea:
    def test_unit_square(self):
        assert polygon_area(square(0, 0)) == pytest.approx(1.0)

    def test_triangle(self):
        assert polygon_area([(0, 0), (2, 0), (0, 2)]) == pytest.approx(2.0)

    def test_cw_negative(self):
        assert polygon_area(square(0, 0)[::-1]) == pytest.approx(-1.0)

    def test_random_polygon_vs_raster(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            # star-shaped simple polygon around a center
            angles = np.sort(rng.uniform(0, 2 * np.pi, 9))
            radii = rng.uniform(2, 6, 9)
            ring = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
            assert is_simple(ring)
            area = abs(polygon_area(ring))
            est = rasterize_area(ring, 1000)
            assert area == pytest.approx(est, rel=0.005)


class TestRasterize:
    def test_unit_square_full_window(self):
        count = rasterize_oracle(square(0, 0), 1000, window=((0, 0), (1, 1)))
        assert count == 1000 * 1000

    def test_half_plane_split(self):
        # bottom half of the unit square
        half = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.0, 0.5]])
        count = rasterize_oracle(half, 1000, window=((0, 0), (1, 1)))
        assert count / 1e6 == pytest.approx(0.5, abs=0.002)

    def test_consistent_with_union(self):
        a, b = square(0, 0, 2.0), square(1.0, 1.0, 2.0)
        u = polygon_union(a, b)
        assert rasterize_area([a, b], 1000) == pytest.approx(polygon_area(u), rel=0.01)


class TestUnion:
    def test_idempotent(self):
        a = square(2, 3, 4.0)
        u = polygon_union(a, a)
        assert polygon_area(u) == pytest.approx(16.0)
        # identical vertex set up to rotation
        assert {tuple(np.round(p, 9)) for p in u} == {tuple(np.round(p, 9)) for p in a}

    def test_offset_squares_inclusion_exclusion(self):
        u = polygon_union(square(0, 0), square(0.5, 0.5))
        assert polygon_area(u) == pytest.approx(1.75)

    def test_containment(self):
        outer = square(0, 0, 5.0)
        inner = square(1, 1, 1.0)
        assert polygon_area(polygon_union(inner, outer)) == pytest.approx(25.0)
        assert polygon_area(polygon_union(outer, inner)) == pytest.approx(25.0)

    def test_disjoint_marker(self):
        assert isinstance(polygon_union(square(0, 0), square(4, 4)), Disjoint)
        assert polygon_union(square(0, 0), square(4, 4)) is DISJOINT

    def test_shared_edge_seam(self):
        u = polygon_union(square(0, 0), square(1, 0))
        assert polygon_area(u) == pytest.approx(2.0)

    def test_t_junction_overlap(self):
        r1 = np.array([[0.0, -7.0], [2.0, -7.0], [2.0, 7.0], [0.0, 7.0]])
        r2 = np.array([[1.0, -7.0], [3.0, -7.0], [3.0, 7.0], [1.0, 7.0]])
        assert polygon_area(polygon_union(r1, r2)) == pytest.approx(42.0)

    def test_non_simple_rejected(self):
        bowtie = np.array([[0.0, 0.0], [2.0, 2.0], [2.0, 0.0], [0.0, 2.0]])
        with pytest.raises(NonSimplePolygon):
            polygon_union(bowtie, square(0, 0))

    def test_vertex_on_edge_rejected(self):
        # (0, 0.5) lies on edge 0 of `ring`; the walk failed on such a ring
        # and fell back to the larger input
        ring = np.array([[0.25, 1.5], [-0.5, -1.5], [0.75, -0.25], [0.0, 0.5], [-1.25, -0.25]])
        tri = np.array([[1.0, -1.5], [1.0, 0.5], [-1.0, 0.25]])
        for a, b in ((ring, tri), (tri, ring)):
            with pytest.raises(NonSimplePolygon):
                polygon_union(a, b)

    def test_commutative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = random_convex_quad(rng)
            b = random_convex_quad(rng)
            ua = polygon_union(a, b)
            ub = polygon_union(b, a)
            if isinstance(ua, Disjoint):
                assert isinstance(ub, Disjoint)
                continue
            assert polygon_area(ua) == pytest.approx(polygon_area(ub), abs=1e-9)
            va = {tuple(np.round(p, 6)) for p in ua}
            vb = {tuple(np.round(p, 6)) for p in ub}
            assert va == vb

    def test_containment_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            a = random_convex_quad(rng)
            b = random_convex_quad(rng)
            u = polygon_union(a, b)
            if isinstance(u, Disjoint):
                continue
            area = polygon_area(u)
            assert area >= max(polygon_area(a), polygon_area(b)) - 1e-9
            assert area <= polygon_area(a) + polygon_area(b) + 1e-9

    def test_random_pairs_vs_raster_oracle(self):
        rng = np.random.default_rng(3)
        done = 0
        while done < 40:
            a = random_convex_quad(rng)
            b = random_convex_quad(rng)
            u = polygon_union(a, b)
            if isinstance(u, Disjoint):
                continue
            done += 1
            est = rasterize_area([a, b], 1000)
            assert polygon_area(u) == pytest.approx(est, rel=0.01)


class TestClassify:
    def test_inside_on_outside(self):
        ring = square(0, 0, 2.0)
        assert classify_point(np.array([1.0, 1.0]), ring) == 1
        assert classify_point(np.array([0.0, 1.0]), ring) == 0
        assert classify_point(np.array([3.0, 1.0]), ring) == -1
