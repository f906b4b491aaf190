import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from icmap.errors import EmptyPointSet, InvalidSampleCount
from icmap.geometry import (
    EGO_TO_WORLD,
    EPS,
    WORLD_TO_EGO,
    Pose2,
    Rect,
    chamfer_distance,
    clip_polyline_to_rect,
    dedupe_points,
    longest_pieces,
    polyline_length,
    resample_even,
    transform_points,
    wrap_angle,
)
from icmap.polygon import clip_rings_to_rects, polygon_area


def rand_pose(rng):
    return Pose2(*rng.uniform(-50, 50, 2), rng.uniform(-10, 10))


# derandomized, so that a run of the suite is reproducible
properties = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# quarter-metre grid coordinates: repeated points and axis-parallel segments
grid_coord = st.integers(-40, 40).map(lambda k: k / 4)
grid_polyline = st.lists(st.tuples(grid_coord, grid_coord), min_size=2, max_size=12).map(
    lambda p: np.array(p, float))
real_polyline = st.lists(st.tuples(st.floats(-15, 15), st.floats(-15, 15)),
                         min_size=2, max_size=12).map(lambda p: np.array(p, float))


class TestPose:
    def test_theta_normalized(self):
        assert Pose2(0, 0, 3 * math.pi).theta == pytest.approx(math.pi)
        assert Pose2(0, 0, -math.pi).theta == pytest.approx(math.pi)
        assert -math.pi < Pose2(0, 0, 123.456).theta <= math.pi

    def test_compose_inverse_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p = rand_pose(rng)
            ident = p.compose(p.inverse())
            assert abs(ident.x) < 1e-9 and abs(ident.y) < 1e-9
            assert abs(wrap_angle(ident.theta)) < 1e-9


class TestTransform:
    def test_identity(self):
        out = transform_points(Pose2(0, 0, 0), [(1, 2)])
        assert np.allclose(out, [(1, 2)])

    def test_quarter_turn(self):
        out = transform_points(Pose2(0, 0, math.pi / 2), [(1, 0)], EGO_TO_WORLD)
        assert np.allclose(out, [(0, 1)], atol=1e-12)

    def test_rotation_translation(self):
        # oracle: homogeneous matrix product R(pi) @ (1,0) + (3,4)
        out = transform_points(Pose2(3, 4, math.pi), [(1, 0)], EGO_TO_WORLD)
        assert np.allclose(out, [(2, 4)], atol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pose = rand_pose(rng)
            pts = rng.uniform(-100, 100, (20, 2))
            back = transform_points(pose, transform_points(pose, pts, EGO_TO_WORLD), WORLD_TO_EGO)
            assert np.abs(back - pts).max() < 1e-9


class TestChamfer:
    def test_identical(self):
        pts = np.array([[0.0, 0.0], [3.0, 1.0], [5.0, -2.0]])
        assert chamfer_distance(pts, pts) == 0.0

    def test_single_pair(self):
        assert chamfer_distance([(0, 0)], [(3, 4)]) == pytest.approx(5.0)

    def test_enumeration_oracle(self):
        # brute-force nearest-neighbor enumeration gives
        # ((1 + sqrt(2))/2 + 1) / 2 = 1.10355339
        d = chamfer_distance([(0, 0), (1, 0)], [(0, 1)])
        assert d == pytest.approx(1.10355339, abs=1e-6)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-10, 10, (rng.integers(1, 30), 2))
            q = rng.uniform(-10, 10, (rng.integers(1, 30), 2))
            assert chamfer_distance(p, q) == chamfer_distance(q, p)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(-10, 10, (25, 2))
        q = rng.uniform(-10, 10, (18, 2))
        base = chamfer_distance(p, q)
        for _ in range(10):
            pose = rand_pose(rng)
            tp = transform_points(pose, p)
            tq = transform_points(pose, q)
            assert chamfer_distance(tp, tq) == pytest.approx(base, abs=1e-9)

    def test_empty_raises(self):
        with pytest.raises(EmptyPointSet):
            chamfer_distance(np.zeros((0, 2)), [(1, 1)])


class TestResample:
    def test_uniform_segment(self):
        out = resample_even([(0, 0), (10, 0)], 6)
        assert np.allclose(out[:, 0], [0, 2, 4, 6, 8, 10])
        assert np.allclose(out[:, 1], 0)

    def test_two_points_endpoints(self):
        line = [(0, 0), (3, 1), (5, 5)]
        out = resample_even(line, 2)
        assert np.allclose(out, [(0, 0), (5, 5)])

    def test_quarter_circle_chords(self):
        t = np.linspace(0, math.pi / 2, 100)
        arc = np.column_stack([10 * np.cos(t), 10 * np.sin(t)])
        out = resample_even(arc, 11)
        chords = np.linalg.norm(np.diff(out, axis=0), axis=1)
        assert (chords.max() - chords.min()) / chords.mean() < 1e-3
        assert np.allclose(out[0], arc[0]) and np.allclose(out[-1], arc[-1])

    def test_length_preserved(self):
        t = np.linspace(0, math.pi, 200)
        arc = np.column_stack([10 * np.cos(t), 10 * np.sin(t)])
        for n in (20, 50, 200):
            out = resample_even(arc, n)
            assert polyline_length(out) == pytest.approx(polyline_length(arc), rel=0.01)

    def test_bad_count(self):
        with pytest.raises(InvalidSampleCount):
            resample_even([(0, 0), (1, 0)], 1)

    @properties
    @given(st.one_of(grid_polyline, real_polyline), st.integers(2, 60))
    def test_endpoints_exact_and_steps_equal_arc(self, pts, n):
        length = polyline_length(pts)
        assume(length > 1e-6)
        out = resample_even(pts, n)
        assert len(out) == n
        # the last input point counts once it lies more than 1e-9 m past its predecessor
        assert np.array_equal(out[0], pts[0])
        assert np.array_equal(out[-1], dedupe_points(pts)[-1])
        assert np.hypot(*(out[-1] - pts[-1])) <= 1e-9
        # each step spans length / (n - 1) of arc, so its chord is no longer
        step = length / (n - 1)
        assert np.hypot(*np.diff(out, axis=0).T).max() <= step * (1 + 1e-9) + 1e-12

    @properties
    @given(st.lists(st.floats(0, 20), min_size=2, max_size=12), st.floats(-math.pi, math.pi),
           st.integers(2, 60))
    def test_equal_spacing_on_a_line(self, offsets, angle, n):
        # on a straight path, arc and chord agree: every step has the same length
        ts = np.sort(np.array(offsets))
        assume(ts[-1] - ts[0] > 1e-3)
        pts = np.column_stack([np.cos(angle) * ts, np.sin(angle) * ts]) + (3.0, -2.0)
        out = resample_even(pts, n)
        steps = np.hypot(*np.diff(out, axis=0).T)
        assert np.abs(steps - (ts[-1] - ts[0]) / (n - 1)).max() <= 1e-9


class TestDedupe:
    def test_exact_duplicates_dropped(self):
        pts = [(0.0, 0.0), (0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (2.0, 1.0)]
        assert np.array_equal(dedupe_points(pts), [(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)])

    def test_empty_and_single_point(self):
        assert dedupe_points([]).shape == (0, 2)
        assert dedupe_points(np.zeros((0, 2))).shape == (0, 2)
        assert np.array_equal(dedupe_points([(3.0, 4.0)]), [(3.0, 4.0)])

    def test_sub_eps_run_compared_with_predecessor(self):
        # every 0.6e-9 m step is within eps of its predecessor, so the whole
        # run collapses onto its first point although it spans 1.8e-9 m;
        # comparing with the last kept point would keep the 1.2e-9 m one
        pts = np.array([[0.0, 0.0], [0.6e-9, 0.0], [1.2e-9, 0.0], [1.8e-9, 0.0], [1.0, 0.0]])
        assert np.array_equal(dedupe_points(pts), [(0.0, 0.0), (1.0, 0.0)])


def axis_rect(hl=5.0, hw=5.0, pose=Pose2(0, 0, 0)):
    return Rect(pose, hl, hw)


def clip_pieces(points, rect):
    """The pieces of one polyline inside one rectangle, as a list."""
    pts, bounds, _ = clip_polyline_to_rect([points], [rect])
    return [pts[lo:hi] for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]


class TestClipPolyline:
    def test_fully_inside(self):
        line = np.array([[-2.0, 0.0], [2.0, 1.0]])
        out = clip_pieces(line, axis_rect())
        assert len(out) == 1
        assert np.allclose(out[0], line)

    def test_symmetric_crossing(self):
        out = clip_pieces([(-10, 0), (10, 0)], axis_rect())
        assert len(out) == 1
        assert np.allclose(out[0], [(-5, 0), (5, 0)])

    def test_fully_outside(self):
        assert clip_pieces([(-10, 8), (10, 8)], axis_rect()) == []

    def test_analytic_diagonal(self):
        # diagonal through the box: inside length exactly 10*sqrt(2)
        out = clip_pieces([(-10, -10), (10, 10)], axis_rect())
        total = sum(polyline_length(p) for p in out)
        assert total == pytest.approx(10 * math.sqrt(2), abs=1e-9)

    def test_u_shape_two_pieces_dense_oracle(self):
        line = np.array([[-10.0, -2.0], [-2.0, -2.0], [-2.0, 9.0], [2.0, 9.0],
                         [2.0, -2.0], [10.0, -2.0]])
        rect = axis_rect()
        pieces = clip_pieces(line, rect)
        assert len(pieces) == 2
        clipped = sum(polyline_length(p) for p in pieces)
        # dense arc-length sampling oracle
        n = 10_000
        samples = []
        for a, b in zip(line[:-1], line[1:]):
            seg = np.linspace(0, 1, max(2, int(n * np.hypot(*(b - a)) / 44)))[:, None]
            samples.append(a + seg * (b - a))
        samples = np.vstack(samples)
        inside = rect.contains(samples).mean()
        assert clipped / polyline_length(line) == pytest.approx(inside, rel=1e-3)

    def test_conservation_random(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            line = rng.uniform(-12, 12, (8, 2))
            rect = Rect(rand_pose(rng), rng.uniform(2, 8), rng.uniform(2, 8))
            pieces = clip_pieces(line, rect)
            clipped = sum(polyline_length(p) for p in pieces)
            total = polyline_length(line)
            # dense sampling oracle, samples allocated by segment length
            samples = []
            for a, b in zip(line[:-1], line[1:]):
                n = max(2, int(50_000 * np.hypot(*(b - a)) / total))
                samples.append(a + np.linspace(0, 1, n)[:, None] * (b - a))
            samples = np.vstack(samples)
            inside = rect.contains(samples).mean()
            assert clipped / total == pytest.approx(inside, abs=2e-3)

    def test_min_length_filter(self):
        # corner sliver of length ~0.21 m: the clip keeps it, and
        # longest_pieces admits it only under a shorter min_length
        line = np.array([[-5.15, 4.7], [-4.7, 5.15]])
        rect = axis_rect()
        assert len(clip_pieces(line, rect)) == 1
        assert longest_pieces([line], [rect], 0.5, 4)[0] == []
        assert longest_pieces([line], [rect], 0.0, 4)[0] == [0]
        # a piece of exactly the minimum is not longer than it
        exact = [(-0.25, 0.0), (0.25, 0.0)]
        assert longest_pieces([exact], [rect], 0.5, 4)[0] == []
        assert longest_pieces([exact], [rect], 0.25, 4)[0] == [0]

    @properties
    @given(st.one_of(grid_polyline, real_polyline),
           st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-math.pi, math.pi)),
           st.sampled_from([1.0, 2.5, 6.0]), st.sampled_from([1.0, 2.5, 6.0]))
    def test_pieces_inside_rect(self, pts, pose, hl, hw):
        rect = Rect(Pose2(*pose), hl, hw)
        for piece in clip_pieces(pts, rect):
            assert len(piece) >= 2
            local = transform_points(rect.center, piece, WORLD_TO_EGO)
            assert (np.abs(local[:, 0]) <= hl + 1e-9).all()
            assert (np.abs(local[:, 1]) <= hw + 1e-9).all()


class TestLongestPieces:
    def test_first_longest_piece_per_pair(self):
        # a U through the box: two 4 m legs, the first one wins the tie
        u = [(-5.0, -1.0), (5.0, -1.0), (5.0, 1.0), (-5.0, 1.0)]
        inside = [(-1.0, 0.0), (1.0, 0.0)]
        far = [(20.0, 0.0), (30.0, 0.0)]
        rects = [axis_rect(2.0, 2.0), axis_rect(2.0, 2.0, Pose2(25.0, 0.0, 0.0))]
        owners, samples = longest_pieces([u, inside, far], rects, 0.0, 5)
        assert owners == [0, 1, 5]  # rect * 3 + line, ascending
        assert samples.shape == (3, 5, 2)
        assert np.array_equal(samples[0], resample_even([(-2.0, -1.0), (2.0, -1.0)], 5))
        assert np.array_equal(samples[1], resample_even(inside, 5))
        assert np.array_equal(samples[2], resample_even([(23.0, 0.0), (27.0, 0.0)], 5))

    def test_sub_eps_piece_passed_over(self):
        # the corner cut is 4.2e-10 m long: resampling would dedupe it to one
        # point, so the pair has no piece; the other line is still sampled
        e = 2.0 - 3e-10
        corner = [(0.0, e), (e, 0.0)]
        pts, bounds, owner = clip_polyline_to_rect([corner], [axis_rect(1.0, 1.0)])
        assert owner.tolist() == [0] and polyline_length(pts) < EPS
        owners, samples = longest_pieces([corner, [(-3.0, 0.5), (3.0, 0.5)]],
                                         [axis_rect(1.0, 1.0)], 0.0, 4)
        assert owners == [1]
        assert np.array_equal(samples[0], resample_even([(-1.0, 0.5), (1.0, 0.5)], 4))

    def test_nothing_clipped(self):
        owners, samples = longest_pieces([[(9.0, 9.0), (10.0, 9.0)], []], [axis_rect()], 0.0, 3)
        assert owners == [] and samples.shape == (0, 3, 2)
        owners, samples = longest_pieces([], [axis_rect()], 0.0, 3)
        assert owners == [] and samples.shape == (0, 3, 2)


def clip_ring(ring, rect):
    """The clip of one ring by one rectangle: an empty list or one ring."""
    out, sizes, _ = clip_rings_to_rects([ring], [rect])
    return [row[:n] for row, n in zip(out, sizes.tolist())]


class TestClipPolygon:
    def test_inside_unchanged(self):
        ring = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        out = clip_ring(ring, axis_rect())
        assert len(out) == 1
        assert polygon_area(out[0]) == pytest.approx(4.0)

    def test_corner_quarter(self):
        ring = np.array([[4.5, 4.5], [5.5, 4.5], [5.5, 5.5], [4.5, 5.5]])
        out = clip_ring(ring, axis_rect())
        assert len(out) == 1
        assert polygon_area(out[0]) == pytest.approx(0.25)

    def test_outside_empty(self):
        ring = np.array([[8.0, 8.0], [9.0, 8.0], [9.0, 9.0], [8.0, 9.0]])
        assert clip_ring(ring, axis_rect()) == []

    def test_random_quad_vs_raster(self):
        rng = np.random.default_rng(5)
        rect = axis_rect(4.0, 3.0, Pose2(1.0, -0.5, 0.4))
        for _ in range(10):
            pts = rng.uniform(-6, 6, (4, 2))
            c = pts.mean(axis=0)
            ring = pts[np.argsort(np.arctan2(pts[:, 1] - c[1], pts[:, 0] - c[0]))]
            out = clip_ring(ring, rect)
            area = sum(abs(polygon_area(r)) for r in out)
            # rasterize the intersection predicate directly
            res = 1000
            lo = pts.min(axis=0) - 0.1
            hi = pts.max(axis=0) + 0.1
            xs = lo[0] + (hi[0] - lo[0]) * (np.arange(res) + 0.5) / res
            ys = lo[1] + (hi[1] - lo[1]) * (np.arange(res) + 0.5) / res
            from icmap._kernels import inside_mask

            gx, gy = np.meshgrid(xs, ys)
            grid = np.column_stack([gx.ravel(), gy.ravel()])
            mask = inside_mask(xs, ys, ring).ravel() & rect.contains(grid)
            ref = mask.mean() * (hi[0] - lo[0]) * (hi[1] - lo[1])
            assert area == pytest.approx(ref, abs=max(0.01 * ref, 5e-3))
