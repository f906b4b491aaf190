"""The array versions of the geometry primitives and of the merge fit
against their loop and dense versions (tests/scalar_reference.py).

Coordinates come from a quarter-metre grid, so inputs are full of the
degenerate cases the loops handled one at a time: axis-parallel segments
(a zero Liang-Barsky direction), segments lying on the clip box edge,
collinear overlapping polygon edges, vertices on the other ring's edges
and exact duplicate points. On such inputs every step between points is
either 0 or at least 0.25 m, where both dedupe rules agree, so results
must be equal, not close.

The union is also compared on pipeline-sized rings: a crossing grown by
20 to 40 successive unions with jittered quads, as merge_noisy grows one.
On those rings the union's area must agree with the rasterization oracle
within the area of the cells the boundaries cross, and must not depend on
the order of the two rings. On the grid rings the same properties (with
the area only bounded below, since the outer boundary fills holes) find
cases the walk cannot handle, so that test is an expected failure.

The clip of many polylines against many rectangles in one call is
compared, (rectangle, line) pair by pair, with the scalar loop clip and
the one-rectangle array clip, on several lines per call: empty and
one-point lines, a line starting exactly on the previous line's last
point, and lines far outside every box; its pieces must come in rectangle,
then line order. History sampling, one call for every requested instance,
is compared bit for bit with the per-instance loop it replaced (the
one-rectangle clip, the first longest piece, `resample_even`) on maps with
crossings, absent IDs, instances outside the patch and clips in several
pieces, with its keys in the requested order. The clip is compared with no
minimum length, which only `longest_pieces` applies. The ground truth of all
frames at once is compared with the per-frame clip on every curvature,
and on tight curves where a lane leaves the range and re-enters it, so
that frames hold several pieces; resampling many lines at once with
the scalar `ref.resample_even` one line at a time, on lines with repeated
points and runs of sub-eps steps at either end, each line with a sample
count of its own; densifying many lines at once with the scalar
`ref.densify` one line at a time (a line it raises on, which a second
dedupe leaves with under 2 points, returned as that dedupe leaves it), on
runs of sub-eps steps that a second dedupe shortens again, one-point and
empty lines and closed crossing rings; both with consecutive lines that
start on the previous line's last point or a sub-eps step from it, whose
first point is kept all the same; and the polygon clip, one array pass of
many rings against many rectangles, pair by pair with the loop on numpy
scalars it replaced: on rotated ranges, on grid rings of 3 to 6 vertices,
convex or not, against boxes in general poses, and on rings inside,
outside, across corners (an 8-vertex clip, whose area numpy sums in its
pairwise form), touching an edge or at the 1e-12 area gate. The ground
truth's crossings, all clipped in one pass, are compared with the
per-frame clip on every curvature with 0 to 3 crossings, with polylines
and crossings interleaved in ID order and at the 0.25 m² gate. The one
move of a frame's instances to the world (`to_world`, one transform per
frame), which run's detections take, is compared bit for bit with one
transform per instance, on detections with scores, embeddings and ids,
1-point instances and empty frames; eval's ground truth, all frames moved
at once (`frames_to_world`), with `to_world` frame by frame. The road's
centerline, which writes the arc once, is compared bit for bit with the
version that wrote it for each curvature, over road lengths, radii and all
three curvatures.

The fusion blend, reading the squared distances of `_kernels`, is
compared with its own broadcast of point differences, with the radius on a
point's nearest distance and history points repeated: the blended points
must be equal.

The merge chain takes the same argmin over the same distances as its loop
version, so chains must be equal too. The banded spline solve sums the
normal equations in another order and factors them by Cholesky instead of
LU, so its control points match the dense solve to a relative 1e-9. The
merge fit, which computes each per-merge quantity once, must return the
bits of the banded fit that computed them as it went (`ref.banded_fit`),
or raise the same exception class: on noisy chains, chains with sub-eps
runs that a second dedupe shortens, quarter-metre grids, chains at
MAX_CTRL_POINTS, every penalty weight the solve is tested at, chains of
`reorder_concat`, and a stored line above MAX_MERGE_POINTS. The even
resample and densify, which read one diff for their dedupe and their step
lengths, are compared with the versions that differenced again; densify
keeps the bits of every line that densified before.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import BSpline

import scalar_reference as ref
from icmap.curvefit import (DEGREE, MAX_CTRL_POINTS, MAX_MERGE_POINTS, SmoothingFitParams, Spline,
                            _clamped_knots, _cubic_basis, _solve_spline, fit_smoothing_spline,
                            merge_polylines, reorder_concat)
from icmap.errors import EmptyPointSet, NonSimplePolygon
from icmap.geometry import (EGO_TO_WORLD, WORLD_TO_EGO, Pose2, Rect, clip_polyline_to_rect,
                            dedupe_points, densify, densify_many, polyline_length, resample_even,
                            resample_even_many, transform_points, transform_stacked)
from icmap.instance import CLASSES, DIVIDER, PED_CROSSING, MapInstance, to_world
from icmap.mapstore import GlobalMap, fuse_with_history, sample_history
from icmap.pipeline import scene_gt_frames
from icmap.polygon import (DISJOINT, classify_point, classify_points, clip_polygon_to_rect,
                           clip_rings_to_rects, is_simple, polygon_area, polygon_union,
                           rasterize_area)
from icmap.synth import (ARC, CURVATURES, S_CURVE, Frame, NoiseConfig, Scene, SceneConfig,
                         _centerline, clip_gt_frames, generate_scene, make_scene)

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


def assert_same_outcome(fn, want_fn, *args):
    """fn(*args) returns the bits of want_fn(*args), or raises an exception
    of the same class."""
    try:
        want = want_fn(*args)
    except Exception as exc:
        with pytest.raises(Exception) as info:
            fn(*args)
        assert type(info.value) is type(exc)
        return None
    got = fn(*args)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too
    return got


class TestClipPolyline:
    @equivalence
    @given(polyline, clip_box)
    def test_matches_loop_clip(self, pts, rect):
        got = pieces_by_pair([pts], [rect])[0][0]
        want = ref.clip_polyline_to_rect(pts, rect)
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
        got = pieces_by_pair([pts], [rect])[0][0]
        want = ref.clip_polyline_to_rect(pts, rect)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


# poses along a straight road or an arc, a few metres apart, heading along it
@st.composite
def road_boxes(draw):
    radius = draw(st.sampled_from([4.0, 9.0, 30.0, None]))
    step = draw(st.sampled_from([0.75, 1.5, 3.0]))
    extents = draw(st.sampled_from([(1.0, 1.0), (2.5, 1.0), (4.0, 2.5), (3.3, 2.1)]))
    arc = [draw(coord) + k * step for k in range(draw(st.integers(1, 8)))]
    poses = [Pose2(s, 0.0, 0.0) if radius is None else
             Pose2(radius * np.sin(s / radius), radius * (1.0 - np.cos(s / radius)), s / radius)
             for s in arc]
    return [Rect(pose, *extents) for pose in poses]


@st.composite
def with_duplicates(draw, lines):
    pts = draw(lines)
    return np.repeat(pts, draw(st.lists(st.integers(1, 3), min_size=len(pts),
                                        max_size=len(pts))), axis=0)


# an arc of off-grid points, or a zigzag across the boxes: both leave and
# re-enter a box many times
arc_polyline = st.builds(
    lambda r, c, a0, n: np.column_stack([c[0] + r * np.cos(np.linspace(a0, a0 + 5.0, n)),
                                         c[1] + r * np.sin(np.linspace(a0, a0 + 5.0, n))]),
    st.sampled_from([1.5, 3.0, 6.0]), point, st.sampled_from([0.0, 0.3, 2.0]),
    st.integers(2, 40))
zigzag = st.lists(coord, min_size=2, max_size=12).map(
    lambda ys: np.column_stack([np.arange(len(ys)) - 6.0,
                                np.array(ys) * (-1.0) ** np.arange(len(ys))]))
many_box_polyline = st.one_of(with_duplicates(polyline), with_duplicates(arc_polyline),
                              with_duplicates(zigzag))


# several lines per call: drawn ones, 0- and 1-point lines, a line that
# starts exactly on the previous line's last point, and lines moved 1 km
# away from every box
@st.composite
def many_lines(draw):
    lines = []
    for line in draw(st.lists(st.one_of(many_box_polyline, st.sampled_from(
            [np.empty((0, 2)), np.array([[0.5, -0.25]])])), min_size=1, max_size=5)):
        how = draw(st.sampled_from(["drawn", "joined", "outside"]))
        if how == "joined" and lines and len(lines[-1]):
            line = np.vstack([lines[-1][-1:], line])
        elif how == "outside":
            line = line + 1000.0
        lines.append(line)
    return lines


def pieces_by_pair(lines, rects):
    """The pieces `clip_polyline_to_rect` returns, listed per (rectangle,
    line) pair."""
    pts, bounds, owner = clip_polyline_to_rect(lines, rects)
    assert (np.diff(owner) >= 0).all()  # in rectangle order, then line order
    out = [[[] for _ in lines] for _ in rects]
    for lo, hi, o in zip(bounds[:-1].tolist(), bounds[1:].tolist(), owner.tolist()):
        out[o // len(lines)][o % len(lines)].append(pts[lo:hi])
    return out


class TestClipManyRects:
    @equivalence
    @given(many_lines(), road_boxes())
    def test_matches_one_rect_clip(self, lines, rects):
        got = pieces_by_pair(lines, rects)
        for by_line, rect in zip(got, rects):
            for pieces, pts in zip(by_line, lines):
                for want in (ref.clip_polyline_to_rect(pts, rect),
                             ref.clip_polyline_to_rect_array(pts, rect)):
                    assert len(pieces) == len(want)
                    for g, w in zip(pieces, want):
                        assert g.shape == w.shape and np.array_equal(g, w)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(CURVATURES), st.integers(1, 3), st.integers(0, 3),
           st.integers(1, 12), st.sampled_from([3.0, 7.5]),
           st.sampled_from([(100.0, 50.0), (60.0, 30.0), (30.0, 15.0)]))
    def test_gt_frames_match_per_frame_clip(self, curvature, lanes, crossings, frames, spacing,
                                            range_lw):
        config = SceneConfig(road_length=120.0, lane_count=lanes, curvature=curvature,
                             radius=60.0, crossing_count=crossings, frame_count=frames,
                             frame_spacing=spacing, range_lw=range_lw)
        gt, poses = generate_scene(config)
        got = clip_gt_frames(gt, poses, range_lw)
        assert len(got) == len(poses)
        for frame, pose in zip(got, poses):
            want = ref.clip_gt_frame(gt, pose, range_lw)
            assert [(i.id, i.cls) for i in frame] == [(i.id, i.cls) for i in want]
            for g, w in zip(frame, want):
                assert g.points.shape == w.points.shape and np.array_equal(g.points, w.points)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([ARC, S_CURVE]), st.sampled_from([12.0, 15.0]),
           st.integers(1, 2), st.integers(0, 3), st.sampled_from([3.0, 7.5]),
           st.sampled_from([(100.0, 50.0), (60.0, 30.0)]))
    def test_gt_frames_match_where_lines_reenter(self, curvature, radius, lanes, crossings,
                                                 spacing, range_lw):
        # tight curves: a lane leaves the range and comes back in, so frames
        # hold several pieces of it and the longest one must be picked
        config = SceneConfig(road_length=150.0, lane_count=lanes, curvature=curvature,
                             radius=radius, crossing_count=crossings, frame_count=12,
                             frame_spacing=spacing, range_lw=range_lw)
        gt, poses = generate_scene(config)
        rects = [Rect(pose, range_lw[0] / 2.0, range_lw[1] / 2.0) for pose in poses]
        assert any(sum(polyline_length(p) > 0.5 for p in pieces) > 1
                   for inst in gt.instances.values() if inst.is_polyline
                   for [pieces] in pieces_by_pair([inst.points], rects))
        got = clip_gt_frames(gt, poses, range_lw)
        for frame, pose in zip(got, poses):
            want = ref.clip_gt_frame(gt, pose, range_lw)
            assert [(i.id, i.cls) for i in frame] == [(i.id, i.cls) for i in want]
            for g, w in zip(frame, want):
                assert g.points.shape == w.points.shape and np.array_equal(g.points, w.points)

    @pytest.mark.parametrize("points,kept", [
        # two pieces of exactly 4 m each: the first one is kept, as `max` keeps it
        ([(-5.0, -1.0), (5.0, -1.0), (5.0, 1.0), (-5.0, 1.0)], (-2.0, -1.0)),
        # pieces of 1 m, 4 m and 1 m: the middle one is kept
        ([(-2.5, -1.5), (-1.5, -1.5), (-1.5, -5.0), (0.0, -5.0), (0.0, 5.0), (1.5, 5.0),
          (1.5, 1.5), (2.5, 1.5)], (0.0, -2.0)),
        # one piece of 0.45 m across a corner, below the 0.5 m minimum
        ([(1.8, 5.0), (1.8, 1.75), (5.0, 1.75)], None),
    ], ids=["tie", "middle", "short"])
    def test_gt_frames_longest_piece(self, points, kept):
        gt = GlobalMap("g", {0: MapInstance(DIVIDER, np.array(points), id=0)})
        poses = [Pose2(0.0, 0.0, 0.0), Pose2(0.25, -0.5, 0.3)]
        got = clip_gt_frames(gt, poses, (4.0, 4.0))
        if kept is None:
            assert got[0] == []
        else:
            assert got[0][0].points[0].tolist() == list(kept)
        for frame, pose in zip(got, poses):
            want = ref.clip_gt_frame(gt, pose, (4.0, 4.0))
            assert len(frame) == len(want)
            for g, w in zip(frame, want):
                assert np.array_equal(g.points, w.points)


def assert_gt_frames_match(gt, poses, range_lw):
    got = clip_gt_frames(gt, poses, range_lw)
    assert len(got) == len(poses)
    for frame, pose in zip(got, poses):
        want = ref.clip_gt_frame(gt, pose, range_lw)
        assert [(i.id, i.cls) for i in frame] == [(i.id, i.cls) for i in want]
        for g, w in zip(frame, want):
            assert g.points.shape == w.points.shape and np.array_equal(g.points, w.points)
    return got


class TestClipGtCrossings:
    @pytest.mark.parametrize("crossings", [0, 1, 2, 3])
    @pytest.mark.parametrize("curvature", CURVATURES)
    def test_matches_per_frame_clip(self, curvature, crossings):
        for range_lw in ((100.0, 50.0), (30.0, 15.0), (9.0, 5.0)):
            config = SceneConfig(road_length=150.0, lane_count=2, curvature=curvature,
                                 radius=60.0, crossing_count=crossings, frame_count=25,
                                 frame_spacing=5.0, range_lw=range_lw)
            got = assert_gt_frames_match(*generate_scene(config), range_lw)
            shown = {i.id for frame in got for i in frame if i.cls == PED_CROSSING}
            assert len(shown) == crossings

    def test_polylines_and_crossings_in_id_order(self):
        square = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
        line = np.array([(-9.0, 0.5), (9.0, 0.5)])
        gt = GlobalMap("g", {k: MapInstance(cls, pts + 0.25 * k, id=k) for k, (cls, pts) in
                             enumerate([(PED_CROSSING, square), (DIVIDER, line),
                                        (PED_CROSSING, square[::-1]), (DIVIDER, line),
                                        (PED_CROSSING, square)])})
        poses = [Pose2(0.0, 0.0, 0.0), Pose2(0.7, -0.3, 2.0), Pose2(40.0, 0.0, 0.0)]
        got = assert_gt_frames_match(gt, poses, (10.0, 6.0))
        assert [[i.id for i in frame] for frame in got] == [[0, 1, 2, 3, 4]] * 2 + [[]]

    @pytest.mark.parametrize("x0,shown", [(1.75, True), (1.76, False)])
    def test_area_gate(self, x0, shown):
        # the range (4, 4) keeps [x0, 2] x [0, 1] of the crossing: 0.25 m²
        # passes the gate, 0.24 m² does not
        ring = np.array([(x0, 0.0), (3.0, 0.0), (3.0, 1.0), (x0, 1.0)])
        gt = GlobalMap("g", {0: MapInstance(PED_CROSSING, ring, id=0)})
        got = assert_gt_frames_match(gt, [Pose2(0.0, 0.0, 0.0), Pose2(0.5, 0.2, 0.3)], (4.0, 4.0))
        assert bool(got[0]) == shown


class TestCenterline:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(CURVATURES),
           # half-metre lengths put a sample exactly on an s_curve's midpoint
           st.one_of(st.floats(10.0, 1200.0), st.integers(20, 2400).map(lambda k: k / 2)),
           st.one_of(st.floats(0.5, 1000.0), st.sampled_from([55.5, 120.0, 1000.0])))
    def test_matches_arc_per_curvature(self, curvature, road_length, radius):
        config = SceneConfig(road_length=road_length, curvature=curvature, radius=radius)
        for got, want in zip(_centerline(config), ref.centerline(config)):
            assert got.shape == want.shape and np.array_equal(got, want)


# lines of a few points each: grid points with exact repeats, runs of steps
# below resample_even's 1e-9 dedupe distance (every point after the first
# of a run is dropped, although the run spans more) at a line's start or its
# end, two-point lines, and off-grid arcs
sub_eps_run = st.builds(
    lambda p, k, tail: np.vstack([np.array(p) + np.outer(np.arange(k), [4e-10, -3e-10]),
                                  np.array(tail, float).reshape(-1, 2)]),
    point, st.integers(2, 6), st.lists(point, max_size=3))
sub_eps_end = st.builds(
    lambda head, p, k: np.vstack([np.array(head, float).reshape(-1, 2),
                                  np.array(p) + np.outer(np.arange(k), [4e-10, -3e-10])]),
    st.lists(point, max_size=3), point, st.integers(2, 6))
resample_line = st.one_of(with_duplicates(polyline), sub_eps_run, sub_eps_end, st.lists(
    point, min_size=2, max_size=2).map(lambda p: np.array(p, float)), arc_polyline)


@st.composite
def joined_lines(draw, line, min_size):
    """Consecutive lines of which each may start on the previous one's last
    point or within a sub-eps step of it: a line's first point is kept
    whatever the point before it in the concatenation."""
    lines = draw(st.lists(line, min_size=min_size, max_size=6))
    for k in range(1, len(lines)):
        if len(lines[k - 1]) and draw(st.booleans()):
            start = lines[k - 1][-1] + draw(st.sampled_from([(0.0, 0.0), (4e-10, -3e-10)]))
            lines[k] = np.vstack([start, lines[k]])
    return lines


class TestResampleMany:
    @equivalence
    @given(joined_lines(resample_line, 1), st.data())
    def test_matches_resample_even(self, lines, data):
        counts = data.draw(st.lists(st.integers(2, 40), min_size=len(lines),
                                    max_size=len(lines)))
        try:
            want = [ref.resample_even(line, n) for line, n in zip(lines, counts)]
        except EmptyPointSet:
            with pytest.raises(EmptyPointSet):
                resample_even_many(lines, counts)
            return
        got = resample_even_many(lines, counts)
        assert got.shape == (sum(counts), 2)
        assert got.tobytes() == np.concatenate(want).tobytes()

    def test_no_lines(self):
        assert resample_even_many([], []).shape == (0, 2)

    def test_counts_must_match_lines(self):
        # more counts than lines once read memory no line was resampled
        # into; fewer failed in a numpy broadcast
        line = [(0.0, 0.0), (4.0, 0.0)]
        with pytest.raises(ValueError, match="2 counts for 1 lines"):
            resample_even_many([line], [5, 5])
        with pytest.raises(ValueError, match="1 counts for 2 lines"):
            resample_even_many([line, line], [5])

    @equivalence
    @given(resample_line, st.integers(2, 40))
    def test_one_diff_matches_two(self, line, n):
        # the dedupe and the step lengths from one diff, against a second
        # diff of the kept points
        assert_same_outcome(resample_even, ref.resample_even, line, n)


# a sub-eps run that one dedupe leaves at 2 points and a second at 1: x = 0,
# 0.6e-9 and -0.5e-9 keep 0 and -0.5e-9 (each point is compared with its
# input predecessor), and those two are within 1e-9 of each other
non_idempotent_run = st.builds(
    lambda p, tail: np.vstack([np.array(p) + [[0.0, 0.0], [6e-10, 0.0], [-5e-10, 0.0]],
                               np.array(tail, float).reshape(-1, 2)]),
    point, st.lists(point, max_size=3))
densify_line = st.one_of(
    resample_line, non_idempotent_run, point.map(lambda p: np.array([p], float)),
    st.just(np.empty((0, 2))),
    ring.map(lambda r: MapInstance(PED_CROSSING, r).closed_points))  # a closed, crossing ring


def densify_oracle(line, spacing):
    """`ref.densify`, except that a line it raises on, one that the second
    dedupe leaves with fewer than 2 points, is returned as that dedupe
    leaves it."""
    try:
        return ref.densify(line, spacing)
    except EmptyPointSet:
        want = dedupe_points(dedupe_points(line))
        assert len(want) < 2
        return want


class TestDensifyMany:
    @equivalence
    @given(joined_lines(densify_line, 0), st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    def test_matches_densify(self, lines, spacing):
        want = [densify_oracle(line, spacing) for line in lines]
        got, bounds = densify_many(lines, spacing)
        assert bounds.tolist() == np.cumsum([0] + [len(w) for w in want]).tolist()
        want = np.concatenate(want) if want else np.empty((0, 2))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @equivalence
    @given(densify_line, st.sampled_from([0.25, 0.3, 0.5, 1.0]))
    def test_densify_keeps_what_succeeded(self, line, spacing):
        # a line that densified before keeps its bits; one that raised is
        # returned as the second dedupe leaves it, with fewer than 2 points
        want = densify_oracle(line, spacing)
        got = densify(line, spacing)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_no_lines(self):
        pts, bounds = densify_many([], 0.5)
        assert pts.shape == (0, 2) and bounds.tolist() == [0] and bounds.dtype == np.intp

    def test_length_summed_as_polyline_length(self):
        # this line's length, summed pairwise as `polyline_length` sums it,
        # is 5.5 spacings and rounds to 6; summed in order it falls an ulp
        # short and would round to 5
        line = [[0.955, 0.1], [1.185, -0.088], [2.139, -0.006], [2.52, 0.192], [3.001, 0.185],
                [3.846, 0.09], [4.314, 0.016], [4.908, -0.089], [5.033, -0.136], [5.811, 0.188],
                [6.396, 0.006], [6.792, -0.154], [7.602, 0.049], [7.975, 0.111], [8.483, 0.045],
                [8.704, 0.167], [9.167, -0.184], [9.45, 0.011], [9.786, -0.016]]
        want = densify(line, 1.6996486601036016)
        assert len(want) == 7
        assert densify_many([line], 1.6996486601036016)[0].tobytes() == want.tobytes()

    def test_non_idempotent_dedupe(self):
        # 2 points after the first dedupe, 1 after the second: nothing to
        # resample, so densify and the batch return that one point
        line = [[0.0, 0.0], [6e-10, 0.0], [-5e-10, 0.0]]
        with pytest.raises(EmptyPointSet):
            ref.densify(line, 0.5)
        assert densify(line, 0.5).tolist() == [[0.0, 0.0]]
        two = [[1.0, 1.0], [3.0, 1.0]]
        got, bounds = densify_many([two, line], 0.5)
        assert bounds.tolist() == [0, 5, 6]
        assert got.tobytes() == np.vstack([densify(two, 0.5), [[0.0, 0.0]]]).tobytes()
        line.append([3.0, 0.0])
        assert densify_many([line], 0.5)[0].tobytes() == densify(line, 0.5).tobytes()


class TestTransformStacked:
    @equivalence
    @given(st.lists(st.tuples(coord, coord, st.floats(-4.0, 4.0)), min_size=1, max_size=5),
           st.integers(1, 6), st.data())
    def test_stacked_transform_matches_one_pose(self, poses, n, data):
        poses = [Pose2(*p) for p in poses]
        pts = np.array(data.draw(st.lists(st.lists(point, min_size=n, max_size=n),
                                          min_size=len(poses), max_size=len(poses))), float)
        got = transform_stacked(poses, pts, WORLD_TO_EGO)
        for g, pose, p in zip(got, poses, pts):
            assert np.array_equal(g, transform_points(pose, p, WORLD_TO_EGO))


general = st.floats(-200.0, 200.0, allow_nan=False)


def general_pose(draw):
    return Pose2(draw(general), draw(general), draw(st.floats(-3.2, 3.2)))


@st.composite
def gt_instance(draw, i):
    """A frame's ground-truth instance: a polyline of 0 to 12 general
    points, or a crossing of 3 to 5 vertices."""
    if draw(st.booleans()):
        cls, n = "ped_crossing", draw(st.integers(3, 5))
    else:
        cls, n = DIVIDER, draw(st.integers(0, 12))
    pts = draw(st.lists(st.tuples(general, general), min_size=n, max_size=n))
    return MapInstance(cls, np.array(pts, float).reshape(-1, 2), id=i)


@st.composite
def gt_scene(draw):
    frames = []
    for t in range(draw(st.integers(1, 5))):
        pose = general_pose(draw)
        gts = [draw(gt_instance(i)) for i in range(draw(st.integers(0, 4)))]  # 0: no GT
        frames.append(Frame(t, pose, gts, []))
    return Scene("s", (100.0, 50.0), GlobalMap("s"), frames)


@st.composite
def detection_frame(draw):
    """An ego pose and detector-like instances of every class: 1 to 12
    general points, a score, and an id and an embedding or none."""
    insts = []
    for _ in range(draw(st.integers(1, 5))):
        n = draw(st.integers(1, 12))
        pts = draw(st.lists(st.tuples(general, general), min_size=n, max_size=n))
        emb = draw(st.none() | st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
        insts.append(MapInstance(draw(st.sampled_from(CLASSES)), np.array(pts, float),
                                 score=draw(st.floats(0.05, 1.0)),
                                 id=draw(st.none() | st.integers(0, 99)), embedding=emb))
    return general_pose(draw), insts


class TestSceneGtFrames:
    @staticmethod
    def assert_moved_bits(got, pose, insts):
        """`got` holds each of `insts` moved by its own transform, with the
        same fields, and `insts` are left as they were."""
        assert len(got) == len(insts)
        for g, inst in zip(got, insts):
            want = inst.transformed(pose, EGO_TO_WORLD)
            assert (g.cls, g.id, g.score) == (want.cls, want.id, want.score)
            assert g.points.shape == want.points.shape
            assert g.points.tobytes() == want.points.tobytes()
            assert (g.embedding is None) == (inst.embedding is None)
            if inst.embedding is not None:
                assert g.embedding.tobytes() == inst.embedding.tobytes()

    @classmethod
    def assert_per_instance_bits(cls, scene):
        got = scene_gt_frames(scene)
        assert len(got) == len(scene.frames)
        for fr, f in zip(got, scene.frames):
            cls.assert_moved_bits(fr, f.ego_pose, f.gt_local)

    @equivalence
    @given(gt_scene())
    def test_matches_one_transform_per_instance(self, scene):
        self.assert_per_instance_bits(scene)

    @equivalence
    @given(detection_frame())
    def test_detections_keep_their_fields(self, frame):
        pose, dets = frame
        before = [d.points.tobytes() for d in dets]
        self.assert_moved_bits(to_world(pose, dets), pose, dets)
        assert [d.points.tobytes() for d in dets] == before

    def test_one_point_instances(self):
        pose = Pose2(12.5, -3.25, 0.7)
        dets = [MapInstance(DIVIDER, [[1.5, -2.25]], score=0.8, id=4),
                MapInstance(PED_CROSSING, [[0.0, 0.0]], embedding=[0.6, 0.8]),
                MapInstance(DIVIDER, [[-7.0, 3.0]])]
        self.assert_moved_bits(to_world(pose, dets), pose, dets)

    @equivalence
    @given(gt_scene())
    def test_matches_one_move_per_frame(self, scene):
        got = scene_gt_frames(scene)
        want = [to_world(f.ego_pose, f.gt_local) for f in scene.frames]
        assert [[(g.cls, g.id, g.points.shape, g.points.tobytes()) for g in fr] for fr in got] == \
            [[(w.cls, w.id, w.points.shape, w.points.tobytes()) for w in fr] for fr in want]

    def test_empty_frame_among_others(self):
        inst = MapInstance(DIVIDER, [[1.0, 2.0], [3.5, -1.25]], id=7)
        frames = [Frame(t, Pose2(2.0 * t, -1.0, 0.4 * t), gts, [])
                  for t, gts in enumerate([[inst], [], [inst, inst]])]
        got = scene_gt_frames(Scene("s", (100.0, 50.0), GlobalMap("s"), frames))
        assert [len(fr) for fr in got] == [1, 0, 2]
        for fr, f in zip(got, frames):
            self.assert_moved_bits(fr, f.ego_pose, f.gt_local)

    def test_empty_frame(self):
        assert to_world(Pose2(1.0, 2.0, 0.3), []) == []
        scene = Scene("s", (100.0, 50.0), GlobalMap("s"),
                      [Frame(0, Pose2(0.0, 0.0, 0.0), [], [])])
        assert scene_gt_frames(scene) == [[]]

    def test_generated_scene_with_crossings(self):
        scene = make_scene(SceneConfig(curvature=S_CURVE, crossing_count=3, frame_count=12,
                                       noise=NoiseConfig.zero(), seed=3))
        assert any(g.cls == "ped_crossing" for f in scene.frames for g in f.gt_local)
        self.assert_per_instance_bits(scene)


# crossings near and across a rotated range, off the grid, as merge_noisy
# clips them: the crossing points of the clip are general floats
@st.composite
def crossing_case(draw):
    ring = draw(polygon)
    pose = Pose2(draw(coord) / 3, draw(coord) / 3, draw(st.floats(-3.1, 3.1)))
    return ring, Rect(pose, draw(st.sampled_from([1.0, 2.3, 4.0])),
                      draw(st.sampled_from([0.7, 2.5])))


class TestClipPolygonFloats:
    @equivalence
    @given(crossing_case())
    def test_matches_numpy_scalar_loop(self, case):
        ring, rect = case
        got, want = clip_polygon_to_rect(ring, rect), ref.clip_polygon_to_rect(ring, rect)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


# quarter-metre grid rings of 3 to 6 vertices: rectangles (convex), rings
# sorted about their mean (mostly simple, often not convex) and rings as
# drawn (often self-crossing)
small_ring = st.lists(point, min_size=3, max_size=6).map(lambda p: np.array(p, float))
small_polygon = st.one_of(rectangle(), star_ring().filter(lambda r: len(r) <= 6), small_ring)
# grid boxes at the origin, whose edges run along grid lines, and boxes in
# general poses, whose crossing points are general floats
any_rect = st.one_of(
    clip_box,
    st.builds(lambda x, y, theta, hl, hw: Rect(Pose2(x, y, theta), hl, hw),
              st.floats(-6.0, 6.0), st.floats(-6.0, 6.0), st.floats(-3.2, 3.2),
              st.floats(0.25, 6.0), st.floats(0.25, 6.0)),
)


def assert_pairwise_clips(rings, rects):
    """`clip_rings_to_rects(rings, rects)` holds the bits of the scalar
    loop's clip of each (rectangle, ring) pair that has one, in rectangle,
    then ring order; returns each row's vertex count."""
    out, sizes, owner = clip_rings_to_rects(rings, rects)
    want = [(r * len(rings) + k, clip[0])
            for r, rect in enumerate(rects) for k, ring in enumerate(rings)
            for clip in [ref.clip_polygon_to_rect(ring, rect)] if clip]
    assert owner.tolist() == [o for o, _ in want]
    for k, (_, w) in enumerate(want):
        got = out[k, :sizes[k]]
        assert got.shape == w.shape and np.array_equal(got, w)
    return sizes.tolist()


class TestClipRingsToRects:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(small_polygon, min_size=1, max_size=5), st.lists(any_rect, min_size=1, max_size=5))
    def test_many_rings_many_rects_match_scalar_loop(self, rings, rects):
        assert_pairwise_clips(rings, rects)

    BOX = Rect(Pose2(0.0, 0.0, 0.0), 2.0, 1.0)

    @pytest.mark.parametrize("ring,sizes", [
        # inside: the ring itself
        ([(-1.0, -0.5), (1.0, -0.5), (1.0, 0.5), (-1.0, 0.5)], [4]),
        # outside
        ([(8.0, 8.0), (9.0, 8.0), (9.0, 9.0), (8.0, 9.0)], []),
        # a diamond across all four corners: an 8-vertex clip, whose area
        # numpy sums in its pairwise form
        ([(2.5, 0.0), (0.0, 2.5), (-2.5, 0.0), (0.0, -2.5)], [8]),
        # across one corner
        ([(1.5, 0.5), (3.0, 0.5), (3.0, 2.0), (1.5, 2.0)], [4]),
        # touching the edge x = 2 from outside: a segment, dropped
        ([(2.0, -0.5), (3.0, -0.5), (3.0, 0.5), (2.0, 0.5)], []),
        # touching it from inside: kept whole
        ([(1.0, -0.5), (2.0, -0.5), (2.0, 0.5), (1.0, 0.5)], [4]),
        # clockwise: turned CCW
        ([(-1.0, -0.5), (-1.0, 0.5), (1.0, 0.5), (1.0, -0.5)], [4]),
        # slivers of area 1.1e-12 and 0.9e-12 about the 1e-12 gate
        ([(0.0, 0.0), (1.0, 0.0), (0.5, 2.2e-12)], [3]),
        ([(0.0, 0.0), (1.0, 0.0), (0.5, 1.8e-12)], []),
        # a closing point within EPS of the first is dropped
        ([(0.0, 0.0), (1.0, 0.0), (1.0, 0.5), (0.0, 0.5e-9)], [3]),
    ], ids=["inside", "outside", "corners", "corner", "touch-out", "touch-in", "clockwise",
            "sliver-kept", "sliver-dropped", "closing"])
    def test_fixed_cases(self, ring, sizes):
        assert assert_pairwise_clips([np.array(ring)], [self.BOX]) == sizes
        for clip in clip_polygon_to_rect(ring, self.BOX):
            assert polygon_area(clip) > 0

    def test_nothing_to_clip(self):
        for rings, rects in (([], [self.BOX]), ([[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]], []),
                             ([np.empty((0, 2))], [self.BOX])):
            out, sizes, owner = clip_rings_to_rects(rings, rects)
            assert len(out) == len(sizes) == len(owner) == 0


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

    @pytest.mark.parametrize("r", [
        # pinched at a repeated vertex
        [(0, 0), (2, 0), (1, 1), (2, 2), (0, 2), (1, 1)],
        # vertex (0, 0.5) on edge 0
        [(0.25, 1.5), (-0.5, -1.5), (0.75, -0.25), (0, 0.5), (-1.25, -0.25)],
    ])
    def test_touching_edges_not_simple(self, r):
        assert not is_simple(r)
        assert not ref.is_simple(r)

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
        # a sub-EPS run that one dedupe leaves at 2 vertices, (2, 0) and
        # (2 - 5e-10, 0), and the second at 1: simple only with its own
        # table of the ring deduped twice; inside the other ring, then away
        # from it
        ([(0, 0), (2, 0), (2 + 6e-10, 0), (2 - 5e-10, 0), (2, 2), (0, 2)],
         [(-1, -1), (3, -1), (3, 3), (-1, 3)]),
        ([(0, 0), (2, 0), (2 + 6e-10, 0), (2 - 5e-10, 0), (2, 2), (0, 2)],
         [(5, 5), (6, 5), (6, 6)]),
    ])
    def test_degenerate_arrangements(self, a, b):
        a, b = np.array(a, float), np.array(b, float)
        for x, y in ((a, b), (b, a)):
            assert_same_union(polygon_union(x, y), ref.polygon_union(x, y))


def crossing_frames(seed, steps):
    """A crossing as merge_noisy detects it, `steps` times: a 4 m by 10.5 m
    rectangle at a random heading and place, with a corner cut off by the
    range edge in about 3 frames of 10 (a 5-vertex ring), and every vertex
    jittered by 0.2 m (sigma)."""
    rng = np.random.default_rng(seed)
    th = rng.uniform(0.0, 2 * np.pi)
    rot = np.array([[np.cos(th), np.sin(th)], [-np.sin(th), np.cos(th)]])
    base = np.array([[-2.0, -5.25], [2.0, -5.25], [2.0, 5.25], [-2.0, 5.25]]) @ rot
    base += rng.uniform(-50.0, 50.0, 2)
    frames = []
    for _ in range(steps):
        quad = base
        if rng.random() < 0.3:
            k = int(rng.integers(4))
            f, g = rng.uniform(0.2, 0.8, 2)
            cut = [quad[k] + f * (quad[k - 1] - quad[k]), quad[k] + g * (quad[(k + 1) % 4] - quad[k])]
            quad = np.vstack([quad[:k], cut, quad[k + 1:]])
        frames.append(quad + rng.normal(0.0, 0.2, quad.shape))
    return frames


def grown_unions(seed, steps):
    """(stored, detection, union) per merge of `crossing_frames`, the stored
    ring starting as the first detection and growing by each union."""
    frames = crossing_frames(seed, steps)
    stored = frames[0]
    for det in frames[1:]:
        got = union_or_marker(polygon_union, stored, det)
        yield stored, det, got
        if isinstance(got, np.ndarray):
            stored = got


GROWN = [(0, 20), (1, 27), (2, 34), (3, 40)]  # (seed, steps)


def assert_union_properties(a, b, got, holes=False):
    """The same result kind and area with the rings swapped, and an area
    within the raster oracle's cell tolerance. The union is the outer
    boundary, so where it may enclose a hole (`holes`) it only has to cover
    both rings."""
    swapped = union_or_marker(polygon_union, b, a)
    if not isinstance(got, np.ndarray):
        assert swapped is got or swapped == got
        return
    assert isinstance(swapped, np.ndarray)
    area = polygon_area(got)
    assert abs(area - polygon_area(swapped)) <= 1e-9
    res = 400
    a, b = np.asarray(a, float), np.asarray(b, float)
    both = np.vstack([a, b])
    dx, dy = (both.max(axis=0) - both.min(axis=0)) / res
    # only cells the boundaries cross can be miscounted: an edge spanning
    # (ex, ey) crosses at most ex / dx + ey / dy + 1 of them
    edges = np.abs(np.vstack([np.roll(r, -1, axis=0) - r for r in (a, b)]))
    tol = float((edges[:, 0] * dy + edges[:, 1] * dx + dx * dy).sum())
    raster = rasterize_area([a, b], res)
    assert area >= raster - tol
    assert holes or area <= raster + tol


class TestGrownUnion:
    @pytest.mark.parametrize("seed, steps", GROWN)
    def test_matches_loop_union(self, seed, steps):
        sizes = []
        for stored, det, got in grown_unions(seed, steps):
            assert_same_union(got, union_or_marker(ref.polygon_union, stored, det))
            sizes.append(len(stored))
        assert max(sizes) >= 20  # as large as the rings merge_noisy stores

    @pytest.mark.parametrize("seed, steps", GROWN)
    def test_area_and_commutativity(self, seed, steps):
        # every detection contains the rectangle's centre and is convex, so
        # the grown ring is star-shaped about it: no hole
        for stored, det, got in grown_unions(seed, steps):
            assert got is not DISJOINT
            assert_union_properties(stored, det, got)

    # Known defects of the walk, kept visible: with the rings swapped, two
    # squares stacked on a shared edge give one square (the shared edge runs
    # both ways and is kept), and rings touching at the first vertex of one
    # give one ring (the walk closes its loop at the touch point).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the walk depends on ring order at shared edges and touch points")
    @equivalence
    @given(polygon, polygon)
    def test_grid_area_and_commutativity(self, a, b):
        assert_union_properties(a, b, union_or_marker(polygon_union, a, b), holes=True)


@st.composite
def chain_pair(draw):
    """Two point sets of 1 to 300 points each: normal reals, or a small
    quarter-metre grid where duplicate points and equal distances abound."""
    ng, nd = draw(st.integers(1, 300)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = draw(st.sampled_from([None, 1, 3, 12]))
    if half is None:
        pts = rng.normal(0.0, 10.0, (ng + nd, 2))
    else:
        pts = rng.integers(-half, half + 1, (ng + nd, 2)) / 4
    return pts[:ng], pts[ng:]


class TestReorderConcat:
    @equivalence
    @given(chain_pair())
    def test_matches_loop_chain(self, pair):
        assert np.array_equal(reorder_concat(*pair), ref.reorder_concat(*pair))

    @pytest.mark.parametrize("half", [None, 2, 40])
    def test_largest_chains(self, half):
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 10.0, (600, 2)) if half is None else rng.integers(-half, half + 1, (600, 2)) / 4
        assert np.array_equal(reorder_concat(pts[:250], pts[250:]),
                              ref.reorder_concat(pts[:250], pts[250:]))


class TestFuseWithHistory:
    @equivalence
    @given(chain_pair(), st.sampled_from([0.3, 0.5, 1.0]), st.data())
    def test_matches_broadcast_blend(self, pair, weight, data):
        # the radius is one point's nearest-sample distance, or the float
        # just inside or outside it, so points sit on the radius's edge; the
        # history repeats some of its points
        det_pts, hist = pair
        hist = np.concatenate([hist, hist[data.draw(st.lists(
            st.integers(0, len(hist) - 1), max_size=5), label="repeats")]])
        d2 = ((det_pts[:, None, :] - hist[None, :, :]) ** 2).sum(axis=2)
        edge = np.sqrt(d2.min(axis=1))[data.draw(st.integers(0, len(det_pts) - 1))]
        radius = data.draw(st.sampled_from([edge, np.nextafter(edge, -np.inf),
                                            np.nextafter(edge, np.inf), 0.0, 2.0]))
        det = MapInstance(DIVIDER, det_pts, id=3)
        got = fuse_with_history(det, hist, radius, weight)
        want = ref.fuse_with_history(det, hist, radius, weight)
        assert np.array_equal(got.points, want.points)


# a map of polylines that cross the patch (often in several pieces), lie
# 1 km outside it, or are crossings; the requested IDs come in drawn order,
# and the three highest are absent from the map
@st.composite
def history_map(draw):
    insts = {}
    for i in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["crossing", "inside", "outside"]))
        if kind == "crossing":
            insts[i] = MapInstance(PED_CROSSING, draw(rectangle()), id=i)
        else:
            pts = draw(many_box_polyline) + (1000.0 if kind == "outside" else 0.0)
            insts[i] = MapInstance(DIVIDER, pts, id=i)
    ids = draw(st.permutations(range(len(insts) + 3)))
    return GlobalMap("h", insts), ids


class TestSampleHistory:
    @equivalence
    @given(history_map(), st.one_of(clip_box, road_boxes().map(lambda rects: rects[0])),
           st.sampled_from([0.0, 0.5, 2.0]), st.integers(2, 20))
    def test_matches_per_instance_loop(self, case, patch, expand, n):
        gmap, ids = case
        try:
            want = ref.sample_history(gmap, patch, expand, ids, n)
        except EmptyPointSet:  # the loop raised on pieces it could not resample
            assume(False)
        got = sample_history(gmap, patch, expand, ids, n)
        assert list(got) == list(want)  # in `ids` order
        for k in want:
            assert got[k].shape == want[k].shape and np.array_equal(got[k], want[k])

    def test_several_pieces_and_absent_ids(self):
        # a U through the patch (two pieces, the longer one sampled), a
        # crossing, a line 1 km away, and IDs the map does not hold
        u = np.array([(-5.0, -1.0), (5.0, -1.0), (5.0, 2.0), (-1.0, 2.0)])
        gmap = GlobalMap("h", {
            0: MapInstance(DIVIDER, u, id=0),
            1: MapInstance(PED_CROSSING, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], id=1),
            2: MapInstance(DIVIDER, u + 1000.0, id=2),
            3: MapInstance(DIVIDER, u[::-1], id=3)})
        patch = Rect(Pose2(0.0, 0.0, 0.0), 2.0, 1.5)
        ids = [7, 3, 2, 1, 0, 9]
        got = sample_history(gmap, patch, 0.5, ids, 6)
        want = ref.sample_history(gmap, patch, 0.5, ids, 6)
        assert list(got) == list(want) == [3, 0]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[3], want[3])


class TestCubicBasis:
    # chord-length sites of a chain, not deduped, so that the grid chains
    # repeat sites and with them knots
    @equivalence
    @given(chain_pair(), st.data())
    def test_matches_bspline(self, pair, data):
        pts = np.vstack(pair)
        u = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
        assume(len(u) > DEGREE and u[-1] > 0.0)
        n_ctrl = data.draw(st.integers(DEGREE + 1, min(len(u), MAX_CTRL_POINTS)))
        t = _clamped_knots(n_ctrl, u)
        first, vals = _cubic_basis(t, n_ctrl, u)
        design = BSpline.design_matrix(u, t, DEGREE)
        assert np.array_equal(vals, design.data.reshape(-1, DEGREE + 1))
        assert np.array_equal(first, design.indices[::DEGREE + 1])
        # the evaluation grid of fit_smoothing_spline, ending on the last knot
        x = np.linspace(0.0, u[-1], data.draw(st.integers(2, 4 * len(u))))
        assert x[-1] == t[-1]
        c = pts[:n_ctrl]
        assert np.array_equal(Spline(t, c)(x), BSpline(t, c, DEGREE)(x))


def assert_same_fit(pts, params):
    got, u, data = _solve_spline(pts, params)[:3]
    want, u_ref, data_ref = ref.solve_spline(pts, params)
    assert np.array_equal(got.t, want.t)  # knots bit for bit
    assert np.array_equal(u, u_ref) and np.array_equal(data, data_ref)
    assert got.c.shape == want.c.shape
    assert np.abs(got.c - want.c).max() <= 1e-9 * np.abs(want.c).max()
    return got


class TestBandedSolve:
    @equivalence
    @given(st.lists(st.floats(0.0, 5.0), min_size=3, max_size=60), st.data())
    def test_knots_match_quantile(self, steps, data):
        u = np.concatenate([[0.0], np.cumsum(steps)])
        n_ctrl = data.draw(st.integers(DEGREE + 1, len(u)))
        assert np.array_equal(_clamped_knots(n_ctrl, u), ref._clamped_knots(n_ctrl, u))

    @equivalence
    @given(st.integers(4, 300), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 5.0]))
    def test_matches_dense_solve(self, n, seed, s):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.uniform(0.1, 2.0, n))
        pts = np.column_stack([x, 3.0 * np.sin(x / rng.uniform(2.0, 20.0))])
        pts += rng.normal(0.0, rng.uniform(0.0, 0.5), pts.shape)
        assert_same_fit(pts, SmoothingFitParams(s=s))

    # a chord of L metres asks for L // 2 + 1 control points, at least
    # DEGREE + 1 = 4: fewer asked (3 m), exactly the fewest (7 m), one more (9 m)
    @pytest.mark.parametrize("length, n_ctrl", [(3.0, 4), (7.0, 4), (9.0, 5)])
    @pytest.mark.parametrize("s", [0.0, 0.5, 5.0])
    def test_fewest_control_points(self, length, n_ctrl, s):
        x = np.linspace(0.0, length, 9)
        pts = np.column_stack([x, 0.2 * np.sin(x)])
        got = assert_same_fit(pts, SmoothingFitParams(s=s))
        assert len(got.c) == n_ctrl

    @pytest.mark.parametrize("shape", ["semicircle", "sine"])
    def test_one_control_point_per_site(self, shape):
        # the unpenalized square system is the worst conditioned; the ridge
        # keeps it positive definite, so the Cholesky factorization succeeds.
        # Sites at least 2 m apart ask for more control points than there
        # are sites, so n_ctrl clamps to the site count.
        if shape == "semicircle":
            t = np.linspace(0.0, np.pi, 12)
            pts = np.column_stack([10.0 * np.cos(t), 10.0 * np.sin(t)])
        else:
            x = np.linspace(0.0, 80.0, 30)
            pts = np.column_stack([x, 2.0 * np.sin(x / 5.0)])
        assert np.hypot(*np.diff(pts, axis=0).T).min() >= 2.0
        got = assert_same_fit(pts, SmoothingFitParams(s=0.0))
        assert len(got.c) == len(pts)


@st.composite
def fit_chain(draw):
    """A chain to fit: a noisy curve of 1 to 300 points, the same with runs
    of sub-EPS steps that one dedupe leaves at 2 points and a second at 1, a
    small quarter-metre grid (repeats and equal distances), or 500 to 700
    points 2 to 2.5 m apart, whose chord asks for more than
    MAX_CTRL_POINTS control points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["curve", "sub_eps", "grid", "long"]))
    if kind == "grid":
        return rng.integers(-12, 13, (draw(st.integers(1, 300)), 2)) / 4
    n = draw(st.integers(500, 700) if kind == "long" else st.integers(1, 300))
    x = np.cumsum(rng.uniform(2.0, 2.5, n) if kind == "long" else rng.uniform(0.1, 2.0, n))
    pts = np.column_stack([x, 3.0 * np.sin(x / rng.uniform(2.0, 20.0))])
    pts += rng.normal(0.0, rng.uniform(0.0, 0.5) if kind != "long" else 0.1, pts.shape)
    if kind == "sub_eps":
        at = set(rng.choice(n, size=min(n, 3), replace=False).tolist())
        pts = np.vstack([np.vstack([p, p + [[6e-10, 0.0], [-5e-10, 0.0]]]) if i in at else p[None]
                         for i, p in enumerate(pts)])
    return pts


fit_weight = st.sampled_from([0.0, 0.5, 5.0]).map(lambda s: SmoothingFitParams(s=s))


class TestFitBits:
    """The merge fit, each per-merge quantity computed once, against the
    fit that computed them as it went (`ref.banded_fit`): the same bits, or
    the same exception class."""

    @equivalence
    @given(fit_chain(), fit_weight)
    def test_matches_banded_fit(self, chain, params):
        assert_same_outcome(fit_smoothing_spline, ref.banded_fit, chain, params)

    @equivalence
    @given(chain_pair(), fit_weight)
    def test_merge_chains(self, pair, params):
        chain = reorder_concat(*pair)
        assert_same_outcome(fit_smoothing_spline, ref.banded_fit, chain, params)

    @pytest.mark.parametrize("s", [0.0, 0.5, 5.0])
    def test_most_control_points(self, s):
        x = np.arange(600) * 2.1
        chain = np.column_stack([x, 3.0 * np.sin(x / 15.0)])
        params = SmoothingFitParams(s=s)
        assert len(_solve_spline(chain, params)[0].c) == MAX_CTRL_POINTS
        assert_same_outcome(fit_smoothing_spline, ref.banded_fit, chain, params)

    def test_stored_line_above_max_merge_points(self):
        # the stored line is resampled to MAX_MERGE_POINTS before the chain
        x = np.arange(MAX_MERGE_POINTS + 100) * 0.5
        stored = np.column_stack([x, 2.0 * np.sin(x / 25.0)])
        det = stored[1000:1020] + np.random.default_rng(3).normal(0.0, 0.2, (20, 2))
        assert_same_outcome(merge_polylines, ref.banded_merge, stored, det,
                            SmoothingFitParams(s=0.5))
