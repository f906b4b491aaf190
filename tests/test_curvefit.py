import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from icmap.curvefit import (
    MAX_MERGE_POINTS,
    MIN_OUT_POINTS,
    SmoothingFitParams,
    _solve_spline,
    fit_smoothing_spline,
    merge_polylines,
    reorder_concat,
    sweep_smoothing,
)
from icmap.errors import InsufficientPoints
from icmap.geometry import (Pose2, chamfer_distance, densify, polyline_length, resample_even,
                            transform_points)
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import NoiseConfig, make_scene

from conftest import sine_curve, sine_sweep_fixture
from test_golden import SCENES


def segs_intersect(a, b, c, d):
    def cross(u, v):
        return u[0] * v[1] - u[1] * v[0]

    r = b - a
    s = d - c
    den = cross(r, s)
    if abs(den) < 1e-12:
        return False
    t = cross(c - a, s) / den
    u = cross(c - a, r) / den
    return 1e-9 < t < 1 - 1e-9 and 1e-9 < u < 1 - 1e-9


def is_self_intersecting(pts):
    n = len(pts)
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            if segs_intersect(pts[i], pts[i + 1], pts[j], pts[j + 1]):
                return True
    return False


class TestReorderConcat:
    def test_reversed_copy(self):
        g = np.column_stack([np.linspace(0, 10, 11), np.zeros(11)])
        out = reorder_concat(g, g[::-1])
        assert len(out) == 22
        assert (np.diff(out[:, 0]) >= -1e-12).all()

    def test_disjoint_collinear(self):
        g = np.column_stack([np.linspace(0, 10, 6), np.zeros(6)])
        d = np.column_stack([np.linspace(8, 20, 7), np.zeros(7)])
        out = reorder_concat(g, d)
        assert len(out) == 13
        assert (np.diff(out[:, 0]) > -1e-12).all()

    def test_l_shape_chain_length(self):
        # two perpendicular legs sharing the corner region
        leg1 = np.column_stack([np.linspace(0, 10, 11), np.zeros(11)])
        leg2 = np.column_stack([np.full(11, 10.0), np.linspace(0, 10, 11)])
        out = reorder_concat(leg1, leg2)
        true_len = 20.0
        assert polyline_length(out) == pytest.approx(true_len, rel=0.05)

    def test_every_point_once(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(0, 10, (9, 2))
        d = rng.uniform(0, 10, (7, 2))
        out = reorder_concat(g, d)
        assert len(out) == 16
        pool = np.vstack([g, d])
        assert {tuple(p) for p in out} == {tuple(p) for p in pool}


class TestFit:
    def test_collinear_any_s(self):
        xs = np.linspace(0, 40, 30)
        line = np.column_stack([xs, 2.0 + 0.5 * xs])
        for s in (0.0, 0.3, 1.0, 2.0):
            out = fit_smoothing_spline(line, SmoothingFitParams(s=s))
            dev = np.abs(out[:, 1] - (2.0 + 0.5 * out[:, 0])).max()
            assert dev < 1e-6

    def test_unpenalized_interpolation(self):
        t = np.linspace(0, math.pi, 12)
        pts = np.column_stack([10 * np.cos(t), 10 * np.sin(t)])
        # sites 2.8 m apart ask for more control points than there are
        # sites, so n_ctrl clamps to n_data and the fit interpolates
        spline, u, data = _solve_spline(pts, SmoothingFitParams(s=0.0))[:3]
        assert len(spline.c) == len(pts)
        residual = np.linalg.norm(spline(u) - data, axis=1).max()
        assert residual < 1e-6

    def test_endpoints_near_extremes(self):
        rng = np.random.default_rng(1)
        xs = np.linspace(0, 50, 60)
        pts = np.column_stack([xs, 3 * np.sin(xs / 6)]) + rng.normal(0, 0.2, (60, 2))
        for s in (0.0, 0.5, 2.0):
            spline, u, data = _solve_spline(pts, SmoothingFitParams(s=s))[:3]
            fit = spline(u)
            residual = np.linalg.norm(fit - data, axis=1).max()
            out = fit_smoothing_spline(pts, SmoothingFitParams(s=s))
            tol = max(0.1, residual)
            assert np.hypot(*(out[0] - pts[0])) <= tol
            assert np.hypot(*(out[-1] - pts[-1])) <= tol

    def test_noisy_sine_sweet_spot(self):
        # middling smoothing beats none and too much, against the analytic curve
        true = sine_curve(2.0, 18.0, 60.0, 0.2)
        errs = {}
        for s in (0.0, 0.5, 2.0):
            vals = []
            for seed in range(15):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
                obs = sine_curve(2.0, 18.0, 60.0, 1.0) + rng.normal(0, 0.3, (61, 2))
                fit = fit_smoothing_spline(obs, SmoothingFitParams(s=s))
                vals.append(chamfer_distance(fit, true))
            errs[s] = np.mean(vals)
        assert errs[0.5] < errs[0.0]
        assert errs[0.5] < errs[2.0]

    def test_too_few_points(self):
        with pytest.raises(InsufficientPoints):
            fit_smoothing_spline([(0, 0), (1, 0), (2, 0)], SmoothingFitParams())

    def test_s_continuity(self):
        xs = np.linspace(0, 40, 50)
        pts = np.column_stack([xs, 2 * np.sin(xs / 5)])
        for s in (0.0, 0.25, 0.5, 1.0, 1.9):
            a = fit_smoothing_spline(pts, SmoothingFitParams(s=s))
            b = fit_smoothing_spline(pts, SmoothingFitParams(s=s + 0.01))
            assert chamfer_distance(a, b) < 0.05


class TestMerge:
    def test_half_overlap_extension(self):
        xs1 = np.linspace(0, 30, 16)
        xs2 = np.linspace(20, 50, 16)
        g = np.column_stack([xs1, np.zeros(16)])
        d = np.column_stack([xs2, np.zeros(16)])
        out = merge_polylines(g, d, SmoothingFitParams())
        assert polyline_length(out) == pytest.approx(50.0, abs=0.5)
        assert out[:, 0].min() == pytest.approx(0.0, abs=0.5)
        assert out[:, 0].max() == pytest.approx(50.0, abs=0.5)

    def test_subset_detection(self):
        t = np.linspace(0, 80, 81)
        g = np.column_stack([t, 4 * np.sin(t / 10)])
        d = g[30:50]
        out = merge_polylines(g, d, SmoothingFitParams())
        assert chamfer_distance(densify(out, 0.25), densify(g, 0.25)) < 0.1

    def test_self_merge(self):
        t = np.linspace(0, 60, 40)
        g = np.column_stack([t, 3 * np.sin(t / 8)])
        out = merge_polylines(g, g, SmoothingFitParams(s=0.5))
        assert chamfer_distance(densify(out, 0.25), densify(g, 0.25)) < 0.05

    def test_bbox_covers_inputs(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            xs1 = np.linspace(0, 30, 20)
            xs2 = np.linspace(15, 45, 20)
            g = np.column_stack([xs1, 2 * np.sin(xs1 / 7)]) + rng.normal(0, 0.1, (20, 2))
            d = np.column_stack([xs2, 2 * np.sin(xs2 / 7)]) + rng.normal(0, 0.1, (20, 2))
            out = merge_polylines(g, d, SmoothingFitParams())
            lo = np.minimum(g.min(axis=0), d.min(axis=0))
            hi = np.maximum(g.max(axis=0), d.max(axis=0))
            assert (out.min(axis=0) <= lo + 0.5).all()
            assert (out.max(axis=0) >= hi - 0.5).all()

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(3)
        xs1 = np.linspace(0, 30, 20)
        xs2 = np.linspace(18, 48, 20)
        g = np.column_stack([xs1, np.sin(xs1 / 5)]) + rng.normal(0, 0.05, (20, 2))
        d = np.column_stack([xs2, np.sin(xs2 / 5)]) + rng.normal(0, 0.05, (20, 2))
        params = SmoothingFitParams(s=0.7)
        base = merge_polylines(g, d, params)
        pose = Pose2(12.0, -7.0, 0.9)
        moved = merge_polylines(
            transform_points(pose, g), transform_points(pose, d), params
        )
        assert np.abs(moved - transform_points(pose, base)).max() < 1e-6

    def test_merged_output_simple(self):
        rng = np.random.default_rng(4)
        for trial in range(8):
            xs1 = np.linspace(0, 40, 20)
            xs2 = np.linspace(25, 65, 20)
            g = np.column_stack([xs1, 3 * np.sin(xs1 / 9)]) + rng.normal(0, 0.2, (20, 2))
            d = np.column_stack([xs2, 3 * np.sin(xs2 / 9)]) + rng.normal(0, 0.2, (20, 2))
            out = merge_polylines(g, d, SmoothingFitParams())
            assert not is_self_intersecting(out)

    # The chain starts at the farthest-apart pair of points, which on an arc
    # past 180 degrees is a pair across the diameter, not the two ends.
    # Today this merge gives a 739 m line for the 565.5 m arc, starting
    # 132 m from the arc's start.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 7: reorder_concat picks the chain's ends as the "
                              "farthest-apart points, wrong once an instance turns past 180°")
    def test_arc_past_half_turn(self):
        radius, length = 120.0, 120.0 * 1.5 * math.pi  # 270 degrees

        def on_arc(s):
            return np.column_stack([radius * np.sin(s / radius),
                                    radius * (1.0 - np.cos(s / radius))])

        dense = on_arc(np.linspace(0.0, length, int(round(length / 0.5)) + 1))
        arc = resample_even(dense, int(round(length)) + 1)  # 1 m spacing
        tail = on_arc(np.linspace(length - 50.0, length, 20))
        out = merge_polylines(arc, tail, SmoothingFitParams())
        assert polyline_length(out) == pytest.approx(polyline_length(arc), rel=0.02)
        assert np.hypot(*(out[0] - arc[0])) < 2.0
        assert np.hypot(*(out[-1] - arc[-1])) < 2.0


@st.composite
def overlapping_pair(draw):
    """A stored polyline and a detection over a shared noisy sine."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ng, nd = draw(st.integers(4, 80)), draw(st.integers(4, 80))
    sigma = draw(st.sampled_from([0.0, 0.1, 0.5]))
    wav = rng.uniform(4.0, 15.0)
    x0 = rng.uniform(0.0, 40.0)
    xs = (np.sort(rng.uniform(0.0, 40.0, ng)), np.sort(rng.uniform(x0, x0 + 40.0, nd)))
    return [np.column_stack([x, 3.0 * np.sin(x / wav)]) + rng.normal(0.0, sigma, (len(x), 2))
            for x in xs]


fit_params = st.builds(SmoothingFitParams, s=st.sampled_from([0.0, 0.5, 5.0]))


def assert_merge_bounds(g, d, params):
    out = merge_polylines(g, d, params)
    chain = reorder_concat(resample_even(g, MAX_MERGE_POINTS) if len(g) > MAX_MERGE_POINTS else g, d)
    # the fit pins its end control points to the chain ends
    assert np.abs(out[0] - chain[0]).max() <= 1e-9
    assert np.abs(out[-1] - chain[-1]).max() <= 1e-9
    assert MIN_OUT_POINTS <= len(out) <= MAX_MERGE_POINTS
    return out


class TestMergeProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(overlapping_pair(), fit_params)
    def test_pinned_ends_and_point_bounds(self, pair, params):
        assert_merge_bounds(*pair, params)

    def test_long_stored_polyline(self):
        # 3 km at one output point per metre asks for more than the cap
        x = np.linspace(0.0, 3000.0, 3000)
        g = np.column_stack([x, 3.0 * np.sin(x / 9.0)])
        d = g[1000:1040] + 0.05
        out = assert_merge_bounds(g, d, SmoothingFitParams())
        assert len(out) == MAX_MERGE_POINTS == 2500

    # merge_clean's road with jitter alone, so that no false positive lies
    # off the road; at s = 0.5 the map strays 0.19 m outside the ground
    # truth's bounding box, at s = 0 it reaches 430 m (8,804 m at seed 3)
    @pytest.mark.parametrize("s", [
        0.5,
        pytest.param(0.0, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP item 8: the unpenalised fit of two interleaved noisy chains diverges")),
    ])
    def test_scene_map_stays_near_ground_truth(self, s):
        scene = make_scene(replace(SCENES["merge_clean"], seed=2,
                                   noise=NoiseConfig(jitter_sigma=0.1)))
        gmap, _ = run_scene(scene, PipelineParams(fit=SmoothingFitParams(s)))
        gt = np.vstack([inst.points for inst in scene.gt.instances.values()])
        pts = np.vstack([inst.points for inst in gmap.instances.values() if inst.is_polyline])
        assert np.maximum(gt.min(axis=0) - pts, pts - gt.max(axis=0)).max() <= 1.0


@st.composite
def noisy_arc_pair(draw):
    """Two jittered samplings of one circular arc, and their jitter sigma."""
    radius = draw(st.floats(40.0, 200.0))
    length = draw(st.floats(20.0, 80.0))
    sigma = draw(st.floats(0.05, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for n in (draw(st.integers(10, 40)), draw(st.integers(10, 40))):
        t = np.sort(rng.uniform(0.0, length, n)) / radius
        arc = radius * np.column_stack([np.sin(t), 1.0 - np.cos(t)])
        pair.append(arc + rng.normal(0.0, sigma, arc.shape))
    return pair, sigma


# ROADMAP item 8: a merge stays near its inputs. Over 200 draws the fit at
# s = 0 left the inputs' box widened by 4 sigma on 31, the worst by
# 3,111 sigma; at s >= 0.1 the worst point lay 0.25 sigma past the box edge.
@pytest.mark.parametrize("s", [
    pytest.param(0.0, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 8: the unpenalised fit of two interleaved noisy chains diverges")),
    0.1, 0.5, 2.0,
])
@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(noisy_arc_pair())
def test_merge_stays_in_the_inputs_box(s, drawn):
    (g, d), sigma = drawn
    out = merge_polylines(g, d, SmoothingFitParams(s))
    pts = np.vstack([g, d])
    lo, hi = pts.min(axis=0) - 4.0 * sigma, pts.max(axis=0) + 4.0 * sigma
    assert ((out >= lo) & (out <= hi)).all()


class TestSweep:
    def test_noiseless_floor(self):
        true = sine_curve(2.0, 18.0, 60.0, 0.25)
        curve = sine_curve(2.0, 18.0, 60.0, 1.0)
        obs = {"divider": [(true, [curve[(curve[:, 0] <= 33)], curve[(curve[:, 0] >= 27)]])]}
        rows = sweep_smoothing(obs, [0.0])
        assert rows[0][1]["divider"] < 0.05

    def test_argmin_in_recommended_band(self):
        # reduced-seed version of the acceptance sweep
        rows = sweep_smoothing(sine_sweep_fixture(n_seeds=12), [0.1 * i for i in range(21)])
        errs = {round(s, 2): e["divider"] for s, e in rows}
        best = min(errs, key=errs.get)
        assert 0.1 <= best <= 1.0
        assert errs[2.0] >= 1.1 * errs[best]
