"""What the pipeline must not notice: a rigid motion of the whole world, the
order of a frame's detections, and a detection far from everything.

Each relation runs 16-frame versions of the two benchmark scenes of
`test_golden` through `run_scene` with default parameters and compares the
outcome with the unchanged scene's.

- Rigid motion g (the ego poses and the world ground truth move; detections
  and `gt_local` are ego-frame and stay): IDs, point counts, the trace's
  (detection index, track ID) matches and its new IDs are equal, and the map
  points equal g·map within ROTATION_TOL + SHIFT_TOL·|shift|.
- Shuffling each frame's detections leaves the map's (class, point bytes)
  multiset and `global_map_cd` unchanged; only IDs are renumbered.
- A divider detection 1.4 km ahead at frame 5 adds exactly one instance,
  and every other instance keeps its bytes.

One merge (`merge_polylines`) is also checked under 24 rotations 15 degrees
apart and a drawn shift, which shows a dependence on the axes that a
scene's few chain directions can miss: picking `reorder_concat`'s start by
|dx| instead of the distance fails it, and none of the scene tests.
"""
import math
from collections import Counter
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icmap.curvefit import SmoothingFitParams, merge_polylines
from icmap.geometry import EGO_TO_WORLD, Pose2, transform_points
from icmap.instance import GlobalMap, MapInstance, to_world
from icmap.metrics import global_map_cd
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import make_scene

from test_golden import SCENES

WORKLOADS = ("merge_noisy", "merge_clean")
# Measured over 215 runs (16-frame merge_noisy seeds 2-4 and merge_clean
# seeds 3-4, each under the three fixed motions and 40 drawn ones), the
# error was at most 3.1e-12 m under rotation alone; with a shift it was at
# most 4.3e-12 m per metre of shift, 3.8e-9 m at 1 km. It grows with the
# distance from the origin, as rounding does.
ROTATION_TOL = 1e-11  # m
SHIFT_TOL = 1e-11  # m per m of shift


@cache
def scene(workload: str):
    return make_scene(replace(SCENES[workload], frame_count=16))


@cache
def outcome(workload: str):
    return run_scene(scene(workload), PipelineParams())


def moved(sc, g: Pose2):
    """The scene with every ego pose and the world ground truth moved by g."""
    gt = GlobalMap(sc.gt.scene_id, {k: inst.transformed(g, EGO_TO_WORLD)
                                    for k, inst in sc.gt.instances.items()})
    return replace(sc, gt=gt, frames=[replace(f, ego_pose=g.compose(f.ego_pose))
                                      for f in sc.frames])


def geometry(gmap) -> Counter:
    return Counter((inst.cls, inst.points.tobytes()) for inst in gmap.instances.values())


def rigid_motion_error(workload: str, g: Pose2) -> float:
    """The largest distance between g·map and the map of the moved scene;
    asserts that everything but the coordinates is equal."""
    gmap, trace = outcome(workload)
    got_map, got_trace = run_scene(moved(scene(workload), g), PipelineParams())
    assert sorted(got_map.instances) == sorted(gmap.instances)
    assert all(len(got_map.instances[k].points) == len(inst.points)
               for k, inst in gmap.instances.items())
    for a, b in zip(trace["frames"], got_trace["frames"], strict=True):
        assert [m[:2] for m in a["matches"]] == [m[:2] for m in b["matches"]]
        assert a["new_ids"] == b["new_ids"]
    return max(float(np.abs(got_map.instances[k].points
                            - transform_points(g, inst.points, EGO_TO_WORLD)).max())
               for k, inst in gmap.instances.items())


def tolerance(g: Pose2) -> float:
    return ROTATION_TOL + SHIFT_TOL * math.hypot(g.x, g.y)


FIXED_MOTIONS = [Pose2(0.0, 0.0, 0.7), Pose2(0.0, 0.0, math.pi / 2), Pose2(300.0, -200.0, 2.5)]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("g", FIXED_MOTIONS, ids=["0.7rad", "quarter_turn", "2.5rad_shifted"])
def test_rigid_motion(workload, g):
    assert rigid_motion_error(workload, g) <= tolerance(g)


@pytest.mark.parametrize("workload", WORKLOADS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(angle=st.floats(-math.pi, math.pi),
       shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_rigid_motion_drawn(workload, angle, shift):
    g = Pose2(shift[0], shift[1], angle)
    assert rigid_motion_error(workload, g) <= tolerance(g)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_detection_order(workload):
    rng = np.random.default_rng(7)
    sc = scene(workload)
    shuffled = replace(sc, frames=[
        replace(f, detections=[f.detections[i] for i in rng.permutation(len(f.detections))])
        for f in sc.frames])
    gmap, _ = outcome(workload)
    got, _ = run_scene(shuffled, PipelineParams())
    assert geometry(got) == geometry(gmap)
    assert global_map_cd(got, sc.gt) == global_map_cd(gmap, sc.gt)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_far_detection(workload):
    sc = scene(workload)
    frame = sc.frames[5]
    x = np.linspace(1400.0, 1420.0, 20)
    far = MapInstance("divider", np.column_stack([x, np.zeros_like(x)]), score=0.9,
                      embedding=np.random.default_rng(5).normal(
                          size=frame.detections[0].embedding.shape))
    frames = list(sc.frames)
    frames[5] = replace(frame, detections=[*frame.detections, far])
    gmap, _ = outcome(workload)
    got, _ = run_scene(replace(sc, frames=frames), PipelineParams())
    extra = geometry(got) - geometry(gmap)
    assert geometry(gmap) - geometry(got) == Counter()
    assert extra == Counter({("divider", to_world(frame.ego_pose, [far])[0].points.tobytes()): 1})



@st.composite
def merge_case(draw):
    """A stored polyline at 1 m spacing and a 20-point noisy detection along
    one arc, the detection reaching past the stored line's start, as merges
    meet them in a scene; a smoothing weight; a shift of the world."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heading, bend = rng.uniform(-math.pi, math.pi), rng.uniform(-1 / 60, 1 / 60)

    def arc(s):  # the point at arc length s: its chord and the chord's heading
        chord, half = s * np.sinc(bend * s / (2 * math.pi)), heading + bend * s / 2
        return np.column_stack([chord * np.cos(half), chord * np.sin(half)])

    stored = arc(np.arange(0.0, rng.uniform(20.0, 80.0)))
    stored += rng.normal(0.0, 0.02, stored.shape)
    lo = -rng.uniform(2.0, 15.0)
    det = arc(np.linspace(lo, lo + rng.uniform(20.0, 45.0), 20))
    det += rng.normal(0.0, rng.uniform(0.05, 0.3), det.shape)
    shift = (draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)))
    return stored, det, SmoothingFitParams(s=draw(st.sampled_from([0.1, 0.5, 2.0]))), shift


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(merge_case(), st.floats(0.0, math.pi / 12))
def test_merge_rigid_motion(case, offset):
    """One merge under 24 rotations 15 degrees apart, so that the chain
    meets every direction against the axes."""
    stored, det, params, shift = case
    merged = merge_polylines(stored, det, params)
    for k in range(24):
        g = Pose2(*shift, offset + k * math.pi / 12)
        got = merge_polylines(transform_points(g, stored, EGO_TO_WORLD),
                              transform_points(g, det, EGO_TO_WORLD), params)
        want = transform_points(g, merged, EGO_TO_WORLD)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= tolerance(g)
