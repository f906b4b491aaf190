"""`chamfer_matrix` and the code that reads it, against per-pair oracles.

`_kernels.chamfer_matrix` scores two lists of point sets in one broadcast;
every entry must have the bits of `chamfer_distance`, which queries a k-d
tree. AP, CLEAR-MOT, the
geometric affinity and the sweep's observation grouping
read these matrices; each must give exactly what its per-pair loop version
in tests/scalar_reference.py gives.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from icmap._kernels import chamfer_matrix
from icmap.association import GEO_DENSIFY, geometric_affinity, outlined
from icmap.errors import EmptyPointSet
from icmap.geometry import chamfer_distance
from icmap.instance import CLASSES, MapInstance
from icmap.metrics import clear_mot_counts, frame_distances, instance_ap
from icmap.pipeline import scene_observations
from icmap.synth import NoiseConfig, SceneConfig, make_scene

# derandomized, so that a run of the suite is reproducible
equivalence = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# single points up to sets of a few hundred, in blocks of mixed sizes
MIXED_SIZES = (1, 2, 141, 142, 150, 300)


def point_sets(rng, sizes, grid):
    """Random sets; on the quarter-metre grid they are full of exact ties."""
    out = []
    for n in sizes:
        if grid:
            out.append(rng.integers(-40, 41, (n, 2)) / 4.0)
        else:
            out.append(rng.uniform(-30, 30, (n, 2)) * rng.uniform(0.01, 2) + rng.normal(0, 20, 2))
    return out


def assert_entries_equal(As, Bs):
    got = chamfer_matrix(As, Bs)
    assert got.shape == (len(As), len(Bs))
    for i, a in enumerate(As):
        for j, b in enumerate(Bs):
            assert got[i, j] == chamfer_distance(a, b), (i, j, len(a), len(b))


@pytest.mark.parametrize("grid", [False, True])
def test_blocks_straddling_cutoff(grid):
    rng = np.random.default_rng(7 + grid)
    assert_entries_equal(point_sets(rng, MIXED_SIZES, grid),
                         point_sets(rng, MIXED_SIZES[::-1], grid))


size = st.one_of(st.integers(1, 40), st.sampled_from(MIXED_SIZES))


@equivalence
@given(st.integers(0, 2**32 - 1), st.lists(size, min_size=1, max_size=4),
       st.lists(size, min_size=1, max_size=4), st.booleans())
def test_matrix_equals_single_pair(seed, sizes_a, sizes_b, grid):
    rng = np.random.default_rng(seed)
    assert_entries_equal(point_sets(rng, sizes_a, grid), point_sets(rng, sizes_b, grid))


def test_empty_set_rejected():
    with pytest.raises(EmptyPointSet):
        chamfer_matrix([np.zeros((3, 2))], [np.zeros((0, 2))])


def test_empty_instance_scored_only_within_class():
    empty = MapInstance("divider", np.zeros((0, 2)))
    three = np.zeros((3, 2))
    (dist,) = frame_distances([[empty]], [[MapInstance("boundary", three)]])
    assert dist.tolist() == [[math.inf]]
    with pytest.raises(EmptyPointSet):
        frame_distances([[empty]], [[MapInstance("divider", three)]])


# ---------------------------------------------------------------------------
# random multi-class frame streams

N_GT_IDS = 8


def frame_stream(seed, n_frames, noise):
    """(pred_frames, gt_frames): GT instances drift slowly from frame to
    frame; predictions are jittered copies that keep the GT's ID most of the
    time, plus false positives. Scores are rounded so that ties occur."""
    rng = np.random.default_rng(seed)
    base = []
    for gid in range(N_GT_IDS):
        n = int(rng.integers(1, 25))
        steps = rng.normal(0, 1, (n, 2)) + [1.0, 0.0]
        base.append(np.cumsum(steps, axis=0) + [0.0, 2.5 * gid])
    pred_frames, gt_frames = [], []
    for _ in range(n_frames):
        gts, preds, pred_ids = [], [], set()
        for gid in rng.permutation(N_GT_IDS)[: rng.integers(0, N_GT_IDS + 1)]:
            gid = int(gid)
            base[gid] = base[gid] + rng.normal(0, 0.1, 2)
            cls = CLASSES[gid % len(CLASSES)]
            gts.append(MapInstance(cls, base[gid], id=gid))
            if rng.random() < 0.8:
                pid = gid if rng.random() < 0.8 else int(rng.integers(N_GT_IDS, N_GT_IDS + 4))
                if pid not in pred_ids:
                    pred_ids.add(pid)
                    pts = base[gid] + rng.normal(0, noise, base[gid].shape)
                    preds.append(MapInstance(cls, pts, score=round(rng.random(), 1), id=pid))
        for k in range(int(rng.integers(0, 3))):  # false positives
            pid = 100 + k
            pts = rng.uniform(-5, 30, (int(rng.integers(1, 10)), 2))
            preds.append(MapInstance(CLASSES[int(rng.integers(0, 3))], pts,
                                     score=round(rng.random(), 1), id=pid))
        order = rng.permutation(len(preds))
        pred_frames.append([preds[i] for i in order])
        gt_frames.append(gts)
    return pred_frames, gt_frames


streams = st.builds(frame_stream, st.integers(0, 2**32 - 1), st.integers(1, 8),
                    st.sampled_from([0.1, 0.5, 1.0, 2.0]))


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@equivalence
@given(streams)
def test_ap_equals_per_pair_loop(stream):
    pred_frames, gt_frames = stream
    thresholds = [0.5, 1.0, 1.5]
    ap, mean_ap, counts = instance_ap(pred_frames, gt_frames, thresholds)
    ref_ap, ref_mean_ap, ref_counts = ref.instance_ap(pred_frames, gt_frames, thresholds)
    assert counts == ref_counts
    assert ap == ref_ap
    assert same_float(mean_ap, ref_mean_ap)


@equivalence
@given(streams, st.sampled_from([0.5, 1.5, 3.0]))
def test_mot_equals_per_pair_loop(stream, gate):
    pred_frames, gt_frames = stream
    assert clear_mot_counts(pred_frames, gt_frames, gate) == \
        ref.clear_mot_counts(pred_frames, gt_frames, gate)


@equivalence
@given(streams, st.sampled_from([0.5, 2.0]))
def test_affinity_equals_per_pair_loop(stream, tau):
    pred_frames, gt_frames = stream
    dets, tracks = pred_frames[0], gt_frames[-1]
    got = geometric_affinity([outlined(d) for d in dets], [outlined(t) for t in tracks], tau)
    assert np.array_equal(got, ref.geometric_affinity(dets, tracks, tau, GEO_DENSIFY))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scene_observations_equal_per_pair_loop(seed):
    scene = make_scene(SceneConfig(
        curvature="s_curve", frame_count=12, lane_count=3, crossing_count=2, seed=seed,
        noise=NoiseConfig(jitter_sigma=0.8, fp_rate=1.5, split_prob=0.3),
    ))
    got, want = scene_observations(scene), ref.scene_observations(scene)
    assert got.keys() == want.keys()
    for cls in want:
        assert len(got[cls]) == len(want[cls])
        for (g_ref, g_obs), (w_ref, w_obs) in zip(got[cls], want[cls]):
            assert np.array_equal(g_ref, w_ref)
            assert len(g_obs) == len(w_obs)
            assert all(np.array_equal(a, b) for a, b in zip(g_obs, w_obs))
