"""`chamfer_pairs` and the code that reads it, against per-pair oracles.

`_kernels.chamfer_pairs` scores a list of pairs of sets, grouped by their
point counts; every entry must have the bits of `chamfer_distance`, whether
the pairs are every (i, j) of two lists or a random selection.
`instance.frames_chamfer_by_class` scores every frame of two frame lists in
one `chamfer_pairs` call and must return, frame by frame, `chamfer_distance`
per same-class pair and inf across classes. AP, CLEAR-MOT, the geometric
affinity and the sweep's observation grouping read these matrices; each
must give exactly what its per-pair loop version in
tests/scalar_reference.py gives.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from icmap._kernels import PAIR_STEP, chamfer_pairs
from icmap.association import GEO_DENSIFY, geometric_affinity, outlined_frame
from icmap.errors import EmptyPointSet
from icmap.geometry import chamfer_distance
from icmap.instance import (
    CLASSES,
    MapInstance,
    frames_chamfer_by_class,
    frames_to_world,
)
from icmap.metrics import clear_mot_counts, frame_distances, instance_ap
from icmap.pipeline import scene_gt_frames, scene_observations
from icmap.synth import NoiseConfig, SceneConfig, make_scene

from test_golden import SCENES

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
    """`chamfer_pairs` over every (i, j) of two lists, each entry against
    its own `chamfer_distance`."""
    rows, cols = np.divmod(np.arange(len(As) * len(Bs)), len(Bs))
    got = chamfer_pairs(As, Bs, rows, cols).reshape(len(As), len(Bs))
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
        chamfer_pairs([np.zeros((3, 2))], [np.zeros((0, 2))], [0], [0])
    with pytest.raises(EmptyPointSet):
        chamfer_pairs([np.zeros((0, 2))], [np.zeros((3, 2))], [0], [0])


def assert_pairs_equal(As, Bs, rows, cols):
    got = chamfer_pairs(As, Bs, rows, cols)
    assert got.shape == (len(rows),)
    for k, (i, j) in enumerate(zip(rows, cols)):
        assert got[k] == chamfer_distance(As[i], Bs[j]), (k, len(As[i]), len(Bs[j]))


@equivalence
@given(st.integers(0, 2**32 - 1), st.lists(size, min_size=1, max_size=4),
       st.lists(size, min_size=1, max_size=4), st.integers(0, 12), st.booleans())
def test_pairs_equal_single_pair(seed, sizes_a, sizes_b, n_pairs, grid):
    rng = np.random.default_rng(seed)
    As, Bs = point_sets(rng, sizes_a, grid), point_sets(rng, sizes_b, grid)
    assert_pairs_equal(As, Bs, rng.integers(0, len(As), n_pairs).tolist(),
                       rng.integers(0, len(Bs), n_pairs).tolist())


@pytest.mark.parametrize("m, n", [(20, 20), (4, 4), (3, 200), (150, 150)])
def test_pairs_past_one_step(m, n):
    """More pairs of one shape than one step scores (one pair per step when
    a pair alone has more than PAIR_STEP point pairs), on the quarter-metre
    grid, so that equal values fall on both sides of a step boundary."""
    n_pairs = 2 * max(1, PAIR_STEP // (m * n)) + 3
    rng = np.random.default_rng(m * n)
    As = point_sets(rng, [m] * 5, grid=True)
    Bs = point_sets(rng, [n] * 4 + [m + n], grid=True)
    rows = rng.integers(0, 5, n_pairs).tolist()
    cols = rng.integers(0, 4, n_pairs).tolist()
    assert_pairs_equal(As, Bs, rows + [0], cols + [4])


def test_pairs_empty_set_rejected_only_when_paired():
    sets = [np.zeros((3, 2)), np.zeros((0, 2))]
    assert chamfer_pairs(sets, sets, [0], [0]).tolist() == [0.0]
    assert chamfer_pairs(sets, sets, [], []).shape == (0,)
    with pytest.raises(EmptyPointSet):
        chamfer_pairs(sets, sets, [0], [1])


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


def chamfer_by_class_loop(a, b) -> np.ndarray:
    """One frame's (len(a), len(b)) Chamfer distances, one
    `chamfer_distance` call per same-class pair, inf across classes."""
    out = np.full((len(a), len(b)), np.inf)
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            if p.cls == q.cls:
                out[i, j] = chamfer_distance(p.points, q.points)
    return out


def assert_frames_equal(a_frames, b_frames):
    """`frames_chamfer_by_class` gives each frame the bits and the shape of
    the per-pair loop, and of its own one-frame call."""
    got = frames_chamfer_by_class(a_frames, b_frames)
    assert len(got) == len(a_frames)
    for k, (a, b) in enumerate(zip(a_frames, b_frames)):
        want = chamfer_by_class_loop(a, b)
        assert got[k].shape == want.shape, k
        assert got[k].tobytes() == want.tobytes(), k
        assert frames_chamfer_by_class([a], [b])[0].tobytes() == want.tobytes(), k


@equivalence
@given(streams)
def test_frame_list_pass_equals_per_frame(stream):
    assert_frames_equal(*stream)


def grid_frames(rng, n_frames, per_frame, n_points):
    """Frames of `per_frame` dividers of `n_points` points each, on the
    quarter-metre grid, so that distances tie."""
    return [[MapInstance("divider", pts) for pts in point_sets(rng, [n_points] * per_frame, True)]
            for _ in range(n_frames)]


def test_frame_list_pass_past_one_step():
    n_frames, per_frame, n_points = 12, 3, 20
    # n_frames * per_frame**2 pairs of one shape: three steps or more
    assert n_frames * per_frame**2 > 2 * (PAIR_STEP // n_points**2)
    rng = np.random.default_rng(5)
    assert_frames_equal(grid_frames(rng, n_frames, per_frame, n_points),
                        grid_frames(rng, n_frames, per_frame, n_points))


def test_frame_list_pass_edge_cases():
    three = np.zeros((3, 2))
    div, bnd = MapInstance("divider", three), MapInstance("boundary", three + 1)
    assert frames_chamfer_by_class([], []) == []
    assert frame_distances([], []) == []
    # frames with no predictions, no ground truth or neither
    assert_frames_equal([[], [div], [], [div, bnd]], [[bnd], [], [], [bnd, div]])
    # a class on one side only: inf throughout
    got = frames_chamfer_by_class([[div, div]], [[bnd]])
    assert got[0].tolist() == [[math.inf], [math.inf]]
    assert_frames_equal([[div, div], [div]], [[bnd], [bnd, bnd]])


# tracemalloc's peak of `frame_distances` on the merge_noisy golden scene,
# its detections scored against its ground truth: 0.81 MB with 2**14-pair
# steps (0.09 MB with one table per frame and class before them), 2.2 MB
# with 2**16-pair steps and 2.3 MB with one unchunked table per shape
FRAME_DISTANCES_PEAK_MB = 1.25


def test_frame_distances_memory_bounded():
    scene = make_scene(SCENES["merge_noisy"])
    preds = frames_to_world([f.ego_pose for f in scene.frames], [f.detections for f in scene.frames])
    gts = scene_gt_frames(scene)
    frame_distances(preds, gts)  # so that nothing loaded on the first call counts
    tracemalloc.start()
    try:
        frame_distances(preds, gts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < FRAME_DISTANCES_PEAK_MB * 2**20, f"{peak / 2**20:.2f} MB"


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
    got = geometric_affinity(outlined_frame(dets), outlined_frame(tracks), tau)
    assert np.array_equal(got, ref.geometric_affinity(dets, tracks, tau, GEO_DENSIFY))


def line(length, y, cls="divider"):
    return MapInstance(cls, [[0.0, y], [length, y + 0.3 * length / 10]])


def test_affinity_scores_outlines_pair_by_pair():
    """`geometric_affinity` gives each same-class pair of a frame
    exp(-chamfer_distance / tau) of the two outlines, bit for bit, and 0.0
    across classes, on outlines of many lengths, one pair of them past
    PAIR_STEP point pairs."""
    ring = MapInstance("ped_crossing", [[0.0, 0.0], [4.0, 0.0], [4.0, 7.0], [0.0, 7.0]])
    dets = outlined_frame([line(150.0, 0.0), line(5.0, 1.0), line(12.0, 2.5),
                           line(30.0, -3.0, "boundary"), line(47.0, 8.0, "boundary"), ring])
    tracks = outlined_frame([line(160.0, 0.4), line(8.0, 1.2), line(33.0, -2.0, "boundary"),
                             ring.with_points(ring.points + 0.5)])
    lengths = [len(t.outline) for t in dets + tracks]
    assert len(set(lengths)) >= 5
    assert len(dets[0].outline) * len(tracks[0].outline) > PAIR_STEP
    tau = 2.0
    got = geometric_affinity(dets, tracks, tau)
    assert got.shape == (len(dets), len(tracks))
    for i, d in enumerate(dets):
        for j, t in enumerate(tracks):
            want = np.exp(-chamfer_distance(d.outline, t.outline) / tau) if d.cls == t.cls else 0.0
            assert got[i, j] == want, (i, j)


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
