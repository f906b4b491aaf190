import json
import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from icmap import association, cli
from icmap.association import (
    GEO_DENSIFY,
    AssocConfig,
    TrackBuffer,
    associate_frame,
    feature_affinity,
    geometric_affinity,
    optimal_match,
    outlined_frame,
    threshold_filter,
)
from icmap.cli import main
from icmap.errors import MissingEmbedding
from icmap.geometry import WORLD_TO_EGO, Pose2, densify, transform_points
from icmap.instance import CLASSES, MapInstance, to_world
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import make_scene, write_scene

from test_golden import SCENES

# derandomized, so that a run of the suite is reproducible; a failing world
# is drawn from a seed, so shrinking would only try other worlds
properties = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                      phases=[Phase.explicit, Phase.generate])


def line_instance(y=0.0, cls="divider", x0=0.0, x1=20.0, n=20, emb=None, id=None):
    xs = np.linspace(x0, x1, n)
    return MapInstance(cls, np.column_stack([xs, np.full(n, y)]), embedding=emb, id=id)


def unit(vals):
    v = np.asarray(vals, float)
    return v / np.linalg.norm(v)


def brute_force_best(scores, eligible):
    """Exhaustive optimum over all partial one-to-one assignments."""
    n, m = scores.shape

    @lru_cache(maxsize=None)
    def rec(i, mask):
        if i == n:
            return 0.0
        best = rec(i + 1, mask)
        for j in range(m):
            if eligible[i, j] and not (mask >> j) & 1:
                best = max(best, scores[i, j] + rec(i + 1, mask | (1 << j)))
        return best

    return rec(0, 0)


class TestGeometricAffinity:
    def test_identical_sets(self):
        d = outlined_frame([line_instance()])
        t = outlined_frame([line_instance()])
        assert geometric_affinity(d, t, tau=2.0)[0, 0] == pytest.approx(1.0)

    def test_class_gate(self):
        d = outlined_frame([line_instance(cls="divider")])
        t = outlined_frame([line_instance(cls="boundary")])
        assert geometric_affinity(d, t, tau=2.0)[0, 0] == 0.0

    def test_value_at_tau(self):
        # parallel lines offset by exactly tau: chamfer = tau -> e^-1
        tau = 2.0
        d = outlined_frame([line_instance(y=0.0)])
        t = outlined_frame([line_instance(y=tau)])
        h = geometric_affinity(d, t, tau=tau)
        assert h[0, 0] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(0)
        d = [line_instance(y=0.3), line_instance(y=4.0, cls="boundary")]
        t = [line_instance(y=0.0), line_instance(y=3.5, cls="boundary")]
        base = geometric_affinity(outlined_frame(d), outlined_frame(t), tau=2.0)
        pose = Pose2(5.0, -2.0, 1.1)
        dm = outlined_frame([i.with_points(transform_points(pose, i.points)) for i in d])
        tm = outlined_frame([i.with_points(transform_points(pose, i.points)) for i in t])
        moved = geometric_affinity(dm, tm, tau=2.0)
        assert np.abs(moved - base).max() < 1e-9


class TestFeatureAffinity:
    def test_equal(self):
        e = unit([1, 2, 3, 4])
        h = feature_affinity([line_instance(emb=e)], [line_instance(emb=e)])
        assert h[0, 0] == pytest.approx(1.0)

    def test_opposite(self):
        e = unit([1, 0, 0, 0])
        h = feature_affinity([line_instance(emb=e)], [line_instance(emb=-e)])
        assert h[0, 0] == pytest.approx(0.0)

    def test_orthogonal(self):
        h = feature_affinity(
            [line_instance(emb=unit([1, 0]))], [line_instance(emb=unit([0, 1]))]
        )
        assert h[0, 0] == pytest.approx(0.5)

    def test_missing_raises(self):
        with pytest.raises(MissingEmbedding):
            feature_affinity([line_instance()], [line_instance(emb=unit([1, 0]))])

    def test_no_pair_needs_no_embedding(self):
        # an empty frame scores no pair, so its tracks' embeddings go unread
        tracks = [line_instance(), line_instance(y=3.0)]
        h = feature_affinity([], tracks)
        assert h.shape == (0, 2) and h.dtype == np.float64


class TestWFeatRule:
    """`w_feat` alone picks the branches: above 0 a detection without an
    embedding is an error naming `w_feat`, and at 0 it is scored by geometry."""

    @pytest.fixture()
    def scene_path(self, tmp_path):
        path = tmp_path / "scene.json"
        write_scene(make_scene(SCENES["merge_clean"]), path)
        doc = json.loads(path.read_text())
        del doc["frames"][5]["detections"][0]["embedding"]
        path.write_text(json.dumps(doc))
        return path

    def test_feature_branch_needs_every_embedding(self, scene_path, tmp_path, capsys,
                                                  monkeypatch):
        # checked when the scene is read, before any frame runs
        monkeypatch.setattr(cli, "run_scene", lambda *a: pytest.fail("run_scene was called"))
        assert main(["run", str(scene_path), "--out-map", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("icmap: error: ") and "w_feat" in err, err
        assert "frames[5].detections[0].embedding" in err, err

    def test_geometry_alone_needs_none(self, scene_path, tmp_path):
        assert main(["run", str(scene_path), "--out-map", str(tmp_path / "m.json"),
                     "--w-feat", "0"]) == 0


class TestThresholdAndMatch:
    def test_theta_zero_keeps_positive(self):
        h = np.array([[0.9, 0.0], [0.3, 0.2]])
        assert threshold_filter(h, 0.0).sum() == 3

    def test_all_below(self):
        h = np.full((3, 2), 0.2)
        elig = threshold_filter(h, 0.5)
        assert not elig.any()
        assert optimal_match(h, elig) == []

    def test_two_by_two(self):
        h = np.array([[0.9, 0.2], [0.3, 0.8]])
        elig = threshold_filter(h, 0.5)
        assert {(0, 0), (1, 1)} == {(i, j) for i, j in zip(*np.nonzero(elig))}

    def test_dominant_diagonal(self):
        h = np.array([[0.9, 0.2], [0.3, 0.8]])
        match = optimal_match(h, threshold_filter(h, 0.0))
        assert set(match) == {(0, 0), (1, 1)}
        assert sum(h[i, j] for i, j in match) == pytest.approx(1.7)

    def test_empty(self):
        assert optimal_match(np.zeros((0, 0)), np.zeros((0, 0), dtype=bool)) == []

    def test_against_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n, m = rng.integers(1, 7, 2)
            h = np.round(rng.random((n, m)), 6)
            elig = threshold_filter(h, float(rng.random() * 0.7))
            match = optimal_match(h, elig)
            total = sum(h[i, j] for i, j in match)
            assert total == pytest.approx(brute_force_best(h, elig), abs=1e-12)

    def test_monotone_theta(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            h = rng.random((5, 5))
            sizes = []
            for theta in (0.0, 0.3, 0.6, 0.9):
                sizes.append(len(optimal_match(h, threshold_filter(h, theta))))
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestFuse:
    """The affinity `associate_frame` reports for a match is the blend
    (1 - w_feat) * geo + w_feat * feat of `geometric_affinity` and
    `feature_affinity` on the same frame. Track k carries ID k and lies at
    y = 50 k, so an ID is also a column of geo and feat."""

    def frame(self):
        rng = np.random.default_rng(5)
        embs = [unit(rng.normal(size=8)) for _ in range(3)]
        tracks = outlined_frame([line_instance(y=50.0 * k, id=k, emb=e)
                                 for k, e in enumerate(embs)])
        dets = [line_instance(y=50.0 * k + 0.4, emb=unit(embs[k] + rng.normal(0, 0.1, 8)))
                for k in (2, 0, 1)]
        geo = geometric_affinity(outlined_frame(dets), tracks, AssocConfig().tau)
        feat = feature_affinity(dets, [t.instance for t in tracks])
        return TrackBuffer(tracks, next_id=3), dets, geo, feat

    def affinities(self, w_feat):
        """(match affinity, geo, feat) of each match at `w_feat`."""
        buf, dets, geo, feat = self.frame()
        res = associate_frame(buf, dets, AssocConfig(w_feat=w_feat))
        assert [m[:2] for m in res.matches] == [(0, 2), (1, 0), (2, 1)]
        return [(a, geo[i, j], feat[i, j]) for i, j, a in res.matches]

    def test_degenerate_weight(self):
        # w_feat = 0 is geometry alone, w_feat = 1 the features alone
        assert all(a == g for a, g, _ in self.affinities(0.0))
        assert all(a == f for a, _, f in self.affinities(1.0))

    def test_arithmetic(self):
        for w in (0.3, 0.5):
            for a, g, f in self.affinities(w):
                assert a == (1 - w) * g + w * f

    def test_idempotent_geo_only(self):
        # at w_feat = 0 the embeddings take no part: without them the frame
        # gets the same matches and affinities, which are geo's
        buf, dets, geo, _ = self.frame()
        cfg = AssocConfig(w_feat=0.0)
        bare = TrackBuffer([replace(t, instance=replace(t.instance, embedding=None))
                            for t in buf.tracks], next_id=buf.next_id)
        res = associate_frame(buf, dets, cfg)
        res_bare = associate_frame(bare, [replace(d, embedding=None) for d in dets], cfg)
        assert res_bare.matches == res.matches
        assert [a for _, _, a in res.matches] == [geo[i, j] for i, j, _ in res.matches]


class TestIdsAndBuffer:
    """`associate_frame` decides a frame's IDs and rebuilds the buffer in one
    pass. Tracks lie 50 m apart, so a detection matches only the track it
    was drawn at (exp(-50/tau) is far below theta)."""

    cfg = AssocConfig(w_feat=0.0, max_age=2)

    def buffer(self, ids, next_id):
        tracks = outlined_frame([line_instance(y=50.0 * k, id=i) for k, i in enumerate(ids)])
        return TrackBuffer(tracks, next_id=next_id)

    def test_all_matched_no_new(self):
        buf = self.buffer([4, 9], next_id=12)
        dets = [line_instance(y=50.2), line_instance(y=0.3)]
        res = associate_frame(buf, dets, self.cfg)
        assert [d.id for d in res.dets] == [9, 4]
        assert [m[:2] for m in res.matches] == [(0, 9), (1, 4)]
        assert res.new_ids == [] and res.buffer.next_id == 12

    def test_all_matched_size_stable(self):
        buf = self.buffer([0, 1, 2], next_id=3)
        dets = [line_instance(y=50.0 * k + 0.3) for k in (2, 0, 1)]
        res = associate_frame(buf, dets, self.cfg)
        assert len(res.buffer.tracks) == 3
        # each track, in its place, is now its detection, outline included
        for track, i in zip(res.buffer.tracks, (1, 2, 0)):
            assert track.instance is res.dets[i] and track.age_missed == 0
            assert track.outline.tobytes() == outlined_frame([dets[i]])[0].outline.tobytes()

    def test_empty_buffer_fresh_ids(self):
        buf = TrackBuffer(next_id=5)
        dets = [line_instance(y=50.0 * k) for k in range(3)]
        res = associate_frame(buf, dets, self.cfg)
        assert [d.id for d in res.dets] == [5, 6, 7]
        assert res.new_ids == [5, 6, 7] and res.matches == []
        assert res.buffer.next_id == 8
        assert [t.instance.id for t in res.buffer.tracks] == [5, 6, 7]

    def test_partial(self):
        # tracks 0, 1, 2 at y = 0, 50, 100; track 1 goes unseen
        buf = self.buffer([0, 1, 2], next_id=3)
        dets = [line_instance(y=200.0), line_instance(y=100.1),
                line_instance(y=300.0), line_instance(y=-0.1)]
        res = associate_frame(buf, dets, self.cfg)
        assert [d.id for d in res.dets] == [3, 2, 4, 0]
        assert [m[:2] for m in res.matches] == [(1, 2), (3, 0)]
        assert res.new_ids == [3, 4] and res.buffer.next_id == 5
        # matched and aged tracks keep their places; new ones follow
        assert [(t.instance.id, t.age_missed) for t in res.buffer.tracks] == \
            [(0, 0), (1, 1), (2, 0), (3, 0), (4, 0)]
        assert res.buffer.tracks[0].instance is res.dets[3]
        assert res.buffer.tracks[3].instance is res.dets[0]

    def test_unmatched_removed_at_zero_age(self):
        res = associate_frame(self.buffer([0, 1], next_id=2), [line_instance(y=0.1)],
                              replace(self.cfg, max_age=0))
        assert [t.instance.id for t in res.buffer.tracks] == [0]

    def test_missed_twice_then_rematched(self):
        buf = self.buffer([7], next_id=8)
        for missed in (1, 2):
            buf = associate_frame(buf, [], self.cfg).buffer
            assert [(t.instance.id, t.age_missed) for t in buf.tracks] == [(7, missed)]
        res = associate_frame(buf, [line_instance(y=0.2)], self.cfg)
        assert [d.id for d in res.dets] == [7] and res.new_ids == []
        assert [(t.instance.id, t.age_missed) for t in res.buffer.tracks] == [(7, 0)]

    def test_aged_out(self):
        # max_age = 2: missed twice it stays, a third miss drops it
        buf = self.buffer([7], next_id=8)
        for _ in range(2):
            buf = associate_frame(buf, [], self.cfg).buffer
        assert [t.instance.id for t in buf.tracks] == [7]
        buf = associate_frame(buf, [], self.cfg).buffer
        assert buf.tracks == [] and buf.next_id == 8


class TestAssociateFrame:
    def test_empty_frame_ages_buffer(self):
        buf = TrackBuffer(outlined_frame([line_instance(y=0.0, id=0)]), next_id=1)
        res = associate_frame(buf, [], AssocConfig(max_age=0))
        assert res.dets == []
        assert res.buffer.tracks == []

    def test_static_scene_stable_ids(self):
        cfg = AssocConfig(w_feat=0.0)
        dets = [line_instance(y=0.0), line_instance(y=3.5, cls="boundary")]
        buf = TrackBuffer()
        res1 = associate_frame(buf, dets, cfg)
        ids1 = [d.id for d in res1.dets]
        res2 = associate_frame(res1.buffer, dets, cfg)
        ids2 = [d.id for d in res2.dets]
        assert ids1 == ids2
        assert res2.new_ids == []

    def test_id_conservation(self):
        rng = np.random.default_rng(3)
        cfg = AssocConfig(w_feat=0.0)
        buf = TrackBuffer()
        issued = set()
        unmatched_total = 0
        for frame in range(8):
            dets = [
                line_instance(y=float(k) * 4, x0=frame * 2.0, x1=frame * 2.0 + 20)
                for k in range(rng.integers(1, 4))
            ]
            res = associate_frame(buf, dets, cfg)
            # new_ids are the IDs the unmatched detections got, in order
            matched = {i for i, _, _ in res.matches}
            assert res.new_ids == [d.id for k, d in enumerate(res.dets) if k not in matched]
            unmatched_total += len(res.new_ids)
            for d in res.dets:
                issued.add(d.id)
            buf = res.buffer
        assert buf.next_id == unmatched_total  # started at 0
        assert len(res.new_ids) == 0 or max(issued) < buf.next_id

    def test_jittered_drive_no_switches(self):
        # straight drive, sigma = 0.1 m jitter, known GT ids
        cfg = AssocConfig(w_feat=0.0)
        rng = np.random.default_rng(4)
        buf = TrackBuffer()
        history = []
        for frame in range(10):
            pose = Pose2(frame * 3.0, 0.0, 0.0)
            dets = []
            for k, y in enumerate((-3.5, 0.0, 3.5)):
                xs = np.linspace(-20, 20, 20)
                pts = np.column_stack([xs, np.full(20, y)]) + rng.normal(0, 0.1, (20, 2))
                dets.append(MapInstance("divider" if k == 1 else "boundary", pts))
            res = associate_frame(buf, to_world(pose, dets), cfg)
            buf = res.buffer
            history.append([d.id for d in res.dets])
        first = history[0]
        assert all(ids == first for ids in history)

    def test_cross_class_never_matches(self):
        cfg = AssocConfig(theta=0.0, w_feat=0.0)
        buf = TrackBuffer(outlined_frame([line_instance(cls="boundary", id=0)]), next_id=1)
        res = associate_frame(buf, [line_instance(cls="divider")], cfg)
        assert res.matches == []
        assert res.dets[0].id == 1


def random_world(rng):
    """World-frame instances of every class, with IDs and embeddings."""
    insts = []
    for k in range(int(rng.integers(2, 7))):
        cls = CLASSES[k % len(CLASSES)]
        if cls == "ped_crossing":
            c = rng.uniform(-15, 15, 2)
            pts = c + np.array([[-2, -3], [2, -3], [2, 3], [-2, 3]]) * rng.uniform(0.5, 1.5)
        else:
            xs = np.sort(rng.uniform(-25, 25, int(rng.integers(2, 12))))
            pts = np.column_stack([xs, rng.uniform(-15, 15) + 0.02 * xs ** 2])
        insts.append(MapInstance(cls, pts, id=k, embedding=unit(rng.normal(size=8))))
    return insts


def ego_frame(rng, world, pose):
    """Jittered ego-frame detections of part of `world`, plus one false one."""
    dets = [MapInstance(w.cls, transform_points(pose, w.points, WORLD_TO_EGO)
                        + rng.normal(0, 0.3, w.points.shape),
                        embedding=unit(w.embedding + rng.normal(0, 0.3, 8)))
            for w in world if rng.random() < 0.8]
    dets.append(MapInstance("divider", rng.uniform(-25, 25, (5, 2)),
                            embedding=unit(rng.normal(size=8))))
    return [dets[k] for k in rng.permutation(len(dets))]


def moved_track(track, g):
    inst = track.instance
    return replace(outlined_frame([inst.with_points(transform_points(g, inst.points))])[0],
                   age_missed=track.age_missed)


@properties
@given(st.integers(0, 2**32 - 1), st.floats(-np.pi, np.pi),
       st.floats(-500, 500), st.floats(-500, 500))
def test_rigid_motion_of_the_world_changes_nothing(seed, theta, gx, gy):
    """Moving poses and stored tracks by one rigid transform keeps every ID,
    match and track; only the affinities move, by rounding."""
    rng = np.random.default_rng(seed)
    g = Pose2(gx, gy, theta)
    world = random_world(rng)
    start = [replace(t, age_missed=int(rng.integers(0, 2))) for t in outlined_frame(world[::2])]
    buf = TrackBuffer(start, next_id=len(world))
    moved = TrackBuffer([moved_track(t, g) for t in start], next_id=len(world))
    cfg = AssocConfig(theta=0.3, w_feat=0.3, max_age=1)
    for _ in range(3):
        pose = Pose2(*rng.uniform(-5, 5, 2), rng.uniform(-0.3, 0.3))
        dets = ego_frame(rng, world, pose)
        res = associate_frame(buf, to_world(pose, dets), cfg)
        res_m = associate_frame(moved, to_world(g.compose(pose), dets), cfg)
        assert res_m.new_ids == res.new_ids
        assert [m[:2] for m in res_m.matches] == [m[:2] for m in res.matches]
        for m, mm in zip(res.matches, res_m.matches):
            assert abs(mm[2] - m[2]) <= 1e-12
        buf, moved = res.buffer, res_m.buffer
        assert moved.next_id == buf.next_id
        assert [(t.instance.id, t.age_missed) for t in moved.tracks] == \
            [(t.instance.id, t.age_missed) for t in buf.tracks]
        for t, tm in zip(buf.tracks, moved.tracks):
            assert np.abs(transform_points(g, t.instance.points) - tm.instance.points).max() < 1e-9
            assert np.abs(transform_points(g, t.outline) - tm.outline).max() < 1e-9


def assert_frame_outlines(dets):
    """One frame's outlines, from one densify call, have the bits of
    `densify` detection by detection, and keep each detection."""
    tracks = outlined_frame(dets)
    assert len(tracks) == len(dets)
    for track, det in zip(tracks, dets):
        want = densify(det.closed_points, GEO_DENSIFY)
        assert track.instance is det
        assert track.outline.shape == want.shape and track.outline.tobytes() == want.tobytes()


def test_frame_outlines_match_densify_per_detection():
    # every frame of a scene with crossings (closed rings) and polylines
    scene = make_scene(SCENES["merge_noisy"])
    frames = [to_world(f.ego_pose, f.detections) for f in scene.frames]
    classes = {d.cls for dets in frames for d in dets}
    assert "ped_crossing" in classes and len(classes) > 1
    for dets in frames:
        assert_frame_outlines(dets)


@pytest.mark.parametrize("dets", [
    [],
    [line_instance()],
    [MapInstance("ped_crossing", [(0.0, 0.0), (4.0, 0.0), (4.0, 10.0), (0.0, 10.0)])],
    # a sub-EPS run that the second dedupe leaves at one point, beside a line
    [MapInstance("divider", [(5.0, 1.0), (5.0 + 6e-10, 1.0), (5.0 - 5e-10, 1.0)]),
     line_instance(y=3.0)],
], ids=["no detection", "one line", "one crossing", "sub-EPS run"])
def test_small_frame_outlines_match_densify(dets):
    assert_frame_outlines(dets)


def test_densify_once_per_kept_detection(monkeypatch):
    """Each detection is densified once, when scored, in one call per frame;
    stored tracks never."""
    scene = make_scene(SCENES["merge_noisy"])
    params = PipelineParams()
    calls = []
    dense = association.densify_many
    monkeypatch.setattr(association, "densify_many",
                        lambda lines, spacing: calls.append(len(lines)) or dense(lines, spacing))
    run_scene(scene, params)
    kept = [sum(d.score >= params.min_score for d in f.detections) for f in scene.frames]
    assert calls == kept and sum(kept) > 0
