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
    AssocConfig,
    TrackBuffer,
    allocate_ids,
    associate_frame,
    feature_affinity,
    fuse_affinity,
    geometric_affinity,
    optimal_match,
    outlined,
    threshold_filter,
    update_buffer,
)
from icmap.cli import main
from icmap.errors import DuplicateId, MissingEmbedding, ShapeMismatch
from icmap.geometry import WORLD_TO_EGO, Pose2, transform_points
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
        d = [outlined(line_instance())]
        t = [outlined(line_instance())]
        assert geometric_affinity(d, t, tau=2.0)[0, 0] == pytest.approx(1.0)

    def test_class_gate(self):
        d = [outlined(line_instance(cls="divider"))]
        t = [outlined(line_instance(cls="boundary"))]
        assert geometric_affinity(d, t, tau=2.0)[0, 0] == 0.0

    def test_value_at_tau(self):
        # parallel lines offset by exactly tau: chamfer = tau -> e^-1
        tau = 2.0
        d = [outlined(line_instance(y=0.0))]
        t = [outlined(line_instance(y=tau))]
        h = geometric_affinity(d, t, tau=tau)
        assert h[0, 0] == pytest.approx(math.exp(-1), abs=1e-9)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(0)
        d = [line_instance(y=0.3), line_instance(y=4.0, cls="boundary")]
        t = [line_instance(y=0.0), line_instance(y=3.5, cls="boundary")]
        base = geometric_affinity([outlined(i) for i in d], [outlined(i) for i in t], tau=2.0)
        pose = Pose2(5.0, -2.0, 1.1)
        dm = [outlined(i.with_points(transform_points(pose, i.points))) for i in d]
        tm = [outlined(i.with_points(transform_points(pose, i.points))) for i in t]
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


class TestFuse:
    def test_degenerate_weight(self):
        geo = np.array([[0.4, 0.9]])
        feat = np.array([[0.1, 0.1]])
        assert np.allclose(fuse_affinity(geo, feat, 0.0), geo)

    def test_arithmetic(self):
        out = fuse_affinity(np.array([[0.8]]), np.array([[0.4]]), 0.5)
        assert out[0, 0] == pytest.approx(0.6)

    def test_idempotent_geo_only(self):
        geo = np.array([[0.3, 0.7], [0.2, 0.9]])
        assert np.allclose(fuse_affinity(geo, geo, 0.3), geo)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fuse_affinity(np.zeros((2, 2)), np.zeros((2, 3)), 0.5)


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


class TestIdsAndBuffer:
    def make_buffer(self, ids):
        tracks = [outlined(line_instance(y=float(i), id=i)) for i in ids]
        return TrackBuffer(tracks, next_id=max(ids) + 1 if ids else 0)

    def test_all_matched_no_new(self):
        buf = self.make_buffer([0, 1])
        dets = [line_instance(y=0.0), line_instance(y=1.0)]
        out, next_id = allocate_ids(dets, [(0, 0), (1, 1)], buf)
        assert [d.id for d in out] == [0, 1]
        assert next_id == buf.next_id

    def test_empty_buffer_fresh_ids(self):
        buf = TrackBuffer(next_id=5)
        out, next_id = allocate_ids([line_instance()] * 3, [], buf)
        assert [d.id for d in out] == [5, 6, 7]
        assert next_id == 8

    def test_partial(self):
        buf = self.make_buffer([0, 1])
        dets = [line_instance()] * 3
        out, next_id = allocate_ids(dets, [(0, 1), (2, 0)], buf)
        assert [d.id for d in out] == [1, 2, 0]
        assert next_id == 3

    def test_unmatched_removed_at_zero_age(self):
        buf = self.make_buffer([0, 1])
        det = outlined(line_instance(y=0.0, id=0))
        out = update_buffer(buf, [det], max_age=0, next_id=buf.next_id)
        assert [t.instance.id for t in out.tracks] == [0]

    def test_all_matched_size_stable(self):
        buf = self.make_buffer([0, 1, 2])
        dets = [outlined(line_instance(y=float(i), id=i)) for i in range(3)]
        out = update_buffer(buf, dets, max_age=0, next_id=buf.next_id)
        assert len(out.tracks) == 3

    def test_missed_twice_then_rematched(self):
        buf = self.make_buffer([7])
        buf = update_buffer(buf, [], max_age=2, next_id=buf.next_id)
        assert buf.tracks[0].age_missed == 1
        buf = update_buffer(buf, [], max_age=2, next_id=buf.next_id)
        assert buf.tracks[0].age_missed == 2
        det = outlined(line_instance(y=0.0, id=7))
        buf = update_buffer(buf, [det], max_age=2, next_id=buf.next_id)
        assert [t.instance.id for t in buf.tracks] == [7]
        assert buf.tracks[0].age_missed == 0

    def test_aged_out(self):
        buf = self.make_buffer([7])
        buf = update_buffer(buf, [], max_age=1, next_id=buf.next_id)
        buf = update_buffer(buf, [], max_age=1, next_id=buf.next_id)
        assert buf.tracks == []

    def test_duplicate_ids_rejected(self):
        buf = self.make_buffer([0])
        dets = [outlined(line_instance(id=3)), outlined(line_instance(id=3))]
        with pytest.raises(DuplicateId):
            update_buffer(buf, dets, max_age=0, next_id=buf.next_id)


class TestAssociateFrame:
    def test_empty_frame_ages_buffer(self):
        tracks = [outlined(line_instance(y=0.0, id=0))]
        buf = TrackBuffer(tracks, next_id=1)
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
        buf = TrackBuffer([outlined(line_instance(cls="boundary", id=0))], next_id=1)
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
    return replace(outlined(inst.with_points(transform_points(g, inst.points))),
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
    start = [replace(outlined(w), age_missed=int(rng.integers(0, 2))) for w in world[::2]]
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


def test_densify_once_per_kept_detection(monkeypatch):
    """Each detection is densified once, when scored; stored tracks never."""
    scene = make_scene(SCENES["merge_noisy"])
    params = PipelineParams()
    calls = []
    dense = association.densify
    monkeypatch.setattr(association, "densify",
                        lambda pts, spacing: calls.append(len(pts)) or dense(pts, spacing))
    run_scene(scene, params)
    kept = [d for f in scene.frames for d in f.detections if d.score >= params.min_score]
    assert len(calls) == len(kept) > 0
