import hashlib
import json
import math
import re

import numpy as np
import pytest

from icmap.curvefit import SmoothingFitParams
from icmap.errors import InfeasibleScene, SceneFormatError, UnsupportedVersion
from icmap.geometry import EGO_TO_WORLD, chamfer_distance, densify
from icmap.instance import BOUNDARY, DIVIDER
from icmap.mapstore import GlobalMap, merge_instance
from icmap.synth import (
    NoiseConfig,
    SceneConfig,
    _embedding_base,
    clip_gt_frame,
    corrupt_frame,
    generate_scene,
    make_scene,
    read_scene,
    write_scene,
)

from conftest import zero_noise_config
from test_golden import SCENES as GOLDEN_SCENES


def fit_circle_radius(pts):
    # algebraic (Kasa) circle fit
    x, y = pts[:, 0], pts[:, 1]
    A = np.column_stack([2 * x, 2 * y, np.ones(len(pts))])
    b = x * x + y * y
    cx, cy, c = np.linalg.lstsq(A, b, rcond=None)[0]
    return math.sqrt(c + cx * cx + cy * cy)


class TestGenerate:
    def test_straight_two_lanes(self):
        cfg = SceneConfig(curvature="straight", lane_count=2, crossing_count=0)
        gt, poses = generate_scene(cfg)
        lines = [v for v in gt.instances.values() if v.is_polyline]
        assert len(lines) == 3
        assert sum(1 for v in lines if v.cls == BOUNDARY) == 2
        assert sum(1 for v in lines if v.cls == DIVIDER) == 1
        for inst in lines:
            d = np.diff(inst.points, axis=0)
            angles = np.arctan2(d[:, 1], d[:, 0])
            assert np.abs(angles).max() < 1e-6

    def test_arc_curvature(self):
        cfg = SceneConfig(curvature="arc", radius=100.0, lane_count=2, lane_width=3.5,
                          crossing_count=0)
        gt, _ = generate_scene(cfg)
        for inst in gt.instances.values():
            if inst.cls != BOUNDARY:
                continue
            r = fit_circle_radius(inst.points)
            # boundary offsets are +-3.5 m around the centerline radius
            assert min(abs(r - 96.5), abs(r - 103.5)) < 1.0

    def test_same_seed_identical(self, tmp_path):
        cfg = zero_noise_config("s_curve", seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_scene(make_scene(cfg), a)
        write_scene(make_scene(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_infeasible(self):
        cfg = SceneConfig(curvature="arc", radius=3.0, lane_count=4, lane_width=3.5)
        with pytest.raises(InfeasibleScene):
            generate_scene(cfg)

    def test_ids_unique(self):
        gt, _ = generate_scene(SceneConfig(crossing_count=3))
        ids = [v.id for v in gt.instances.values()]
        assert len(ids) == len(set(ids))


# sha256 of the scene file of each golden-gate configuration: a change that
# should keep scene set-up must keep every byte of these
SCENE_SHA256 = {
    "merge_noisy": "50a0220df69cc69ccb93b656657dae83b9908648c72193ae72437c00e86444fe",
    "merge_clean": "e361581745e0ccb2efe667dfa4176989b47e4c5a42faefa1245cf994bafbb8a4",
    "straight": "857ff24d2abeddcead27f65e0c1948318e91f7bf948026162eec1c911c05ddc0",
}


@pytest.mark.parametrize("name", sorted(SCENE_SHA256))
def test_golden_scene_bytes(name, tmp_path):
    path = tmp_path / "scene.json"
    write_scene(make_scene(GOLDEN_SCENES[name]), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SCENE_SHA256[name]


class TestClipGt:
    def test_outside_absent(self):
        cfg = zero_noise_config("straight")
        gt, poses = generate_scene(cfg)
        far_pose = poses[0]
        from icmap.geometry import Pose2

        local = clip_gt_frame(gt, Pose2(5000.0, 5000.0, 0.0), cfg.range_lw)
        assert local == []

    def test_forward_extent(self):
        cfg = zero_noise_config("straight")
        gt, poses = generate_scene(cfg)
        local = clip_gt_frame(gt, poses[0], cfg.range_lw)
        xs = np.concatenate([inst.points[:, 0] for inst in local if inst.is_polyline])
        assert xs.max() == pytest.approx(cfg.range_lw[0] / 2, abs=0.1)

    def test_ids_inherited(self):
        cfg = zero_noise_config("arc")
        gt, poses = generate_scene(cfg)
        local = clip_gt_frame(gt, poses[5], cfg.range_lw)
        assert all(inst.id in gt.instances for inst in local)

    def test_remerged_clips_cover_map(self):
        # clip every frame, merge the pieces back, compare with the source map
        cfg = zero_noise_config("arc", seed=3)
        gt, poses = generate_scene(cfg)
        rebuilt = GlobalMap("re")
        for pose in poses:
            for inst in clip_gt_frame(gt, pose, cfg.range_lw):
                world = inst.transformed(pose, EGO_TO_WORLD)
                merge_instance(rebuilt, world, SmoothingFitParams())
        for iid, inst in gt.instances.items():
            pts = inst.points if inst.is_polyline else np.vstack([inst.points, inst.points[:1]])
            got = rebuilt.instances[iid].points
            got = got if inst.is_polyline else np.vstack([got, got[:1]])
            assert chamfer_distance(densify(got, 0.25), densify(pts, 0.25)) < 0.1


RANGE_LW = SceneConfig().range_lw


def seed0_bases(frame, dim=NoiseConfig().embed_dim):
    """Each GT ID's unit embedding base vector of embedding seed 0."""
    return {inst.id: _embedding_base(0, inst.id, dim) for inst in frame}


class TestCorrupt:
    def frame(self, cfg=None):
        cfg = cfg or zero_noise_config("straight")
        gt, poses = generate_scene(cfg)
        return clip_gt_frame(gt, poses[3], cfg.range_lw)

    def test_zero_noise_identity(self):
        frame = self.frame()
        dets = corrupt_frame(frame, NoiseConfig.zero(), [0, 1], RANGE_LW, seed0_bases(frame))
        assert len(dets) == len(frame)
        for det, gt in zip(dets, frame):
            assert det.cls == gt.cls
            assert np.array_equal(det.points, gt.points)
            assert det.id is None
            assert det.score == pytest.approx(0.8)

    def test_dropout_one(self):
        frame = self.frame()
        dets = corrupt_frame(frame, NoiseConfig(dropout_prob=1.0), [0, 1], RANGE_LW, seed0_bases(frame))
        assert dets == []

    def test_jitter_statistics(self):
        from icmap.instance import MapInstance

        pts = np.zeros((500, 2))
        frame = [  # two instances, 1000 coordinates total
            MapInstance("divider", pts, id=0),
            MapInstance("divider", pts, id=1),
        ]
        dets = corrupt_frame(frame, NoiseConfig(jitter_sigma=0.2), [0, 7], RANGE_LW, seed0_bases(frame))
        coords = np.concatenate([d.points.ravel() for d in dets])
        assert coords.std() == pytest.approx(0.2, abs=0.02)

    def test_false_positives(self):
        dets = corrupt_frame([], NoiseConfig(fp_rate=4.0), [0, 2], RANGE_LW, {})
        assert len(dets) > 0
        assert all(d.embedding is not None for d in dets)

    def test_split(self):
        frame = self.frame()
        dets = corrupt_frame(frame, NoiseConfig(split_prob=1.0), [0, 3], RANGE_LW, seed0_bases(frame))
        lines_in = sum(1 for i in frame if i.is_polyline)
        lines_out = sum(1 for d in dets if d.is_polyline)
        assert lines_out == 2 * lines_in

    def test_deterministic(self):
        frame = self.frame()
        noise = NoiseConfig(jitter_sigma=0.3, fp_rate=1.0)
        a = corrupt_frame(frame, noise, [5, 6], RANGE_LW, seed0_bases(frame))
        b = corrupt_frame(frame, noise, [5, 6], RANGE_LW, seed0_bases(frame))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.points, y.points)
            assert x.score == y.score


class TestEmbeddings:
    def test_separation(self):
        # same-id cosine beats cross-id cosine in >= 99% of pairs
        cfg = SceneConfig(noise=NoiseConfig(embedding_sigma=0.1), seed=0)
        scene = make_scene(cfg)
        by_gt: dict[int, list] = {}
        for frame in scene.frames:
            order = {tuple(g.points[0]): g.id for g in frame.gt_local}
            dets = [d for d in frame.detections]
            for det, gt in zip(dets, frame.gt_local):
                by_gt.setdefault(gt.id, []).append(det.embedding)
        same, cross = [], []
        ids = sorted(by_gt)
        for i in ids:
            embs = by_gt[i]
            for a in range(len(embs)):
                for b in range(a + 1, len(embs)):
                    same.append(float(embs[a] @ embs[b]))
            for j in ids:
                if j <= i:
                    continue
                for ea in by_gt[i][:5]:
                    for eb in by_gt[j][:5]:
                        cross.append(float(ea @ eb))
        same = np.array(same)
        threshold = np.quantile(cross, 0.999) if cross else 0.9
        assert (same > threshold).mean() >= 0.99


class TestSceneIO:
    def test_round_trip(self, tmp_path):
        scene = make_scene(zero_noise_config("s_curve", seed=4))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_scene(scene, p1)
        write_scene(read_scene(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_ego_pose_names_frame(self, tmp_path):
        scene = make_scene(zero_noise_config("straight", seed=1))
        path = tmp_path / "s.json"
        write_scene(scene, path)
        doc = json.loads(path.read_text())
        del doc["frames"][7]["ego_pose"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match=r"frames\[7\]"):
            read_scene(path)

    @pytest.mark.parametrize("field,value", [
        ("range", "inf"),
        ("gt.instances[2].points", "nan"),
        ("frames[3].ego_pose.theta", "nan"),
        ("frames[3].gt_local[0].points", "-inf"),
        ("frames[3].detections[1].points", "nan"),
        ("frames[3].detections[1].score", "nan"),
        ("frames[3].detections[1].embedding", "inf"),
    ])
    def test_non_finite_names_field(self, tmp_path, field, value):
        scene = make_scene(SceneConfig(noise=NoiseConfig(embedding_sigma=0.1), seed=2))
        path = tmp_path / "s.json"
        write_scene(scene, path)
        doc = json.loads(path.read_text())
        node = doc
        for part in field.replace("]", "").replace("[", ".").split("."):
            parent, key = node, int(part) if part.isdigit() else part
            node = node[key]
        while isinstance(node, list):  # the first number inside
            parent, key, node = node, 0, node[0]
        parent[key] = float(value)
        path.write_text(json.dumps(doc))
        with pytest.raises(SceneFormatError, match=re.escape(field)):
            read_scene(path)

    @staticmethod
    def _mutated(tmp_path, edit):
        path = tmp_path / "s.json"
        write_scene(make_scene(SceneConfig(seed=2)), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("value", [float("nan"), 1.5, float("inf"), True, "4"])
    @pytest.mark.parametrize("field", ["frames[4].t", "gt.instances[1].id",
                                       "frames[3].gt_local[0].id"])
    def test_non_integral_names_field(self, tmp_path, field, value):
        def edit(doc):
            if field == "frames[4].t":
                doc["frames"][4]["t"] = value
            elif field == "gt.instances[1].id":
                doc["gt"]["instances"][1]["id"] = value
            else:
                doc["frames"][3]["gt_local"][0]["id"] = value
        path = self._mutated(tmp_path, edit)
        with pytest.raises(SceneFormatError, match=re.escape(field)):
            read_scene(path)

    def test_whole_float_id_accepted(self, tmp_path):
        def edit(doc):
            doc["frames"][4]["t"] = float(doc["frames"][4]["t"])
            doc["gt"]["instances"][1]["id"] = float(doc["gt"]["instances"][1]["id"])
        scene = read_scene(self._mutated(tmp_path, edit))
        assert scene.frames[4].t == 4 and isinstance(scene.frames[4].t, int)
        assert 1 in scene.gt.instances

    @pytest.mark.parametrize("field", ["gt.instances[2].points", "frames[3].gt_local[0].points",
                                       "frames[3].detections[1].points"])
    @pytest.mark.parametrize("points", [[[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]], [1.0, 2.0],
                                        [[[0.0, 1.0]]]])
    def test_bad_point_shape_names_field(self, tmp_path, field, points):
        def edit(doc):
            node = doc
            for part in field.replace("]", "").replace("[", ".").split(".")[:-1]:
                node = node[int(part) if part.isdigit() else part]
            node["points"] = points
        path = self._mutated(tmp_path, edit)
        with pytest.raises(SceneFormatError, match=re.escape(field)):
            read_scene(path)

    def test_version_mismatch(self, tmp_path):
        scene = make_scene(zero_noise_config("straight", seed=1))
        path = tmp_path / "s.json"
        write_scene(scene, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = "99"
        path.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersion):
            read_scene(path)
