import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from icmap.curvefit import SmoothingFitParams
from icmap.errors import ClassConflict, MapFormatError, UnsupportedVersion
from icmap.geometry import Pose2, Rect, chamfer_distance, densify, polyline_length
from icmap.instance import MapInstance
from icmap.mapstore import (
    GlobalMap,
    fuse_with_history,
    load_map,
    merge_instance,
    sample_history,
    save_map,
)
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import make_scene

from test_golden import SCENES as GOLDEN_SCENES


def line_inst(y=0.0, x0=0.0, x1=60.0, n=61, cls="divider", id=0):
    xs = np.linspace(x0, x1, n)
    return MapInstance(cls, np.column_stack([xs, np.full(n, y)]), id=id)


def quad(x0, y0, w=4.0, h=8.0, id=0):
    ring = np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])
    return MapInstance("ped_crossing", ring, id=id)


def one_instance_map(inst):
    gmap = GlobalMap("t")
    gmap.instances[inst.id] = inst
    return gmap


class TestSampleHistory:
    def patch(self):
        return Rect(Pose2(30.0, 0.0, 0.0), 50.0, 25.0)

    def test_conformance(self):
        gmap = one_instance_map(line_inst(x1=200.0, n=201))
        hist = sample_history(gmap, self.patch(), 20.0, [0], 20)
        pts = hist[0]
        assert len(pts) == 20
        assert self.patch().expand(20.0).contains(pts, eps=1e-9).all()
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert (seg.max() - seg.min()) / seg.mean() < 1e-3

    def test_outside_yields_nothing(self):
        gmap = one_instance_map(line_inst(y=500.0))
        assert sample_history(gmap, self.patch(), 20.0, [0], 20) == {}

    def test_absent_id(self):
        gmap = one_instance_map(line_inst())
        assert sample_history(gmap, self.patch(), 20.0, [5], 20) == {}

    def test_longest_piece_selected(self):
        # patch (no expand) spans x in [-20, 80], y in [-25, 25]; the
        # instance crosses it twice: a 100 m leg at y=-10 and a ~25 m hook
        pts = np.array(
            [[-60.0, -10.0], [100.0, -10.0], [100.0, 40.0], [0.0, 40.0],
             [0.0, 20.0], [-60.0, 20.0]]
        )
        gmap = one_instance_map(MapInstance("boundary", densify(pts, 1.0), id=0))
        hist = sample_history(gmap, self.patch(), 0.0, [0], 20)
        assert 0 in hist
        assert np.abs(hist[0][:, 1] + 10.0).max() < 1e-6  # the y=-10 leg

    def test_sub_eps_clip_yields_nothing(self):
        # the line cuts the patch's corner by a 4.2e-10 m piece, which no
        # resampling can use; the run goes on, and the other line is sampled
        e = 2.0 - 3e-10
        gmap = GlobalMap("t", {0: MapInstance("divider", [(0.0, e), (e, 0.0)], id=0),
                               1: line_inst(y=0.5, x0=-3.0, x1=3.0, n=2, id=1)})
        hist = sample_history(gmap, Rect(Pose2(0.0, 0.0, 0.0), 1.0, 1.0), 0.0, [0, 1], 5)
        assert list(hist) == [1]
        assert np.array_equal(hist[1][:, 1], np.full(5, 0.5))

    def test_deterministic(self):
        gmap = one_instance_map(line_inst(x1=200.0, n=201))
        a = sample_history(gmap, self.patch(), 20.0, [0], 20)
        b = sample_history(gmap, self.patch(), 20.0, [0], 20)
        assert a[0].tobytes() == b[0].tobytes()


class TestFuse:
    def test_weight_zero_identity(self):
        det = line_inst()
        hist = det.points + 0.3
        out = fuse_with_history(det, hist, radius=1.0, weight=0.0)
        assert np.array_equal(out.points, det.points)

    def test_weight_one_snaps(self):
        det = line_inst(n=10)
        hist = det.points + np.array([0.0, 0.4])
        out = fuse_with_history(det, hist, radius=1.0, weight=1.0)
        assert np.allclose(out.points, hist)

    def test_midpoint_blend(self):
        det = MapInstance("divider", [(0.0, 0.4), (5.0, 0.4)])
        hist = np.array([[0.0, 0.0], [5.0, 0.0]])
        out = fuse_with_history(det, hist, radius=1.0, weight=0.5)
        assert np.allclose(out.points[0], (0.0, 0.2))

    def test_out_of_radius_untouched(self):
        det = MapInstance("divider", [(0.0, 5.0), (5.0, 5.0)])
        hist = np.array([[0.0, 0.0], [5.0, 0.0]])
        out = fuse_with_history(det, hist, radius=1.0, weight=0.5)
        assert np.array_equal(out.points, det.points)

    def test_count_preserved(self):
        det = line_inst(n=20)
        out = fuse_with_history(det, det.points[::3] + 0.2, radius=1.0, weight=0.5)
        assert len(out.points) == 20


class TestMergeInstance:
    def test_new_id_inserted(self):
        gmap = GlobalMap("t")
        merge_instance(gmap, line_inst(id=4), SmoothingFitParams())
        assert sorted(gmap.instances) == [4]
        assert np.array_equal(gmap.instances[4].points, line_inst().points)

    def test_self_merge_regression(self):
        t = np.linspace(0, 60, 61)
        inst = MapInstance("divider", np.column_stack([t, 2 * np.sin(t / 9)]), id=0)
        gmap = one_instance_map(inst)
        merge_instance(gmap, inst, SmoothingFitParams(s=0.5))
        d = chamfer_distance(
            densify(gmap.instances[0].points, 0.25), densify(inst.points, 0.25)
        )
        assert d < 0.05

    def test_collinear_extension(self):
        gmap = one_instance_map(line_inst(x0=0.0, x1=30.0, n=31))
        merge_instance(gmap, line_inst(x0=20.0, x1=50.0, n=31), SmoothingFitParams())
        out = gmap.instances[0].points
        assert polyline_length(out) == pytest.approx(50.0, abs=0.5)

    def test_merge_idempotence(self):
        gmap = one_instance_map(line_inst())
        det = line_inst(y=0.2)
        merge_instance(gmap, det, SmoothingFitParams())
        first = gmap.instances[0].points.copy()
        merge_instance(gmap, det, SmoothingFitParams())
        second = gmap.instances[0].points
        assert chamfer_distance(densify(second, 0.25), densify(first, 0.25)) < 0.05

    def test_coverage_monotone(self):
        gmap = one_instance_map(line_inst(x0=0.0, x1=30.0, n=31))
        before = gmap.instances[0].points
        lo0, hi0 = before.min(axis=0), before.max(axis=0)
        merge_instance(gmap, line_inst(x0=25.0, x1=55.0, n=31), SmoothingFitParams())
        after = gmap.instances[0].points
        assert (after.min(axis=0) <= lo0 + 0.5).all()
        assert (after.max(axis=0) >= hi0 - 0.5).all()

    def test_polygon_union_path(self):
        gmap = one_instance_map(quad(0.0, 0.0))
        merge_instance(gmap, quad(2.0, 0.0), SmoothingFitParams())
        from icmap.polygon import polygon_area

        assert polygon_area(gmap.instances[0].points) == pytest.approx(4 * 8 + 2 * 8)

    def test_disjoint_polygon_newest_wins(self, caplog):
        gmap = one_instance_map(quad(0.0, 0.0))
        det = quad(50.0, 0.0)
        with caplog.at_level(logging.WARNING, logger="icmap.mapstore"):
            merge_instance(gmap, det, SmoothingFitParams())
        assert np.array_equal(gmap.instances[0].points, det.points)
        assert any("disjoint" in r.message for r in caplog.records)

    def test_disjoint_crossing_natural_input(self, caplog):
        # the benchmark's merge_noisy road and noise at seed 107: a crossing
        # detection matched to a track whose stored crossing it does not touch
        scene = make_scene(replace(GOLDEN_SCENES["merge_noisy"], seed=107))
        with caplog.at_level(logging.WARNING, logger="icmap.mapstore"):
            run_scene(scene, PipelineParams())
        assert [r.getMessage() for r in caplog.records if "disjoint" in r.getMessage()] == [
            "id 32: disjoint crossing under matched ID; keeping newest"]

    def test_class_conflict(self):
        gmap = one_instance_map(line_inst(id=0))
        with pytest.raises(ClassConflict):
            merge_instance(gmap, quad(0.0, 0.0, id=0), SmoothingFitParams())

    def test_untouched_ids_stable(self):
        gmap = one_instance_map(line_inst(id=0))
        other = line_inst(y=5.0, id=1, cls="boundary")
        gmap.instances[1] = other
        merge_instance(gmap, line_inst(y=0.1, id=0), SmoothingFitParams())
        assert np.array_equal(gmap.instances[1].points, other.points)


class TestMapIO:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.map.json"
        save_map(GlobalMap("s"), path)
        loaded = load_map(path)
        assert loaded.scene_id == "s"
        assert loaded.instances == {}

    def test_random_map_bit_identical_resave(self, tmp_path):
        rng = np.random.default_rng(0)
        gmap = GlobalMap("rand")
        for i in range(100):
            cls = ("divider", "boundary", "ped_crossing")[int(rng.integers(0, 3))]
            if cls == "ped_crossing":
                x, y = rng.uniform(-100, 100, 2)
                pts = np.array([[x, y], [x + 3, y], [x + 3, y + 6], [x, y + 6]])
                pts += rng.normal(0, 0.1, pts.shape)
            else:
                pts = rng.uniform(-100, 100, (rng.integers(2, 30), 2))
            gmap.instances[i] = MapInstance(cls, pts, id=i)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_map(gmap, p1)
        loaded = load_map(p1)
        save_map(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for i in range(100):
            assert np.array_equal(loaded.instances[i].points, gmap.instances[i].points)

    def test_unknown_class_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {
            "format_version": "1",
            "scene_id": "x",
            "instances": [{"id": 0, "class": "sidewalk", "points": [[0, 0], [1, 1]]}],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError, match="sidewalk"):
            load_map(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": "1", "scene_id": "x",
                                    "instances": [{"id": 0, "points": [[0, 0], [1, 1]]}]}))
        with pytest.raises(MapFormatError, match="class"):
            load_map(path)

    @pytest.mark.parametrize("literal", ["NaN", "-Infinity", "1e999"])
    def test_non_finite_points_named(self, tmp_path, literal):
        # json reads all three; 1e999 overflows to inf
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format_version": "1", "scene_id": "x", "instances": ['
            '{"id": 0, "class": "divider", "points": [[0, 0], [1, 1]]}, '
            f'{{"id": 1, "class": "boundary", "points": [[0, 0], [1, {literal}]]}}]}}'
        )
        with pytest.raises(MapFormatError, match=r"instances\[1\]\.points"):
            load_map(path)

    @pytest.mark.parametrize("value", ["NaN", "1.5", "Infinity", "true", '"1"'])
    def test_non_integral_id_named(self, tmp_path, value):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format_version": "1", "scene_id": "x", "instances": ['
            '{"id": 0, "class": "divider", "points": [[0, 0], [1, 1]]}, '
            f'{{"id": {value}, "class": "boundary", "points": [[0, 0], [1, 1]]}}]}}'
        )
        with pytest.raises(MapFormatError, match=r"instances\[1\]\.id"):
            load_map(path)

    @pytest.mark.parametrize("points", ["[[0, 0, 0], [1, 1, 1]]", "[[[0, 0]], [[1, 1]]]",
                                        "[0, 1]", "[[0, 0]]", "[]"])
    def test_bad_point_shape_named(self, tmp_path, points):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"format_version": "1", "scene_id": "x", "instances": ['
            '{"id": 0, "class": "divider", "points": [[0, 0], [1, 1]]}, '
            f'{{"id": 1, "class": "boundary", "points": {points}}}]}}'
        )
        with pytest.raises(MapFormatError, match=r"instances\[1\]\.points"):
            load_map(path)

    @pytest.mark.parametrize("doc,key", [
        ({"format_version": "1"}, "scene_id"),
        ({"format_version": "1", "instances": []}, "scene_id"),
        ({"format_version": "1", "scene_id": "x"}, "instances"),
    ])
    def test_missing_key_named(self, tmp_path, doc, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MapFormatError) as exc:
            load_map(path)
        assert str(exc.value) == f"{path}: missing field {key!r}"

    @pytest.mark.parametrize("scene_id", ["5", "null", '["x"]', "[" * 1100 + "]" * 1100],
                             ids=["number", "null", "list", "deep list"])
    def test_scene_id_not_string_named(self, tmp_path, scene_id):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"format_version": "1", "scene_id": {scene_id}, "instances": []}}')
        with pytest.raises(MapFormatError) as exc:
            load_map(path)
        assert str(exc.value) == f"{path}: scene_id: expected a string"

    def test_version_check(self, tmp_path):
        path = tmp_path / "v9.json"
        path.write_text(json.dumps({"format_version": "9", "scene_id": "x", "instances": []}))
        with pytest.raises(UnsupportedVersion):
            load_map(path)
