"""Golden gate: pinned end-to-end results of `icmap run` + `icmap eval --mot`
(and, on merge_clean, `icmap sweep-s`).

Three fixed scenes go through the command line exactly as a user runs them:
the benchmark's merge_noisy and merge_clean configurations (3 lanes, 40
frames, s-curve road; the first with crossings, so polygon unions run) and a
zero-noise straight road. Track IDs per frame, ID switches, TP/FP/FN counts
and map point counts must match exactly; mAP, MOTA and mCD to 1e-9. A change
meant to keep behaviour must keep these; a change meant to alter it updates
them on purpose. The sweep table of merge_clean (one smoothing weight) is
pinned as the exact text `sweep-s` writes, together with the number of
detections attributed to each ground-truth polyline.
"""
import json

import pytest

from icmap.cli import main
from icmap.pipeline import scene_observations
from icmap.synth import NoiseConfig, SceneConfig, make_scene, read_scene, write_scene

from conftest import zero_noise_config

ROAD = dict(curvature="s_curve", frame_count=40, lane_count=3, range_lw=(100.0, 50.0))

SCENES = {
    "merge_noisy": SceneConfig(
        **ROAD, crossing_count=3, seed=2,
        noise=NoiseConfig(jitter_sigma=0.2, dropout_prob=0.1, fp_rate=0.5, split_prob=0.05),
    ),
    "merge_clean": SceneConfig(
        **ROAD, crossing_count=0, seed=3,
        noise=NoiseConfig(jitter_sigma=0.1, dropout_prob=0.05, fp_rate=0.2),
    ),
    "straight": zero_noise_config("straight", seed=0),
}


def _same(tp_fp_fn):
    """det_counts entry whose TP/FP/FN do not depend on the AP threshold."""
    return {"1.0": tp_fp_fn, "1.5": tp_fp_fn, "2.0": tp_fp_fn}


GOLDEN = {
    "merge_noisy": {
        "ids": [
            [0, 1, 2, 3, 4], [0, 1, 2, 3], [1, 2, 3, 5], [6, 1, 2, 3], [6, 1, 2, 7],
            [8, 9, 1, 2, 10], [11, 2, 10, 12], [11, 13, 2, 10, 12, 14], [11, 10, 12, 14],
            [15, 16, 10, 12, 14], [17, 15, 16, 10, 14], [17, 16, 18, 14],
            [17, 19, 16, 20, 18, 14], [17, 19, 18, 14], [17, 19, 21, 18, 14],
            [17, 19, 22, 21, 18, 14], [17, 19, 22, 21, 18], [17, 19, 22, 23],
            [17, 19, 22, 24, 25, 23], [19, 22, 24, 25, 23], [26, 19, 22, 24, 23, 27],
            [26, 19, 22, 24, 23, 27], [26, 19, 22, 27], [26, 19, 28, 29, 30, 27, 31],
            [26, 19, 32, 28, 29, 30, 27], [19, 32, 28, 29, 30, 27],
            [33, 19, 34, 35, 28, 29, 30], [33, 19, 36, 28, 29, 30], [36, 28, 29, 30, 37],
            [38, 36, 28, 29, 30, 39], [38, 40, 36, 28, 29, 30], [38, 40, 36, 28, 30, 41],
            [38, 40, 36, 28, 41], [38, 40, 36, 28, 42, 41], [38, 40, 36, 28, 42, 41, 43],
            [38, 40, 36, 42, 41, 44], [38, 40, 45, 42], [38, 40, 46, 45, 42, 47],
            [38, 46, 42, 48], [38, 49, 42, 50],
        ],
        "map_points": [
            57, 69, 75, 63, 4, 4, 65, 4, 20, 20, 84, 79, 14, 20, 21, 85, 90, 105, 21, 140,
            20, 101, 121, 23, 114, 11, 117, 22, 136, 21, 24, 20, 107, 108, 20, 20, 121, 4,
            119, 20, 110, 13, 19, 20, 4, 95, 91, 4, 20, 20, 4,
        ],
        "det_counts": {
            "boundary": _same([67, 6, 13]),
            "divider": _same([66, 2, 14]),
            "ped_crossing": _same([67, 1, 17]),
        },
        "id_switches": {"boundary": 10, "divider": 12, "ped_crossing": 13},
        "mAP": 0.8073081552172604,
        "mota": {"boundary": 0.6375, "divider": 0.65, "ped_crossing": 0.6309523809523809},
        "mCD": 0.22446078410137874,
    },
    "merge_clean": {
        "ids": [
            *[[0, 1, 2, 3]] * 7, [0, 1, 2], [0, 1, 2, 4], [0, 1, 4], *[[0, 1, 5, 4]] * 3,
            [0, 1, 5], *[[0, 1, 5, 6]] * 10, [0, 1, 5], [0, 1, 5, 7], [0, 1, 7],
            [0, 1, 8, 7], [0, 8, 7], [0, 9, 8, 7], [0, 9, 8], *[[0, 9, 8, 10]] * 4,
            [9, 8, 10], [11, 9, 8, 10], [11, 8, 10], [11, 12, 8, 10], [11, 12, 8, 10],
        ],
        "map_points": [152, 137, 77, 71, 88, 129, 121, 117, 120, 112, 110, 96, 87],
        "det_counts": {"boundary": _same([77, 0, 3]), "divider": _same([74, 0, 6])},
        "id_switches": {"boundary": 3, "divider": 6},
        "mAP": 0.9437500000000001,
        "mota": {"boundary": 0.925, "divider": 0.85},
        "mCD": 0.09223880214661434,
    },
    "straight": {
        "ids": [[0, 1, 2, 3]] * 20,
        "map_points": [101, 101, 101, 4],
        "det_counts": {
            "boundary": _same([40, 0, 0]),
            "divider": _same([20, 0, 0]),
            "ped_crossing": _same([20, 0, 0]),
        },
        "id_switches": {"boundary": 0, "divider": 0, "ped_crossing": 0},
        "mAP": 1.0,
        "mota": {"boundary": 1.0, "divider": 1.0, "ped_crossing": 1.0},
        "mCD": 3.086913440913324e-12,
    },
}

TOL = 1e-9


@pytest.fixture(scope="module", params=sorted(SCENES))
def outcome(request, tmp_path_factory):
    """(golden values, trace, map, eval report) of one scene."""
    name = request.param
    d = tmp_path_factory.mktemp(name)
    scene = d / f"{name}.json"
    write_scene(make_scene(SCENES[name]), scene)
    assert main(["run", str(scene), "--out-map", str(d / f"{name}.map.json"),
                 "--trace", str(d / f"{name}.trace.json")]) == 0
    assert main(["eval", "--scene", str(scene), "--pred-dir", str(d), "--mot",
                 "--report", str(d / "report.json")]) == 0
    docs = [json.loads((d / f).read_text())
            for f in (f"{name}.trace.json", f"{name}.map.json", "report.json")]
    return (GOLDEN[name], *docs)


def test_track_ids_per_frame(outcome):
    gold, trace, _, _ = outcome
    assert [[o["id"] for o in fr["instances"]] for fr in trace["frames"]] == gold["ids"]


def test_map_point_counts(outcome):
    gold, _, gmap, _ = outcome
    got = {inst["id"]: len(inst["points"]) for inst in gmap["instances"]}
    assert got == dict(enumerate(gold["map_points"]))


def test_detection_and_id_switch_counts(outcome):
    gold, _, _, report = outcome
    assert report["det_counts"] == gold["det_counts"]
    assert report["id_switches"] == gold["id_switches"]


def test_float_metrics(outcome):
    gold, _, _, report = outcome
    assert report["mAP"] == pytest.approx(gold["mAP"], abs=TOL)
    assert report["mCD"] == pytest.approx(gold["mCD"], abs=TOL)
    assert report["mota"].keys() == gold["mota"].keys()
    for cls, mota in gold["mota"].items():
        assert report["mota"][cls] == pytest.approx(mota, abs=TOL)


SWEEP_GOLDEN = {
    "table": "s\tcd_divider\tcd_boundary\n1.000\t0.084508\t0.074869\n",
    "observations": {"boundary": [40, 38], "divider": [38, 37]},
}


def test_sweep_table(tmp_path):
    scene = tmp_path / "merge_clean.json"
    write_scene(make_scene(SCENES["merge_clean"]), scene)
    obs = scene_observations(read_scene(scene))
    assert {cls: [len(o) for _, o in cases] for cls, cases in obs.items()} == \
        SWEEP_GOLDEN["observations"]
    out = tmp_path / "sweep.tsv"
    assert main(["sweep-s", str(scene), "--s-grid", "1:1:1", "--out", str(out)]) == 0
    assert out.read_text() == SWEEP_GOLDEN["table"]
