import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from xml.etree import ElementTree

import pytest

from icmap import cli
from icmap.cli import MAX_SGRID_VALUES, PIPELINE_KEYS, SCENE_KEYS, _parse_sgrid, main
from icmap.errors import NonSimplePolygon, OrderingError
from icmap.instance import MapInstance
from icmap.mapstore import load_map
from icmap.pipeline import PipelineParams, run_scene
from icmap.synth import make_scene, read_scene, write_scene

from conftest import zero_noise_config
from test_golden import SCENES


@pytest.fixture()
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    write_scene(make_scene(zero_noise_config("arc", seed=5)), path)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def config_keys(text):
    return {line.split("=")[0].strip() for line in text.splitlines()}


@pytest.mark.parametrize("label,keys", [("Scene keys:", SCENE_KEYS),
                                        ("Pipeline keys:", PIPELINE_KEYS)],
                         ids=["scene", "pipeline"])
def test_readme_lists_every_config_key(label, keys):
    # the README's list runs from its label to the first full stop ending a line
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = text.index(label) + len(label)
    listed = re.findall(r"`(\w+)`", text[start:text.index(".\n", start)])
    assert sorted(listed) == sorted(keys)


class TestSynthCmd:
    def test_default_scene(self, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("synth", "--seed", 3, "--out", out) == 0
        scene = read_scene(out)
        assert len(scene.gt.instances) >= 3
        assert len(scene.frames) > 0

    def test_same_seed_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("synth", "--seed", 3, "--out", a)
        run_cli("synth", "--seed", 3, "--out", b)
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_range_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--seed", 1, "--out", tmp_path / "x.json", "--range", "wide")
        assert exc.value.code == 2

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("curvature = s_curve\nradius = 80\nframe_count = 8\n# comment\n")
        out = tmp_path / "s.json"
        assert run_cli("synth", "--config", cfg, "--seed", 1, "--out", out) == 0
        assert "s_curve" in read_scene(out).scene_id

    # every scene key at its default value
    DEFAULTS = (
        "road_length = 150.0\nlane_count = 2\nlane_width = 3.5\ncurvature = straight\n"
        "radius = 120.0\ncrossing_count = 1\nframe_count = 20\nframe_spacing = 3.0\n"
        "range = 100x50\nseed = 0\njitter_sigma = 0.0\ndropout_prob = 0.0\nfp_rate = 0.0\n"
        "split_prob = 0.0\nembedding_sigma = 0.05\nembed_dim = 16\nscore_tp_mean = 0.8\n"
        "score_tp_std = 0.1\nscore_fp_mean = 0.4\nscore_fp_std = 0.15\n"
    )

    def test_defaults_cover_every_scene_key(self):
        assert config_keys(self.DEFAULTS) == SCENE_KEYS

    def test_all_keys_at_defaults_change_nothing(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(self.DEFAULTS)
        plain, configured = tmp_path / "plain.json", tmp_path / "cfg.json"
        assert run_cli("synth", "--out", plain) == 0
        assert run_cli("synth", "--config", cfg, "--out", configured) == 0
        assert configured.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("text,named", [
        ("dropout_prob = 2\n", "dropout_prob"),
        ("lane_count = 0\n", "lane_count"),
        ("range = abc\n", "'range'"),
        ("range = 0x5\n", "'range'"),
        ("jitter_sigma = inf\n", "'jitter_sigma'"),
        ("radius = 1e999\n", "'radius'"),
        ("range = nanx50\n", "'range'"),
        ("embed_dim = 0\n", "embed_dim"),
        ("seed = -3\n", "invalid parameter: seed must be >= 0"),
    ])
    def test_bad_value_names_key(self, tmp_path, capsys, text, named):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        out = tmp_path / "s.json"
        assert run_cli("synth", "--config", cfg, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("icmap: error: ") and named in err
        assert not out.exists()

    def test_count_multi(self, tmp_path):
        assert run_cli("synth", "--seed", 0, "--count", 3, "--out-dir", tmp_path, "--jobs", 1) == 0
        assert sorted(p.name for p in tmp_path.glob("scene_*.json")) == [
            "scene_000.json", "scene_001.json", "scene_002.json"
        ]

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_usage_error(self, tmp_path, capsys, count):
        out_dir = tmp_path / "d"
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--count", count, "--out-dir", out_dir)
        assert exc.value.code == 2
        assert f"argument --count: {count!r} is not a positive integer" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--out", "s.json"], ["--count", "2", "--out-dir", "d"]],
                             ids=["out", "count"])
    def test_negative_seed_flag_rejected(self, tmp_path, monkeypatch, capsys, flags):
        monkeypatch.chdir(tmp_path)
        assert run_cli("synth", "--seed", -1, *flags) == 1
        assert "icmap: error: invalid parameter: seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.glob("**/*.json")) == []

    # --out names the one scene; --count scenes go to --out-dir
    @pytest.mark.parametrize("flags,message", [
        (["--out", "a.json", "--out-dir", "d"], "argument --out-dir: not allowed with argument --out"),
        (["--count", "1", "--out", "b.json", "--out-dir", "d2"],
         "argument --out-dir: not allowed with argument --out"),
        (["--count", "1", "--out", "b.json"], "argument --count: not allowed with argument --out"),
    ], ids=["out-dir", "count-and-out-dir", "count"])
    def test_conflicting_flags_usage_error(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", *flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRunCmd:
    def test_zero_noise_map(self, scene_path, tmp_path):
        out_map = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--trace", trace) == 0
        gmap = load_map(out_map)
        scene = read_scene(scene_path)
        from icmap.metrics import global_map_cd

        cd, mcd = global_map_cd(gmap, scene.gt)
        assert mcd < 0.1
        doc = json.loads(trace.read_text())
        assert len(doc["frames"]) == len(scene.frames)
        assert all("matches" in f and "det_count" in f for f in doc["frames"])

    def test_frames_pulled_once_in_order(self, scene_path, tmp_path, monkeypatch):
        """`run` reads a scene's frames as a one-pass stream: frames that
        come from a generator give the map and trace bytes of a plain run."""
        def run(name):
            out_map, trace = tmp_path / f"{name}.map.json", tmp_path / f"{name}.trace.json"
            assert run_cli("run", scene_path, "--out-map", out_map, "--trace", trace) == 0
            return out_map.read_bytes(), trace.read_bytes()

        plain = run("plain")
        read = cli.read_scene

        def read_stream(path):
            scene = read(path)
            scene.frames = (frame for frame in scene.frames)
            return scene

        monkeypatch.setattr(cli, "read_scene", read_stream)
        assert run("stream") == plain

    def test_sub_eps_detection_runs_and_evaluates(self, tmp_path, capsys):
        # a run of sub-EPS steps that one dedupe leaves at 2 points and the
        # second (resample_even's) at 1: the detection is outlined as that
        # one point, not an abort of the scene
        scene = make_scene(SCENES["merge_clean"])
        frame = scene.frames[3]
        frame.detections.append(MapInstance(
            "divider", [[5.0, 1.0], [5.0 + 6e-10, 1.0], [5.0 - 5e-10, 1.0]], score=0.9,
            embedding=frame.detections[0].embedding))
        path = tmp_path / "scene.json"
        write_scene(scene, path)
        assert run_cli("run", path, "--out-map", tmp_path / "scene.map.json",
                       "--trace", tmp_path / "scene.trace.json") == 0
        assert run_cli("eval", "--scene", path, "--pred-dir", tmp_path, "--mot") == 0
        assert "error" not in capsys.readouterr().err

    def test_no_fusion_flag(self, scene_path, tmp_path):
        out_map = tmp_path / "m.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--no-fusion") == 0
        assert load_map(out_map).instances

    # flags are spelt in full: neither --out (for --out-map) nor --no (for
    # --no-fusion) is read, and no map is written
    @pytest.mark.parametrize("flags,message", [
        (["--out", "m.json"], "the following arguments are required: --out-map"),
        (["--out-map", "m.json", "--no"], "unrecognized arguments: --no"),
    ], ids=["out", "no"])
    def test_abbreviated_flag_usage_error(self, scene_path, tmp_path, monkeypatch, capsys,
                                          flags, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli("run", scene_path, *flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_empty_scene(self, tmp_path):
        doc = {
            "format_version": "1",
            "scene_id": "empty",
            "range": [100.0, 50.0],
            "gt": {"instances": []},
            "frames": [],
        }
        scene = tmp_path / "empty.json"
        scene.write_text(json.dumps(doc))
        out_map = tmp_path / "m.json"
        assert run_cli("run", scene, "--out-map", out_map) == 0
        assert load_map(out_map).instances == {}

    def test_out_of_order_frames(self, scene_path, tmp_path):
        doc = json.loads(scene_path.read_text())
        doc["frames"][3]["t"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("run", bad, "--out-map", tmp_path / "m.json") == 1

    def test_run_scene_repeated_t(self):
        # a scene built in memory is not read through read_scene, so the
        # pipeline checks the order itself
        scene = make_scene(zero_noise_config("straight", seed=3))
        scene.frames[3] = replace(scene.frames[3], t=scene.frames[2].t)
        with pytest.raises(OrderingError, match="frame 2 after frame 2"):
            run_scene(scene, PipelineParams())

    def test_frame_failure_names_scene_frame_and_id(self, tmp_path, capsys):
        # the benchmark's merge_noisy scene of seed 0 stops when a crossing's
        # union fails: the error keeps its class, led by the frame and the
        # merged instance's id, and `run` leads it by the scene file
        scene = make_scene(replace(SCENES["merge_noisy"], seed=0))
        with pytest.raises(NonSimplePolygon) as exc:
            run_scene(scene, PipelineParams())
        assert str(exc.value) == ("frames[8]: merging id 17:"
                                  " polygon_union requires simple polygons")
        path = tmp_path / "noisy.json"
        write_scene(scene, path)
        assert run_cli("run", path, "--out-map", tmp_path / "m.json") == 1
        assert capsys.readouterr().err == (f"icmap: error: {path}: frames[8]: merging id 17:"
                                           " polygon_union requires simple polygons\n")

    def test_non_finite_detection_names_field(self, scene_path, tmp_path, capsys):
        doc = json.loads(scene_path.read_text())
        doc["frames"][4]["detections"][0]["points"][2][0] = float("inf")
        scene_path.write_text(json.dumps(doc))
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json") == 1
        assert "frames[4].detections[0].points" in capsys.readouterr().err


    @pytest.mark.parametrize("field", ["frames[4].t", "frames[4].gt_local[0].id",
                                       "frames[4].detections[0].points"])
    def test_malformed_field_named(self, scene_path, tmp_path, capsys, field):
        doc = json.loads(scene_path.read_text())
        frame = doc["frames"][4]
        if field.endswith(".t"):
            frame["t"] = float("nan")
        elif field.endswith(".id"):
            frame["gt_local"][0]["id"] = 1.5
        else:
            frame["detections"][0]["points"] = [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
        scene_path.write_text(json.dumps(doc))
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json") == 1
        assert field in capsys.readouterr().err

class TestRunConfig:
    # every pipeline key at its default value
    DEFAULTS = (
        "tau = 2.0\ntheta = 0.5\nw_feat = 0.3\nmax_age = 0\n"
        "s = 0.5\nn_sample = 20\nexpand = 20.0\n"
        "fuse_radius = 1.0\nfuse_weight = 0.5\nmin_score = 0.55\n"
    )

    def run_with(self, scene_path, tmp_path, text, name="m"):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        code = run_cli("run", scene_path, "--config", cfg, "--out-map", tmp_path / f"{name}.json",
                       "--trace", tmp_path / f"{name}.trace.json")
        return code, tmp_path / f"{name}.json", tmp_path / f"{name}.trace.json"

    def test_defaults_cover_every_pipeline_key(self):
        assert config_keys(self.DEFAULTS) == PIPELINE_KEYS
        assert len(PIPELINE_KEYS) == 10

    def test_trace_config_records_every_key(self, scene_path, tmp_path):
        # the parameters a trace records are the keys a config file sets
        trace = tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json", "--trace", trace) == 0

        def leaves(doc):
            return {k for key, val in doc.items()
                    for k in (leaves(val) if isinstance(val, dict) else {key})}

        assert leaves(json.loads(trace.read_text())["config"]) == PIPELINE_KEYS

    def test_all_keys_at_defaults_change_nothing(self, scene_path, tmp_path):
        assert run_cli("run", scene_path, "--out-map", tmp_path / "plain.json",
                       "--trace", tmp_path / "plain.trace.json") == 0
        code, out_map, trace = self.run_with(scene_path, tmp_path, self.DEFAULTS)
        assert code == 0
        assert out_map.read_bytes() == (tmp_path / "plain.json").read_bytes()
        assert trace.read_bytes() == (tmp_path / "plain.trace.json").read_bytes()

    @pytest.mark.parametrize("text,hint", [
        ("thetta = 0.4\n", "did you mean 'theta'"),
        ("fuse_radus = 2\n", "did you mean 'fuse_radius'"),
        ("jiter_sigma = 0.2\n", "unknown config key 'jiter_sigma'"),  # a scene key, misspelt
        ("jitter_sigma = 0.2\n", "unknown config key 'jitter_sigma'"),  # synth reads it, run does not
        # no keys: the geometric weight is 1 - w_feat, fusion off is
        # fuse_weight = 0 and the spline is always cubic
        ("w_geo = 0.7\n", "unknown config key 'w_geo'"),
        ("fusion = off\n", "unknown config key 'fusion'"),
        ("degree = 3\n", "unknown config key 'degree'"),
        # the fit's knot and output spacing are constants: s alone is set
        ("out_spacing = 1.0\n", "unknown config key 'out_spacing'"),
    ])
    def test_unknown_key_names_nearest(self, scene_path, tmp_path, capsys, text, hint):
        code, out_map, _ = self.run_with(scene_path, tmp_path, text)
        assert code == 1
        assert hint in capsys.readouterr().err
        assert not out_map.exists()

    def test_no_fusion_is_fuse_weight_zero(self, scene_path, tmp_path):
        assert run_cli("run", scene_path, "--no-fusion", "--out-map", tmp_path / "off.json") == 0
        code, out_map, _ = self.run_with(scene_path, tmp_path, "fuse_weight = 0\n")
        assert code == 0
        assert out_map.read_bytes() == (tmp_path / "off.json").read_bytes()
        assert run_cli("run", scene_path, "--out-map", tmp_path / "on.json") == 0
        assert out_map.read_bytes() != (tmp_path / "on.json").read_bytes()

    def test_w_feat_alone(self, scene_path, tmp_path):
        trace = tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json", "--trace", trace,
                       "--w-feat", 0.4) == 0
        assert json.loads(trace.read_text())["config"]["assoc"]["w_feat"] == 0.4

    @pytest.mark.parametrize("value", [1.5, -0.1])
    def test_w_feat_out_of_range(self, scene_path, tmp_path, capsys, value):
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json",
                       f"--w-feat={value}") == 1
        assert "invalid parameter: w_feat must lie in [0, 1]" in capsys.readouterr().err

    def test_repeated_key_names_both_lines(self, scene_path, tmp_path, capsys):
        code, out_map, _ = self.run_with(scene_path, tmp_path, "tau = 1.0\n# c\ns = 1\ntau = 3.0\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("icmap: error: ") and ":4: config key 'tau'" in err
        assert "on line 1" in err
        assert not out_map.exists()

    @pytest.mark.parametrize("text,named", [
        ("tau = -1\n", "tau"),
        ("s = -1\n", "s must be"),
        ("degree = 4\n", "degree"),  # the spline is always cubic: an unknown key
        ("tau = nan\n", "'tau'"),
        ("min_score = nan\n", "'min_score'"),
        ("fuse_weight = -inf\n", "'fuse_weight'"),
        ("n_sample = 2.5\n", "'n_sample'"),
        ("n_sample = 1\n", "n_sample must be"),
        ("expand = -100\n", "expand must be"),
        ("fuse_weight = 3\n", "fuse_weight must"),
        ("max_age = -3\n", "invalid parameter: max_age must be >= 0"),
    ])
    def test_bad_value_names_key(self, scene_path, tmp_path, capsys, text, named):
        code, out_map, _ = self.run_with(scene_path, tmp_path, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("icmap: error: ") and named in err
        assert not out_map.exists()

    def test_out_of_range_flag_names_field(self, scene_path, tmp_path, capsys):
        assert run_cli("run", scene_path, "--out-map", tmp_path / "m.json", "--tau", -1) == 1
        assert "icmap: error: invalid parameter: tau must be positive" in capsys.readouterr().err

    def test_negative_max_age_flag_rejected(self, scene_path, tmp_path, capsys):
        out_map = tmp_path / "m.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--max-age", -3) == 1
        assert "icmap: error: invalid parameter: max_age must be >= 0" in capsys.readouterr().err
        assert not out_map.exists()

    @pytest.mark.parametrize("flag,value", [("--tau", "nan"), ("--s", "inf"),
                                            ("--theta", "-inf"), ("--expand", "1e999"),
                                            ("--thresholds", "1,nan"), ("--thresholds", "inf"),
                                            ("--s-grid", "0:inf:1"), ("--s-grid", "nan:1:1"),
                                            ("--mot-gate", "nan"), ("--w-feat", "inf"),
                                            ("--range", "100xinf")])
    def test_non_finite_flag_usage_error(self, scene_path, tmp_path, capsys, flag, value):
        out_map = tmp_path / "m.json"
        # the command that reads each flag, with the arguments it requires
        argv = {
            "--thresholds": ["eval", "--scene", scene_path, "--pred-map", out_map],
            "--mot-gate": ["eval", "--scene", scene_path, "--pred-map", out_map],
            "--s-grid": ["sweep-s", scene_path, "--out", tmp_path / "t.tsv"],
            "--range": ["synth", "--out", tmp_path / "s.json"],
        }.get(flag, ["run", scene_path, "--out-map", out_map])
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, f"{flag}={value}")
        assert exc.value.code == 2
        # a list, grid or range names its one non-finite number
        bad, = (v for v in re.split("[,:x]", value) if not math.isfinite(float(v)))
        assert f"argument {flag}: {bad!r} is not a finite number" in capsys.readouterr().err

    def test_flag_overrides_config(self, scene_path, tmp_path):
        assert run_cli("run", scene_path, "--out-map", tmp_path / "ref.json", "--tau", 3) == 0
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau = 1.0\n")
        assert run_cli("run", scene_path, "--config", cfg, "--tau", 3,
                       "--out-map", tmp_path / "m.json") == 0
        assert (tmp_path / "m.json").read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_synth_suggests_scene_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("jiter_sigma = 0.2\n")
        assert run_cli("synth", "--config", cfg, "--out", tmp_path / "s.json") == 1
        assert "did you mean 'jitter_sigma'" in capsys.readouterr().err


# a flag a command or another flag cannot do without is checked before any
# work: a usage error naming the flags, with nothing written
@pytest.mark.parametrize("argv,flags", [
    (["synth"], ["--out", "--count"]),
    (["eval", "--scene", "SCENE", "--report", "r.json"], ["--pred-map", "--pred-dir"]),
    (["eval", "--scene", "SCENE", "--pred-map", "m.json", "--mot", "--report", "r.json"],
     ["--mot", "--trace", "--pred-dir"]),
    (["eval", "--scene", "SCENE", "SCENE", "--pred-map", "m.json", "--report", "r.json"],
     ["--pred-dir"]),
    # eval reads the trace for --mot only, so the file is not opened
    (["eval", "--scene", "SCENE", "--pred-map", "m.json", "--trace", "missing.json",
      "--report", "r.json"], ["--trace", "--mot"]),
], ids=["synth", "eval-no-map", "eval-mot-no-trace", "eval-several-scenes",
        "eval-trace-no-mot"])
def test_missing_flag_usage_error(scene_path, tmp_path, monkeypatch, capsys, argv, flags):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*[scene_path if arg == "SCENE" else arg for arg in argv])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message.startswith("icmap: error: ")
    assert all(flag in message for flag in flags), message
    assert sorted(tmp_path.rglob("*")) == before


# a file a command writes goes into a directory that exists and is not one
# itself, checked before any work: a usage error naming the flag, with
# nothing written
@pytest.mark.parametrize("argv,flag", [
    (["synth", "--out", "OUT"], "--out"),
    (["run", "SCENE", "--out-map", "OUT"], "--out-map"),
    (["run", "SCENE", "--out-map", "m.json", "--trace", "OUT"], "--trace"),
    (["eval", "--scene", "SCENE", "--pred-map", "MAP", "--report", "OUT"], "--report"),
    (["sweep-s", "SCENE", "--s-grid", "1:1:1", "--out", "OUT"], "--out"),
    (["sweep-s", "SCENE", "--s-grid", "1:1:1", "--out", "s.tsv", "--plot", "OUT"], "--plot"),
    (["render", "MAP", "--out", "OUT"], "--out"),
], ids=["synth", "run", "run-trace", "eval", "sweep-s", "sweep-s-plot", "render"])
@pytest.mark.parametrize("fault", ["no directory", "a directory"])
def test_output_path_usage_error(scene_path, tmp_path, monkeypatch, capsys, argv, flag, fault):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    pred_map = inputs / "map.json"
    if "MAP" in argv:
        assert run_cli("run", scene_path, "--out-map", pred_map) == 0
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    if fault == "no directory":
        out, want = os.path.join("nodir", "out"), "directory 'nodir' does not exist"
    else:
        (work / "adir").mkdir()
        out, want = "adir", "'adir' is a directory"
    before = sorted(tmp_path.rglob("*"))
    subs = {"SCENE": scene_path, "MAP": pred_map, "OUT": out}
    with pytest.raises(SystemExit) as exc:
        run_cli(*[subs.get(arg, arg) for arg in argv])
    assert exc.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert message == f"icmap: error: argument {flag}: {want}"
    assert sorted(tmp_path.rglob("*")) == before



# an output may not name a file the command reads or another of its outputs
# (compared by os.path.realpath): a usage error naming both arguments,
# before any work, with every file left as it was
@pytest.mark.parametrize("argv,message", [
    (["run", "s.json", "--out-map", "m.json", "--trace", "m.json"],
     "argument --trace: 'm.json' is also --out-map"),
    (["run", "s.json", "--out-map", "s.json"], "argument --out-map: 's.json' is also scene"),
    (["eval", "--scene", "s.json", "--pred-map", "m.json", "--trace", "t.json", "--mot",
      "--report", "t.json"], "argument --report: 't.json' is also --trace"),
    (["eval", "--scene", "s.json", "--pred-dir", "d", "--mot", "--report",
      os.path.join("d", "..", "d", "s.trace.json")],
     f"argument --report: {os.path.join('d', '..', 'd', 's.trace.json')!r} is also --pred-dir"),
    (["sweep-s", "s.json", "--s-grid", "1:1:1", "--out", "o.tsv", "--plot", "./o.tsv"],
     "argument --plot: './o.tsv' is also --out"),
    (["render", "m.json", "--out", "m.json"], "argument --out: 'm.json' is also maps"),
], ids=["run-map-trace", "run-map-scene", "eval-report-trace", "eval-report-pred-dir",
        "sweep-plot-out", "render-out-map"])
def test_output_clash_usage_error(scene_path, tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    shutil.copy(scene_path, "s.json")
    assert run_cli("run", "s.json", "--out-map", "m.json", "--trace", "t.json") == 0
    os.mkdir("d")
    shutil.copy("m.json", os.path.join("d", "s.map.json"))
    shutil.copy("t.json", os.path.join("d", "s.trace.json"))
    capsys.readouterr()
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"icmap: error: {message}"
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


class TestEvalCmd:
    def test_perfect_pipeline(self, scene_path, tmp_path, capsys):
        out_map = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        run_cli("run", scene_path, "--out-map", out_map, "--trace", trace)
        report = tmp_path / "r.json"
        code = run_cli(
            "eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
            "--mot", "--report", report,
        )
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["mAP"] == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in doc["mota"].values())
        assert doc["mCD"] < 0.1
        assert "class" in capsys.readouterr().out

    def test_small_scale_thresholds_accepted(self, scene_path, tmp_path):
        out_map = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        run_cli("run", scene_path, "--out-map", out_map, "--trace", trace)
        report = tmp_path / "r.json"
        code = run_cli(
            "eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
            "--mot", "--thresholds", "0.5,1.0,1.5", "--report", report,
        )
        assert code == 0
        assert json.loads(report.read_text())["ap_thresholds"] == [0.5, 1.0, 1.5]

    # --pred-dir holds each scene's map and trace; a path given beside it
    # would go unread
    @pytest.mark.parametrize("flags,message", [
        (["--pred-map", "/nonexistent.json"], "argument --pred-map: not allowed with argument --pred-dir"),
        (["--trace", "/nonexistent.json"], "argument --trace: not allowed with argument --pred-dir"),
        (["--pred-map", "/nonexistent.json", "--trace", "/nonexistent2.json"],
         "argument --pred-map: not allowed with argument --pred-dir"),
    ], ids=["pred-map", "trace", "both"])
    def test_pred_dir_conflicts_usage_error(self, scene_path, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--scene", scene_path, "--pred-dir", tmp_path, *flags, "--mot")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("gate,message", [
        ("-1", "'-1' is not a positive number"),
        ("0", "'0' is not a positive number"),
        ("nan", "'nan' is not a finite number"),
        ("inf", "'inf' is not a finite number"),
    ])
    def test_mot_gate_must_be_positive(self, scene_path, tmp_path, capsys, gate, message):
        out_map, trace = tmp_path / "m.json", tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--trace", trace) == 0
        report = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
                    "--mot", f"--mot-gate={gate}", "--report", report)
        assert exc.value.code == 2
        assert f"argument --mot-gate: {message}" in capsys.readouterr().err
        assert not report.exists()

    def test_mot_without_trace_errors(self, scene_path, tmp_path, capsys):
        out_map = tmp_path / "m.json"
        run_cli("run", scene_path, "--out-map", out_map)
        with pytest.raises(SystemExit) as exc:
            run_cli("eval", "--scene", scene_path, "--pred-map", out_map, "--mot")
        assert exc.value.code == 2
        assert "trace" in capsys.readouterr().err

    def test_multi_scene_aggregate(self, tmp_path):
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        scenes = []
        for i, curv in enumerate(("straight", "arc")):
            sp = tmp_path / f"scene_{i:03d}.json"
            write_scene(make_scene(zero_noise_config(curv, seed=20 + i)), sp)
            run_cli("run", sp, "--out-map", pred_dir / f"scene_{i:03d}.map.json",
                    "--trace", pred_dir / f"scene_{i:03d}.trace.json")
            scenes.append(sp)
        report = tmp_path / "agg.json"
        code = run_cli("eval", "--scene", *scenes, "--pred-dir", pred_dir,
                       "--mot", "--jobs", min(2, os.cpu_count()), "--report", report)
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["mAP"] == pytest.approx(1.0)
        assert doc["mCD"] < 0.1
        assert all(v == pytest.approx(1.0) for v in doc["mota"].values())

    def test_one_point_trace_instance_scored(self, scene_path, tmp_path):
        # run writes a 1-point instance from a 1-point detection
        out_map, trace = tmp_path / "m.json", tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--trace", trace) == 0
        doc = json.loads(trace.read_text())
        doc["frames"][2]["instances"][1]["points"] = doc["frames"][2]["instances"][1]["points"][:1]
        trace.write_text(json.dumps(doc))
        report = tmp_path / "r.json"
        assert run_cli("eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
                       "--mot", "--report", report) == 0
        assert json.loads(report.read_text())["mAP"] < 1.0

    @pytest.mark.skipif(os.cpu_count() < 2, reason="--jobs 2 needs two CPUs")
    def test_jobs_two_same_report(self, tmp_path):
        # the worker pool is imported only when workers start
        code = ("import sys, icmap.cli; "
                "sys.exit('concurrent.futures.process' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
        pred_dir = tmp_path / "pred"
        pred_dir.mkdir()
        scenes = []
        for i in range(2):
            sp = tmp_path / f"scene_{i}.json"
            write_scene(make_scene(zero_noise_config("s_curve", seed=30 + i)), sp)
            run_cli("run", sp, "--out-map", pred_dir / f"scene_{i}.map.json",
                    "--trace", pred_dir / f"scene_{i}.trace.json")
            scenes.append(sp)
        reports = [tmp_path / f"r{jobs}.json" for jobs in (1, 2)]
        for jobs, report in zip((1, 2), reports):
            assert run_cli("eval", "--scene", *scenes, "--pred-dir", pred_dir, "--mot",
                           "--jobs", jobs, "--report", report) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

    def test_mixed_ranges_need_thresholds(self, scene_path, tmp_path, capsys):
        # each range has its own default AP thresholds; pooling the scenes
        # under either set would misscore the other
        small = tmp_path / "small.json"
        write_scene(make_scene(zero_noise_config("arc", range_lw=(60.0, 30.0), seed=7)), small)
        pred = tmp_path / "pred"
        pred.mkdir()
        for sp in (scene_path, small):
            assert run_cli("run", sp, "--out-map", pred / f"{sp.stem}.map.json",
                           "--trace", pred / f"{sp.stem}.trace.json") == 0
        assert run_cli("eval", "--scene", scene_path, small, "--pred-dir", pred, "--mot") == 1
        err = capsys.readouterr().err
        assert f"{scene_path} and {small}" in err
        assert "[1.0, 1.5, 2.0] and [0.5, 1.0, 1.5]" in err and "--thresholds" in err
        report = tmp_path / "r.json"
        assert run_cli("eval", "--scene", scene_path, small, "--pred-dir", pred, "--mot",
                       "--thresholds", "0.5,1.0", "--report", report) == 0
        assert json.loads(report.read_text())["ap_thresholds"] == [0.5, 1.0]

    def test_non_finite_map_names_field(self, scene_path, tmp_path, capsys):
        out_map = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        run_cli("run", scene_path, "--out-map", out_map, "--trace", trace)
        doc = json.loads(out_map.read_text())
        doc["instances"][1]["points"][0][1] = float("nan")
        out_map.write_text(json.dumps(doc))
        code = run_cli("eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
                       "--mot")
        assert code == 1
        assert "instances[1].points" in capsys.readouterr().err


    def test_non_integral_map_id_named(self, scene_path, tmp_path, capsys):
        out_map = tmp_path / "m.json"
        trace = tmp_path / "t.json"
        run_cli("run", scene_path, "--out-map", out_map, "--trace", trace)
        doc = json.loads(out_map.read_text())
        doc["instances"][1]["id"] = float("nan")
        out_map.write_text(json.dumps(doc))
        code = run_cli("eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace,
                       "--mot")
        assert code == 1
        assert "instances[1].id" in capsys.readouterr().err

    @pytest.mark.parametrize("wrong", ["pred-map", "trace", "pred-dir"])
    def test_other_scene_rejected(self, scene_path, tmp_path, capsys, wrong):
        other = tmp_path / "other.json"
        write_scene(make_scene(zero_noise_config("arc", seed=6)), other)
        pred = tmp_path / "pred"
        pred.mkdir()
        for sp, stem in ((scene_path, "own"), (other, "other")):
            run_cli("run", sp, "--out-map", pred / f"{stem}.map.json",
                    "--trace", pred / f"{stem}.trace.json")
        if wrong == "pred-dir":
            for kind in ("map", "trace"):
                (pred / f"other.{kind}.json").rename(pred / f"scene.{kind}.json")
            argv = ["--pred-dir", pred]
        else:
            stem = {"pred-map": ("other", "own"), "trace": ("own", "other")}[wrong]
            argv = ["--pred-map", pred / f"{stem[0]}.map.json",
                    "--trace", pred / f"{stem[1]}.trace.json"]
        code = run_cli("eval", "--scene", scene_path, *argv, "--mot")
        assert code == 1
        err = capsys.readouterr().err
        assert "'scene-arc-6'" in err and "'scene-arc-5'" in err


@pytest.mark.parametrize("value", ["inf0", "warning", "0"])
def test_unknown_log_level_usage_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("IC_MAPPER_LOG", value)
    with pytest.raises(SystemExit) as exc:
        run_cli("run", tmp_path / "missing.json", "--out-map", tmp_path / "m.json")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"IC_MAPPER_LOG={value!r}" in err and "error, warn, info, debug" in err, err


@pytest.mark.parametrize("value", ["", " ", "INFO", "debug ", "error"])
def test_known_log_level_accepted(tmp_path, monkeypatch, capsys, value):
    # past the level check the command runs: here, to a missing scene
    monkeypatch.setenv("IC_MAPPER_LOG", value)
    assert run_cli("run", tmp_path / "missing.json", "--out-map", tmp_path / "m.json") == 1
    assert "missing.json" in capsys.readouterr().err


class TestMalformedInput:
    """A bad scene, map or trace exits 1 with one `icmap: error:` line led by
    the file and naming the field, never a traceback."""

    @pytest.fixture()
    def outputs(self, scene_path, tmp_path):
        out_map, trace = tmp_path / "m.json", tmp_path / "t.json"
        assert run_cli("run", scene_path, "--out-map", out_map, "--trace", trace) == 0
        return out_map, trace

    @staticmethod
    def assert_named(capsys, path, named):
        err = capsys.readouterr().err
        assert err.startswith(f"icmap: error: {path}: ") and named in err, err

    @staticmethod
    def scene_reader_argv(command, scene_path, outputs, tmp_path):
        """The arguments of `command`, one of the three that read a scene."""
        out_map, trace = outputs
        return {"run": ["run", scene_path, "--out-map", tmp_path / "out.json"],
                "eval --mot": ["eval", "--scene", scene_path, "--pred-map", out_map,
                               "--trace", trace, "--mot"],
                "sweep-s": ["sweep-s", scene_path, "--s-grid", "0.5:1:0.5",
                            "--out", tmp_path / "s.tsv"]}[command]

    @pytest.mark.parametrize("case,named", [
        ("no class", "frames[2].instances[1]: missing field 'class'"),
        ("nan point", "frames[2].instances[1].points: non-finite value"),
        ("truncated", "not valid JSON"),
        ("top-level list", "expected an object"),
        ("version 99", "trace format_version '99' not supported"),
        ("no scene_id", "missing field 'scene_id'"),
        ("last frame cut", "frames: 19 frames, but the scene has 20"),
        ("no points", "frames[2].instances[1].points: expected at least one [x, y] pair"),
        ("scene_id number", "scene_id: expected a string"),
        ("deep scene_id", "scene_id: expected a string"),
    ])
    def test_bad_trace(self, scene_path, outputs, capsys, case, named):
        out_map, trace = outputs
        text = trace.read_text()
        doc = json.loads(text)
        inst = doc["frames"][2]["instances"][1]
        if case == "no class":
            del inst["class"]
        elif case == "nan point":
            inst["points"][3][0] = float("nan")
        elif case == "last frame cut":
            del doc["frames"][-1]
        elif case == "no points":
            inst["points"] = []
        elif case == "version 99":
            doc["format_version"] = "99"
        elif case == "no scene_id":
            del doc["scene_id"]
        elif case == "scene_id number":
            doc["scene_id"] = 5
        elif case == "deep scene_id":
            doc["scene_id"] = "DEEP"
        if case == "truncated":
            trace.write_text(text[: len(text) // 2])
        else:
            trace.write_text(json.dumps([doc] if case == "top-level list" else doc)
                             .replace('"DEEP"', "[" * 1100 + "]" * 1100))
        assert run_cli("eval", "--scene", scene_path, "--pred-map", out_map,
                       "--trace", trace, "--mot") == 1
        self.assert_named(capsys, trace, named)

    @pytest.mark.parametrize("case,named", [
        ("top-level list", "expected an object"),
        ("gt list", "gt: expected an object"),
        ("frame number", "frames[3]: expected an object"),
        ("frame list", "frames[3]: expected an object"),
        ("duplicate gt id", "gt.instances[2]: duplicate id 0"),
        ("range of three", "range: expected [length, width]"),
        # lists nested past the recursion limit, quoted in bounded form
        ("deep class", "gt.instances[0]: unknown class [[[[[[[...]]]]]]]"),
        ("deep version", "scene format_version [[[[[[[...]]]]]]] not supported"),
        ("scene_id number", "scene_id: expected a string"),
        ("deep scene_id", "scene_id: expected a string"),
        ("detection with 0 points", "frames[2].detections[0].points: expected at least 2"),
        ("detection with 1 point", "frames[2].detections[0].points: expected at least 2"),
        # a string is no number, though float() would read it
        ("string coordinate", "frames[2].detections[1].points: expected numbers"),
        # a missing list is an error, not an empty list
        ("no gt instances", "gt: missing field 'instances'"),
        ("no gt_local", "frames[3]: missing field 'gt_local'"),
        ("no detections", "frames[3]: missing field 'detections'"),
    ])
    def test_bad_scene(self, scene_path, tmp_path, capsys, case, named):
        doc = json.loads(scene_path.read_text())
        if case == "top-level list":
            doc = [doc]
        elif case == "gt list":
            doc["gt"] = doc["gt"]["instances"]
        elif case == "frame number":
            doc["frames"][3] = 3
        elif case == "frame list":
            doc["frames"][3] = ["t", "ego_pose"]
        elif case == "range of three":
            doc["range"] = [100.0, 50.0, 1.0]
        elif case == "deep class":
            doc["gt"]["instances"][0]["class"] = "DEEP"
        elif case == "deep version":
            doc["format_version"] = "DEEP"
        elif case == "scene_id number":
            doc["scene_id"] = 5
        elif case == "deep scene_id":
            doc["scene_id"] = "DEEP"
        elif case == "detection with 0 points":
            doc["frames"][2]["detections"][0]["points"] = []
        elif case == "detection with 1 point":
            del doc["frames"][2]["detections"][0]["points"][1:]
        elif case == "string coordinate":
            doc["frames"][2]["detections"][1]["points"][0] = ["1.5", "2"]
        elif case == "no gt instances":
            del doc["gt"]["instances"]
        elif case in ("no gt_local", "no detections"):
            del doc["frames"][3][case[3:]]
        else:
            doc["gt"]["instances"][2]["id"] = 0
        scene_path.write_text(json.dumps(doc).replace('"DEEP"', "[" * 1100 + "]" * 1100))
        assert run_cli("run", scene_path, "--out-map", tmp_path / "out.json") == 1
        self.assert_named(capsys, scene_path, named)

    @pytest.mark.parametrize("case,named", [
        ("empty", "frames[2].detections[0].embedding: empty embedding"),
        ("other length", "frames[2].detections[0].embedding: 15 values, but the scene's"
                         " first embedding has 16"),
        ("all zero", "frames[2].detections[0].embedding: all-zero embedding"),
    ])
    def test_bad_embedding(self, scene_path, tmp_path, capsys, case, named):
        doc = json.loads(scene_path.read_text())
        det = doc["frames"][2]["detections"][0]
        det["embedding"] = {"empty": [], "other length": det["embedding"][1:],
                            "all zero": [0.0] * len(det["embedding"])}[case]
        scene_path.write_text(json.dumps(doc))
        assert run_cli("run", scene_path, "--out-map", tmp_path / "out.json") == 1
        self.assert_named(capsys, scene_path, named)

    @pytest.mark.parametrize("case", ["swapped", "repeated"])
    @pytest.mark.parametrize("command", ["run", "eval --mot", "sweep-s"])
    def test_frame_times_must_increase(self, scene_path, outputs, tmp_path, capsys, case,
                                       command):
        doc = json.loads(scene_path.read_text())
        frames = doc["frames"]
        if case == "swapped":
            frames[2]["t"], frames[3]["t"] = frames[3]["t"], frames[2]["t"]
        else:
            frames[3]["t"] = frames[2]["t"]
        named = f"frames[3].t: 2, but the previous frame's t is {frames[2]['t']}"
        scene_path.write_text(json.dumps(doc))
        assert run_cli(*self.scene_reader_argv(command, scene_path, outputs, tmp_path)) == 1
        self.assert_named(capsys, scene_path, named)

    @pytest.mark.parametrize("extents", [[0.0, 50.0], [-100.0, 50.0], [100.0, 0.0]])
    @pytest.mark.parametrize("command", ["run", "eval --mot", "sweep-s"])
    def test_range_must_be_positive(self, scene_path, outputs, tmp_path, capsys, extents,
                                    command):
        doc = json.loads(scene_path.read_text())
        doc["range"] = extents
        scene_path.write_text(json.dumps(doc))
        assert run_cli(*self.scene_reader_argv(command, scene_path, outputs, tmp_path)) == 1
        self.assert_named(capsys, scene_path,
                          f"range: expected a positive length and width, got {extents}")

    @pytest.mark.parametrize("command,field", [
        ("run", "detections"), ("run", "gt_local"), ("eval", "map"), ("render", "map")])
    def test_crossing_needs_three_points(self, scene_path, outputs, tmp_path, capsys, command,
                                         field):
        # two points make no ring: the reader rejects the crossing, naming it
        out_map, _ = outputs
        path = out_map if field == "map" else scene_path
        doc = json.loads(path.read_text())
        if field == "map":
            where, insts = "instances", doc["instances"]
        else:
            k = next(k for k, fr in enumerate(doc["frames"])
                     if any(inst["class"] == "ped_crossing" for inst in fr[field]))
            where, insts = f"frames[{k}].{field}", doc["frames"][k][field]
        j = next(j for j, inst in enumerate(insts) if inst["class"] == "ped_crossing")
        del insts[j]["points"][2:]
        path.write_text(json.dumps(doc))
        svg = tmp_path / "o.svg"
        argv = {"run": ["run", scene_path, "--out-map", tmp_path / "out.json"],
                "eval": ["eval", "--scene", scene_path, "--pred-map", out_map],
                "render": ["render", out_map, "--out", svg]}[command]
        assert run_cli(*argv) == 1
        self.assert_named(capsys, path,
                          f"{where}[{j}].points: expected at least 3 [x, y] pairs")
        assert not svg.exists() and not (tmp_path / "out.json").exists()

    def test_non_utf8_scene(self, scene_path, tmp_path, capsys):
        scene_path.write_bytes(scene_path.read_bytes().replace(b"scene-arc-5", b"scene-\xe9"))
        assert run_cli("run", scene_path, "--out-map", tmp_path / "out.json") == 1
        self.assert_named(capsys, scene_path, "'utf-8' codec can't decode")

    def test_non_utf8_map(self, scene_path, outputs, capsys):
        out_map, trace = outputs
        out_map.write_bytes(out_map.read_bytes().replace(b"scene-arc-5", b"scene-\xe9"))
        assert run_cli("eval", "--scene", scene_path, "--pred-map", out_map,
                       "--trace", trace, "--mot") == 1
        self.assert_named(capsys, out_map, "'utf-8' codec can't decode")


def test_commands_load_neither_optimize_nor_interpolate(scene_path, tmp_path):
    # the assignment solver, the spline basis, the nearest-neighbour search
    # and the banded solve (LAPACK in numpy's own OpenBLAS) are icmap's own:
    # run, eval --mot and sweep-s load no scipy module at all
    out_map, trace = tmp_path / "m.json", tmp_path / "t.json"
    commands = [
        ["run", scene_path, "--out-map", out_map, "--trace", trace],
        ["eval", "--scene", scene_path, "--pred-map", out_map, "--trace", trace, "--mot",
         "--report", tmp_path / "r.json"],
        ["sweep-s", scene_path, "--s-grid", "0:1:0.5", "--out", tmp_path / "s.tsv"],
    ]
    code = ("import sys\n"
            "from icmap.cli import main\n"
            f"for args in {[[str(a) for a in c] for c in commands]!r}:\n"
            "    assert main(args) == 0, args\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "s.tsv").exists()


def test_log_level_follows_each_call(tmp_path, monkeypatch, capsys):
    # three calls in one process: the level is the calling environment's
    # each time, and the info line is printed once
    for value, name in (("warn", "a"), ("info", "b"), ("warn", "c")):
        monkeypatch.setenv("IC_MAPPER_LOG", value)
        assert run_cli("synth", "--seed", 3, "--out", tmp_path / f"{name}.json") == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if "wrote scene" in ln]
    assert lines == [f"INFO icmap: wrote scene {tmp_path / 'b.json'}"]


def test_parser_built_once_and_command_looked_up_per_call(tmp_path, monkeypatch):
    # the second call reuses the first call's parser, and runs the cmd_run
    # set on the module after the first call, as a tracer's wrapper is
    built, ran = [], []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for name in ("first", "second"):
            monkeypatch.setattr(cli, "cmd_run", lambda args, name=name: ran.append(name) or 0)
            assert run_cli("run", "s.json", "--out-map", tmp_path / "m.json") == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1] and ran == ["first", "second"]


class TestSweepCmd:
    def test_grid_rows(self, scene_path, tmp_path):
        out = tmp_path / "table.tsv"
        code = run_cli("sweep-s", scene_path, "--s-grid", "0:2:0.1", "--out", out)
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 21
        assert lines[0].startswith("s\tcd_")

    def test_single_value_grid(self, scene_path, tmp_path):
        out = tmp_path / "table.tsv"
        assert run_cli("sweep-s", scene_path, "--s-grid", "0.5:0.5:1", "--out", out) == 0
        assert len(out.read_text().strip().splitlines()) == 2

    def test_malformed_grid_usage_error(self, scene_path, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-s", scene_path, "--s-grid", "nope", "--out", tmp_path / "t.tsv")
        assert exc.value.code == 2

    @pytest.mark.parametrize("grid,count", [(f"0:{MAX_SGRID_VALUES}:1", str(MAX_SGRID_VALUES + 1)),
                                            ("0:1e6:1", "1000001"), ("0:1e10:1", "10000000001")])
    def test_long_grid_usage_error(self, scene_path, tmp_path, capsys, grid, count):
        # the grid's length is counted before any value is built
        t0 = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-s", scene_path, "--s-grid", grid, "--out", tmp_path / "t.tsv")
        assert time.perf_counter() - t0 < 0.5
        assert exc.value.code == 2
        assert f"has {count} values; at most {MAX_SGRID_VALUES}" in capsys.readouterr().err
        assert not (tmp_path / "t.tsv").exists()

    def test_longest_grid_accepted(self):
        assert len(_parse_sgrid(f"0:{MAX_SGRID_VALUES - 1}:1")) == MAX_SGRID_VALUES

    def test_plot_emitted(self, scene_path, tmp_path):
        out = tmp_path / "table.tsv"
        plot = tmp_path / "chart.svg"
        run_cli("sweep-s", scene_path, "--s-grid", "0:1:0.5", "--out", out, "--plot", plot)
        text = plot.read_text()
        assert text.startswith("<?xml") and "<svg" in text

    # sweep-s merges observations with the fit alone: association, fusion
    # and the pipeline's s do not apply to it
    @pytest.mark.parametrize("flag", [["--theta", "0.9"], ["--tau", "2"], ["--w-feat", "0.9"],
                                      ["--max-age", "3"], ["--n-sample", "5"],
                                      ["--expand", "5"], ["--no-fusion"]])
    def test_pipeline_flag_usage_error(self, scene_path, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-s", scene_path, "--s-grid", "1:1:1", "--out", tmp_path / "t.tsv", *flag)
        assert exc.value.code == 2
        assert not (tmp_path / "t.tsv").exists()

    @pytest.mark.parametrize("flag", [["--s", "0.5"], ["--s"]])
    def test_s_flag_names_grid(self, scene_path, tmp_path, capsys, flag):
        # --s is not an abbreviation of --s-grid: sweep-s has no such flag
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-s", scene_path, "--out", tmp_path / "t.tsv", *flag)
        assert exc.value.code == 2
        assert "unrecognized arguments: --s" in capsys.readouterr().err

    def test_config_flag_usage_error(self, scene_path, tmp_path, capsys):
        # the grid sets s, the fit's only setting, so sweep-s reads no config file
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("s = 0.5\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep-s", scene_path, "--s-grid", "1:1:1", "--out", tmp_path / "t.tsv",
                    "--config", cfg)
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "t.tsv").exists()

    def test_noisy_scene_argmin_in_band(self, tmp_path):
        # averaged over four noisy s-curve scenes, the error-minimizing s
        # falls in the recommended [0.1, 1.0] band for every class column
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "curvature = s_curve\nradius = 40\nroad_length = 64\ncrossing_count = 0\n"
            "frame_count = 18\nframe_spacing = 2.0\nrange = 60x30\njitter_sigma = 0.3\n"
        )
        assert run_cli("synth", "--config", cfg, "--seed", 4, "--count", 4,
                       "--out-dir", tmp_path, "--jobs", 2) == 0
        scenes = sorted(tmp_path.glob("scene_*.json"))
        out = tmp_path / "table.tsv"
        assert run_cli("sweep-s", *scenes, "--s-grid", "0:2:0.1", "--out", out,
                       "--jobs", 2) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split("\t")
        rows = [[float(v) for v in ln.split("\t")] for ln in lines[1:]]
        assert len(rows) == 21
        for col in range(1, len(header)):
            best = min(rows, key=lambda r: r[col])[0]
            assert 0.1 <= best <= 1.0, f"{header[col]} argmin {best}"


class TestRenderCmd:
    def test_empty_map(self, tmp_path):
        from icmap.mapstore import GlobalMap, save_map

        mpath = tmp_path / "m.json"
        save_map(GlobalMap("e"), mpath)
        out = tmp_path / "o.svg"
        assert run_cli("render", mpath, "--out", out) == 0
        assert "<svg" in out.read_text()

    def test_overlay_layers(self, scene_path, tmp_path):
        out_map = tmp_path / "m.json"
        run_cli("run", scene_path, "--out-map", out_map)
        out = tmp_path / "o.svg"
        assert run_cli("render", out_map, "--gt", scene_path, "--out", out) == 0
        text = out.read_text()
        assert 'id="gt-0"' in text and 'id="map-0"' in text

    def test_gt_without_maps(self, scene_path, tmp_path):
        # the ground truth alone is one panel, with an empty label and map
        outs = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for out in outs:
            assert run_cli("render", "--gt", scene_path, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        root = ElementTree.fromstring(outs[0].read_bytes())
        panels = root.findall("svg:g", ns)
        assert [g.get("id") for g in panels] == ["panel-0"]
        label, gt_group, map_group = panels[0]
        assert label.text is None
        assert (gt_group.get("id"), map_group.get("id")) == ("gt-0", "map-0")
        assert len(map_group) == 0
        gt = read_scene(scene_path).gt
        assert [el.tag.split("}")[1] for el in gt_group] == [
            "polyline" if gt.instances[k].is_polyline else "polygon" for k in sorted(gt.instances)]
        assert all(el.get("stroke-dasharray") == "6,4" for el in gt_group)

    def test_nothing_to_draw_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.svg"
        with pytest.raises(SystemExit) as exc:
            run_cli("render", "--out", out)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "maps" in err and "--gt" in err, err
        assert not out.exists()

    def test_byte_stable(self, scene_path, tmp_path):
        out_map = tmp_path / "m.json"
        run_cli("run", scene_path, "--out-map", out_map)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("render", out_map, "--out", a)
        run_cli("render", out_map, "--out", b)
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("jobs", [0, -1, os.cpu_count() + 1])
@pytest.mark.parametrize("command", [
    ["synth", "--count", "2", "--out-dir", "out"],
    ["eval", "--scene", "s.json", "--pred-dir", "pred"],
    ["sweep-s", "s.json", "--out", "t.tsv"],
])
def test_jobs_out_of_range_usage_error(command, jobs, capsys, tmp_path, monkeypatch):
    # rejected while parsing, before any pool starts: the named inputs need not exist
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--jobs", jobs)
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


# a valid command line of each subcommand, its scene the `scene_path` file
# and its outputs in the current directory
VALID_ARGV = {
    "synth": ["synth", "--out", "s.json"],
    "run": ["run", "SCENE", "--out-map", "m.json"],
    "eval": ["eval", "--scene", "SCENE", "--pred-map", "m.json", "--report", "r.json"],
    "sweep-s": ["sweep-s", "SCENE", "--out", "t.tsv"],
    "render": ["render", "--gt", "SCENE", "--out", "m.svg"],
}


def abbreviations():
    """(subcommand, abbreviation) for every long flag of every subcommand of
    `build_parser()`: the flag's longest proper prefix that is not itself a
    flag of the subcommand. A flag with no such prefix (`--s`) is left out."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    cases = []
    for command, subparser in sub.choices.items():
        flags = {f for a in subparser._actions for f in a.option_strings if f.startswith("--")}
        for flag in sorted(flags):
            prefixes = [flag[:end] for end in range(len(flag) - 1, 2, -1)]
            cases += [(command, p) for p in prefixes if p not in flags][:1]
    return cases


ABBREVIATIONS = abbreviations()


@pytest.mark.parametrize("command,abbrev", ABBREVIATIONS,
                         ids=[f"{c} {a}" for c, a in ABBREVIATIONS])
def test_abbreviated_flag_unrecognized(scene_path, tmp_path, monkeypatch, capsys, command,
                                       abbrev):
    monkeypatch.chdir(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as exc:
        run_cli(*[scene_path if arg == "SCENE" else arg for arg in VALID_ARGV[command]], abbrev)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {abbrev}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before
