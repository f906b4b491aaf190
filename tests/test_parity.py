"""scripts/parity.py: the comparison of two trees' output files."""
import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parent.parent / "scripts" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_one_sided_keys_recorded_and_shared_keys_compared():
    old = {"config": {"assoc": {"w_geo": 0.7, "w_feat": 0.3}},
           "frames": [{"points": [[0.0, 1.0]], "a": 1.0}]}
    new = {"config": {"assoc": {"w_feat": 0.3}},
           "frames": [{"points": [[0.0, 1.5]], "b": 2}]}
    out, only = {}, set()
    parity.number_diffs(old, new, "", out, only)
    assert only == {"config.assoc.w_geo (old only)", "frames[].a (old only)",
                    "frames[].b (new only)"}
    assert out == {"w_feat": 0.0, "points": 0.5}


def test_length_difference_raises():
    with pytest.raises(parity.Mismatch, match="lengths 1 and 2 under 'frames'"):
        parity.number_diffs({"frames": [1.0]}, {"frames": [1.0, 2.0]}, "", {}, set())


def test_one_sided_key_counts_against_the_file(tmp_path, capsys):
    seeds = range(2)
    for side, config in (("old", {"fusion_enabled": True, "n_sample": 20}),
                         ("new", {"n_sample": 20})):
        wdir = tmp_path / side / "w"
        wdir.mkdir(parents=True)
        codes = {f"w/{s}": {"run": {"rc": 0, "error": ""}} for s in seeds}
        (tmp_path / side / "exit_codes.json").write_text(json.dumps(codes))
        for s in seeds:
            (wdir / f"scene_{s}.json").write_text("{}")
            (wdir / f"scene_{s}.trace.json").write_text(
                json.dumps({"config": config, "frames": [{"t": s}]}))
    assert parity.compare(tmp_path / "old", tmp_path / "new", ["w"], seeds) == (False, False)
    out = capsys.readouterr().out
    assert "trace.json   0/2 byte-identical, 0/2 same content" in out
    assert out.count("key in one tree only: config.fusion_enabled (old only)") == 1
    assert "scene.json   2/2 byte-identical" in out


def test_replay_report(tmp_path, capsys):
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    (tmp_path / "old" / "replay.json").write_text("null\n")
    (tmp_path / "new" / "replay.json").write_text(json.dumps({"w/0": True, "w/1": True}))
    assert parity.report_replays(tmp_path, ["w"], range(2)) is True
    (tmp_path / "new" / "replay.json").write_text(json.dumps({"w/0": True, "w/1": False}))
    assert parity.report_replays(tmp_path, ["w"], range(2)) is False
    out = capsys.readouterr().out
    assert "w, old tree: replay not available" in out
    assert "w, new tree: replay: 2/2 maps rebuilt byte for byte" in out
    assert "w, new tree: replay: 1/2 maps rebuilt byte for byte" in out
