"""A trace replays into its map: each frame's tracked instances, merged
through `pipeline.apply_tracked` as a run merges them, rebuild the map that
`icmap run` wrote, byte for byte."""
import json

import pytest

from icmap.cli import main
from icmap.curvefit import SmoothingFitParams
from icmap.instance import GlobalMap
from icmap.mapstore import save_map
from icmap.pipeline import apply_tracked, read_trace
from icmap.synth import make_scene, write_scene

from test_golden import SCENES


@pytest.fixture(scope="module", params=["merge_noisy", "merge_clean"])
def run_files(request, tmp_path_factory):
    """The map and trace that `icmap run` writes for a golden scene."""
    out = tmp_path_factory.mktemp(request.param)
    scene = out / "scene.json"
    write_scene(make_scene(SCENES[request.param]), scene)
    assert main(["run", str(scene), "--out-map", str(out / "map.json"),
                 "--trace", str(out / "trace.json")]) == 0
    return out


def replay_bytes(trace_path, fit, out_path, skip=None) -> bytes:
    """The bytes `save_map` writes for the trace's frames merged in order
    into an empty map, leaving out frame `skip`."""
    scene_id, frames = read_trace(trace_path)
    gmap = GlobalMap(scene_id)
    for k, tracked in enumerate(frames):
        if k != skip:
            apply_tracked(gmap, tracked, fit)
    save_map(gmap, out_path)
    return out_path.read_bytes()


def trace_fit(trace_path) -> SmoothingFitParams:
    return SmoothingFitParams(**json.loads(trace_path.read_text())["config"]["fit"])


def test_replay_rebuilds_the_map(run_files, tmp_path):
    trace = run_files / "trace.json"
    assert (replay_bytes(trace, trace_fit(trace), tmp_path / "replay.json")
            == (run_files / "map.json").read_bytes())


def test_replay_sees_the_fit(run_files, tmp_path):
    trace = run_files / "trace.json"
    assert trace_fit(trace) != SmoothingFitParams(s=1.0)
    assert (replay_bytes(trace, SmoothingFitParams(s=1.0), tmp_path / "replay.json")
            != (run_files / "map.json").read_bytes())


@pytest.mark.parametrize("skip", [0, 20, 39])
def test_replay_needs_every_frame(run_files, tmp_path, skip):
    trace = run_files / "trace.json"
    assert (replay_bytes(trace, trace_fit(trace), tmp_path / "replay.json", skip)
            != (run_files / "map.json").read_bytes())
