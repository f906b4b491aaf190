"""The benchmark's span wrapping still finds every import site it requires.

`pipebench/spans.py` times icmap by replacing each function in `SPANS` at
every module attribute that refers to it, and refuses to run when one of
its `REQUIRED_SITES` (a by-name import such as `polygon.dedupe_points`) is
gone. Its counters read the arguments of some spans (the classes of what
`geometric_affinity` scores, the buffer `associate_frame` gets). Those
checks otherwise run only under `pipebench/run.py --trace 1`; here a
refactor that drops a required import, leaves a span uncalled or changes
what a counter reads fails the test suite.
"""
import importlib
import importlib.util
from pathlib import Path

from icmap import cli, synth

from test_golden import SCENES

SPANS_PY = Path(__file__).resolve().parent.parent / "pipebench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("pipebench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_install_wraps_required_sites_and_undo_restores():
    spans = load_spans()
    mods = [importlib.import_module(f"icmap.{m}") for m in spans.MODULES]
    before = [(mod, dict(vars(mod))) for mod in mods]
    undo = spans.install(spans.Tracer())  # raises RuntimeError naming a missing site
    try:
        for name, (m, f) in spans.SPANS.items():
            assert getattr(importlib.import_module(f"icmap.{m}"), f).__wrapped_span__ == name
    finally:
        undo()
    for mod, attrs in before:
        for attr, val in attrs.items():
            assert getattr(mod, attr) is val, f"{mod.__name__}.{attr} not restored"


def traced_calls(tmp_path, config):
    """Calls per span of `run`, `eval --mot` and `sweep-s` on one scene,
    through the module attributes that install() wrapped."""
    spans = load_spans()
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        scene = tmp_path / "scene.json"
        synth.write_scene(synth.make_scene(config), scene)
        argv = [["run", scene, "--out-map", tmp_path / "scene.map.json",
                 "--trace", tmp_path / "scene.trace.json"],
                ["eval", "--scene", scene, "--pred-dir", tmp_path, "--mot"],
                ["sweep-s", scene, "--s-grid", "1:1:1", "--out", tmp_path / "sweep.tsv"]]
        for args in argv:
            assert cli.main([str(a) for a in args]) == 0
        tracer.count_metrics()
    finally:
        undo()
    return {name: tracer.calls[name] for name in spans.SPANS}


def test_traced_commands_call_every_span(tmp_path):
    calls = traced_calls(tmp_path, SCENES["merge_noisy"])
    assert [name for name, n in calls.items() if n == 0] == []


def test_traced_polygon_free_scene_calls_every_span_but_the_union(tmp_path):
    # pipebench's --trace 1 pass fails a merge_clean run on any other span
    # that records no calls, such as a dedupe that no polyline path reaches
    calls = traced_calls(tmp_path, SCENES["merge_clean"])
    assert [name for name, n in calls.items() if n == 0] == ["polygon.polygon_union"]
