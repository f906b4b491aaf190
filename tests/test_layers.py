"""The import layering of `src/icmap`, read from the source with `ast`.

`instance` holds the types every stage shares (map instances, the global
map, scenes and frames), so it sits below every stage; the generator, the
metrics and the renderer read maps without the map store, and the pipeline
runs scenes without the generator. Imports inside functions count.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icmap"
MODULES = {p.stem for p in SRC.glob("*.py")} - {"__init__"}


def icmap_imports(path: Path) -> set[str]:
    """The icmap modules that the module at `path` imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("icmap")):
            base = (node.module or "").removeprefix("icmap").lstrip(".")
            # `from . import polygon` names the module in its alias
            out |= {base.split(".")[0]} if base else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("icmap.")}
    return out & MODULES


GRAPH = {module: icmap_imports(SRC / f"{module}.py") for module in MODULES}


def test_graph_is_read():
    assert {"polygon", "curvefit", "fileio", "geometry", "instance"} <= GRAPH["mapstore"]


def test_instance_sits_below_every_stage():
    assert GRAPH["instance"] <= {"_kernels", "geometry", "errors"}


@pytest.mark.parametrize("module", ["synth", "metrics", "render"])
def test_map_readers_skip_the_map_store(module):
    assert "mapstore" not in GRAPH[module]


def test_pipeline_runs_scenes_without_the_generator():
    assert "synth" not in GRAPH["pipeline"]


def test_no_import_cycle():
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join([*path, module])}"
        if module in done:
            return
        for dep in sorted(GRAPH[module]):
            visit(dep, [*path, module])
        done.add(module)

    for module in sorted(GRAPH):
        visit(module, [])
