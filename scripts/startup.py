#!/usr/bin/env python3
"""Start-up time and memory of two icmap source trees, in fresh processes.

    python3 scripts/startup.py OLD_SRC NEW_SRC [--runs N]

OLD_SRC and NEW_SRC are `src/` directories (each holding `icmap/`), as for
scripts/parity.py. pipebench/run.py calls `icmap.cli.main` in one process,
so it sees a command's memory but not what the command pays to start. Here
every measurement is a new interpreter, with BLAS pinned to one thread and
PYTHONPATH set to the tree alone, for four commands:

    import   python -c "import icmap.cli"
    run      python -m icmap.cli run SCENE --out-map MAP --trace TRACE
    eval     python -m icmap.cli eval --scene SCENE --pred-map MAP --trace TRACE --mot ...
    sweep-s  python -m icmap.cli sweep-s SCENE --s-grid 1:1:1 --out TABLE

SCENE is seed SEED of pipebench's merge_clean workload (its WORKLOADS table,
imported, not copied). NEW_SRC writes it, and runs it once for the map and
trace that `eval` reads, before any timing; the timed runs write their own
map and trace. `sweep-s` gets pipebench's one smoothing weight. The trees
alternate in the order old, new, new, old, ..., so that a drift of the
host's speed falls on both. For each command and tree the script prints the
median wall time and the median of each child's maximum resident set size
(`os.wait4`'s rusage) over the N runs, then new over old for both. It exits
1 if a child fails.
"""
import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from parity import BLAS_PIN, load_workloads

SEED = 0
WORKLOAD = "merge_clean"
CLI = [sys.executable, "-m", "icmap.cli"]


def measure(argv: list, src: Path) -> tuple[float, float]:
    """(wall seconds, max RSS in MB) of one child running `argv`."""
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"startup: {' '.join(argv)} under {src} exited {proc.returncode}: "
                             f"{err.read().decode(errors='replace').strip()}")
    return wall, usage.ru_maxrss / 1024  # Linux reports KiB


def write_scene(src: Path, path: Path) -> None:
    wl = load_workloads()[WORKLOAD]
    code = ("import sys\n"
            "from icmap.synth import NoiseConfig, SceneConfig, make_scene, write_scene\n"
            f"config = SceneConfig(**{wl.scene!r}, noise=NoiseConfig(**{wl.noise!r}), seed={SEED})\n"
            "write_scene(make_scene(config), sys.argv[1])\n")
    measure([sys.executable, "-c", code, str(path)], src)


def run_argv(scene: Path, out: Path) -> list:
    return [*CLI, "run", str(scene),
            "--out-map", str(out.with_suffix(".map.json")),
            "--trace", str(out.with_suffix(".trace.json"))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--runs", type=int, default=10, help="measurements per command and tree")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for src in trees.values():
        if not (src / "icmap" / "__init__.py").is_file():
            raise SystemExit(f"startup: no icmap package under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        scene = tmp / "scene.json"
        write_scene(trees["new"], scene)
        measure(run_argv(scene, tmp / "pred"), trees["new"])
        commands = {
            "import": [sys.executable, "-c", "import icmap.cli"],
            "run": run_argv(scene, tmp / "run"),
            "eval": [*CLI, "eval", "--scene", str(scene), "--pred-map", str(tmp / "pred.map.json"),
                     "--trace", str(tmp / "pred.trace.json"), "--mot",
                     "--report", str(tmp / "eval.json")],
            "sweep-s": [*CLI, "sweep-s", str(scene), "--s-grid", "1:1:1",
                        "--out", str(tmp / "sweep.tsv")],
        }
        results = {(c, t): [] for c in commands for t in trees}
        for i in range(args.runs):
            order = ("old", "new") if i % 2 == 0 else ("new", "old")
            for command, cmd_argv in commands.items():
                for tree in order:
                    results[command, tree].append(measure(cmd_argv, trees[tree]))
    print(f"{'command':8} {'tree':7} {'wall_s':>8} {'max_rss_mb':>10}   medians of {args.runs} runs")
    for command in commands:
        med = {}
        for tree in trees:
            walls, rss = zip(*results[command, tree])
            med[tree] = statistics.median(walls), statistics.median(rss)
            print(f"{command:8} {tree:7} {med[tree][0]:8.3f} {med[tree][1]:10.1f}")
        print(f"{command:8} {'new/old':7} {med['new'][0] / med['old'][0]:8.3f} "
              f"{med['new'][1] / med['old'][1]:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
