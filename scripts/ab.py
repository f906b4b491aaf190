#!/usr/bin/env python3
"""Paired timing of one icmap command on two source trees, scene by scene.

    python3 scripts/ab.py OLD_SRC NEW_SRC --workload W --command run|eval|sweep|setup
                          [--scenes 12] [--rounds 4]

OLD_SRC and NEW_SRC are `src/` directories (each holding `icmap/`), as for
scripts/parity.py. Each tree gets one warm worker process, with BLAS pinned
to one thread, that imports icmap from that tree alone and runs commands
in-process through `icmap.cli.main`, as pipebench/run.py does. The scenes
come from pipebench's workload W (its WORKLOADS table, imported, not
copied): a third process, of OLD_SRC, writes seeds 0, 1, ... and
runs `icmap run` on each until SCENES of them have completed, and those
scenes, with its map and trace, are the input of every timed command:

    run    icmap run SCENE --out-map MAP --trace TRACE, each frame timed too
    eval   icmap eval --scene SCENE --pred-dir DIR --mot --report REPORT --jobs 1
    sweep  icmap sweep-s SCENE --s-grid 1:1:1 --out TABLE --jobs 1
    setup  make_scene + write_scene of SCENE's seed, timed in the worker

Writing the inputs in a third process keeps the two timed ones alike: when
one of them wrote them, it ran about 4% faster than the other in A/A runs
of `run`. Each worker first runs its command on every scene untimed, then
ROUNDS timed passes over the scenes follow. For each scene the two trees
run the same command on the same input one after the other, the first
tree alternating from scene to scene in the order old, new, new, old, ...,
so that a drift of the host's speed falls on both sides. A pair is one
scene of one round: the ratio of the new tree's wall time to the old
tree's. The script prints each side's median time, the median ratio with a
bootstrap 95% interval and the number of pairs, and says whether the two
trees wrote byte-identical outputs (map and trace, eval report, sweep table
or scene, per scene) with the same exit codes and error text. It exits 1
if they did not.

A `run` worker also times each frame as pipebench does (its `RunProbe`,
imported: the gaps between pulls of `scene.frames` inside `run_scene`), and
beside the whole-run ratio the script prints each tree's 95th percentile
of those frame times, pooled over every frame of the timed rounds: the
benchmark's bounded `frame_p95_ms`, which a mean-frame ratio does not show.

The interval comes from 2,000 seeded resamples of the scenes, each scene
with all of its rounds: the rounds of one scene are correlated, so the
scene, not the pair, is the independent unit. Resampling the pairs as if
they were independent gave intervals too narrow to trust (an A/A-like run
read 0.976, 0.946-0.998).

A ratio below 1.0 means the new tree is faster. Run the same tree on both
sides (an A/A run) to see the interval that host noise alone gives.
"""
import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from parity import BLAS_PIN, call, import_icmap, load_pipebench

BOOTSTRAP = 2000
MAX_SEEDS_PER_SCENE = 4  # a workload that needs more seeds than this per completed scene is broken
BENCH = load_pipebench()  # its WORKLOADS, RunProbe and percentile


# ---------------------------------------------------------------------------
# worker: one source tree, one command at a time from standard input

def worker(src: Path) -> None:
    """Answer each JSON request line on standard input with one JSON line:
    {"scene": [workload, seed, path]} writes a scene, {"argv": [...], "out":
    dir} runs one icmap command; either reports its exit code, its error
    text (with `dir` written `<out>`) and its seconds, and `run` the
    seconds of each of its frames."""
    cli, synth = import_icmap(src, "ab")
    reply = sys.stdout
    for line in sys.stdin:
        req = json.loads(line)
        t0 = perf_counter()
        if "scene" in req:
            name, seed, path = req["scene"]
            wl = BENCH.WORKLOADS[name]
            config = synth.SceneConfig(**wl.scene, noise=synth.NoiseConfig(**wl.noise), seed=seed)
            synth.write_scene(synth.make_scene(config), path)
            out = {"rc": 0, "error": ""}
        elif req["argv"][0] == "run":
            with BENCH.RunProbe(cli) as probe:
                out = call(cli, req["argv"], Path(req["out"]))
            out["frames"] = probe.latencies
        else:
            out = call(cli, req["argv"], Path(req["out"]))
        out["s"] = perf_counter() - t0
        reply.write(json.dumps(out) + "\n")
        reply.flush()


class Worker:
    def __init__(self, src: Path):
        env = {**os.environ, **BLAS_PIN, "PYTHONPATH": ""}
        self.proc = subprocess.Popen([sys.executable, __file__, str(src), str(src), "--worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=env)

    def ask(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab: a worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


# ---------------------------------------------------------------------------
# the paired runs

def command(name: str, scene: Path, out: Path, workload: str) -> dict:
    """The worker request of command `name` on `scene`, of `workload`,
    writing under `out`; eval reads the map and trace beside the scene, and
    setup writes the scene from its seed."""
    if name == "setup":
        seed = int(scene.stem.removeprefix("scene_"))
        return {"scene": [workload, seed, str(out / scene.name)]}
    if name == "run":
        argv = ["run", scene, "--out-map", out / f"{scene.stem}.map.json",
                "--trace", out / f"{scene.stem}.trace.json"]
    elif name == "eval":
        argv = ["eval", "--scene", scene, "--pred-dir", scene.parent, "--mot",
                "--report", out / f"{scene.stem}.eval.json", "--jobs", 1]
    else:
        argv = ["sweep-s", scene, "--s-grid", "1:1:1",
                "--out", out / f"{scene.stem}.sweep.tsv", "--jobs", 1]
    return {"argv": [str(a) for a in argv], "out": str(out)}


def bootstrap_interval(groups: list, rng: random.Random) -> tuple[float, float]:
    """A 95% interval of the median ratio, from `groups` (lists of ratios)
    resampled with replacement, each group whole."""
    medians = sorted(statistics.median([r for g in rng.choices(groups, k=len(groups)) for r in g])
                     for _ in range(BOOTSTRAP))
    return medians[int(0.025 * BOOTSTRAP)], medians[int(0.975 * BOOTSTRAP) - 1]


def pooled_p95(runs: list) -> float:
    """pipebench's `frame_p95_ms`, in seconds, of the frame times of `runs`
    (one list per run) pooled into one sample: not a mean of per-run
    percentiles, so a run of many frames weighs more than one of few."""
    return BENCH.percentile([s for run in runs for s in run], 95)


def quartiles(values: list) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return f"{q2 * 1e3:8.1f} ms (quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f})"


def completed_scenes(old: "Worker", args, inputs: Path) -> tuple[list, int]:
    """The first `args.scenes` scenes, from seed 0 on, whose `run` on the
    old tree completes, with its map and trace beside them under `inputs`;
    and the seed after the last one tried."""
    inputs.mkdir()
    scenes, seed = [], 0
    while len(scenes) < args.scenes:
        if seed == MAX_SEEDS_PER_SCENE * args.scenes:
            raise SystemExit(f"ab: {len(scenes)} of {args.scenes} scenes completed in {seed} seeds")
        scene = inputs / f"scene_{seed}.json"
        old.ask(command("setup", scene, inputs, args.workload))
        if old.ask(command("run", scene, inputs, args.workload))["rc"] == 0:
            scenes.append(scene)
        seed += 1
    return scenes, seed


def paired_runs(workers: dict, name: str, workload: str, scenes: list, rounds: int, tmp: Path):
    """Each side's times, its exit code and error text per scene, per scene
    the new/old ratio of each of its pairs, one per round, and each side's
    frame times, one list per timed command; each side writes under
    tmp/<side>."""
    outs = {side: tmp / side for side in workers}
    for side, out in outs.items():
        out.mkdir()
        for scene in scenes:  # an untimed pass, so that both sides start as warm
            workers[side].ask(command(name, scene, out, workload))
    times = {side: [] for side in workers}
    frames = {side: [] for side in workers}
    codes = {side: {} for side in workers}
    ratios = [[] for _ in scenes]
    for r in range(rounds):
        for i, scene in enumerate(scenes):
            got = {}
            for side in ("old", "new") if (r * len(scenes) + i) % 2 == 0 else ("new", "old"):
                got[side] = workers[side].ask(command(name, scene, outs[side], workload))
                times[side].append(got[side]["s"])
                frames[side].append(got[side].get("frames", []))
                codes[side][scene.stem] = (got[side]["rc"], got[side]["error"])
            ratios[i].append(got["new"]["s"] / got["old"]["s"])
    return times, codes, ratios, frames


def differences(old: Path, new: Path, codes: dict) -> tuple[list, int]:
    """The output files of one side that the other lacks or holds other bytes
    in, and the scenes whose exit code or error text differ; and the number
    of files the old side wrote."""
    names = sorted({p.name for p in old.iterdir()} | {p.name for p in new.iterdir()})
    differ = [name for name in names if not ((old / name).is_file() and (new / name).is_file())
              or (old / name).read_bytes() != (new / name).read_bytes()]
    differ += [f"{stem} (exit code or error text)" for stem in codes["old"]
               if codes["old"][stem] != codes["new"][stem]]
    return differ, len(list(old.iterdir()))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--workload", choices=sorted(BENCH.WORKLOADS))
    ap.add_argument("--command", choices=("run", "eval", "sweep", "setup"))
    ap.add_argument("--scenes", type=int, default=12, help="completed scenes to time")
    ap.add_argument("--rounds", type=int, default=4, help="passes over the scenes")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:  # old_src is the tree
        worker(args.old_src.resolve())
        return 0
    if args.workload is None or args.command is None:
        ap.error("--workload and --command are required")
    if args.scenes < 1 or args.rounds < 1:
        ap.error("--scenes and --rounds must be at least 1")
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    for src in trees.values():
        if not (src / "icmap" / "__init__.py").is_file():
            raise SystemExit(f"ab: no icmap package under {src}")
    with tempfile.TemporaryDirectory(prefix="icmap-ab-") as tmp:
        # a process of its own writes the inputs (see the module docstring)
        setup = Worker(trees["old"])
        try:
            scenes, seed = completed_scenes(setup, args, Path(tmp) / "inputs")
        finally:
            setup.close()
        workers = {}
        try:
            workers = {side: Worker(src) for side, src in trees.items()}
            times, codes, by_scene, frames = paired_runs(workers, args.command, args.workload, scenes,
                                                 args.rounds, Path(tmp))
        finally:
            for w in workers.values():
                w.close()
        differ, files = differences(Path(tmp) / "old", Path(tmp) / "new", codes)
    low, high = bootstrap_interval(by_scene, random.Random(0))
    ratios = [r for scene in by_scene for r in scene]
    print(f"ab: {args.command} on {args.workload}, {len(scenes)} scenes (seeds 0.."
          f"{seed - 1}, those whose run completes on the old tree) x {args.rounds} rounds")
    for side in trees:
        print(f"  {side}  {quartiles(times[side])}   {trees[side]}")
    faster = sum(x < 1.0 for x in ratios)
    print(f"  new/old  median {statistics.median(ratios):.3f}, 95% interval "
          f"{low:.3f}-{high:.3f} (scenes resampled), {len(ratios)} pairs; new faster in "
          f"{faster} of {len(ratios)}")
    if args.command == "run":
        p95 = {side: pooled_p95(frames[side]) for side in trees}
        count = sum(map(len, frames["old"]))
        print(f"  frame p95  old {p95['old'] * 1e3:.2f} ms, new {p95['new'] * 1e3:.2f} ms, "
              f"new/old {p95['new'] / p95['old']:.3f} ({count} frames per tree, pooled)")
    if differ:
        print(f"  outputs differ: {', '.join(differ)}")
    else:
        print(f"  outputs byte-identical: {files} files, exit codes and error text of "
              f"{len(scenes)} scenes")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
