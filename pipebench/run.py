#!/usr/bin/env python3
"""End-to-end benchmark of the icmap pipeline: `run`, `eval --mot`, `sweep-s`.

Run from the repository root:

    python3 pipebench/run.py --workload merge_noisy --seed 0 --seconds 50 --trace 0

A pass generates the workload's scenes from consecutive seeds (seed,
seed+1, ...) and runs `icmap run` on each until a set number of them,
never fewer than 200 frames' worth, has completed. Right after
its run, each completed scene is scored by `icmap eval --mot`, and every
SWEEP_EVERY-th of the first scenes gets one `icmap sweep-s`. Every command
goes in-process through `icmap.cli.main` with --jobs 1: one closed-loop
caller, one scene at a time.

How long a scene takes depends on the scene: the median frame latency of
single scenes ranges over almost a factor of two, and scenes that abort
add a few cheap frames. The shared host's speed also drifts, by up to half,
in phases of seconds to minutes. A run therefore spends --seconds on one
pass over many distinct scenes, as many completed ones as --seconds buys
on a 2-CPU host, and every timed command is one of many spread over the
whole run, so that each figure pools both the scene mix and the host's
phases: run_frames_per_s is all frames over all run time, frame_p50_ms and
frame_p95_ms are percentiles of every frame timing (the gaps between pulls
of `scene.frames` inside `run_scene`; frames of aborted runs count),
eval_s is the summed time of the evals (their number is fixed, so aborts
do not change it), sweep_s the mean time of a sweep, and setup_s the
median over the scenes of make_scene + write_scene. run_frames_per_s,
frame_p50_ms and sweep_s still swing past any bound between runs (see
UNBOUNDED), so the result line of a --trace 0 run leaves them out. The
quality figures are means over the scenes scored (id switches are summed).

With --trace 1 the run makes two passes over half as many scenes, the
first untraced and the second traced. The traced pass wraps each module's
public functions (see spans.py); its output holds the per-module spans and
counters, plus the tracing overhead: traced over untraced wall time. Both
passes must write the same bytes to every file (scenes, maps, traces,
eval report, sweep tables); a mismatch makes the result incorrect.

A command that exits non-zero or raises counts as failed, with its error
class and frame index. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""
import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import spans

# the pipeline is single-threaded; by default OpenBLAS would add a second thread
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".pipebench_work"

MIN_FRAMES = 200  # of completed scenes per pass, so that frame_p95_ms has 10 samples beyond it
SWEEP_EVERY = 2   # scene indices 0, 2, 4, ... below the completed count get a sweep-s
S_GRID = "1:1:1"  # one smoothing weight: a sweep's cost grows with the grid
MAX_SCENES_PER_COMPLETED = 4  # a pass that needs more scenes than this is broken


@dataclass(frozen=True)
class Workload:
    why: str
    scene: dict          # SceneConfig fields
    noise: dict          # NoiseConfig fields
    # seconds that one completed scene adds to a --trace 0 run on a 2-CPU
    # host: its set-up and run, its share of aborted scenes, sweeps and eval
    scene_s: float
    exempt: frozenset = frozenset()  # spans that may record no calls here


WORKLOADS = {
    "merge_noisy": Workload(
        why="merge-heavy: 3 lanes, 3 crossings, noisy detections; spline fits and polygon unions dominate",
        scene={"curvature": "s_curve", "frame_count": 40, "lane_count": 3, "crossing_count": 3,
               "range_lw": (100.0, 50.0)},
        noise={"jitter_sigma": 0.2, "dropout_prob": 0.1, "fp_rate": 0.5, "split_prob": 0.05},
        scene_s=3.9,
    ),
    "merge_clean": Workload(
        why="polygon-free: the merge_noisy road without crossings and with light noise; no polygon union runs",
        scene={"curvature": "s_curve", "frame_count": 40, "lane_count": 3, "crossing_count": 0,
               "range_lw": (100.0, 50.0)},
        noise={"jitter_sigma": 0.1, "dropout_prob": 0.05, "fp_rate": 0.2},
        scene_s=3.3,
        exempt=frozenset({"polygon.polygon_union"}),
    ),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "frame_p95_ms": "ms",
    "eval_s": "s",
    "peak_rss_mb": "MB",
}

# End-to-end timings that runs of the same code minutes apart put 30-50%
# apart on a shared 2-CPU host, past any bound a benchmark may set, while
# the END_TO_END ones moved less. Every run prints them; --trace 1 reports
# them, from its untraced pass, as "untraced.<name>" without a bound.
UNBOUNDED = {
    "run_frames_per_s": "1/s",
    "frame_p50_ms": "ms",
    "sweep_s": "s",
}

QUALITY = {  # name -> unit; deterministic, reported with the per-layer metrics
    "quality.mAP": "ratio",
    "quality.MOTA": "ratio",
    "quality.id_switches": "count",
    "quality.mCD_m": "m",
    "quality.sweep_cd_m": "m",
    "quality.scenes_scored": "count",
    "pipeline.frames": "count",
    "pipeline.scenes": "count",
    "pipeline.failed_frac": "ratio",
}


@dataclass
class Pass:
    setup_times: list = field(default_factory=list)  # make_scene + write_scene, one per scene
    run_times: list = field(default_factory=list)    # one per run command
    latencies: list = field(default_factory=list)    # one per frame, in scene order
    sweep_times: list = field(default_factory=list)  # one per sweep-s command
    sweep_errs: list = field(default_factory=list)   # fit errors from the sweep tables
    eval_times: list = field(default_factory=list)   # one per eval command
    reports: list = field(default_factory=list)      # quality of each completed scene
    wall_s: float = 0.0
    completed: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # file name -> bytes
    problems: list = field(default_factory=list)

    @property
    def scenes(self) -> int:
        return len(self.setup_times)


class RunProbe:
    """Times the gaps between pulls of `scene.frames` inside `run_scene`
    (by wrapping `icmap.cli.read_scene`) and notes the error class and frame
    index when `run_scene` raises."""

    def __init__(self, cli):
        self.cli = cli
        self.latencies: list[float] = []
        self.frame = None
        self.error = None

    def _frames(self, frames):
        for frame in frames:
            self.frame = frame.t
            t0 = perf_counter()
            yield frame
            self.latencies.append(perf_counter() - t0)

    def __enter__(self):
        self.saved = read, run = self.cli.read_scene, self.cli.run_scene

        def read_scene(path):
            scene = read(path)
            scene.frames = self._frames(scene.frames)
            return scene

        def run_scene(scene, params):
            try:
                return run(scene, params)
            except Exception as exc:
                self.error = type(exc).__name__
                raise

        self.cli.read_scene, self.cli.run_scene = read_scene, run_scene
        return self

    def __exit__(self, *exc):
        self.cli.read_scene, self.cli.run_scene = self.saved


def call_cli(cli, argv):
    """Run one icmap command in-process; returns (exit code, error class)."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            return None, type(exc).__name__
    return rc, None if rc == 0 else f"exit {rc}"


def one_pass(icmap, wl: Workload, seed: int, pdir: Path, completed: int) -> Pass:
    """Set up and run the workload's scenes until `completed` of them have
    completed, sweeping every SWEEP_EVERY-th of the first `completed`
    scenes and evaluating each completed one."""
    cli, synth = icmap.cli, icmap.synth
    p = Pass()
    pdir.mkdir(parents=True)
    start = perf_counter()
    while p.completed < completed:
        if p.scenes == MAX_SCENES_PER_COMPLETED * completed:
            p.problems.append(f"{p.completed} of {completed} scenes completed in {p.scenes} scenes")
            break
        scene_seed = seed + p.scenes
        path = pdir / f"scene_{scene_seed}.json"
        t0 = perf_counter()
        config = synth.SceneConfig(**wl.scene, noise=synth.NoiseConfig(**wl.noise), seed=scene_seed)
        synth.write_scene(synth.make_scene(config), path)
        p.setup_times.append(perf_counter() - t0)

        probe = RunProbe(cli)
        argv = ["run", path, "--out-map", pdir / f"{path.stem}.map.json",
                "--trace", pdir / f"{path.stem}.trace.json"]
        t0 = perf_counter()
        with probe:
            rc_run, err = call_cli(cli, argv)
        p.run_times.append(perf_counter() - t0)
        p.latencies += probe.latencies
        p.attempted += 1
        if rc_run == 0:
            p.completed += 1
            check_run(pdir, path, config.frame_count, len(probe.latencies), p.problems)
        else:
            p.failures.append({"command": "run", "scene_seed": scene_seed,
                               "error": probe.error or err, "frame": probe.frame})

        index = p.scenes - 1
        if index < completed and index % SWEEP_EVERY == 0:
            table = pdir / f"{path.stem}.sweep.tsv"
            t0 = perf_counter()
            rc, err = call_cli(cli, ["sweep-s", path, "--s-grid", S_GRID, "--out", table,
                                     "--jobs", 1])
            p.sweep_times.append(perf_counter() - t0)
            p.attempted += 1
            if rc == 0:
                p.sweep_errs += sweep_errors(table, p.problems)
            else:
                p.failures.append({"command": "sweep-s", "scene_seed": scene_seed, "error": err})

        if rc_run == 0:
            report = pdir / f"{path.stem}.eval.json"
            t0 = perf_counter()
            rc, err = call_cli(cli, ["eval", "--scene", path, "--pred-dir", pdir, "--mot",
                                     "--report", report, "--jobs", 1])
            p.eval_times.append(perf_counter() - t0)
            p.attempted += 1
            if rc == 0:
                p.reports.append(eval_report(report, p.problems))
            else:
                p.failures.append({"command": "eval", "scene_seed": scene_seed, "error": err})
    p.wall_s = perf_counter() - start

    p.outputs = {f.name: f.read_bytes() for f in sorted(pdir.iterdir())}
    shutil.rmtree(pdir)
    return p


def check_run(pdir, scene_path, frame_count, frames_timed, problems):
    trace = json.loads((pdir / f"{scene_path.stem}.trace.json").read_text())
    gmap = json.loads((pdir / f"{scene_path.stem}.map.json").read_text())
    if len(trace["frames"]) != frame_count or frames_timed != frame_count:
        problems.append(f"{scene_path.name}: {len(trace['frames'])} traced and "
                        f"{frames_timed} timed frames, expected {frame_count}")
    pts = [v for inst in gmap["instances"] for xy in inst["points"] for v in xy]
    if not gmap["instances"] or not all(math.isfinite(v) for v in pts):
        problems.append(f"{scene_path.name}: map is empty or has non-finite points")


def eval_report(report_path, problems) -> dict:
    rep = json.loads(report_path.read_text())
    q = {
        "quality.mAP": rep["mAP"],
        "quality.MOTA": statistics.fmean(rep["mota"].values()),
        "quality.id_switches": sum(rep["id_switches"].values()),
        "quality.mCD_m": rep["mCD"],
    }
    if not (0.0 <= q["quality.mAP"] <= 1.0 and q["quality.MOTA"] <= 1.0
            and math.isfinite(q["quality.MOTA"]) and 0.0 <= q["quality.mCD_m"] < math.inf):
        problems.append(f"eval report out of range: {q}")
    return q


def sweep_errors(table_path, problems) -> list[float]:
    rows = [ln.split("\t") for ln in table_path.read_text().strip().splitlines()[1:]]
    vals = [float(v) for row in rows for v in row[1:]]
    if not vals or not all(math.isfinite(v) and v >= 0 for v in vals):
        problems.append(f"{table_path.name}: no rows or non-finite fit errors")
        return []
    return vals


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(p: Pass, peak_rss_mb) -> dict:
    return {
        "setup_s": statistics.median(p.setup_times),
        "run_frames_per_s": len(p.latencies) / sum(p.run_times),
        "frame_p50_ms": percentile(p.latencies, 50) * 1e3,
        "frame_p95_ms": percentile(p.latencies, 95) * 1e3,
        "eval_s": sum(p.eval_times),
        "sweep_s": statistics.fmean(p.sweep_times) if p.sweep_times else math.nan,
        "peak_rss_mb": peak_rss_mb,
    }


def quality(p: Pass) -> dict:
    """Quality averaged over the scenes scored, id switches summed over them."""
    q = {}
    if p.reports:
        q = {name: statistics.fmean(r[name] for r in p.reports) for name in p.reports[0]}
        q["quality.id_switches"] = sum(r["quality.id_switches"] for r in p.reports)
    if p.sweep_errs:
        q["quality.sweep_cd_m"] = statistics.fmean(p.sweep_errs)
    q["quality.scenes_scored"] = len(p.reports)
    q["pipeline.frames"] = len(p.latencies)
    q["pipeline.scenes"] = p.scenes
    q["pipeline.failed_frac"] = len(p.failures) / p.attempted
    return q


def per_layer(tracer, traced: Pass, plain: Pass, e2e: dict, wl: Workload, problems) -> dict:
    out = {}
    for name in spans.SPANS:
        calls = tracer.calls[name]
        if calls == 0 and name not in wl.exempt:
            problems.append(f"span {name} recorded no calls")
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (tracer.incl[name], "s")
        out[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for name, val in tracer.count_metrics().items():
        out[name] = (val, spans.COUNTS[name])
    q = quality(traced)
    for name, unit in QUALITY.items():
        out[name] = (q.get(name, math.nan), unit)
    out["trace.overhead_ratio"] = (traced.wall_s / plain.wall_s - 1.0, "ratio")
    for name, unit in UNBOUNDED.items():
        out[f"untraced.{name}"] = (e2e[name], unit)
    return out


def check_transparent(plain: Pass, traced: Pass, problems):
    """The traced pass must write the same files, byte for byte, as the untraced one."""
    missing = sorted(plain.outputs.keys() ^ traced.outputs.keys())
    differ = sorted(n for n in plain.outputs.keys() & traced.outputs.keys()
                    if plain.outputs[n] != traced.outputs[n])
    if missing or differ:
        problems.append(f"traced pass: files in one pass only {missing[:5]}, "
                        f"bytes differ from the untraced pass {differ[:5]}")
    if len(plain.latencies) != len(traced.latencies):
        problems.append(f"passes timed {len(plain.latencies)} and {len(traced.latencies)} frames")


def steal_seconds() -> float:
    """Host-stolen CPU time of this machine so far (0 where /proc is absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def environment(wall_s, cpu_s, steal_s) -> dict:
    import numpy
    import scipy

    return {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "steal_s": steal_s,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas_threads": BLAS_PIN,
        "platform": platform.platform(),
    }


def load_icmap():
    if not (SRC / "icmap" / "__init__.py").is_file():
        raise SystemExit(f"pipebench: no icmap sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"icmap.{m}") for m in ("cli", "synth")}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "icmap":
        raise SystemExit(f"pipebench: imported icmap from {mods['cli'].__file__}, not {SRC}")
    return argparse.Namespace(**mods)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.environ.update(BLAS_PIN)  # before icmap imports numpy
    icmap = load_icmap()

    # a scene count per --seconds, not a time-driven loop: the scene mix a
    # run measures must not depend on host speed. --trace 1 makes two passes
    # of half as many scenes.
    completed = max(-(-MIN_FRAMES // wl.scene["frame_count"]),
                    round(args.seconds / wl.scene_s) // (1 + args.trace))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer()
    passes: list[Pass] = []
    start, cpu0, steal0 = perf_counter(), process_time(), steal_seconds()
    try:
        for traced in (False, True)[:1 + args.trace]:
            undo = spans.install(tracer) if traced else None
            try:
                passes.append(one_pass(icmap, wl, args.seed, workdir / f"pass{len(passes)}",
                                       completed))
            finally:
                if undo:
                    undo()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    plain = passes[0]
    problems = [f"pass {i}: {msg}" for i, p in enumerate(passes) for msg in p.problems]
    e2e = end_to_end(plain, peak_rss_mb)
    if args.trace:
        check_transparent(plain, passes[1], problems)
        metrics = per_layer(tracer, passes[1], plain, e2e, wl, problems)
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    missing = sorted(name for name, (v, _) in metrics.items() if not math.isfinite(v))
    if missing:
        problems.append(f"metrics without a value: {missing}")

    print(f"workload {args.workload}: {wl.why}")
    env = environment(perf_counter() - start, process_time() - cpu0, steal_seconds() - steal0)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{len(passes)} pass(es), each over {plain.scenes} scenes "
          f"(seeds {args.seed}..{args.seed + plain.scenes - 1}): {plain.completed} completed, "
          f"{len(plain.latencies)} frames, {len(plain.sweep_times)} swept")
    for name, unit in {**END_TO_END, **UNBOUNDED}.items():
        print(f"  {name:<18} {e2e[name]:12.4f} {unit}{'  (no bound)' if name in UNBOUNDED else ''}")
    print(f"quality over {len(plain.reports)} scored scene(s); failed_frac "
          f"{len(plain.failures)}/{plain.attempted} commands in pass 0")
    for name, val in sorted(quality(plain).items()):
        print(f"  {name:<24} {val:12.6f} {QUALITY[name]}")
    for f in plain.failures:
        print("  failure " + json.dumps(f, sort_keys=True))
    if args.trace:
        for name, (val, unit) in metrics.items():
            print(f"  {name:<44} {val:14.6f} {unit}")
    for msg in problems:
        print(f"PROBLEM {msg}")

    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(len(p.failures) for p in passes),
        "metrics": {name: {"value": val if math.isfinite(val) else None, "unit": unit}
                    for name, (val, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
