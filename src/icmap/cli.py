"""Command-line entry point: synth, run, eval, sweep-s, render."""
from __future__ import annotations

import argparse
import difflib
import logging
import math
import os
import sys
from dataclasses import fields, is_dataclass, replace
from functools import cache, partial
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .curvefit import SweepTable, sweep_smoothing
from .errors import MapBuildError, MapFormatError, MissingEmbedding
from .fileio import write_doc
from .instance import CLASSES
from .metrics import (
    DEFAULT_MOT_GATE,
    EvalReport,
    MotCounts,
    clear_mot_counts,
    default_thresholds,
    frame_distances,
    global_map_cd,
    instance_ap,
)
from .mapstore import load_map, save_map
from .pipeline import PipelineParams, read_trace, run_scene, scene_gt_frames, scene_observations
from .render import render_svg, sweep_chart_svg
from .synth import SceneConfig, make_scene, read_scene, write_scene

log = logging.getLogger("icmap")
# the one handler of icmap's loggers, attached by the first `main` call of a
# process; later calls only set the level, so no line is printed twice
_log_handler = logging.StreamHandler()
_log_handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging(parser: argparse.ArgumentParser):
    """Log at the IC_MAPPER_LOG level, warn when unset or empty; any other
    value is a usage error. Every call sets the level anew."""
    level = os.environ.get("IC_MAPPER_LOG", "").strip().lower() or "warn"
    if level not in _LOG_LEVELS:
        parser.error(f"IC_MAPPER_LOG={os.environ['IC_MAPPER_LOG']!r} is not a log level; "
                     f"expected one of {', '.join(_LOG_LEVELS)}")
    log.setLevel(_LOG_LEVELS[level])
    _log_handler.stream = sys.stderr  # as it is now: a caller may have redirected it
    if _log_handler not in log.handlers:
        log.addHandler(_log_handler)


def _finite_float(text: str) -> float:
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return val


def _positive_float(text: str) -> float:
    val = _finite_float(text)
    if val <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive number")
    return val


def _positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if val < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return val


def _parse_range(text: str) -> tuple[float, float]:
    extents = text.lower().split("x")
    if len(extents) != 2:
        raise argparse.ArgumentTypeError(
            f"invalid range {text!r}; expected LENGTHxWIDTH, e.g. 100x50")
    return _positive_float(extents[0]), _positive_float(extents[1])


MAX_SGRID_VALUES = 1000  # the default grid has 21


def _parse_sgrid(text: str) -> list[float]:
    bounds = text.split(":")
    if len(bounds) != 3:
        raise argparse.ArgumentTypeError(f"invalid s grid {text!r}; expected start:stop:step")
    start, stop, step = (_finite_float(v) for v in bounds)
    if step <= 0 or stop < start or start < 0:
        raise argparse.ArgumentTypeError("s grid needs start >= 0, stop >= start, step > 0")
    # the length np.arange gives the grid, counted before any value is built
    count = np.ceil((stop + step / 2 - start) / step)
    if count > MAX_SGRID_VALUES:
        raise argparse.ArgumentTypeError(
            f"s grid {text!r} has {count:.0f} values; at most {MAX_SGRID_VALUES} are allowed")
    return [round(v, 10) for v in np.arange(start, stop + step / 2, step)]


def _parse_thresholds(text: str) -> list[float]:
    vals = [_positive_float(v) for v in text.split(",") if v.strip()]
    if not vals:
        raise argparse.ArgumentTypeError(
            f"invalid thresholds {text!r}; expected positive numbers, e.g. 0.5,1.0,1.5")
    return vals


def _parse_jobs(text: str) -> int:
    jobs = _positive_int(text)
    cap = os.cpu_count() or 1
    if jobs > cap:
        raise argparse.ArgumentTypeError(
            f"job count {jobs} out of range; expected 1 to {cap} (the CPU count)"
        )
    return jobs


def load_config(path) -> dict[str, str]:
    """Parse a `key = value` config file; '#' starts a comment. A key given
    twice is an error."""
    cfg: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MapBuildError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in line_of:
                raise MapBuildError(f"{path}:{lineno}: config key {key!r} repeats the one "
                                    f"on line {line_of[key]}")
            line_of[key] = lineno
            cfg[key] = val
    return cfg


# how a config file parses a field of each declared type
_PARSERS = {float: _finite_float, int: int, str: str, tuple[float, float]: _parse_range}
# fields the config file spells differently; every other key is a field name
_FILE_KEYS = {"range_lw": "range"}


def _nested(f) -> type | None:
    """The dataclass a field holds (`noise`, `assoc`, `fit`), else None."""
    return f.default_factory if is_dataclass(f.default_factory) else None


def _config_keys(cls) -> set[str]:
    keys: set[str] = set()
    for f in fields(cls):
        sub = _nested(f)
        keys |= _config_keys(sub) if sub else {_FILE_KEYS.get(f.name, f.name)}
    return keys


SCENE_KEYS = _config_keys(SceneConfig)
PIPELINE_KEYS = _config_keys(PipelineParams)


def _reject_unknown(cfg: dict, known: set[str]) -> None:
    """Raise on the first key that the command does not read, naming the
    nearest one it does, or else every one it does."""
    for key in cfg:
        if key not in known:
            near = difflib.get_close_matches(key, sorted(known), n=1)
            hint = (f"did you mean {near[0]!r}?" if near
                    else f"expected one of {', '.join(sorted(known))}")
            raise MapBuildError(f"unknown config key {key!r}; {hint}")


def _from_config(cls, cfg: dict, given: dict):
    """Build `cls` field by field: a flag value in `given` (keyed by field
    name, None when the flag was not passed) wins over the config-file
    value, parsed by the field's declared type, which wins over the
    dataclass default. A field holding a dataclass is built from the same
    file. Out-of-range values fail as a MapBuildError."""
    types = get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        key = _FILE_KEYS.get(f.name, f.name)
        if sub := _nested(f):
            kwargs[f.name] = _from_config(sub, cfg, given)
        elif given.get(f.name) is not None:
            kwargs[f.name] = given[f.name]
        elif key in cfg:
            try:
                kwargs[f.name] = _PARSERS[types[f.name]](cfg[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise MapBuildError(f"config key {key!r}: {exc}") from None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise MapBuildError(f"invalid parameter: {exc}") from None


def _params(cls, keys: set[str], args):
    """`cls` from the `--config` file and the flags in `args`, whose dests
    are the field names they set."""
    cfg = load_config(args.config) if args.config else {}
    _reject_unknown(cfg, keys)
    return _from_config(cls, cfg, vars(args))


def _map_jobs(fn, tasks: list, jobs: int) -> list:
    """`fn` over `tasks`, in `jobs` worker processes; in-process when
    `jobs` is 1 or there is at most one task."""
    if jobs == 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # here: one-process commands need no pool

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# subcommands

def _synth_one(task):
    config, out_path = task
    write_scene(make_scene(config), out_path)
    return out_path


def cmd_synth(args) -> int:
    base = _params(SceneConfig, SCENE_KEYS, args)
    if args.count is None:
        write_scene(make_scene(base), args.out)
        log.info("wrote scene %s", args.out)
        return 0
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(replace(base, seed=base.seed + i), str(out_dir / f"scene_{i:03d}.json"))
             for i in range(args.count)]
    _map_jobs(_synth_one, tasks, args.jobs)
    return 0


def cmd_run(args) -> int:
    params = _params(PipelineParams, PIPELINE_KEYS, args)
    scene = read_scene(args.scene)
    if params.assoc.w_feat > 0 and scene.missing_embedding:
        raise MissingEmbedding(f"{scene.missing_embedding}: missing, but w_feat > 0 needs one on "
                               "every detection; set w_feat = 0 to associate by geometry alone")
    try:
        gmap, trace = run_scene(scene, params)
    except MapBuildError as exc:
        raise type(exc)(f"{args.scene}: {exc}") from exc
    save_map(gmap, args.out_map)
    if args.trace:
        write_doc(trace, args.trace)
    return 0


def _check_scene_id(path, got, want) -> None:
    if got != want:
        raise MapBuildError(f"{path} is of scene {got!r}, not of the evaluated scene {want!r}")


def _eval_one(task) -> dict:
    scene_path, map_path, trace_path, thresholds, mot_gate, want_mot = task
    scene = read_scene(scene_path)
    pred_map = load_map(map_path)
    _check_scene_id(map_path, pred_map.scene_id, scene.scene_id)
    if thresholds is None:
        thresholds = default_thresholds(scene.range_lw)
    out: dict = {"thresholds": thresholds, "cd": global_map_cd(pred_map, scene.gt)[0]}
    if want_mot:
        trace_scene_id, pred_frames = read_trace(trace_path)
        _check_scene_id(trace_path, trace_scene_id, scene.scene_id)
        if len(pred_frames) != len(scene.frames):
            raise MapFormatError(f"{trace_path}: frames: {len(pred_frames)} frames,"
                                 f" but the scene has {len(scene.frames)}")
        gt_frames = scene_gt_frames(scene)
        # one pred x GT Chamfer table per frame, read by CLEAR-MOT here and
        # by AP once the scenes are pooled
        dists = frame_distances(pred_frames, gt_frames)
        mot = clear_mot_counts(pred_frames, gt_frames, mot_gate, dists)
        out["mot"] = mot
        out["pred_frames"] = pred_frames
        out["gt_frames"] = gt_frames
        out["dists"] = dists
    return out


def cmd_eval(args) -> int:
    scenes = args.scene
    tasks = []
    for scene_path in scenes:
        if args.pred_dir:
            stem = Path(scene_path).stem
            map_path = str(Path(args.pred_dir) / f"{stem}.map.json")
            trace_path = str(Path(args.pred_dir) / f"{stem}.trace.json")
        else:
            map_path = args.pred_map
            trace_path = args.trace
        tasks.append((scene_path, map_path, trace_path, args.thresholds, args.mot_gate, args.mot))
    results = _map_jobs(_eval_one, tasks, args.jobs)
    thresholds = results[0]["thresholds"]
    for scene_path, res in zip(scenes, results):
        # a scene's default thresholds follow its perception range
        if res["thresholds"] != thresholds:
            raise MapBuildError(
                f"{scenes[0]} and {scene_path} have different default AP thresholds "
                f"({thresholds} and {res['thresholds']}); give one set with --thresholds")

    report = EvalReport(ap_thresholds=thresholds, mot_gate=args.mot_gate)
    per_class_cd: dict[str, list[float]] = {}
    for res in results:
        for cls, val in res["cd"].items():
            per_class_cd.setdefault(cls, []).append(val)
    report.cd = {cls: float(np.mean(vals)) for cls, vals in per_class_cd.items()}
    report.mcd = float(np.mean(list(report.cd.values()))) if report.cd else float("nan")
    if args.mot:
        # AP pools frames across scenes; MOT counts are summed per scene
        pred_frames = [fr for res in results for fr in res["pred_frames"]]
        gt_frames = [fr for res in results for fr in res["gt_frames"]]
        dists = [d for res in results for d in res["dists"]]
        ap, mean_ap, det_counts = instance_ap(pred_frames, gt_frames, thresholds, dists)
        report.ap = ap
        report.mean_ap = mean_ap
        report.det_counts = det_counts
        totals: dict[str, MotCounts] = {}
        for res in results:
            for cls, c in res["mot"].items():
                totals[cls] = totals.get(cls, MotCounts()).add(c)
        report.mota = {cls: c.mota for cls, c in totals.items()}
        report.motp = {cls: c.motp for cls, c in totals.items()}
        report.id_switches = {cls: c.id_switches for cls, c in totals.items()}
    if args.report:
        write_doc(report.to_doc(), args.report)
    sys.stdout.write(report.table())
    return 0


def _sweep_one(task):
    scene_path, grid = task
    return sweep_smoothing(scene_observations(read_scene(scene_path)), grid)


def cmd_sweep_s(args) -> int:
    grid = args.s_grid
    tasks = [(path, grid) for path in args.scene]
    all_rows = _map_jobs(_sweep_one, tasks, args.jobs)
    seen = {cls for rows in all_rows for _, errs in rows for cls in errs}
    classes = [cls for cls in CLASSES if cls in seen]
    if not classes:
        raise MapBuildError("no polyline observations found in the given scenes")
    table = SweepTable(classes=classes)
    for i, s in enumerate(grid):
        merged = {}
        for cls in classes:
            vals = [rows[i][1][cls] for rows in all_rows if cls in rows[i][1]]
            merged[cls] = float(np.mean(vals))
        table.rows.append((s, merged))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(table.to_text())
    if args.plot:
        with open(args.plot, "w", encoding="utf-8") as fh:
            fh.write(sweep_chart_svg(table))
    sys.stdout.write(table.to_text())
    return 0


def cmd_render(args) -> int:
    entries = [(Path(p).name, load_map(p)) for p in args.maps]
    gt = None
    if args.gt:
        gt = read_scene(args.gt).gt
    svg = render_svg(entries, gt)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The icmap parser. It and each subcommand accept each flag spelt in
    full only: an abbreviation is an unrecognized argument."""
    parser = argparse.ArgumentParser(
        prog="icmap",
        description="Online vectorized map construction over synthetic detection streams.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=partial(argparse.ArgumentParser, allow_abbrev=False))

    p = sub.add_parser("synth", help="generate a synthetic scene file")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="RNG seed (overrides config)")
    p.add_argument("--out", help="output scene path")
    p.add_argument("--count", type=_positive_int,
                   help="generate this many scenes (seeds seed..seed+N-1)")
    p.add_argument("--out-dir", help="directory for --count output")
    p.add_argument("--range", dest="range_lw", type=_parse_range,
                   help="perception range LxW, e.g. 100x50")
    p.add_argument("--jobs", type=_parse_jobs, default=1, help="worker processes (1 to CPU count)")

    p = sub.add_parser("run", help="run the tracking + merging pipeline over a scene")
    p.add_argument("scene")
    p.add_argument("--out-map", required=True)
    p.add_argument("--trace", help="per-frame trace output (needed for MOT eval)")
    p.add_argument("--config", help="key = value config file")
    # each dest is the PipelineParams field the flag sets
    p.add_argument("--theta", type=_finite_float, help="match acceptance threshold")
    p.add_argument("--tau", type=_finite_float, help="geometric affinity scale, meters")
    p.add_argument("--w-feat", dest="w_feat", type=_finite_float,
                   help="feature branch weight; the geometric branch gets 1 - w_feat")
    p.add_argument("--max-age", dest="max_age", type=int, help="frames a track may go unseen")
    p.add_argument("--n-sample", dest="n_sample", type=int, help="history sample count")
    p.add_argument("--expand", type=_finite_float, help="patch expansion for sampling, meters")
    p.add_argument("--s", type=_finite_float, help="smoothing weight for merging")
    p.add_argument("--no-fusion", dest="fuse_weight", action="store_const", const=0.0,
                   help="skip the history blend stage (fuse_weight = 0)")

    p = sub.add_parser("eval", help="evaluate a predicted map/trace against a scene")
    p.add_argument("--scene", nargs="+", required=True)
    p.add_argument("--pred-map", help="predicted map file")
    p.add_argument("--trace", help="trace file from `icmap run`")
    p.add_argument("--pred-dir", help="directory of {stem}.map.json/{stem}.trace.json for multi-scene")
    p.add_argument("--mot", action="store_true", help="also compute AP and CLEAR-MOT from the trace")
    p.add_argument("--thresholds", type=_parse_thresholds,
                   help="AP thresholds in meters, positive, finite, e.g. 0.5,1.0,1.5")
    p.add_argument("--mot-gate", dest="mot_gate", type=_positive_float, default=DEFAULT_MOT_GATE,
                   help="CLEAR-MOT match gate, meters (positive)")
    p.add_argument("--report", help="write the report as JSON here")
    p.add_argument("--jobs", type=_parse_jobs, default=1, help="worker processes (1 to CPU count)")

    p = sub.add_parser("sweep-s", help="sweep the smoothing weight and report fit error")
    p.add_argument("scene", nargs="+")
    p.add_argument("--s-grid", dest="s_grid", type=_parse_sgrid, default="0:2:0.1",
                   help="start:stop:step (default 0:2:0.1)")
    p.add_argument("--out", required=True, help="TSV table output")
    p.add_argument("--plot", help="SVG chart output")
    p.add_argument("--jobs", type=_parse_jobs, default=1, help="worker processes (1 to CPU count)")

    p = sub.add_parser("render", help="render map files to SVG")
    p.add_argument("maps", nargs="*")
    p.add_argument("--gt", help="scene file whose ground truth is overlaid")
    p.add_argument("--out", required=True)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """`build_parser()`, built by the first `main` call of a process and
    reused by every later one."""
    return build_parser()


# flag pairs of which a command reads only one: synth writes one scene to
# --out or --count scenes to --out-dir, and eval --pred-dir finds each map
# and trace in the directory
_CONFLICTS = {
    "synth": (("--out", "--out-dir"), ("--out", "--count")),
    "eval": (("--pred-dir", "--pred-map"), ("--pred-dir", "--trace")),
}


# each command's flags that name a file it writes
_OUTPUTS = {
    "synth": ("--out",),
    "run": ("--out-map", "--trace"),
    "eval": ("--report",),
    "sweep-s": ("--out", "--plot"),
    "render": ("--out",),
}

# each command's arguments that name a file it reads; eval --pred-dir reads
# {stem}.map.json and {stem}.trace.json there for each scene
_INPUTS = {
    "synth": ("--config",),
    "run": ("scene", "--config"),
    "eval": ("--scene", "--pred-map", "--trace"),
    "sweep-s": ("scene",),
    "render": ("maps", "--gt"),
}


def _named_paths(args, flags) -> list[tuple[str, str]]:
    """(argument, path) for each path that `flags` of `args` name."""
    named = []
    for flag in flags:
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        named += [(flag, path) for path in (value if isinstance(value, list) else [value])
                  if path is not None]
    return named


def main(argv=None) -> int:
    parser = _parser()
    _setup_logging(parser)
    args = parser.parse_args(argv)
    for first, second in _CONFLICTS.get(args.command, ()):
        if all(getattr(args, flag[2:].replace("-", "_")) is not None for flag in (first, second)):
            parser.error(f"argument {second}: not allowed with argument {first}")
    # flags a command or another flag cannot do without, checked before any work
    if args.command == "synth" and args.out is None and args.count is None:
        parser.error("synth needs --out (or --count with --out-dir)")
    if args.command == "eval":
        if args.mot and not args.trace and not args.pred_dir:
            parser.error("--mot requires --trace (per-frame tracked instances) or --pred-dir")
        if args.trace is not None and not args.mot:
            parser.error("--trace requires --mot: eval reads the trace for AP and CLEAR-MOT only")
        if len(args.scene) > 1 and not args.pred_dir:
            parser.error("evaluating several scenes requires --pred-dir")
        if args.pred_map is None and not args.pred_dir:
            parser.error("eval needs --pred-map (or --pred-dir)")
    if args.command == "render" and not args.maps and args.gt is None:
        parser.error("render needs a map file (the maps argument) or --gt")
    # an output may not be a file the command reads or writes otherwise
    seen = _named_paths(args, _INPUTS[args.command])
    if args.command == "eval" and args.pred_dir:
        seen += [("--pred-dir", Path(args.pred_dir) / f"{Path(scene).stem}{suffix}")
                 for scene in args.scene for suffix in (".map.json", ".trace.json")]
    seen = [(flag, os.path.realpath(path)) for flag, path in seen]
    for flag, path in _named_paths(args, _OUTPUTS[args.command]):
        if not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"argument {flag}: directory {os.path.dirname(path)!r} does not exist")
        if os.path.isdir(path):
            parser.error(f"argument {flag}: {path!r} is a directory")
        real = os.path.realpath(path)
        for other, other_real in seen:
            if real == other_real:
                parser.error(f"argument {flag}: {path!r} is also {other}")
        seen.append((flag, real))
    # the command's function is looked up by name at each call, so that a
    # wrapper set on this module (a tracer's, a test's) is the one that runs
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (MapBuildError, OSError) as exc:
        print(f"icmap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
