#!/usr/bin/env python3
"""Output parity of two icmap source trees over seeded benchmark scenes.

    python3 scripts/parity.py OLD_SRC NEW_SRC --out DIR [--seeds 0:30]

OLD_SRC and NEW_SRC are `src/` directories (each holding `icmap/`), for
example one of a `git archive` of the parent commit and this checkout's
`src`. For every workload of `pipebench/run.py` (its WORKLOADS table,
imported, not copied) and every seed, each tree, in its own process with
BLAS pinned to one thread, writes under DIR/old and DIR/new:

    <workload>/scene_<seed>.json            make_scene + write_scene
    <workload>/scene_<seed>.map.json        icmap run --out-map
    <workload>/scene_<seed>.trace.json      icmap run --trace
    <workload>/scene_<seed>.eval.json       icmap eval --mot (completed runs)
    <workload>/scene_<seed>.sweep.tsv       icmap sweep-s --s-grid 1:1:1
    exit_codes.json                         exit code and error text per command
    replay.json                             per completed run, whether its trace replays
                                            into its map (null without apply_tracked)

A tree whose `icmap.pipeline` has `apply_tracked` also replays the trace of
every completed run: it merges each frame's tracked instances into an empty
map through `apply_tracked`, with the fit the trace's config names, and
checks that `save_map` writes the bytes of the map `run` wrote. Per tree
and workload, the comparison prints `replay: N/M maps rebuilt byte for
byte`, or that the replay is not available.

The comparison then prints, per workload and file kind, how many files are
byte-identical and how many have the same content: the same parsed JSON,
or the same TSV rows, with no numeric difference. So a change that only
reformats a file reads as such. For the files that differ it prints the
largest absolute difference of any number, with point coordinates
reported apart from the other numbers (affinities, scores, metrics, fit
errors). A key found in one tree only does not stop the comparison: its
dotted path (list items as `[]`, e.g. `config.assoc.w_geo (old only)`) is
printed once per file kind, the shared keys are still compared, and the
file counts as neither byte-identical nor of the same content. A file
whose other structure or non-numeric content differs is listed by name.
The last line says whether every file is byte-identical, or else has the
same content. The exit code is 0 when every file is byte-identical and
every replay rebuilt its map, 1 otherwise.
"""
import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_PIN = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
KINDS = (".map.json", ".trace.json", ".eval.json", ".sweep.tsv")


def load_pipebench():
    """pipebench/run.py as a module."""
    sys.path.insert(0, str(ROOT / "pipebench"))  # run.py imports its sibling spans.py
    spec = importlib.util.spec_from_file_location("pipebench_run", ROOT / "pipebench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def load_workloads():
    return load_pipebench().WORKLOADS


def parse_seeds(text: str) -> range:
    lo, hi = (int(v) for v in text.split(":"))
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"--seeds must be LO:HI with 0 <= LO < HI, got {text!r}")
    return range(lo, hi)


# ---------------------------------------------------------------------------
# worker: one source tree writes every output

def call(cli, argv, out_dir: Path) -> dict:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main([str(a) for a in argv])
        except Exception as exc:  # a crash is recorded like a non-zero exit
            rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    text = err.getvalue().strip().replace(str(out_dir), "<out>")
    return {"rc": rc, "error": text}


def import_icmap(src: Path, prog: str):
    """icmap's `cli` and `synth` modules, imported from the tree `src`;
    exits, naming `prog`, where another icmap comes first on the path."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("icmap.cli")
    synth = importlib.import_module("icmap.synth")
    if Path(cli.__file__).resolve().parent != (src / "icmap").resolve():
        raise SystemExit(f"{prog}: imported icmap from {cli.__file__}, not {src}")
    return cli, synth


def replay_rebuilds(wdir: Path, stem: str) -> bool:
    """Whether the trace of a completed run, replayed frame by frame through
    `pipeline.apply_tracked`, gives the bytes of the map the run wrote."""
    from icmap.curvefit import SmoothingFitParams
    from icmap.instance import GlobalMap
    from icmap.mapstore import save_map
    from icmap.pipeline import apply_tracked, read_trace

    trace = wdir / f"{stem}.trace.json"
    fit = SmoothingFitParams(**json.loads(trace.read_text())["config"]["fit"])
    scene_id, frames = read_trace(trace)
    gmap = GlobalMap(scene_id)
    for tracked in frames:
        apply_tracked(gmap, tracked, fit)
    replayed = wdir / f"{stem}.replay.json"
    save_map(gmap, replayed)
    same = replayed.read_bytes() == (wdir / f"{stem}.map.json").read_bytes()
    replayed.unlink()
    return same


def worker(src: Path, out_dir: Path, seeds: range) -> None:
    cli, synth = import_icmap(src, "parity")
    codes = {}
    replays = {} if hasattr(importlib.import_module("icmap.pipeline"), "apply_tracked") else None
    for name, wl in load_workloads().items():
        wdir = out_dir / name
        wdir.mkdir(parents=True)
        for seed in seeds:
            scene = wdir / f"scene_{seed}.json"
            config = synth.SceneConfig(**wl.scene, noise=synth.NoiseConfig(**wl.noise), seed=seed)
            synth.write_scene(synth.make_scene(config), scene)
            rec = {"run": call(cli, ["run", scene, "--out-map", wdir / f"{scene.stem}.map.json",
                                     "--trace", wdir / f"{scene.stem}.trace.json"], out_dir)}
            if rec["run"]["rc"] == 0:
                rec["eval"] = call(cli, ["eval", "--scene", scene, "--pred-dir", wdir, "--mot",
                                         "--report", wdir / f"{scene.stem}.eval.json",
                                         "--jobs", 1], out_dir)
                if replays is not None:
                    replays[f"{name}/{seed}"] = replay_rebuilds(wdir, scene.stem)
            rec["sweep-s"] = call(cli, ["sweep-s", scene, "--s-grid", "1:1:1",
                                        "--out", wdir / f"{scene.stem}.sweep.tsv",
                                        "--jobs", 1], out_dir)
            codes[f"{name}/{seed}"] = rec
    (out_dir / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    (out_dir / "replay.json").write_text(json.dumps(replays, indent=1) + "\n")


# ---------------------------------------------------------------------------
# comparison

class Mismatch(Exception):
    pass


def number_diffs(a, b, key: str, out: dict, only: set, path: str = "") -> None:
    """Fold |a - b| of every number of two JSON trees into out[key], where key
    is "points" inside a points array and the nearest object key otherwise;
    add to `only` the dotted path of each key that one tree lacks, and
    compare the shared keys; raise Mismatch where a list length, a type or
    a non-float value differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        prefix = path + "." if path else ""
        only.update(f"{prefix}{k} (old only)" for k in a.keys() - b.keys())
        only.update(f"{prefix}{k} (new only)" for k in b.keys() - a.keys())
        for k in a:
            if k in b:
                number_diffs(a[k], b[k], key if key == "points" else k, out, only, prefix + k)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise Mismatch(f"lengths {len(a)} and {len(b)} under {key!r}")
        for x, y in zip(a, b):
            number_diffs(x, y, key, out, only, path + "[]")
    elif isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            raise Mismatch(f"number against {type(b).__name__} under {key!r}")
        d = 0.0 if a == b else abs(a - b)
        if math.isnan(d) and not (math.isnan(a) and math.isnan(b)):
            raise Mismatch(f"NaN against a number under {key!r}")
        out[key] = max(out.get(key, 0.0), 0.0 if math.isnan(d) else d)
    elif a != b or type(a) is not type(b):
        raise Mismatch(f"{a!r} against {b!r} under {key!r}")


def tsv_diffs(a: str, b: str, out: dict) -> None:
    rows_a = [ln.split("\t") for ln in a.splitlines()]
    rows_b = [ln.split("\t") for ln in b.splitlines()]
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        raise Mismatch("header or row count differs")
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            raise Mismatch("column count differs")
        number_diffs([float(v) for v in ra], [float(v) for v in rb], "fit error", out, set())


def compare(old_dir: Path, new_dir: Path, workloads, seeds: range) -> tuple[bool, bool]:
    """(every file byte-identical, every file of the same content); exit
    codes and error text count as files that must be byte-identical."""
    same_bytes = same_content = True
    codes_old = json.loads((old_dir / "exit_codes.json").read_text())
    codes_new = json.loads((new_dir / "exit_codes.json").read_text())
    for name in workloads:
        print(f"{name}, seeds {seeds.start}..{seeds.stop - 1}:")
        keys = [f"{name}/{s}" for s in seeds]
        failing = [k.split("/")[1] for k in keys if codes_old[k]["run"]["rc"] != 0]
        differ = [k for k in keys if codes_old[k] != codes_new[k]]
        print(f"  exit codes and error text: {len(keys) - len(differ)}/{len(keys)} identical;"
              f" run fails at seeds [{', '.join(failing)}] on the old tree")
        for k in differ:
            print(f"    {k}: old {codes_old[k]} new {codes_new[k]}")
        same_bytes &= not differ
        same_content &= not differ
        for kind in (".json",) + KINDS:
            files = [f"scene_{s}{kind}" for s in seeds]
            files = [f for f in files if (old_dir / name / f).exists() or (new_dir / name / f).exists()]
            diffs: dict = {}
            one_sided: set = set()
            odd = []
            identical = content = 0
            for f in files:
                po, pn = old_dir / name / f, new_dir / name / f
                if not (po.exists() and pn.exists()):
                    odd.append(f"{f} (in one tree only)")
                    continue
                bo, bn = po.read_bytes(), pn.read_bytes()
                if bo == bn:
                    identical += 1
                    content += 1
                    continue
                file_diffs: dict = {}
                file_only: set = set()
                try:
                    if kind == ".sweep.tsv":
                        tsv_diffs(bo.decode(), bn.decode(), file_diffs)
                    else:
                        number_diffs(json.loads(bo), json.loads(bn), "", file_diffs, file_only)
                except Mismatch as exc:
                    odd.append(f"{f} ({exc})")
                    continue
                content += not any(file_diffs.values()) and not file_only
                one_sided |= file_only
                for k, v in file_diffs.items():
                    diffs[k] = max(diffs.get(k, 0.0), v)
            same_bytes &= identical == len(files)
            same_content &= content == len(files)
            label = "scene" + kind if kind == ".json" else kind[1:]
            line = (f"  {label:<12} {identical}/{len(files)} byte-identical,"
                    f" {content}/{len(files)} same content")
            nonzero = {k: v for k, v in sorted(diffs.items()) if v > 0}
            if nonzero:
                line += "; largest difference " + ", ".join(
                    f"{k or 'top level'} {v:.3g}" for k, v in nonzero.items())
            print(line)
            for path in sorted(one_sided):
                print(f"    key in one tree only: {path}")
            for o in odd:
                print(f"    structure differs: {o}")
    return same_bytes, same_content


def report_replays(out: Path, workloads, seeds: range) -> bool:
    """Print, per tree and workload, how many completed runs' traces replay
    into their maps byte for byte; False when one does not."""
    ok = True
    for side in ("old", "new"):
        replays = json.loads((out / side / "replay.json").read_text())
        for name in workloads:
            if replays is None:
                print(f"{name}, {side} tree: replay not available (no pipeline.apply_tracked)")
                continue
            got = [replays[k] for k in (f"{name}/{s}" for s in seeds) if k in replays]
            print(f"{name}, {side} tree: replay: {sum(got)}/{len(got)} maps rebuilt byte for byte")
            ok &= all(got)
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src", type=Path)
    ap.add_argument("new_src", type=Path)
    ap.add_argument("--out", type=Path, required=True, help="empty or absent output directory")
    ap.add_argument("--seeds", type=parse_seeds, default=range(0, 30), help="LO:HI, HI excluded")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:  # old_src is the tree, --out its output directory
        worker(args.old_src.resolve(), args.out.resolve(), args.seeds)
        return 0
    if args.out.exists() and any(args.out.iterdir()):
        raise SystemExit(f"parity: {args.out} is not empty")
    for src in (args.old_src, args.new_src):
        if not (src / "icmap" / "__init__.py").is_file():
            raise SystemExit(f"parity: no icmap package under {src}")
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": ""}
    seeds = f"{args.seeds.start}:{args.seeds.stop}"
    procs = [subprocess.Popen([sys.executable, __file__, str(src), str(src), "--worker",
                               "--out", str(args.out / side), "--seeds", seeds], env=env)
             for side, src in (("old", args.old_src), ("new", args.new_src))]
    if any(p.wait() != 0 for p in procs):
        raise SystemExit("parity: a worker failed")
    workloads = load_workloads()
    same_bytes, same_content = compare(args.out / "old", args.out / "new", workloads, args.seeds)
    replays_ok = report_replays(args.out, workloads, args.seeds)
    print("all files byte-identical" if same_bytes else
          "all files have the same content" if same_content else "some files differ")
    return 0 if same_bytes and replays_ok else 1


if __name__ == "__main__":
    sys.exit(main())
