"""In-process spans and counters around icmap's public functions.

The tracer replaces a function at every module attribute that refers to it
(each by-name import site), so the program's own source stays untouched.
Each wrapped function records calls, inclusive seconds and self seconds
(inclusive minus the time its traced callees took). A few wrappers also
count work where it happens: pairs scored, merges by kind, point pairs.

`install()` returns an `undo` callable that restores every attribute.
"""
from __future__ import annotations

import functools
import importlib
from collections import Counter
from time import perf_counter

# span name -> (defining module, function). The span name is
# "<module>.<function>", except that `_kernels` is spelled `kernels` so the
# name starts with a letter.
SPANS = {
    "association.associate_frame": ("association", "associate_frame"),
    "association.geometric_affinity": ("association", "geometric_affinity"),
    "association.feature_affinity": ("association", "feature_affinity"),
    "association.optimal_match": ("association", "optimal_match"),
    "mapstore.sample_history": ("mapstore", "sample_history"),
    "mapstore.fuse_with_history": ("mapstore", "fuse_with_history"),
    "mapstore.merge_instance": ("mapstore", "merge_instance"),
    "mapstore.save_map": ("mapstore", "save_map"),
    "mapstore.load_map": ("mapstore", "load_map"),
    "curvefit.merge_polylines": ("curvefit", "merge_polylines"),
    "curvefit.reorder_concat": ("curvefit", "reorder_concat"),
    "curvefit.fit_smoothing_spline": ("curvefit", "fit_smoothing_spline"),
    "curvefit.sweep_smoothing": ("curvefit", "sweep_smoothing"),
    "polygon.polygon_union": ("polygon", "polygon_union"),
    "geometry.chamfer_distance": ("geometry", "chamfer_distance"),
    "geometry.densify": ("geometry", "densify"),
    "geometry.dedupe_points": ("geometry", "dedupe_points"),
    "geometry.resample_even": ("geometry", "resample_even"),
    "geometry.clip_polyline_to_rect": ("geometry", "clip_polyline_to_rect"),
    "kernels.nn_mean_dist": ("_kernels", "nn_mean_dist"),
    "metrics.instance_ap": ("metrics", "instance_ap"),
    "metrics.clear_mot_counts": ("metrics", "clear_mot_counts"),
    "metrics.global_map_cd": ("metrics", "global_map_cd"),
    "synth.make_scene": ("synth", "make_scene"),
    "synth.write_scene": ("synth", "write_scene"),
    "synth.read_scene": ("synth", "read_scene"),
    "pipeline.run_scene": ("pipeline", "run_scene"),
    "cli.cmd_run": ("cli", "cmd_run"),
    "cli.cmd_eval": ("cli", "cmd_eval"),
    "cli.cmd_sweep_s": ("cli", "cmd_sweep_s"),
}

# (module holding the reference, function) that must be replaced; a missing
# site means the program's call graph moved and the spans would undercount.
REQUIRED_SITES = [
    *[(m, "chamfer_distance") for m in ("association", "curvefit", "metrics")],
    *[(m, "densify") for m in ("association", "curvefit", "metrics")],
    *[(m, "dedupe_points") for m in ("geometry", "curvefit", "polygon")],
    ("geometry", "nn_mean_dist"),
    *[(m, "merge_polylines") for m in ("mapstore", "curvefit")],
    ("polygon", "polygon_union"),  # mapstore calls it as poly.polygon_union
    *[("cli", f) for f in ("run_scene", "read_scene", "save_map", "load_map",
                           "sweep_smoothing")],
    *[("pipeline", f) for f in ("associate_frame", "sample_history",
                                "fuse_with_history", "merge_instance")],
]

MODULES = ("_kernels", "geometry", "polygon", "instance", "curvefit", "association",
           "mapstore", "metrics", "synth", "pipeline", "cli")

# count name -> unit; the three means are reported as total / samples
COUNTS = {
    "association.pairs_scored": "count",
    "association.match_ratio": "ratio",
    "association.buffer_tracks_mean": "tracks",
    "mapstore.merge_inserts": "count",
    "mapstore.merge_polyline": "count",
    "mapstore.merge_polygon": "count",
    "mapstore.disjoint_replaced": "count",
    "mapstore.map_points": "points",
    "curvefit.chain_points_mean": "points",
    "polygon.union_raised": "count",
    "kernels.point_pairs": "count",
}


class Tracer:
    """Accumulates span times and counters for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [start, seconds spent in traced callees]
        self.disjoint = None  # polygon.DISJOINT, set by install()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            self._stack.append(frame)
            if name == "mapstore.merge_instance":
                self._classify_merge(*args[:2])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "polygon.polygon_union":
                    self.counts["polygon.union_raised"] += 1
                raise
            finally:
                dt = perf_counter() - frame[0]
                self._stack.pop()
                self.calls[name] += 1
                self.incl[name] += dt
                self.self_s[name] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
            self._count(name, args, result)
            return result

        wrapper.__wrapped_span__ = name
        return wrapper

    def _classify_merge(self, gmap, det):
        stored = gmap.instances.get(det.id)
        if stored is None:
            self.counts["mapstore.merge_inserts"] += 1
        elif det.is_polyline:
            self.counts["mapstore.merge_polyline"] += 1
        else:
            self.counts["mapstore.merge_polygon"] += 1

    def _count(self, name, args, result):
        c = self.counts
        if name == "polygon.polygon_union" and result is self.disjoint:
            c["mapstore.disjoint_replaced"] += 1
        elif name == "association.geometric_affinity":
            dets, tracks = args[0], args[1]
            by_cls = Counter(t.cls for t in tracks)
            c["association.pairs_scored"] += sum(by_cls[d.cls] for d in dets)
        elif name == "association.associate_frame":
            c["association.matches"] += len(result.matches)
            c["association.detections"] += len(args[1])
            c["association.buffer_tracks"] += len(args[0].tracks)
            c["association.frames"] += 1
        elif name == "curvefit.reorder_concat":
            c["curvefit.chain_points"] += len(result)
            c["curvefit.chains"] += 1
        elif name == "kernels.nn_mean_dist":
            c["kernels.point_pairs"] += len(args[0]) * len(args[1])
        elif name == "mapstore.save_map":
            c["mapstore.map_points"] += sum(len(i.points) for i in args[0].instances.values())

    def count_metrics(self) -> dict[str, float]:
        c = self.counts
        out = {name: c[name] for name in COUNTS}
        out["association.match_ratio"] = c["association.matches"] / max(1, c["association.detections"])
        out["association.buffer_tracks_mean"] = c["association.buffer_tracks"] / max(1, c["association.frames"])
        out["curvefit.chain_points_mean"] = c["curvefit.chain_points"] / max(1, c["curvefit.chains"])
        return out


def install(tracer: Tracer):
    """Wrap every reference to every SPANS function; return an undo callable."""
    mods = {m: importlib.import_module(f"icmap.{m}") for m in MODULES}
    originals = {name: getattr(mods[m], f) for name, (m, f) in SPANS.items()}
    by_id = {id(fn): name for name, fn in originals.items()}
    wrappers = {name: tracer.span(name, fn) for name, fn in originals.items()}
    tracer.disjoint = mods["polygon"].DISJOINT
    saved = []
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            name = by_id.get(id(val))
            if name is not None:
                saved.append((mod, attr, val))
                setattr(mod, attr, wrappers[name])
    wrapped = {(m, attr) for m, mod in mods.items() for attr, val in vars(mod).items()
               if hasattr(val, "__wrapped_span__")}
    missing = [f"{m}.{f}" for m, f in REQUIRED_SITES if (m, f) not in wrapped]

    def undo():
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)

    if missing:
        undo()
        raise RuntimeError(f"import sites not wrapped: {', '.join(missing)}")
    return undo
