"""Frame-by-frame pipeline: associate, sample history, fuse, merge.

This is the glue the CLI drives; it owns the effective parameter set and
the per-frame trace consumed by the tracking metrics.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .association import AssocConfig, TrackBuffer, associate_frame
from .curvefit import SmoothingFitParams
from .errors import MapBuildError, OrderingError
from .fileio import (
    TRACE_KEYS,
    as_list,
    as_object,
    decode_lists,
    from_records,
    gc_paused,
    read_doc,
    to_record,
)
from .geometry import Rect
from .instance import (
    GlobalMap,
    MapInstance,
    Scene,
    frames_chamfer_by_class,
    frames_to_world,
    to_world,
)
from .mapstore import fuse_with_history, merge_instance, sample_history

TRACE_FORMAT_VERSION = "1"


@dataclass(frozen=True)
class PipelineParams:
    assoc: AssocConfig = field(default_factory=AssocConfig)
    fit: SmoothingFitParams = field(default_factory=SmoothingFitParams)
    n_sample: int = 20
    expand: float = 20.0
    fuse_radius: float = 1.0
    fuse_weight: float = 0.5
    min_score: float = 0.55

    def __post_init__(self):
        for name in ("expand", "fuse_radius", "fuse_weight", "min_score"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_sample < 2:
            raise ValueError("n_sample must be >= 2")
        for name in ("expand", "fuse_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.fuse_weight <= 1.0:
            raise ValueError("fuse_weight must lie in [0, 1]")


@dataclass
class MapState:
    """What a run carries from one frame to the next."""

    buffer: TrackBuffer
    gmap: GlobalMap


def step(state: MapState, frame, range_lw, params: PipelineParams) -> dict:
    """One frame through every stage, updating `state`: score filter, one
    move to the world frame (`to_world`), association, history in the ego
    patch, fusion and merges. Returns the frame's trace entry: detection
    count, matches with their affinity, new IDs and tracked instances."""
    dets = [d for d in frame.detections if d.score >= params.min_score]
    result = associate_frame(state.buffer, to_world(frame.ego_pose, dets), params.assoc)
    state.buffer = result.buffer
    patch = Rect(frame.ego_pose, range_lw[0] / 2.0, range_lw[1] / 2.0)
    ids = [d.id for d in result.dets]
    history = sample_history(state.gmap, patch, params.expand, ids, params.n_sample)
    tracked = [fuse_with_history(det, history.get(det.id), params.fuse_radius, params.fuse_weight)
               for det in result.dets]
    apply_tracked(state.gmap, tracked, params.fit)
    return {
        "t": frame.t,
        "det_count": len(dets),
        "matches": [[i, tid, aff] for i, tid, aff in result.matches],
        "new_ids": list(result.new_ids),
        "instances": [to_record(d, TRACE_KEYS) for d in tracked],
    }


def apply_tracked(gmap: GlobalMap, tracked, fit: SmoothingFitParams) -> None:
    """Merge one frame's tracked world-frame instances into the map in order,
    for a run and a trace replay alike. A merge's MapBuildError is raised
    again, of the same class, led by `merging id N: `."""
    for inst in tracked:
        try:
            merge_instance(gmap, inst, fit)
        except MapBuildError as exc:
            raise type(exc)(f"merging id {inst.id}: {exc}") from exc


def run_scene(scene: Scene, params: PipelineParams) -> tuple[GlobalMap, dict]:
    """Stream the scene's frames through `step`; returns the final map and
    the trace document of their entries. A frame's MapBuildError is raised
    again, of the same class, led by `frames[k]: `."""
    state = MapState(TrackBuffer(), GlobalMap(scene_id=scene.scene_id))
    trace_frames = []
    prev_t = None
    for k, frame in enumerate(scene.frames):
        if prev_t is not None and frame.t <= prev_t:
            raise OrderingError(f"frame {frame.t} after frame {prev_t}")
        prev_t = frame.t
        try:
            trace_frames.append(step(state, frame, scene.range_lw, params))
        except MapBuildError as exc:
            raise type(exc)(f"frames[{k}]: {exc}") from exc
    return state.gmap, {
        "format_version": TRACE_FORMAT_VERSION,
        "scene_id": scene.scene_id,
        "config": asdict(params),
        "frames": trace_frames,
    }


def trace_pred_frames(trace: dict, where: str = "trace") -> list[list[MapInstance]]:
    """Tracked per-frame instances (world frame) out of a trace document;
    raises MapFormatError naming `where` and the field of the first
    malformed value."""
    frame_docs = as_list(trace["frames"], f"{where}: frames")
    decoded = decode_lists(frame_docs, "instances", TRACE_KEYS)
    frames = []
    for k, fr in enumerate(frame_docs):
        at = f"{where}: frames[{k}]"
        frames.append(from_records(as_object(fr, at, ("instances",))["instances"],
                                   f"{at}.instances", TRACE_KEYS,
                                   None if decoded is None else decoded[k]))
    return frames


@gc_paused()
def read_trace(path) -> tuple[str, list[list[MapInstance]]]:
    """Scene ID and tracked per-frame instances of a trace file."""
    doc = read_doc(path, "trace", TRACE_FORMAT_VERSION, ("frames",))
    return doc["scene_id"], trace_pred_frames(doc, str(path))


def scene_gt_frames(scene: Scene) -> list[list[MapInstance]]:
    """Per-frame ground truth moved to the world frame, all frames in one
    move (`frames_to_world`)."""
    return frames_to_world([f.ego_pose for f in scene.frames], [f.gt_local for f in scene.frames])


def scene_observations(scene: Scene) -> dict:
    """Group a scene's polyline detections by their ground-truth instance.

    Each detection is attributed to the nearest gt_local instance of its
    class (unambiguous at the noise levels used for sweeps); the result
    feeds curvefit.sweep_smoothing.
    """
    cases: dict[int, list] = {}
    ref: dict[int, MapInstance] = {}
    for inst_id in sorted(scene.gt.instances):
        inst = scene.gt.instances[inst_id]
        if inst.is_polyline:
            ref[inst_id] = inst
            cases[inst_id] = []
    det_frames = frames_to_world([f.ego_pose for f in scene.frames],
                                 [[d for d in f.detections if d.is_polyline] for f in scene.frames])
    gt_frames = [[g for g in gt_frame if g.is_polyline] for gt_frame in scene_gt_frames(scene)]
    for dets, gts, dist in zip(det_frames, gt_frames,
                               frames_chamfer_by_class(det_frames, gt_frames)):
        if not gts:
            continue
        gt_ids = [g.id for g in gts]
        for det, row in zip(dets, dist):
            best = int(np.argmin(row))  # first of equals, inf when no same-class GT
            if row[best] < 5.0:
                cases[gt_ids[best]].append(det.points)
    out: dict[str, list] = {}
    for gid, obs in cases.items():
        if obs:
            out.setdefault(ref[gid].cls, []).append((ref[gid].points, obs))
    return out
