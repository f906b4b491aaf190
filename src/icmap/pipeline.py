"""Frame-by-frame pipeline: associate, sample history, fuse, merge.

This is the glue the CLI drives; it owns the effective parameter set and
the per-frame trace consumed by the tracking metrics.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .association import AssocConfig, TrackBuffer, associate_frame
from .curvefit import SmoothingFitParams
from .errors import MapBuildError, OrderingError
from .fileio import (
    TRACE_KEYS,
    as_list,
    as_object,
    from_records,
    gc_paused,
    read_doc,
    to_record,
)
from .geometry import Rect
from .instance import GlobalMap, MapInstance, Scene, chamfer_by_class, to_world
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
        if self.n_sample < 2:
            raise ValueError("n_sample must be >= 2")
        for name in ("expand", "fuse_radius"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.fuse_weight <= 1.0:
            raise ValueError("fuse_weight must lie in [0, 1]")


def run_scene(scene: Scene, params: PipelineParams) -> tuple[GlobalMap, dict]:
    """Stream the scene's frames through the full pipeline.

    Each frame's detections are moved to the world frame once, as the
    frame is pulled (`to_world`), and associated there. Returns the final
    global map and a trace document holding, per frame, the detection
    count, accepted matches with their affinity, freshly issued IDs, and
    the tracked world-frame instances. A MapBuildError raised by a frame's
    stages is raised again, of the same class, led by `frames[k]: ` and,
    when a merge fails, by the merged instance's id.
    """
    gmap = GlobalMap(scene_id=scene.scene_id)
    buffer = TrackBuffer()
    trace_frames = []
    prev_t = None
    for k, frame in enumerate(scene.frames):
        if prev_t is not None and frame.t <= prev_t:
            raise OrderingError(f"frame {frame.t} after frame {prev_t}")
        prev_t = frame.t
        dets = [d for d in frame.detections if d.score >= params.min_score]
        merging = None  # the instance being merged
        try:
            result = associate_frame(buffer, to_world(frame.ego_pose, dets), params.assoc)
            buffer = result.buffer
            patch = Rect(frame.ego_pose, scene.range_lw[0] / 2.0, scene.range_lw[1] / 2.0)
            ids = [d.id for d in result.dets]
            history = sample_history(gmap, patch, params.expand, ids, params.n_sample)
            outputs = [
                fuse_with_history(det, history.get(det.id), params.fuse_radius,
                                  params.fuse_weight)
                for det in result.dets
            ]
            for merging in outputs:
                merge_instance(gmap, merging, params.fit)
        except MapBuildError as exc:
            where = f"frames[{k}]" if merging is None else f"frames[{k}]: merging id {merging.id}"
            raise type(exc)(f"{where}: {exc}") from exc
        trace_frames.append(
            {
                "t": frame.t,
                "det_count": len(dets),
                "matches": [[i, tid, aff] for i, tid, aff in result.matches],
                "new_ids": list(result.new_ids),
                "instances": [to_record(d, TRACE_KEYS) for d in outputs],
            }
        )
    trace = {
        "format_version": TRACE_FORMAT_VERSION,
        "scene_id": scene.scene_id,
        "config": asdict(params),
        "frames": trace_frames,
    }
    return gmap, trace


def trace_pred_frames(trace: dict, where: str = "trace") -> list[list[MapInstance]]:
    """Tracked per-frame instances (world frame) out of a trace document;
    raises MapFormatError naming `where` and the field of the first
    malformed value."""
    frames = []
    for k, fr in enumerate(as_list(trace["frames"], f"{where}: frames")):
        at = f"{where}: frames[{k}]"
        frames.append(from_records(as_object(fr, at, ("instances",))["instances"],
                                   f"{at}.instances", TRACE_KEYS))
    return frames


@gc_paused()
def read_trace(path) -> tuple[str, list[list[MapInstance]]]:
    """Scene ID and tracked per-frame instances of a trace file."""
    doc = read_doc(path, "trace", TRACE_FORMAT_VERSION, ("frames",))
    return doc["scene_id"], trace_pred_frames(doc, str(path))


def scene_gt_frames(scene: Scene) -> list[list[MapInstance]]:
    """Per-frame ground truth moved to the world frame (`to_world`)."""
    return [to_world(f.ego_pose, f.gt_local) for f in scene.frames]


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
    for frame, gt_frame in zip(scene.frames, scene_gt_frames(scene)):
        gt_world = {g.id: g for g in gt_frame if g.is_polyline}
        if not gt_world:
            continue
        dets = to_world(frame.ego_pose, [d for d in frame.detections if d.is_polyline])
        gt_ids = list(gt_world)
        dist = chamfer_by_class(dets, list(gt_world.values()))
        for det, row in zip(dets, dist):
            best = int(np.argmin(row))  # first of equals, inf when no same-class GT
            if row[best] < 5.0:
                cases[gt_ids[best]].append(det.points)
    out: dict[str, list] = {}
    for gid, obs in cases.items():
        if obs:
            out.setdefault(ref[gid].cls, []).append((ref[gid].points, obs))
    return out
