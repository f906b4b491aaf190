"""Global map (`instance.GlobalMap`) upkeep: history sampling, fusion blend, merging.

The map keys world-frame instances by track ID. Before merging, detections
can be refined by blending each point toward its nearest sampled history
point (a deterministic stand-in for a learned refinement stage); merging
itself dispatches on class: spline fitting for polylines, boolean union for
crossings. `save_map` and `load_map` lay out the map file; `fileio` writes,
reads and checks it.
"""
from __future__ import annotations

import logging

import numpy as np

from . import polygon as poly
from ._kernels import sq_dist_table
from .curvefit import SmoothingFitParams, merge_polylines
from .errors import ClassConflict, MapFormatError
from .fileio import MAP_KEYS, as_str, from_records, gc_paused, read_doc, to_record, write_doc
from .geometry import Rect, as_points, longest_pieces
from .instance import GlobalMap, MapInstance

log = logging.getLogger(__name__)

MAP_FORMAT_VERSION = "1"


def sample_history(gmap: GlobalMap, patch: Rect, expand: float, ids, n_sample: int) -> dict[int, np.ndarray]:
    """Evenly spaced points from each requested instance near the patch.

    The patch is expanded by `expand` on every side, every requested
    polyline instance is clipped to it in one call (`longest_pieces`), and
    each one's longest clipped piece is resampled to exactly `n_sample`
    points. Keys come in `ids` order. IDs absent from the map,
    non-polyline instances, empty intersections and pieces too short to
    resample produce no entry.
    """
    lines = [(i, gmap.instances[i].points) for i in ids
             if i in gmap.instances and gmap.instances[i].is_polyline]
    owners, samples = longest_pieces([pts for _, pts in lines], [patch.expand(expand)],
                                     0.0, n_sample)
    return {lines[o][0]: pts for o, pts in zip(owners, samples)}


def fuse_with_history(det: MapInstance, hist: np.ndarray | None, radius: float,
                      weight: float) -> MapInstance:
    """Blend detected points toward their nearest history sample.

    Points with a sample within `radius` move to
    (1-weight)*p_det + weight*p_hist; the rest are untouched. Point count is
    preserved. Polygon detections pass through unchanged.
    """
    if hist is None or len(hist) == 0 or weight == 0.0 or not det.is_polyline:
        return det
    h = as_points(hist)
    pts = det.points.copy()
    d2 = sq_dist_table(pts, h)
    nearest = np.argmin(d2, axis=1)
    mask = np.sqrt(d2[np.arange(len(pts)), nearest]) <= radius
    pts[mask] = (1.0 - weight) * pts[mask] + weight * h[nearest[mask]]
    return det.with_points(pts)


def merge_instance(gmap: GlobalMap, det: MapInstance,
                   fit_params: SmoothingFitParams) -> GlobalMap:
    """Merge one identified world-frame detection into the map (in place)."""
    if det.id is None:
        raise ValueError("merge_instance requires a detection with an ID")
    stored = gmap.instances.get(det.id)
    if stored is None:
        gmap.instances[det.id] = MapInstance(det.cls, det.points.copy(), id=det.id)
        return gmap
    if stored.cls != det.cls:
        raise ClassConflict(
            f"id {det.id}: detection class {det.cls!r} != stored class {stored.cls!r}"
        )
    if det.is_polyline:
        merged = merge_polylines(stored.points, det.points, fit_params)
    else:
        result = poly.polygon_union(stored.points, det.points)
        if result is poly.DISJOINT:
            # disjoint geometry under a matched ID: replace with the newest
            log.warning("id %d: disjoint crossing under matched ID; keeping newest", det.id)
            merged = det.points.copy()
        else:
            merged = result
    gmap.instances[det.id] = MapInstance(det.cls, merged, id=det.id)
    return gmap


@gc_paused()
def save_map(gmap: GlobalMap, path) -> None:
    """Write the map as JSON; floats use shortest exact decimal form."""
    write_doc({
        "format_version": MAP_FORMAT_VERSION,
        "scene_id": gmap.scene_id,
        "instances": [to_record(gmap.instances[k], MAP_KEYS) for k in sorted(gmap.instances)],
    }, path)


@gc_paused()
def load_map(path) -> GlobalMap:
    """Read a map file; raises MapFormatError naming the field of the first
    malformed value."""
    doc = read_doc(path, "map", MAP_FORMAT_VERSION, MapFormatError, ("scene_id", "instances"))
    scene_id = as_str(doc["scene_id"], f"{path}: scene_id", MapFormatError)
    insts = from_records(doc["instances"], f"{path}: instances", MapFormatError, MAP_KEYS)
    return GlobalMap(scene_id, {inst.id: inst for inst in insts})
