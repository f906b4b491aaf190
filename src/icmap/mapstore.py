"""Global map maintenance: history sampling, fusion blend, and merging.

The map keys world-frame instances by track ID. Before merging, detections
can be refined by blending each point toward its nearest sampled history
point (a deterministic stand-in for a learned refinement stage); merging
itself dispatches on class: spline fitting for polylines, boolean union for
crossings.
"""
from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import polygon as poly
from .curvefit import SmoothingFitParams, merge_polylines
from .errors import ClassConflict, MapFormatError, UnsupportedVersion
from .geometry import Rect, as_points, clip_polyline_to_rect, resample_even
from .instance import CLASSES, MapInstance

log = logging.getLogger(__name__)

MAP_FORMAT_VERSION = "1"


@dataclass
class GlobalMap:
    scene_id: str = ""
    instances: dict[int, MapInstance] = field(default_factory=dict)


def sample_history(gmap: GlobalMap, patch: Rect, expand: float, ids, n_sample: int) -> dict[int, np.ndarray]:
    """Evenly spaced points from each requested instance near the patch.

    The patch is expanded by `expand` on every side, each polyline instance
    is clipped to it, and the longest clipped piece is resampled to exactly
    `n_sample` points. IDs absent from the map, non-polyline instances, and
    empty intersections produce no entry.
    """
    expanded = patch.expand(expand)
    out: dict[int, np.ndarray] = {}
    for inst_id in ids:
        inst = gmap.instances.get(inst_id)
        if inst is None or not inst.is_polyline:
            continue
        pieces = clip_polyline_to_rect(inst.points, expanded)
        if not pieces:
            continue
        longest = max(pieces, key=lambda p: np.linalg.norm(np.diff(p, axis=0), axis=1).sum())
        out[inst_id] = resample_even(longest, n_sample)
    return out


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
    d2 = ((pts[:, None, :] - h[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    dist = np.sqrt(d2[np.arange(len(pts)), nearest])
    mask = dist <= radius
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


def _instance_to_json(inst: MapInstance) -> dict:
    return {
        "id": inst.id,
        "class": inst.cls,
        "points": [[float(x), float(y)] for x, y in inst.points],
    }


# Python's json reads NaN, Infinity and out-of-range literals such as 1e999;
# the loaders reject them here, naming the field, before any kernel sees them.

def finite_array(value, where: str, error: type[Exception] = MapFormatError) -> np.ndarray:
    """`value` as a float64 array; raises `error` naming `where` unless every
    entry is a finite number."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise error(f"{where}: expected numbers") from None
    if not np.isfinite(arr).all():
        raise error(f"{where}: non-finite value (NaN or inf)")
    return arr


def finite_float(value, where: str, error: type[Exception] = MapFormatError) -> float:
    """`value` as a float; raises `error` naming `where` unless it is a finite
    number."""
    try:
        val = float(value)
    except (TypeError, ValueError):
        raise error(f"{where}: expected a number") from None
    if not math.isfinite(val):
        raise error(f"{where}: non-finite value (NaN or inf)")
    return val


def point_array(value, where: str, error: type[Exception] = MapFormatError) -> np.ndarray:
    """`value` as an (N, 2) float64 array (N may be 0); raises `error` naming
    `where` unless it is a list of finite [x, y] pairs."""
    arr = finite_array(value, where, error)
    if arr.size and (arr.ndim != 2 or arr.shape[1] != 2):
        raise error(f"{where}: expected a list of [x, y] pairs")
    return arr


def whole_int(value, where: str, error: type[Exception] = MapFormatError) -> int:
    """`value` as an int; raises `error` naming `where` unless it is a whole
    number (an integer, or a float such as 3.0; not NaN, inf, 1.5 or true)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{where}: expected an integer")
    if isinstance(value, float) and not value.is_integer():
        raise error(f"{where}: expected an integer, got {value!r}")
    return int(value)


def _instance_from_json(obj: dict, where: str) -> MapInstance:
    for key in ("id", "class", "points"):
        if key not in obj:
            raise MapFormatError(f"{where}: missing field {key!r}")
    cls = obj["class"]
    if cls not in CLASSES:
        raise MapFormatError(f"{where}: unknown class {cls!r}")
    pts = obj["points"]
    if not isinstance(pts, list) or len(pts) < 2:
        raise MapFormatError(f"{where}: points must be a list of at least 2 [x, y] pairs")
    points = point_array(pts, f"{where}.points")
    return MapInstance(cls, points, id=whole_int(obj["id"], f"{where}.id"))


def save_map(gmap: GlobalMap, path) -> None:
    """Write the map as JSON; floats use shortest exact decimal form."""
    doc = {
        "format_version": MAP_FORMAT_VERSION,
        "scene_id": gmap.scene_id,
        "instances": [
            _instance_to_json(gmap.instances[k]) for k in sorted(gmap.instances)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_map(path) -> GlobalMap:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MapFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MapFormatError(f"{path}: expected a JSON object at top level")
    version = doc.get("format_version")
    if version is None:
        raise MapFormatError(f"{path}: missing field 'format_version'")
    if version != MAP_FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: map format_version {version!r} not supported")
    gmap = GlobalMap(scene_id=str(doc.get("scene_id", "")))
    for i, obj in enumerate(doc.get("instances", [])):
        inst = _instance_from_json(obj, f"{path}: instances[{i}]")
        if inst.id in gmap.instances:
            raise MapFormatError(f"{path}: instances[{i}]: duplicate id {inst.id}")
        gmap.instances[inst.id] = inst
    return gmap
