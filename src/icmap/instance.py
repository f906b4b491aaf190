"""The types every stage shares: map instances, the global map that keys
them by track ID, and scenes of frames; a crossing's ring closes here."""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import chamfer_matrix
from .geometry import EGO_TO_WORLD, Pose2, as_points, transform_points

DIVIDER = "divider"
BOUNDARY = "boundary"
PED_CROSSING = "ped_crossing"
CLASSES = (DIVIDER, BOUNDARY, PED_CROSSING)
POLYLINE_CLASSES = (DIVIDER, BOUNDARY)


@dataclass
class MapInstance:
    """One vector map element.

    `points` is an (N, 2) array: an ordered polyline for dividers and
    boundaries, a CCW ring for pedestrian crossings. The frame (ego or
    world) follows from context.
    """

    cls: str
    points: np.ndarray
    score: float = 1.0
    id: int | None = None
    embedding: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.cls not in CLASSES:
            raise ValueError(f"unknown class {self.cls!r}")
        self.points = as_points(self.points)
        if self.embedding is not None:
            self.embedding = np.asarray(self.embedding, dtype=np.float64)

    @property
    def is_polyline(self) -> bool:
        return self.cls in POLYLINE_CLASSES

    @property
    def closed_points(self) -> np.ndarray:
        """The points, with a crossing's ring closed by its first point."""
        if self.is_polyline:
            return self.points
        return np.vstack([self.points, self.points[:1]])

    def transformed(self, pose: Pose2, direction: str) -> "MapInstance":
        return replace(self, points=transform_points(pose, self.points, direction))

    def with_points(self, points) -> "MapInstance":
        return replace(self, points=as_points(points))


@dataclass
class GlobalMap:
    scene_id: str = ""
    instances: dict[int, MapInstance] = field(default_factory=dict)


@dataclass
class Frame:
    t: int
    ego_pose: Pose2
    gt_local: list[MapInstance]
    detections: list[MapInstance]


@dataclass
class Scene:
    scene_id: str
    range_lw: tuple[float, float]
    gt: GlobalMap
    frames: list[Frame]
    # the field `read_scene` found first of a detection without an embedding
    missing_embedding: str | None = None


def to_world(pose: Pose2, insts) -> list[MapInstance]:
    """Copies of one frame's ego-frame `insts` in the world frame, ids,
    scores and embeddings kept; icmap's one ego-to-world move. Their points
    move in one elementwise transform, so each gets the bits it gets alone."""
    if not insts:
        return []
    world = transform_points(pose, np.concatenate([i.points for i in insts]), EGO_TO_WORLD)
    pieces = np.split(world, np.cumsum([len(i.points) for i in insts])[:-1])
    return [replace(i, points=pts) for i, pts in zip(insts, pieces)]


def chamfer_by_class(a, b, points=lambda inst: inst.points) -> np.ndarray:
    """(len(a), len(b)) Chamfer distances between same-class instances of
    two lists, inf across classes.

    `points` gives the point set an instance is compared by. Each class is
    one `chamfer_matrix` call, whose entries have the bits of
    `chamfer_distance`.
    """
    out = np.full((len(a), len(b)), np.inf)
    for cls in CLASSES:
        rows = [i for i, inst in enumerate(a) if inst.cls == cls]
        cols = [j for j, inst in enumerate(b) if inst.cls == cls]
        if rows and cols:
            out[np.ix_(rows, cols)] = chamfer_matrix([points(a[i]) for i in rows],
                                                     [points(b[j]) for j in cols])
    return out
