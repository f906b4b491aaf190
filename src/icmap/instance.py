"""The types every stage shares: map instances, the global map that keys
them by track ID, and scenes of frames; a crossing's ring closes here."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, pairwise

import numpy as np

from ._kernels import chamfer_pairs
from .geometry import EGO_TO_WORLD, Pose2, _rigid, as_points, transform_points

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


def frames_to_world(poses, frames) -> list[list[MapInstance]]:
    """Copies of each frame's ego-frame instances in the world frame, ids,
    scores and embeddings kept, frame k moved by `poses[k]`. The points of
    every frame move in one elementwise transform, so each instance gets the
    bits `transform_points` gives it alone."""
    insts = [inst for frame in frames for inst in frame]
    if not insts:
        return [[] for _ in frames]
    sizes = [len(inst.points) for inst in insts]
    per_frame = [sum(len(inst.points) for inst in frame) for frame in frames]
    pose_rows = np.array([[math.cos(p.theta), math.sin(p.theta), p.x, p.y] for p in poses])
    c, s, tx, ty = np.repeat(pose_rows, per_frame, axis=0).T
    world = _rigid(c, s, tx, ty, np.concatenate([inst.points for inst in insts]), EGO_TO_WORLD)
    moved = [MapInstance(inst.cls, pts, inst.score, inst.id, inst.embedding)
             for inst, pts in zip(insts, np.split(world, np.cumsum(sizes)[:-1]))]
    ends = list(accumulate(map(len, frames)))
    return [moved[lo:hi] for lo, hi in zip([0, *ends], ends)]


def frames_chamfer_by_class(a_frames, b_frames,
                            points=lambda inst: inst.points) -> list[np.ndarray]:
    """Per frame k, the (len(a_frames[k]), len(b_frames[k])) Chamfer
    distances between the frame's same-class items (`_same_class`), inf
    across classes; each entry has the bits of `chamfer_distance`.

    An item is anything with a `cls`; `points` gives the point set it is
    compared by. Every frame's pairs are scored in one `chamfer_pairs` call;
    an item with no points raises EmptyPointSet only when it is paired.
    """
    masks = _same_class(a_frames, b_frames)
    pairs = [np.nonzero(mask) for mask in masks]
    counts = [len(i) for i, _ in pairs]
    # each pair's two items, indexed among the items of all frames
    rows = np.concatenate([np.empty(0, np.intp), *(i for i, _ in pairs)])
    cols = np.concatenate([np.empty(0, np.intp), *(j for _, j in pairs)])
    rows += np.repeat(np.cumsum([0, *map(len, a_frames)])[:-1], counts)
    cols += np.repeat(np.cumsum([0, *map(len, b_frames)])[:-1], counts)
    dist = chamfer_pairs([points(inst) for frame in a_frames for inst in frame],
                         [points(inst) for frame in b_frames for inst in frame], rows, cols)
    tables = [np.full(mask.shape, np.inf) for mask in masks]
    for table, (i, j), lo, hi in zip(tables, pairs, [0, *accumulate(counts)], accumulate(counts)):
        table[i, j] = dist[lo:hi]
    return tables


def _same_class(a_frames, b_frames) -> list[np.ndarray]:
    """Per frame k, the (len(a_frames[k]), len(b_frames[k])) mask of the
    pairs of the frame's items with the same class: the one class gate,
    read by association's matching and by every per-frame Chamfer table.
    Each item's class code is looked up once."""
    code = {cls: k for k, cls in enumerate(CLASSES)}
    code_a = np.array([code[inst.cls] for frame in a_frames for inst in frame], dtype=np.intp)
    code_b = np.array([code[inst.cls] for frame in b_frames for inst in frame], dtype=np.intp)
    ends_a = pairwise([0, *accumulate(map(len, a_frames))])
    ends_b = pairwise([0, *accumulate(map(len, b_frames))])
    return [code_a[lo_a:hi_a, None] == code_b[lo_b:hi_b]
            for (lo_a, hi_a), (lo_b, hi_b) in zip(ends_a, ends_b, strict=True)]
