"""The types every stage shares: map instances, the global map that keys
them by track ID, and scenes of frames; a crossing's ring closes here."""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate

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


def to_world(pose: Pose2, insts) -> list[MapInstance]:
    """Copies of one frame's ego-frame `insts` in the world frame, ids,
    scores and embeddings kept: `frames_to_world` of the one frame."""
    return frames_to_world([pose], [insts])[0]


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
    distances between the frame's same-class items, inf across classes;
    each entry has the bits of `chamfer_distance`.

    An item is anything with a `cls`; `points` gives the point set it is
    compared by. Every frame's pairs are listed in a few array passes and
    scored in one `chamfer_pairs` call; an item with no points raises
    EmptyPointSet only when it is paired.
    """
    n_a = np.array([len(frame) for frame in a_frames], dtype=np.intp)
    n_b = np.array([len(frame) for frame in b_frames], dtype=np.intp)
    key_a, key_b = _frame_class_keys(a_frames, n_a), _frame_class_keys(b_frames, n_b)
    # b's instances sorted by key, so that each key's are one run of them
    by_key = np.argsort(key_b)
    count_b = np.bincount(key_b, minlength=len(n_b) * len(CLASSES))
    # row i pairs with the run of its key: reps[i] instances from first[i] on,
    # its k-th pair with the run's k-th
    reps = count_b[key_a]
    first = (np.cumsum(count_b) - count_b)[key_a]
    rows = np.repeat(np.arange(len(key_a)), reps)
    ends = np.cumsum(reps)
    cols = by_key[np.arange(reps.sum()) + np.repeat(first - ends + reps, reps)]
    # each pair's place in its frame's matrix, the frames' matrices laid end to end
    frame_a = np.repeat(np.arange(len(n_a)), n_a)
    local_a = np.arange(len(key_a)) - np.repeat(np.cumsum(n_a) - n_a, n_a)
    local_b = np.arange(len(key_b)) - np.repeat(np.cumsum(n_b) - n_b, n_b)
    sizes = n_a * n_b
    starts = np.cumsum(sizes) - sizes
    f = frame_a[rows]
    flat = np.full(sizes.sum(), np.inf)
    flat[starts[f] + local_a[rows] * n_b[f] + local_b[cols]] = chamfer_pairs(
        [points(inst) for frame in a_frames for inst in frame],
        [points(inst) for frame in b_frames for inst in frame], rows, cols)
    return [flat[s:s + m * n].reshape(m, n)
            for s, m, n in zip(starts.tolist(), n_a.tolist(), n_b.tolist())]


def _frame_class_keys(frames, sizes) -> np.ndarray:
    """Per item of `frames`, in order: its frame's index times
    len(CLASSES), plus its class's index."""
    code = {cls: k for k, cls in enumerate(CLASSES)}
    classes = np.array([code[inst.cls] for frame in frames for inst in frame], dtype=np.intp)
    return np.repeat(np.arange(len(frames)) * len(CLASSES), sizes) + classes
