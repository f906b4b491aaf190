"""Temporal association of per-frame detections against a track buffer.

Per frame: take the detections in the world frame (`instance.to_world`),
where the buffer's tracks are stored, and outline them all in one pass; build
detection/track affinities from a geometric branch (exp(-chamfer/tau)
between outlines, class gated) and a feature branch (shifted cosine of
embeddings), fuse them as a convex combination, keep same-class pairs above
the threshold theta, solve the optimal one-to-one matching, inherit or
issue IDs, and update the buffer (unmatched tracks age out after max_age
missed frames). `w_feat` alone
picks the branches: 0 is geometry alone, above 0 needs every embedding.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import linear_sum_assignment
from .errors import DuplicateId, MissingEmbedding, ShapeMismatch
# chamfer_distance and densify are not called here, but pipebench/spans.py
# wraps them as import sites of this module
from .geometry import chamfer_distance, densify, densify_many  # noqa: F401
from .instance import MapInstance, chamfer_by_class

GEO_DENSIFY = 1.0  # meters between the points the Chamfer metric compares


@dataclass
class Track:
    instance: MapInstance  # world frame; id set once it is in the buffer
    outline: np.ndarray  # the densified instance (`outlined`), the points it is scored by
    age_missed: int = 0

    @property
    def cls(self) -> str:
        return self.instance.cls


@dataclass
class TrackBuffer:
    tracks: list[Track] = field(default_factory=list)
    next_id: int = 0


@dataclass(frozen=True)
class AssocConfig:
    tau: float = 2.0
    theta: float = 0.5
    w_feat: float = 0.3
    max_age: int = 0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if not 0.0 <= self.w_feat <= 1.0:
            raise ValueError("w_feat must lie in [0, 1]")
        if self.max_age < 0:
            raise ValueError("max_age must be >= 0")


def outlined(inst: MapInstance) -> Track:
    """A track of `inst`, its closed points densified once at GEO_DENSIFY."""
    return outlined_frame([inst])[0]


def outlined_frame(insts) -> list[Track]:
    """A track of each of `insts`, its closed points densified once at
    GEO_DENSIFY, from one `densify_many` call (so with `densify`'s bits);
    each outline is a view of one array."""
    # detector output is sparse (tens of points over ~100 m); comparing
    # densified curves keeps the distance about shape, not sample phase
    pts, bounds = densify_many([inst.closed_points for inst in insts], GEO_DENSIFY)
    return [Track(inst, pts[lo:hi])
            for inst, lo, hi in zip(insts, bounds[:-1].tolist(), bounds[1:].tolist())]


def geometric_affinity(dets, tracks, tau: float) -> np.ndarray:
    """exp(-chamfer/tau) between the outlines of two lists of tracks for
    same-class pairs, 0 across classes. Each class is scored as one matrix."""
    dist = chamfer_by_class(dets, tracks, lambda tr: tr.outline)
    return np.exp(-dist / tau)


def feature_affinity(dets, tracks) -> np.ndarray:
    """(1 + cos(e_d, e_t)) / 2 over unit-norm embeddings, which every
    instance must carry unless there is no pair to score."""
    if not dets or not tracks:
        return np.zeros((len(dets), len(tracks)))
    if any(inst.embedding is None for inst in [*dets, *tracks]):
        raise MissingEmbedding("feature affinity (w_feat > 0) needs an embedding on every "
                               "instance; set w_feat = 0 to associate by geometry alone")
    def unit_rows(insts):
        e = np.array([inst.embedding for inst in insts], dtype=np.float64)
        return e / np.linalg.norm(e, axis=1, keepdims=True)

    h = 0.5 * (1.0 + unit_rows(dets) @ unit_rows(tracks).T)
    return np.clip(h, 0.0, 1.0)


def fuse_affinity(geo: np.ndarray, feat: np.ndarray, w_feat: float) -> np.ndarray:
    """(1 - w_feat) * geo + w_feat * feat."""
    if geo.shape != feat.shape:
        raise ShapeMismatch(f"affinity shapes differ: {geo.shape} vs {feat.shape}")
    return (1.0 - w_feat) * geo + w_feat * feat


def threshold_filter(h: np.ndarray, theta: float) -> np.ndarray:
    """Eligibility mask: strictly above theta."""
    return h > theta


def optimal_match(h: np.ndarray, eligible: np.ndarray) -> list[tuple[int, int]]:
    """One-to-one matching over eligible pairs maximizing the total score.

    Ineligible pairs contribute nothing and are never returned; rows and
    columns may stay unmatched. The total equals the brute-force optimum
    because ineligible entries enter the rectangular assignment with zero
    score and are filtered from the solution.
    """
    if h.size == 0:
        return []
    scores = np.where(eligible, h, 0.0)
    rows, cols = linear_sum_assignment(scores, maximize=True)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if eligible[i, j]]


def allocate_ids(dets, matching, buffer: TrackBuffer) -> tuple[list[MapInstance], int]:
    """Matched detections inherit track IDs; the rest get fresh ones."""
    track_ids = [t.instance.id for t in buffer.tracks]
    by_det = {i: track_ids[j] for i, j in matching}
    next_id = buffer.next_id
    out = []
    for i, det in enumerate(dets):
        if i in by_det:
            out.append(replace(det, id=by_det[i]))
        else:
            out.append(replace(det, id=next_id))
            next_id += 1
    return out, next_id


def update_buffer(buffer: TrackBuffer, det_tracks, max_age: int, next_id: int) -> TrackBuffer:
    """Refresh matched tracks, age and prune unmatched ones, append new.

    `det_tracks` are the frame's detections as tracks with IDs set; each
    replaces the stored track of its ID, outline included. `next_id` is the
    first ID not yet issued, as `allocate_ids` returns it."""
    ids = [d.instance.id for d in det_tracks]
    if len(ids) != len(set(ids)):
        raise DuplicateId("detections carry duplicate IDs")
    by_id = dict(zip(ids, det_tracks))
    tracks: list[Track] = []
    for tr in buffer.tracks:
        det = by_id.pop(tr.instance.id, None)
        if det is not None:
            tracks.append(det)
        elif tr.age_missed < max_age:
            tracks.append(replace(tr, age_missed=tr.age_missed + 1))
    tracks.extend(by_id.values())
    return TrackBuffer(tracks, next_id)


@dataclass
class AssociationResult:
    dets: list[MapInstance]  # world frame, ids set
    buffer: TrackBuffer
    matches: list[tuple[int, int, float]]  # (det index, track id, affinity)
    new_ids: list[int]


def associate_frame(buffer: TrackBuffer, dets, config: AssocConfig) -> AssociationResult:
    """Assign IDs to one frame of world-frame detections and update the
    buffer. The detections are outlined once, here; the buffer's tracks are
    scored as stored."""
    scored = outlined_frame(dets)
    stored = [t.instance for t in buffer.tracks]
    fused = geometric_affinity(scored, buffer.tracks, config.tau)
    if config.w_feat > 0:
        fused = fuse_affinity(fused, feature_affinity(dets, stored), config.w_feat)
    same_class = np.array(
        [[d.cls == t.cls for t in stored] for d in dets], dtype=bool
    ).reshape(fused.shape)
    matching = optimal_match(fused, threshold_filter(fused, config.theta) & same_class)
    world_ids, next_id = allocate_ids(dets, matching, buffer)
    det_tracks = [Track(d, s.outline) for d, s in zip(world_ids, scored)]
    new_buffer = update_buffer(buffer, det_tracks, config.max_age, next_id)
    track_ids = [t.instance.id for t in buffer.tracks]
    matches = [(i, track_ids[j], float(fused[i, j])) for i, j in matching]
    # allocate_ids issued these, in detection order, to the unmatched
    new_ids = list(range(buffer.next_id, next_id))
    return AssociationResult(world_ids, new_buffer, matches, new_ids)
