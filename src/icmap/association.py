"""Temporal association of per-frame detections against a track buffer.

Per frame: take the detections in the world frame
(`instance.frames_to_world`), where the buffer's tracks are stored, and
outline them all in one pass; build detection/track affinities from a
geometric branch (exp(-chamfer/tau) between outlines, class gated) and a
feature branch (shifted cosine of embeddings), fuse them as a convex
combination, keep same-class pairs (`instance._same_class`, the one class
gate) above the threshold theta and solve the optimal one-to-one matching.
Then one pass over the frame decides every ID and rebuilds the buffer: a
matched detection takes its track's ID and replaces that track, outline
included; the others get fresh IDs from `next_id` on, in detection order,
and join the buffer's end; an unmatched track ages, and leaves once it has
missed more than max_age frames. `associate_frame` is the only place that
issues an ID. `w_feat` alone picks the branches: 0 is geometry alone,
above 0 needs every embedding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import linear_sum_assignment
from .errors import MissingEmbedding
# chamfer_distance and densify are not called here, but pipebench/spans.py
# wraps them as import sites of this module
from .geometry import chamfer_distance, densify, densify_many  # noqa: F401
from .instance import MapInstance, _same_class, frames_chamfer_by_class

GEO_DENSIFY = 1.0  # meters between the points the Chamfer metric compares


@dataclass
class Track:
    instance: MapInstance  # world frame; id set once it is in the buffer
    outline: np.ndarray  # the densified instance (`outlined_frame`), the points it is scored by
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
        for name in ("tau", "theta", "w_feat"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if not 0.0 <= self.w_feat <= 1.0:
            raise ValueError("w_feat must lie in [0, 1]")
        if self.max_age < 0:
            raise ValueError("max_age must be >= 0")


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
    same-class pairs, 0 across classes: the frame's pairs scored in one
    `frames_chamfer_by_class` pass."""
    (dist,) = frames_chamfer_by_class([dets], [tracks], lambda tr: tr.outline)
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
        fused = (1.0 - config.w_feat) * fused + config.w_feat * feature_affinity(dets, stored)
    eligible = threshold_filter(fused, config.theta) & _same_class([dets], [stored])[0]
    matching = optimal_match(fused, eligible)
    track_of = dict(matching)  # det index -> track index
    det_of = {j: i for i, j in matching}  # track index -> det index
    new_ids = []
    det_tracks = []
    for i, (det, s) in enumerate(zip(dets, scored)):
        if i in track_of:
            det_id = stored[track_of[i]].id
        else:
            det_id = buffer.next_id + len(new_ids)
            new_ids.append(det_id)
        det_tracks.append(Track(replace(det, id=det_id), s.outline))
    tracks = [det_tracks[det_of[j]] if j in det_of else replace(tr, age_missed=tr.age_missed + 1)
              for j, tr in enumerate(buffer.tracks)
              if j in det_of or tr.age_missed < config.max_age]
    tracks += [t for i, t in enumerate(det_tracks) if i not in track_of]
    matches = [(i, stored[j].id, float(fused[i, j])) for i, j in matching]
    return AssociationResult([t.instance for t in det_tracks],
                             TrackBuffer(tracks, buffer.next_id + len(new_ids)), matches, new_ids)
