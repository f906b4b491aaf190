"""Synthetic scene generation: ground-truth maps, ego trajectories,
per-frame clipped ground truth with IDs, and noisy detections with
simulated embeddings. Everything is a pure function of (config, seed).
The scene's types (`Scene`, `Frame`, `GlobalMap`) live in `instance`;
`write_scene` and `read_scene` lay out the scene file.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleScene, MapFormatError
from .fileio import (
    DETECTION_KEYS,
    MAP_KEYS,
    as_list,
    as_object,
    decode_lists,
    finite_array,
    finite_float,
    from_records,
    gc_paused,
    read_doc,
    to_record,
    whole_int,
    write_doc,
)
from .geometry import (
    Pose2,
    Rect,
    WORLD_TO_EGO,
    densify,
    longest_pieces,
    resample_even,
    transform_stacked,
)
from .instance import BOUNDARY, CLASSES, DIVIDER, PED_CROSSING, Frame, GlobalMap, MapInstance, Scene
from .polygon import _shoelace_rows, clip_rings_to_rects, ensure_ccw

SCENE_FORMAT_VERSION = "1"

STRAIGHT = "straight"
ARC = "arc"
S_CURVE = "s_curve"
CURVATURES = (STRAIGHT, ARC, S_CURVE)

N_POINTS = 20  # detector-shaped output: points per polyline instance
CENTERLINE_STEP = 0.5  # meters between the road's centerline samples


@dataclass(frozen=True)
class NoiseConfig:
    jitter_sigma: float = 0.0
    dropout_prob: float = 0.0
    fp_rate: float = 0.0
    split_prob: float = 0.0
    embedding_sigma: float = 0.05
    embed_dim: int = 16
    score_tp_mean: float = 0.8
    score_tp_std: float = 0.1
    score_fp_mean: float = 0.4
    score_fp_std: float = 0.15

    def __post_init__(self):
        for name in ("jitter_sigma", "dropout_prob", "fp_rate", "split_prob", "embedding_sigma",
                     "score_tp_mean", "score_tp_std", "score_fp_mean", "score_fp_std"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("dropout_prob", "fp_rate", "split_prob"):
            if not 0.0 <= getattr(self, name):
                raise ValueError(f"{name} must be >= 0")
        for name in ("dropout_prob", "split_prob"):
            if getattr(self, name) > 1.0:
                raise ValueError(f"{name} must be <= 1")
        for name in ("jitter_sigma", "embedding_sigma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")

    @classmethod
    def zero(cls) -> "NoiseConfig":
        """Fully deterministic detections: no jitter, constant scores."""
        return cls(embedding_sigma=0.0, score_tp_std=0.0, score_fp_std=0.0)


@dataclass(frozen=True)
class SceneConfig:
    road_length: float = 150.0
    lane_count: int = 2
    lane_width: float = 3.5
    curvature: str = STRAIGHT
    radius: float = 120.0
    crossing_count: int = 1
    frame_count: int = 20
    frame_spacing: float = 3.0
    range_lw: tuple[float, float] = (100.0, 50.0)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("road_length", "lane_width", "radius", "frame_spacing"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for k, val in enumerate(self.range_lw):
            if not math.isfinite(val):
                raise ValueError(f"range_lw[{k}] must be finite")
        for name in ("road_length", "lane_width", "frame_spacing", "lane_count", "frame_count"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("crossing_count", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.curvature not in CURVATURES:
            raise ValueError(f"unknown curvature {self.curvature!r}")
        if min(self.range_lw) <= 0:
            raise ValueError("perception range must be positive")


def _centerline(config: SceneConfig):
    """Dense centerline samples: positions (K, 2), headings (K,), arclen (K,).

    An arc road turns left at `radius`; an s_curve road is that arc with its
    second half (s > L/2) turning right at the same radius."""
    L = config.road_length
    n = int(round(L / CENTERLINE_STEP)) + 1
    s = np.linspace(0.0, L, n)
    if config.curvature == STRAIGHT:
        return np.column_stack([s, np.zeros_like(s)]), np.zeros_like(s), s
    R = config.radius
    th = s / R
    x = R * np.sin(th)
    y = R * (1.0 - np.cos(th))
    if config.curvature == S_CURVE:
        half = L / 2.0
        second = s > half
        phi1 = half / R
        x1, y1 = R * math.sin(phi1), R * (1.0 - math.cos(phi1))
        psi = (s[second] - half) / R
        lx = R * np.sin(psi)
        ly = -R * (1.0 - np.cos(psi))
        c, sn = math.cos(phi1), math.sin(phi1)
        x[second] = x1 + c * lx - sn * ly
        y[second] = y1 + sn * lx + c * ly
        th[second] = phi1 - psi
    return np.column_stack([x, y]), th, s


def _offset_polyline(center: np.ndarray, headings: np.ndarray, d: float) -> np.ndarray:
    normals = np.column_stack([-np.sin(headings), np.cos(headings)])
    return densify(center + d * normals, 1.0)


def generate_scene(config: SceneConfig) -> tuple[GlobalMap, list[Pose2]]:
    """Ground-truth map plus the ego trajectory along the centerline."""
    half_road = config.lane_count * config.lane_width / 2.0
    if config.curvature != STRAIGHT:
        if config.radius <= 0:
            raise InfeasibleScene("curved roads need a positive radius")
        if half_road >= config.radius:
            raise InfeasibleScene(
                f"road half-width {half_road} m exceeds curvature radius {config.radius} m"
            )
    center, headings, s = _centerline(config)

    gmap = GlobalMap(scene_id=f"scene-{config.curvature}-{config.seed}")
    next_id = 0

    def add(cls: str, pts: np.ndarray):
        nonlocal next_id
        gmap.instances[next_id] = MapInstance(cls, pts, id=next_id)
        next_id += 1

    add(BOUNDARY, _offset_polyline(center, headings, +half_road))
    add(BOUNDARY, _offset_polyline(center, headings, -half_road))
    for k in range(1, config.lane_count):
        add(DIVIDER, _offset_polyline(center, headings, -half_road + k * config.lane_width))

    half_len = 2.0  # crossing half-extent along the road
    for i in range(config.crossing_count):
        sc = config.road_length * (i + 1) / (config.crossing_count + 1)
        s0, s1 = sc - half_len, sc + half_len
        quad = []
        for si, side in ((s0, -1.0), (s1, -1.0), (s1, 1.0), (s0, 1.0)):
            cx = np.interp(si, s, center[:, 0])
            cy = np.interp(si, s, center[:, 1])
            th = np.interp(si, s, headings)
            quad.append([cx - side * half_road * math.sin(th),
                         cy + side * half_road * math.cos(th)])
        add(PED_CROSSING, ensure_ccw(np.asarray(quad)))

    poses = []
    for j in range(config.frame_count):
        sj = min(j * config.frame_spacing, config.road_length)
        poses.append(
            Pose2(
                np.interp(sj, s, center[:, 0]),
                np.interp(sj, s, center[:, 1]),
                np.interp(sj, s, headings),
            )
        )
    return gmap, poses


def clip_gt_frame(gt: GlobalMap, pose: Pose2, range_lw) -> list[MapInstance]:
    """Ground truth visible from `pose`: clipped, ego frame, IDs kept.

    Polylines keep their longest clipped piece (resampled to N_POINTS);
    fragments shorter than 0.5 m and slivers of crossings are dropped.
    """
    return clip_gt_frames(gt, [pose], range_lw)[0]


def clip_gt_frames(gt: GlobalMap, poses, range_lw) -> list[list[MapInstance]]:
    """`clip_gt_frame` for each of `poses`, with the same bits. Each
    polyline is clipped against every frame's range in one call
    (`longest_pieces`, which also picks each frame's longest piece and
    resamples the picks together), and the picks are moved into their
    frames at once; every crossing is clipped against every frame's range
    in one call (`_clip_crossings`). Each frame lists its instances in ID
    order."""
    rects = [Rect(pose, range_lw[0] / 2.0, range_lw[1] / 2.0) for pose in poses]
    frames: list[list[MapInstance]] = [[] for _ in poses]
    ids = sorted(gt.instances)
    crossings = _clip_crossings([gt.instances[i] for i in ids if not gt.instances[i].is_polyline],
                                poses, rects)
    for inst_id in ids:
        inst = gt.instances[inst_id]
        if not inst.is_polyline:
            for f, local in crossings[inst_id]:
                frames[f].append(MapInstance(inst.cls, local, id=inst.id))
            continue
        # one line, so each owner is a frame index
        shown, lines = longest_pieces([inst.points], rects, 0.5, N_POINTS)
        local = transform_stacked([poses[f] for f in shown], lines, WORLD_TO_EGO)
        for f, line in zip(shown, local):
            frames[f].append(MapInstance(inst.cls, line, id=inst.id))
    return frames


def _clip_crossings(insts, poses, rects) -> dict:
    """Per ID of the crossings `insts`, the (frame index, ego-frame ring) of
    each frame of `poses` whose range `rects` leaves at least 0.25 m² of the
    crossing, in frame order. One `clip_rings_to_rects` call clips every
    crossing against every range; the area is the shoelace area of the
    world-frame clip, and each kept clip moves from the world into its
    frame, as one frame's clip did."""
    shown: dict = {inst.id: [] for inst in insts}
    if not insts:
        return shown
    rings, sizes, owner = clip_rings_to_rects([inst.points for inst in insts], rects)
    big = np.abs(_shoelace_rows(rings, sizes)) >= 0.25
    frame_of, ring_of = np.divmod(owner[big], len(insts))
    frame_of = frame_of.tolist()
    local = transform_stacked([poses[f] for f in frame_of], rings[big], WORLD_TO_EGO)
    for f, k, ring, size in zip(frame_of, ring_of.tolist(), local, sizes[big].tolist()):
        shown[insts[k].id].append((f, ring[:size]))
    return shown


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _embedding_base(embed_seed: int, inst_id: int, dim: int) -> np.ndarray:
    return _unit(np.random.default_rng(np.random.SeedSequence([embed_seed, 9176, inst_id])), dim)


def _score(rng, mean, std):
    val = rng.normal(mean, std) if std > 0 else mean
    return float(np.clip(val, 0.05, 1.0))


def corrupt_frame(gt_frame, noise: NoiseConfig, seed, range_lw, bases) -> list[MapInstance]:
    """Noisy detections for one frame: jitter, dropout, splits, false
    positives; embeddings are per-ID base vectors plus Gaussian noise.

    `range_lw` is the perception range false positives are drawn in, and
    `bases` maps each GT ID of `gt_frame` to its unit base vector
    (`_embedding_base` of the scene's seed, as `make_scene` builds them).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dets: list[MapInstance] = []
    for inst in gt_frame:
        if noise.dropout_prob > 0 and rng.random() < noise.dropout_prob:
            continue
        pts = inst.points.copy()
        fragments = [pts]
        if (
            inst.is_polyline
            and noise.split_prob > 0
            and len(pts) >= 8
            and rng.random() < noise.split_prob
        ):
            cut = int(rng.integers(len(pts) * 2 // 5, len(pts) * 3 // 5 + 1))
            fragments = [
                resample_even(pts[: cut + 1], len(pts)),
                resample_even(pts[cut:], len(pts)),
            ]
        for frag in fragments:
            frag = frag.copy()
            if noise.jitter_sigma > 0:
                frag += rng.normal(0.0, noise.jitter_sigma, frag.shape)
            base = bases[inst.id]
            if noise.embedding_sigma > 0:
                emb = base + rng.normal(0.0, noise.embedding_sigma, noise.embed_dim)
                emb /= np.linalg.norm(emb)
            else:
                emb = base
            dets.append(
                MapInstance(
                    inst.cls,
                    frag,
                    score=_score(rng, noise.score_tp_mean, noise.score_tp_std),
                    embedding=emb,
                )
            )
    n_fp = int(rng.poisson(noise.fp_rate)) if noise.fp_rate > 0 else 0
    hl, hw = range_lw[0] / 2.0, range_lw[1] / 2.0
    for _ in range(n_fp):
        cls = CLASSES[int(rng.integers(0, 3))]
        cx = rng.uniform(-hl, hl)
        cy = rng.uniform(-hw, hw)
        ang = rng.uniform(0, math.tau)
        c, s = math.cos(ang), math.sin(ang)
        if cls == PED_CROSSING:
            a, b = rng.uniform(1.5, 3.0), rng.uniform(2.0, 5.0)
            quad = np.array([[-a, -b], [a, -b], [a, b], [-a, b]], dtype=float)
            pts = quad @ np.array([[c, s], [-s, c]]) + [cx, cy]
            pts = ensure_ccw(pts)
        else:
            length = rng.uniform(5.0, 15.0)
            ts = np.linspace(-length / 2, length / 2, N_POINTS)
            pts = np.column_stack([cx + c * ts, cy + s * ts])
        dets.append(
            MapInstance(
                cls,
                pts,
                score=_score(rng, noise.score_fp_mean, noise.score_fp_std),
                embedding=_unit(rng, noise.embed_dim),
            )
        )
    return dets


def make_scene(config: SceneConfig) -> Scene:
    """Full scene: ground truth plus per-frame clipped GT and detections."""
    gt, poses = generate_scene(config)
    bases = {inst_id: _embedding_base(config.seed, inst_id, config.noise.embed_dim)
             for inst_id in gt.instances}
    frames = []
    for t, (pose, local) in enumerate(zip(poses, clip_gt_frames(gt, poses, config.range_lw))):
        dets = corrupt_frame(local, config.noise, [config.seed, 104729, t], config.range_lw, bases)
        frames.append(Frame(t, pose, local, dets))
    return Scene(gt.scene_id, config.range_lw, gt, frames)


# ---------------------------------------------------------------------------
# scene file io

@gc_paused()
def write_scene(scene: Scene, path) -> None:
    write_doc({
        "format_version": SCENE_FORMAT_VERSION,
        "scene_id": scene.scene_id,
        "range": [float(scene.range_lw[0]), float(scene.range_lw[1])],
        "gt": {
            "instances": [
                to_record(scene.gt.instances[k], MAP_KEYS) for k in sorted(scene.gt.instances)
            ]
        },
        "frames": [
            {
                "t": f.t,
                "ego_pose": {"x": f.ego_pose.x, "y": f.ego_pose.y, "theta": f.ego_pose.theta},
                "gt_local": [to_record(i, MAP_KEYS) for i in f.gt_local],
                "detections": [to_record(d, DETECTION_KEYS) for d in f.detections],
            }
            for f in scene.frames
        ],
    }, path)


@gc_paused()
def read_scene(path) -> Scene:
    """Read a scene file; raises MapFormatError naming the field of the
    first malformed value. Frame times `t` increase strictly, and the
    range's length and width are positive. Every detection embedding has
    the length of the scene's first one, since association compares them
    across frames, and `missing_embedding` names the first detection
    without one."""
    doc = read_doc(path, "scene", SCENE_FORMAT_VERSION, ("range", "gt", "frames"))
    gt_doc = as_object(doc["gt"], f"{path}: gt", ("instances",))
    gt_insts = from_records(gt_doc["instances"], f"{path}: gt.instances", MAP_KEYS)
    gt = GlobalMap(doc["scene_id"], {inst.id: inst for inst in gt_insts})
    frames = []
    dim = None  # embedding length
    missing = None
    frame_docs = as_list(doc["frames"], f"{path}: frames")
    gt_lists = decode_lists(frame_docs, "gt_local", MAP_KEYS)
    det_lists = decode_lists(frame_docs, "detections", DETECTION_KEYS)
    for fi, fobj in enumerate(frame_docs):
        where = f"{path}: frames[{fi}]"
        as_object(fobj, where, ("t", "ego_pose", "gt_local", "detections"))
        ep = as_object(fobj["ego_pose"], f"{where}.ego_pose", ("x", "y", "theta"))
        pose = Pose2(*(finite_float(ep[key], f"{where}.ego_pose.{key}")
                       for key in ("x", "y", "theta")))
        gt_local = from_records(fobj["gt_local"], f"{where}.gt_local", MAP_KEYS,
                                None if gt_lists is None else gt_lists[fi])
        dets = from_records(fobj["detections"], f"{where}.detections", DETECTION_KEYS,
                            None if det_lists is None else det_lists[fi])
        for di, det in enumerate(dets):
            if det.embedding is None:
                missing = missing or f"{where}.detections[{di}].embedding"
                continue
            if dim is None:
                dim = len(det.embedding)
            elif len(det.embedding) != dim:
                raise MapFormatError(f"{where}.detections[{di}].embedding: {len(det.embedding)}"
                                     f" values, but the scene's first embedding has {dim}")
        t = whole_int(fobj["t"], f"{where}.t")
        if frames and t <= frames[-1].t:
            raise MapFormatError(f"{where}.t: {t}, but the previous frame's t is {frames[-1].t};"
                                 " frame times must increase")
        frames.append(Frame(t, pose, gt_local, dets))
    rng = finite_array(doc["range"], f"{path}: range")
    if rng.shape != (2,):
        raise MapFormatError(f"{path}: range: expected [length, width]")
    if not (rng > 0).all():
        raise MapFormatError(f"{path}: range: expected a positive length and width,"
                             f" got {rng.tolist()}")
    return Scene(doc["scene_id"], (float(rng[0]), float(rng[1])), gt, frames, missing)
