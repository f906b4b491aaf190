"""Evaluation metrics: Chamfer-threshold AP, CLEAR-MOT, and global-map
Chamfer distance.

Counting structures are kept separate from the final ratios so multi-scene
results can be reduced by summing counts before computing MOTA/MOTP.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import linear_sum_assignment
from .geometry import chamfer_distance, densify
from .instance import CLASSES, chamfer_by_class
from .mapstore import GlobalMap

LARGE_THRESHOLDS = (1.0, 1.5, 2.0)   # 100 x 50 m perception range
SMALL_THRESHOLDS = (0.5, 1.0, 1.5)   # 60 x 30 m perception range
MISSING_CLASS_CD = 10.0              # gate when a GT class has no prediction
MAP_CD_SPACING = 0.5                 # meters between the pooled points of global_map_cd
DEFAULT_MOT_GATE = 1.5


# ---------------------------------------------------------------------------
# detection AP

def _ap_from_records(records: list[tuple[float, bool]], n_gt: int) -> float:
    """All-point interpolated average precision."""
    if n_gt == 0:
        return float("nan")
    if not records:
        return 0.0
    records = sorted(records, key=lambda r: -r[0])
    tp = np.cumsum([1.0 if r[1] else 0.0 for r in records])
    fp = np.cumsum([0.0 if r[1] else 1.0 for r in records])
    recall = tp / n_gt
    precision = tp / np.maximum(tp + fp, 1e-12)
    # precision envelope, then sum area under the step curve
    mrec = np.concatenate([[0.0], recall, [recall[-1]]])
    mpre = np.concatenate([[1.0], precision, [0.0]])
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    idx = np.where(mrec[1:] != mrec[:-1])[0]
    return float(np.sum((mrec[idx + 1] - mrec[idx]) * mpre[idx + 1]))


def frame_distances(pred_frames, gt_frames) -> list[np.ndarray]:
    """Per frame, the (predictions x GT) Chamfer distance matrix, inf across
    classes: the one table that AP and CLEAR-MOT both read."""
    if len(pred_frames) != len(gt_frames):
        raise ValueError("prediction and GT streams must be frame-aligned")
    return [chamfer_by_class(preds, gts) for preds, gts in zip(pred_frames, gt_frames)]


def instance_ap(pred_frames, gt_frames, thresholds, dists=None):
    """Per-class AP averaged over Chamfer thresholds, plus mAP.

    Matching is greedy in descending score within each frame: a prediction
    is a true positive when an unmatched same-class GT instance lies within
    the threshold. `dists` is `frame_distances(pred_frames, gt_frames)`,
    computed here when not given. Returns (ap per class, mAP, counts per
    class/threshold).
    """
    if dists is None:
        dists = frame_distances(pred_frames, gt_frames)
    if not len(pred_frames) == len(gt_frames) == len(dists):
        raise ValueError("prediction and GT streams must be frame-aligned")
    classes = sorted(
        {g.cls for fr in gt_frames for g in fr} | {p.cls for fr in pred_frames for p in fr}
    )
    ap: dict[str, float] = {}
    counts: dict[str, dict[float, tuple[int, int, int]]] = {}
    for cls in classes:
        n_gt = sum(1 for fr in gt_frames for g in fr if g.cls == cls)
        if n_gt == 0:
            continue
        # per frame: scores in matching order and their pred x GT Chamfer
        # distances, shared by every threshold
        frames = []
        for preds, gts, dist in zip(pred_frames, gt_frames, dists):
            cols = [j for j, g in enumerate(gts) if g.cls == cls]
            order = sorted(
                (i for i, p in enumerate(preds) if p.cls == cls),
                key=lambda i: (-preds[i].score, i),
            )
            rows = dist.take(order, 0).take(cols, 1).tolist()
            frames.append(([preds[i].score for i in order], rows, len(cols)))
        per_thr = []
        counts[cls] = {}
        for thr in thresholds:
            records: list[tuple[float, bool]] = []
            for scores, dist, n_gts in frames:
                used = [False] * n_gts
                for score, row in zip(scores, dist):
                    best_j, best_d = -1, np.inf
                    for j, d in enumerate(row):
                        if not used[j] and d < best_d:
                            best_j, best_d = j, d
                    hit = best_j >= 0 and best_d < thr
                    if hit:
                        used[best_j] = True
                    records.append((score, hit))
            tp = sum(1 for r in records if r[1])
            counts[cls][thr] = (tp, len(records) - tp, n_gt - tp)
            per_thr.append(_ap_from_records(records, n_gt))
        ap[cls] = float(np.mean(per_thr))
    mean_ap = float(np.mean([ap[c] for c in ap])) if ap else float("nan")
    return ap, mean_ap, counts


# ---------------------------------------------------------------------------
# CLEAR-MOT

@dataclass
class MotCounts:
    gt: int = 0
    fn: int = 0
    fp: int = 0
    id_switches: int = 0
    matches: int = 0
    dist_sum: float = 0.0

    def add(self, other: "MotCounts") -> "MotCounts":
        return MotCounts(
            self.gt + other.gt,
            self.fn + other.fn,
            self.fp + other.fp,
            self.id_switches + other.id_switches,
            self.matches + other.matches,
            self.dist_sum + other.dist_sum,
        )

    @property
    def mota(self) -> float:
        if self.gt == 0:
            return float("nan")
        return 1.0 - (self.fn + self.fp + self.id_switches) / self.gt

    @property
    def motp(self) -> float:
        return self.dist_sum / self.matches if self.matches else float("nan")


def clear_mot_counts(pred_frames, gt_frames, match_threshold: float = DEFAULT_MOT_GATE,
                     dists=None):
    """CLEAR protocol counts per class over one frame-aligned scene.

    Previous-frame correspondences persist while still within the gate;
    the rest are matched per frame by Hungarian assignment on Chamfer
    distance. An ID switch is counted when a GT identity's matched
    prediction ID differs from its last known one. `dists` is
    `frame_distances(pred_frames, gt_frames)`, computed here when not given.
    """
    if dists is None:
        dists = frame_distances(pred_frames, gt_frames)
    if not len(pred_frames) == len(gt_frames) == len(dists):
        raise ValueError("prediction and GT streams must be frame-aligned")
    classes = sorted({g.cls for fr in gt_frames for g in fr})
    out: dict[str, MotCounts] = {}
    for cls in classes:
        counts = MotCounts()
        last_match: dict[int, int] = {}
        corr: dict[int, int] = {}  # live correspondence gt id -> pred id
        for preds_all, gts_all, dist_all in zip(pred_frames, gt_frames, dists):
            rows = [j for j, p in enumerate(preds_all) if p.cls == cls]
            cols = [i for i, g in enumerate(gts_all) if g.cls == cls]
            gts = [gts_all[i] for i in cols]
            preds = [preds_all[j] for j in rows]
            counts.gt += len(gts)
            if not gts and not preds:
                corr = {}
                continue
            dist = dist_all.take(rows, 0).take(cols, 1).T  # GT x predictions
            matched_g: set[int] = set()
            matched_p: set[int] = set()
            pairs: list[tuple[int, int]] = []
            pred_by_id = {p.id: j for j, p in enumerate(preds)}
            for i, g in enumerate(gts):
                j = pred_by_id.get(corr.get(g.id))
                if j is not None and j not in matched_p and dist[i, j] < match_threshold:
                    pairs.append((i, j))
                    matched_g.add(i)
                    matched_p.add(j)
            free_g = [i for i in range(len(gts)) if i not in matched_g]
            free_p = [j for j in range(len(preds)) if j not in matched_p]
            if free_g and free_p:
                sub = dist[np.ix_(free_g, free_p)]
                cost = np.where(sub < match_threshold, sub, 1e9)
                rows, cols = linear_sum_assignment(cost)
                for r, c in zip(rows, cols):
                    if sub[r, c] < match_threshold:
                        pairs.append((free_g[r], free_p[c]))
            corr = {}
            for i, j in pairs:
                g, p = gts[i], preds[j]
                prev = last_match.get(g.id)
                if prev is not None and prev != p.id:
                    counts.id_switches += 1
                last_match[g.id] = p.id
                corr[g.id] = p.id
                counts.matches += 1
                counts.dist_sum += float(dist[i, j])
            counts.fn += len(gts) - len(pairs)
            counts.fp += len(preds) - len(pairs)
        out[cls] = counts
    return out


def clear_mot(pred_frames, gt_frames):
    """Per-class (MOTA, MOTP, ID switches) at the DEFAULT_MOT_GATE."""
    counts = clear_mot_counts(pred_frames, gt_frames)
    return {
        cls: (c.mota, c.motp, c.id_switches) for cls, c in counts.items()
    }


# ---------------------------------------------------------------------------
# global-map Chamfer distance

def _pooled_points(gmap: GlobalMap, cls: str) -> np.ndarray:
    chunks = []
    for inst_id in sorted(gmap.instances):
        inst = gmap.instances[inst_id]
        if inst.cls != cls:
            continue
        pts = inst.points
        if not inst.is_polyline:
            pts = np.vstack([pts, pts[:1]])  # close the ring
        chunks.append(densify(pts, MAP_CD_SPACING))
    if not chunks:
        return np.zeros((0, 2))
    return np.vstack(chunks)


def global_map_cd(pred: GlobalMap, gt: GlobalMap):
    """Per-class Chamfer distance between pooled, densified maps.

    Classes present in GT but missing from the prediction score the finite
    gate MISSING_CLASS_CD; classes absent from GT are skipped. mCD is the
    mean over GT classes.
    """
    cd: dict[str, float] = {}
    for cls in CLASSES:
        gt_pts = _pooled_points(gt, cls)
        if len(gt_pts) == 0:
            continue
        pred_pts = _pooled_points(pred, cls)
        if len(pred_pts) == 0:
            cd[cls] = MISSING_CLASS_CD
        else:
            cd[cls] = chamfer_distance(pred_pts, gt_pts)
    mcd = float(np.mean(list(cd.values()))) if cd else float("nan")
    return cd, mcd


# ---------------------------------------------------------------------------
# report

@dataclass
class EvalReport:
    ap: dict[str, float] = field(default_factory=dict)
    mean_ap: float = float("nan")
    ap_thresholds: list[float] = field(default_factory=list)
    det_counts: dict = field(default_factory=dict)
    mota: dict[str, float] = field(default_factory=dict)
    motp: dict[str, float] = field(default_factory=dict)
    id_switches: dict[str, int] = field(default_factory=dict)
    mot_gate: float = DEFAULT_MOT_GATE
    cd: dict[str, float] = field(default_factory=dict)
    mcd: float = float("nan")

    def to_doc(self) -> dict:
        return {
            "ap": self.ap,
            "mAP": self.mean_ap,
            "ap_thresholds": list(self.ap_thresholds),
            "det_counts": {
                cls: {str(t): list(v) for t, v in thr.items()}
                for cls, thr in self.det_counts.items()
            },
            "mota": self.mota,
            "motp": self.motp,
            "id_switches": self.id_switches,
            "mot_gate": self.mot_gate,
            "cd": self.cd,
            "mCD": self.mcd,
        }

    def table(self) -> str:
        lines = []
        classes = sorted(set(self.ap) | set(self.mota) | set(self.cd))
        header = f"{'class':<14}{'AP':>8}{'MOTA':>8}{'MOTP':>8}{'IDS':>6}{'CD':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for cls in classes:
            lines.append(
                f"{cls:<14}"
                f"{self.ap.get(cls, float('nan')):>8.3f}"
                f"{self.mota.get(cls, float('nan')):>8.3f}"
                f"{self.motp.get(cls, float('nan')):>8.3f}"
                f"{self.id_switches.get(cls, 0):>6d}"
                f"{self.cd.get(cls, float('nan')):>8.3f}"
            )
        lines.append("-" * len(header))
        lines.append(f"mAP {self.mean_ap:.4f}   mCD {self.mcd:.4f} m")
        return "\n".join(lines) + "\n"
