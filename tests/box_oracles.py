"""Per-box reference geometry, for tests only.

The package computes IoU, NMS and box encoding on (N, 4) corner arrays
(mrfdet.anchors) and keeps ground truth as (M, 5) arrays. These versions
follow the textbook definitions one box or one pair at a time, and the
tests check the array functions against them.
"""

from dataclasses import dataclass

import numpy as np

from mrfdet.tensor_core import ShapeError


@dataclass
class Box:
    """One box at a time; the package keeps ground truth as rows of an
    (M, 5) array instead (see gt_array)."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float
    class_id: int = 0

    @property
    def area(self):
        return (self.xmax - self.xmin) * (self.ymax - self.ymin)


def boxes_of(gts) -> list:
    """(M, 5) ground-truth rows as Boxes."""
    return [Box(*row) for row in np.asarray(gts).tolist()]


def corners(boxes) -> np.ndarray:
    """Boxes as a corner-form (N, 4) array."""
    return np.array([[b.xmin, b.ymin, b.xmax, b.ymax] for b in boxes],
                    dtype=np.float64).reshape(-1, 4)


def gt_array(boxes) -> np.ndarray:
    """Boxes as the package's (M, 5) ground-truth rows: xmin, ymin, xmax,
    ymax, class id."""
    return np.array([[b.xmin, b.ymin, b.xmax, b.ymax, b.class_id] for b in boxes],
                    dtype=np.float64).reshape(-1, 5)


@dataclass
class ScoredBox(Box):
    """A detection one box at a time; the package keeps detections as rows
    of a (K, 6) array instead (see detection_array)."""

    score: float = None


def detection_array(detections) -> np.ndarray:
    """ScoredBoxes as the package's (K, 6) rows: xmin, ymin, xmax, ymax,
    score, class id."""
    return np.array([[d.xmin, d.ymin, d.xmax, d.ymax, d.score, d.class_id]
                     for d in detections], dtype=np.float64).reshape(-1, 6)


def box_from_center(cx, cy, w, h, class_id=0) -> Box:
    if w <= 0 or h <= 0:
        raise ShapeError(f"non-positive box extent ({w}, {h})")
    return Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2, class_id)


def center(b: Box):
    return ((b.xmin + b.xmax) / 2, (b.ymin + b.ymax) / 2,
            b.xmax - b.xmin, b.ymax - b.ymin)


def iou(a: Box, b: Box) -> float:
    """Intersection over union; 0 for disjoint boxes."""
    iw = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    ih = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def encode_box(g: Box, d: Box):
    """Offsets (t_cx, t_cy, t_w, t_h) of ground truth g relative to default box d.

    t_cx = (g_cx - d_cx) / d_w, t_cy = (g_cy - d_cy) / d_h,
    t_w = log(g_w / d_w), t_h = log(g_h / d_h).
    """
    gcx, gcy, gw, gh = center(g)
    dcx, dcy, dw, dh = center(d)
    return ((gcx - dcx) / dw, (gcy - dcy) / dh,
            float(np.log(gw / dw)), float(np.log(gh / dh)))


def nms(detections, iou_threshold=0.45, max_keep=200):
    """Greedy per-class NMS by descending score; ties by insertion order."""
    kept = []
    by_class = {}
    for idx, det in enumerate(detections):
        by_class.setdefault(det.class_id, []).append((idx, det))
    for cls in sorted(by_class):
        group = sorted(by_class[cls], key=lambda p: (-p[1].score, p[0]))
        chosen = []
        for idx, det in group:
            if all(iou(det, other) < iou_threshold for _, other in chosen):
                chosen.append((idx, det))
        kept.extend(chosen)
    kept.sort(key=lambda p: (-p[1].score, p[0]))
    return [det for _, det in kept[:max_keep]]

