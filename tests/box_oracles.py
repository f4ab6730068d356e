"""Per-box reference geometry and evaluation, for tests only.

The package computes default boxes, IoU, NMS and box encoding on (N, 4)
corner arrays (mrfdet.anchors) and keeps ground truth as (M, 5) arrays.
These versions follow the textbook definitions one box or one pair at a
time, and the tests check the array functions against them.

The package's evaluation matches each image once for every IoU threshold
and area band of a report. greedy_match and the reference_* functions
below match one setting at a time, one (class, image) at a time, and sort
each class's detections as Python tuples per setting.
"""

from dataclasses import dataclass

import numpy as np

from mrfdet.anchors import iou_matrix
from mrfdet.eval_metrics import AREA_BANDS, average_precision
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


def iou_matrix_formula(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU as one expression of full-size temporaries, the form
    that iou_matrix computes in three buffers."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def encode_box(g: Box, d: Box):
    """Offsets (t_cx, t_cy, t_w, t_h) of ground truth g relative to default box d.

    t_cx = (g_cx - d_cx) / d_w, t_cy = (g_cy - d_cy) / d_h,
    t_w = log(g_w / d_w), t_h = log(g_h / d_h).
    """
    gcx, gcy, gw, gh = center(g)
    dcx, dcy, dw, dh = center(d)
    return ((gcx - dcx) / dw, (gcy - dcy) / dh,
            float(np.log(gw / dw)), float(np.log(gh / dh)))


def generate_anchors_per_cell(pyramid_shapes, scales, aspect_ratios, image_size):
    """mrfdet.anchors.generate_anchors one Python tuple per (cell, box): rows
    y, then columns x, then the ratio boxes and the geometric-mean box."""
    out = []
    for level, (extent, ratios) in enumerate(zip(pyramid_shapes, aspect_ratios)):
        s = scales[level]
        cell = image_size / extent
        sizes = [(s * np.sqrt(r), s / np.sqrt(r)) for r in ratios]
        extra = np.sqrt(s * scales[level + 1])
        sizes.append((extra, extra))
        for y in range(extent):
            cy = (y + 0.5) * cell
            for x in range(extent):
                cx = (x + 0.5) * cell
                for w, h in sizes:
                    out.append((cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2))
    return np.clip(np.array(out, dtype=np.float64), 0, image_size)


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



def greedy_match(ious, iou_threshold, in_band):
    """Match the detections of one class/image to its ground truths.

    ious[i][j] is the IoU of the i-th detection in descending score order
    (equal scores keep insertion order) with gt j; in_band[j] says whether
    gt j counts, the rest are ignored. Returns (flags, matched): flags[i]
    is True/False/None for TP/FP/ignored (matched only an ignored gt),
    matched[j] marks claimed gts. Ties between equal-IoU gts go to the
    lowest gt index.
    """
    matched = [False] * len(in_band)
    flags = []
    for row in ious:
        best, best_iou = -1, iou_threshold
        for j, v in enumerate(row):
            if v > best_iou and in_band[j] and not matched[j]:
                best, best_iou = j, v
        if best >= 0:
            matched[best] = True
            flags.append(True)
        elif any(v > iou_threshold and not b for v, b in zip(row, in_band)):
            flags.append(None)
        else:
            flags.append(False)
    return flags, matched


def _match_inputs(dets_by_image, gts_by_image):
    """Per class, per image: (image, detection indices and scores in
    descending score order, their IoU rows against the class's gts, gt
    areas)."""
    columns = ([g[:, 4] for g in gts_by_image.values()]
               + [d[:, 5] for d in dets_by_image.values()])
    classes = sorted({int(c) for column in columns for c in set(column.tolist())})
    inputs = {cls: [] for cls in classes}
    for img in sorted(set(dets_by_image) | set(gts_by_image)):
        dets = dets_by_image.get(img, np.zeros((0, 6)))
        gts = gts_by_image.get(img, np.zeros((0, 5)))
        rows = iou_matrix(dets[:, :4], gts[:, :4]).tolist()
        areas = ((gts[:, 2] - gts[:, 0]) * (gts[:, 3] - gts[:, 1])).tolist()
        for cls in classes:
            di = np.flatnonzero(dets[:, 5] == cls)
            di = di[np.argsort(-dets[di, 4], kind="stable")].tolist()
            gi = np.flatnonzero(gts[:, 4] == cls).tolist()
            inputs[cls].append((img, di, dets[di, 4].tolist(),
                                [[rows[i][j] for j in gi] for i in di],
                                [areas[j] for j in gi]))
    return inputs


def _collect(inputs, iou_threshold, band=None):
    """Global score-ordered TP/FP sequence and gt count for one class."""
    scored = []
    n_gt, matched_total = 0, 0
    lo, hi = band or (-np.inf, np.inf)
    for img, di, scores, ious, areas in inputs:
        in_band = [lo < a <= hi for a in areas]
        n_gt += sum(in_band)
        flags, matched = greedy_match(ious, iou_threshold, in_band)
        matched_total += sum(matched)
        scored.extend((-score, img, i, flag)
                      for i, score, flag in zip(di, scores, flags) if flag is not None)
    scored.sort()
    return [f for *_, f in scored], n_gt, matched_total


def reference_evaluate(dets_by_image, gts_by_image, iou_threshold, interpolation,
                       bands=()) -> dict:
    """One interpolation's numbers at one IoU threshold, one greedy_match pass
    per setting: the fields per_class_ap, map, per_area_ap (over bands, the
    (name, lo, hi) area bands), tp, fp and missed, as a dict."""
    inputs = _match_inputs(dets_by_image, gts_by_image)
    per_class, tp, fp, missed = {}, 0, 0, 0
    for cls in inputs:
        seq, n_gt, matched = _collect(inputs[cls], iou_threshold)
        per_class[cls] = average_precision(seq, n_gt, interpolation)
        tp += sum(seq)
        fp += len(seq) - sum(seq)
        missed += n_gt - matched
    valid = [ap for ap in per_class.values() if ap is not None]
    per_area = {}
    for name, lo, hi in bands:
        aps = []
        for cls in inputs:
            seq, n_gt, _ = _collect(inputs[cls], iou_threshold, band=(lo, hi))
            if n_gt:
                aps.append(average_precision(seq, n_gt, interpolation))
        per_area[name] = float(np.mean(aps)) if aps else None
    return {"per_class_ap": per_class, "map": float(np.mean(valid)) if valid else 0.0,
            "per_area_ap": per_area, "tp": int(tp), "fp": int(fp), "missed": int(missed)}


def reference_coco_summary(dets_by_image, gts_by_image) -> str:
    """EvalReport.format_coco from 12 reference_evaluate passes."""
    def map_at(thr, bands=()):
        return reference_evaluate(dets_by_image, gts_by_image, thr, "all_point", bands)

    r50, r75 = map_at(0.5, AREA_BANDS), map_at(0.75)
    sweep = [map_at(t)["map"] for t in np.arange(0.5, 0.955, 0.05)]
    lines = [f"AP@0.5        {r50['map']:.4f}",
             f"AP@0.75       {r75['map']:.4f}",
             f"AP@[0.5:0.95] {float(np.mean(sweep)):.4f}"]
    for name, v in r50["per_area_ap"].items():
        lines.append(f"AP_{name} @0.5     " + ("n/a" if v is None else f"{v:.4f}"))
    return "\n".join(lines)
