"""VOC-style mAP at a fixed IoU threshold plus COCO-style AP by object area.

A detection is a true positive when it claims a previously unmatched
ground truth with IoU strictly above the threshold, greedily in descending
score order. For area-banded AP, ground truths outside the band are
ignored: detections matching them are dropped rather than counted as
false positives. As in the COCO evaluation, a class with no ground truth
in a band is left out of that band's mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import iou_matrix
from .tensor_core import ShapeError

DEFAULT_AREA_RANGES = (("S", 0.0, 32.0 ** 2), ("M", 32.0 ** 2, 96.0 ** 2),
                       ("L", 96.0 ** 2, float("inf")))


@dataclass(frozen=True)
class EvalConfig:
    iou_threshold: float = 0.5
    interpolation: str = "eleven_point"
    area_ranges: tuple = DEFAULT_AREA_RANGES

    def __post_init__(self):
        if not 0 < self.iou_threshold < 1:
            raise ShapeError("iou threshold must lie in (0, 1)")
        if self.interpolation not in ("eleven_point", "all_point"):
            raise ShapeError(f"unknown interpolation {self.interpolation!r}")
        prev = None
        for _, lo, hi in self.area_ranges:
            if hi <= lo or (prev is not None and lo < prev):
                raise ShapeError("area bands must be disjoint and ordered")
            prev = hi


@dataclass
class EvalReport:
    per_class_ap: dict
    map: float
    per_area_ap: dict
    tp: int
    fp: int
    missed: int

    def format_table(self) -> str:
        lines = ["class  AP"]
        for cls in sorted(self.per_class_ap):
            ap = self.per_class_ap[cls]
            lines.append(f"{cls:>5}  {'excluded' if ap is None else f'{ap:.4f}'}")
        lines.append(f"mAP    {self.map:.4f}")
        area = "  ".join(f"AP_{n}={'n/a' if v is None else f'{v:.4f}'}"
                         for n, v in self.per_area_ap.items())
        if area:
            lines.append(area)
        lines.append(f"TP={self.tp} FP={self.fp} missed={self.missed}")
        return "\n".join(lines)


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


def average_precision(tp_fp_sequence, n_gt, interpolation="eleven_point"):
    """AP of a score-ordered TP/FP sequence against n_gt ground truths.

    Returns None (class excluded from the mean) when there are no ground
    truths and no detections.
    """
    tp = np.cumsum(np.asarray(tp_fp_sequence, dtype=bool))
    if n_gt == 0:
        return None if not tp.size else 0.0
    if not tp.size:
        return 0.0
    recall = tp / n_gt
    # Interpolated precision: the best precision at this rank or any later one.
    envelope = np.maximum.accumulate((tp / np.arange(1, tp.size + 1))[::-1])[::-1]
    if interpolation == "eleven_point":
        # First rank reaching each recall point; past the last rank it reads 0.
        first = np.searchsorted(recall, np.linspace(0, 1, 11) - 1e-12)
        return float(np.mean(np.append(envelope, 0.0)[first]))
    # all_point: integrate the envelope over the ranks where recall rises.
    r = np.concatenate([[0.0], recall])
    rise = np.flatnonzero(r[1:] != r[:-1])
    return float(np.sum((r[rise + 1] - r[rise]) * envelope[rise]))


def _match_inputs(dets_by_image, gts_by_image):
    """Per class, per image: (image, detection rows and scores in descending
    score order, their IoU rows against the class's gts, gt areas). One
    iou_matrix per image serves every class and area band. Class ids come
    from the last column of the detections and the ground truth."""
    columns = ([g[:, 4] for g in gts_by_image.values()]
               + [d[:, 5] for d in dets_by_image.values()])
    classes = sorted({int(c) for column in columns for c in set(column.tolist())})
    inputs = {cls: [] for cls in classes}
    for img in sorted(set(dets_by_image) | set(gts_by_image)):
        dets = dets_by_image.get(img, np.zeros((0, 6)))
        gts = gts_by_image.get(img, np.zeros((0, 5)))
        # Plain lists: per-element access on these few-gt rows is cheaper
        # than numpy calls.
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


def evaluate_detections(dets_by_image, gts_by_image, config: EvalConfig,
                        inputs=None) -> EvalReport:
    """Per-class AP, mAP and per-area-band AP over a whole dataset.

    dets_by_image maps an image key to a (K, 6) array of detections (xmin,
    ymin, xmax, ymax, score, class id), gts_by_image to an (M, 5) array of
    ground truth (xmin, ymin, xmax, ymax, class id).
    inputs, if given, is their _match_inputs, shared between passes.
    """
    inputs = inputs or _match_inputs(dets_by_image, gts_by_image)
    per_class, tp = {}, 0
    fp = 0
    missed = 0
    for cls in inputs:
        seq, n_gt, matched = _collect(inputs[cls], config.iou_threshold)
        per_class[cls] = average_precision(seq, n_gt, config.interpolation)
        tp += sum(seq)
        fp += len(seq) - sum(seq)
        missed += n_gt - matched
    valid = [ap for ap in per_class.values() if ap is not None]
    per_area = {}
    for name, lo, hi in config.area_ranges:
        aps = []
        for cls in inputs:
            seq, n_gt, _ = _collect(inputs[cls], config.iou_threshold, band=(lo, hi))
            if n_gt:
                aps.append(average_precision(seq, n_gt, config.interpolation))
        per_area[name] = float(np.mean(aps)) if aps else None
    return EvalReport(per_class_ap=per_class,
                      map=float(np.mean(valid)) if valid else 0.0,
                      per_area_ap=per_area, tp=int(tp), fp=int(fp), missed=int(missed))


def coco_style_summary(dets_by_image, gts_by_image) -> str:
    """AP@0.5, AP@0.75, AP@[0.5:0.95] and AP by area with all-point AP."""
    inputs = _match_inputs(dets_by_image, gts_by_image)

    def map_at(thr, bands=()):
        # Area bands are printed at IoU 0.5 only, so only that pass matches them.
        cfg = EvalConfig(iou_threshold=thr, interpolation="all_point", area_ranges=bands)
        return evaluate_detections(dets_by_image, gts_by_image, cfg, inputs)

    r50, r75 = map_at(0.5, DEFAULT_AREA_RANGES), map_at(0.75)
    sweep = [map_at(t).map for t in np.arange(0.5, 0.955, 0.05)]
    lines = [f"AP@0.5        {r50.map:.4f}",
             f"AP@0.75       {r75.map:.4f}",
             f"AP@[0.5:0.95] {float(np.mean(sweep)):.4f}"]
    for name, v in r50.per_area_ap.items():
        lines.append(f"AP_{name} @0.5     " + ("n/a" if v is None else f"{v:.4f}"))
    return "\n".join(lines)
