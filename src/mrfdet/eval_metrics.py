"""VOC-style mAP at IoU 0.5 and COCO-style AP over IoUs and object areas.

A detection is a true positive when it claims a previously unmatched
ground truth with IoU strictly above the threshold, greedily in descending
score order; each image is matched once for every threshold and band of
both reports. For area-banded AP, ground truths outside the band are
ignored: detections matching them are dropped rather than counted as
false positives. As in the COCO evaluation, a class with no ground truth
in a band is left out of that band's mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import iou_matrix

AREA_BANDS = (("S", 0.0, 32.0 ** 2), ("M", 32.0 ** 2, 96.0 ** 2),
              ("L", 96.0 ** 2, float("inf")))
IOU_SWEEP = np.arange(0.5, 0.955, 0.05)
# The settings of one matching walk: the sweep, whose first threshold is 0.5
# itself; then 0.75, since the sweep's sixth threshold is 0.7500000000000002;
# then each area band at IoU 0.5.
SETTINGS = ([(t, None) for t in IOU_SWEEP] + [(0.75, None)]
            + [(0.5, (lo, hi)) for _, lo, hi in AREA_BANDS])


def _ap_text(v):
    return "n/a" if v is None else f"{v:.4f}"


@dataclass
class EvalReport:
    """Both reports of one matching walk. VOC: 11-point AP at IoU 0.5 per
    class and per area band, and the TP/FP/missed counts at IoU 0.5. COCO:
    all-point AP at IoU 0.5 per class and per area band, and coco_maps, the
    mAP at each IOU_SWEEP threshold and then at 0.75."""
    per_class_ap: dict
    map: float
    per_area_ap: dict
    tp: int
    fp: int
    missed: int
    coco_per_class_ap: dict
    coco_maps: tuple
    coco_per_area_ap: dict

    def format_table(self) -> str:
        lines = ["class  AP"]
        for cls in sorted(self.per_class_ap):
            ap = self.per_class_ap[cls]
            lines.append(f"{cls:>5}  {'excluded' if ap is None else f'{ap:.4f}'}")
        lines.append(f"mAP    {self.map:.4f}")
        lines.append("  ".join(f"AP_{n}={_ap_text(v)}" for n, v in self.per_area_ap.items()))
        lines.append(f"TP={self.tp} FP={self.fp} missed={self.missed}")
        return "\n".join(lines)

    def format_coco(self) -> str:
        """AP@0.5, AP@0.75, AP@[0.5:0.95] and AP by area at IoU 0.5."""
        lines = [f"AP@0.5        {self.coco_maps[0]:.4f}",
                 f"AP@0.75       {self.coco_maps[-1]:.4f}",
                 f"AP@[0.5:0.95] {float(np.mean(self.coco_maps[:-1])):.4f}"]
        lines += [f"AP_{n} @0.5     {_ap_text(v)}" for n, v in self.coco_per_area_ap.items()]
        return "\n".join(lines)


def match_detections(ious, thresholds, in_band):
    """Greedily match one image's detections to its ground truths at P
    settings in one walk. ious is their (D, G) IoU block, detections in
    descending score order (ties in insertion order), 0 for pairs of other
    classes; setting p has IoU threshold thresholds[p] and counts the gts in
    in_band[p], a (P, G) mask, ignoring the rest. A detection claims the
    unclaimed in-band gt of highest IoU strictly above the threshold, the
    lowest gt index winning a tie. Returns (flags, matched): flags[p, i] is
    1 (TP), 0 (FP) or -1 (ignored: nothing to claim, but an ignored gt lies
    above the threshold); matched[p, j] marks the claimed gts."""
    above = ious[:, None, :] > np.asarray(thresholds, dtype=np.float64)[:, None]
    unclaimed = in_band.copy()
    tp = np.zeros(above.shape[:2], dtype=bool)
    # Only a detection above the threshold of some in-band gt can claim one.
    for i in np.flatnonzero((above & in_band).any(axis=(1, 2))):
        free = above[i] & unclaimed
        hit = tp[i] = free.any(axis=1)
        best = np.where(free, ious[i], -np.inf).argmax(axis=1)
        unclaimed[hit, best[hit]] = False
    ignored = (above & ~in_band).any(axis=2)
    return np.where(tp, 1, np.where(ignored, -1, 0)).astype(np.int8).T, in_band & ~unclaimed


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


def _match_all(dets_by_image, gts_by_image, settings):
    """Match each image once for all settings, (IoU threshold, area band or
    None) pairs. Returns, per class id (from the last column of detections
    and ground truth), the (P, N) flags of its N detections in global order
    (score descending, then image key, then detection index) and its (P,)
    in-band and matched gt counts."""
    thresholds = [t for t, _ in settings]
    lo, hi = np.array([b or (-np.inf, np.inf) for _, b in settings]).T[:, :, None]
    images = sorted(set(dets_by_image) | set(gts_by_image))
    if not images:
        return {}
    rows = []
    for img in images:
        dets = dets_by_image.get(img, np.zeros((0, 6)))
        dets = dets[np.argsort(-dets[:, 4], kind="stable")]
        gts = gts_by_image.get(img, np.zeros((0, 5)))
        ious = iou_matrix(dets[:, :4], gts[:, :4])
        ious[dets[:, 5, None] != gts[:, 4]] = 0.0  # other classes never match
        areas = (gts[:, 2] - gts[:, 0]) * (gts[:, 3] - gts[:, 1])
        in_band = (lo < areas) & (areas <= hi)
        flags, matched = match_detections(ious, thresholds, in_band)
        rows.append((flags, dets[:, 4], dets[:, 5], in_band, matched, gts[:, 4]))
    flags, scores, det_cls, in_band, matched, gt_cls = (
        np.concatenate(column, axis=-1) for column in zip(*rows))
    out = {}
    for cls in sorted({int(c) for c in set(det_cls.tolist()) | set(gt_cls.tolist())}):
        # Images come in key order and each image's detections by score, so
        # a stable sort on score alone gives the global order.
        di = np.flatnonzero(det_cls == cls)
        di = di[np.argsort(-scores[di], kind="stable")]
        gi = gt_cls == cls
        out[cls] = flags[:, di], in_band[:, gi].sum(axis=1), matched[:, gi].sum(axis=1)
    return out


def _ap(match, p, interpolation):
    """AP at setting p of one class's _match_all entry."""
    flags, n_gt, _ = match
    return average_precision(flags[p][flags[p] >= 0], n_gt[p], interpolation)


def _mean(aps, empty):
    valid = [ap for ap in aps if ap is not None]
    return float(np.mean(valid)) if valid else empty


def _band_maps(matches, interpolation):
    """Each area band's mean AP over the classes with a gt in the band."""
    return {name: _mean([_ap(m, p, interpolation) for m in matches.values() if m[1][p]], None)
            for p, (name, _, _) in enumerate(AREA_BANDS, len(IOU_SWEEP) + 1)}


def evaluate_detections(dets_by_image, gts_by_image) -> EvalReport:
    """The VOC and COCO numbers of a whole dataset, from one matching walk
    over SETTINGS.

    dets_by_image maps an image key to a (K, 6) array of detections (xmin,
    ymin, xmax, ymax, score, class id), gts_by_image to an (M, 5) array of
    ground truth (xmin, ymin, xmax, ymax, class id).
    """
    matches = _match_all(dets_by_image, gts_by_image, SETTINGS)
    voc = {cls: _ap(m, 0, "eleven_point") for cls, m in matches.items()}
    # coco[p]: each class's all-point AP at the p-th IoU, the last being 0.75.
    coco = [{cls: _ap(m, p, "all_point") for cls, m in matches.items()}
            for p in range(len(IOU_SWEEP) + 1)]
    tp = fp = missed = 0
    for flags, n_gt, n_matched in matches.values():
        tp += np.count_nonzero(flags[0] == 1)
        fp += np.count_nonzero(flags[0] == 0)
        missed += n_gt[0] - n_matched[0]
    return EvalReport(
        per_class_ap=voc, map=_mean(voc.values(), 0.0),
        per_area_ap=_band_maps(matches, "eleven_point"),
        tp=int(tp), fp=int(fp), missed=int(missed),
        coco_per_class_ap=coco[0], coco_maps=tuple(_mean(c.values(), 0.0) for c in coco),
        coco_per_area_ap=_band_maps(matches, "all_point"))
