"""Default-box generation, IoU, box encoding/decoding, anchor matching, NMS.

Boxes live in input-image pixel units. Geometry works on (N, 4) arrays in
corner form (xmin, ymin, xmax, ymax) or center form (cx, cy, w, h); the two
conversions are exact inverses. Ground truth is one (M, 5) array per image:
the corners, then the class id. All tie-breaking is by lowest index so
results are deterministic.
"""

from __future__ import annotations

import numpy as np

from .tensor_core import ShapeError


def iou_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise IoU of corner-form (N, 4) vs (M, 4) arrays."""
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    ih = np.minimum(a[:, None, 3], b[None, :, 3]) - np.maximum(a[:, None, 1], b[None, :, 1])
    inter = np.clip(iw, 0, None) * np.clip(ih, 0, None)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    return inter / (area_a[:, None] + area_b[None, :] - inter)


def encode_array(gt: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Vectorized encode over matched corner-form (N, 4) pairs."""
    gc = corner_to_center(gt)
    dc = corner_to_center(anchors)
    if np.any(gc[:, 2:] <= 0) or np.any(dc[:, 2:] <= 0):
        raise ShapeError("encode requires positive extents")
    out = np.empty_like(gc)
    out[:, 0] = (gc[:, 0] - dc[:, 0]) / dc[:, 2]
    out[:, 1] = (gc[:, 1] - dc[:, 1]) / dc[:, 3]
    out[:, 2:] = np.log(gc[:, 2:] / dc[:, 2:])
    return out


def decode_array(t: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Corner-form boxes of (..., A, 4) offsets against (A, 4) anchors."""
    dc = corner_to_center(anchors)
    cen = np.empty_like(t)
    cen[..., 0] = t[..., 0] * dc[..., 2] + dc[..., 0]
    cen[..., 1] = t[..., 1] * dc[..., 3] + dc[..., 1]
    cen[..., 2:] = dc[..., 2:] * np.exp(t[..., 2:])
    return center_to_corner(cen)


def corner_to_center(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = (a[..., 0] + a[..., 2]) / 2
    out[..., 1] = (a[..., 1] + a[..., 3]) / 2
    out[..., 2] = a[..., 2] - a[..., 0]
    out[..., 3] = a[..., 3] - a[..., 1]
    return out


def center_to_corner(a: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] - a[..., 2] / 2
    out[..., 1] = a[..., 1] - a[..., 3] / 2
    out[..., 2] = a[..., 0] + a[..., 2] / 2
    out[..., 3] = a[..., 1] + a[..., 3] / 2
    return out


def generate_anchors(pyramid_shapes, scales, aspect_ratios, image_size) -> np.ndarray:
    """SSD-style default boxes, corner form (N, 4), clipped to the image.

    pyramid_shapes: per level, spatial extent S (cells are S x S).
    scales: per level, box scale in pixels; the last entry is the "next"
    scale used for the final level's geometric-mean box, so
    len(scales) == len(pyramid_shapes) + 1.
    aspect_ratios: per level, list of ratios r giving w = s*sqrt(r),
    h = s/sqrt(r); a ratio-1 box at scale sqrt(s_k * s_{k+1}) is added.
    """
    if len(scales) != len(pyramid_shapes) + 1:
        raise ShapeError("need one scale per level plus a final bound")
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
    arr = np.array(out, dtype=np.float64)
    return np.clip(arr, 0, image_size)


def match_anchors(anchors: np.ndarray, gts, pos_threshold=0.5) -> np.ndarray:
    """SSD matching: bipartite best-anchor-per-gt, then IoU thresholding.

    Every ground truth claims its highest-IoU anchor (ties to the lowest
    anchor index); any other anchor with IoU >= pos_threshold to some gt
    becomes positive for its best gt. Remaining anchors are negative.
    gts is a corner-form (M, 4) array. Returns the (A,) int64 gt index of
    every anchor, -1 for a negative.
    """
    if len(anchors) == 0:
        raise ShapeError("match_anchors needs at least one anchor")
    if not 0 < pos_threshold < 1:
        raise ShapeError("pos_threshold must lie in (0, 1)")
    assign = np.full(len(anchors), -1, dtype=np.int64)
    if len(gts) == 0:
        return assign
    ious = iou_matrix(np.asarray(anchors, dtype=np.float64), gts)
    # Threshold step first; the bipartite step below overrides it.
    best_gt = ious.argmax(axis=1)
    best_iou = ious[np.arange(len(anchors)), best_gt]
    assign[best_iou >= pos_threshold] = best_gt[best_iou >= pos_threshold]
    # Bipartite step: each gt in index order claims its best still-unclaimed
    # anchor unconditionally, so every gt ends with at least one positive.
    claimed = np.zeros(len(anchors), dtype=bool)
    for j in range(len(gts)):
        col = ious[:, j].copy()
        col[claimed] = -1.0
        best = int(col.argmax())
        assign[best] = j
        claimed[best] = True
    return assign


def nms_array(boxes: np.ndarray, scores: np.ndarray, classes: np.ndarray,
              iou_threshold=0.45, max_keep=200) -> np.ndarray:
    """Vectorized greedy NMS within classes; returns kept indices in score order.

    Descending score, ties by index, suppress same-class IoU >= threshold (or NaN).
    A candidate's fate depends only on higher-ranked ones, so the pass runs
    over the top 2 * max_keep (doubled if that runs out) with IoU in blocks
    of 64 rows against the columns from the block's first row on.
    """
    order = np.lexsort((np.arange(len(scores)), -np.asarray(scores)))
    size = 2 * max_keep
    while True:
        cand, cls = boxes[order[:size]], classes[order[:size]]
        suppressed = np.zeros(len(cand), dtype=bool)
        keep = []
        for r0 in range(0, len(cand), 64):
            if len(keep) >= max_keep:
                break
            hit = ~(iou_matrix(cand[r0:r0 + 64], cand[r0:]) < iou_threshold)
            hit &= cls[r0:r0 + 64, None] == cls[None, r0:]
            for i in range(r0, min(r0 + 64, len(cand))):
                if not suppressed[i] and len(keep) < max_keep:
                    keep.append(i)
                    suppressed[i:] |= hit[i - r0, i - r0:]
        if len(keep) >= max_keep or len(cand) == len(order):
            return order[np.array(keep, dtype=np.int64)]
        size *= 2

