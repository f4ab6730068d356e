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
    """Pairwise IoU of corner-form (N, 4) vs (M, 4) arrays.

    The operations of inter / (area_a + area_b - inter), in that order, run
    into three (N, M) buffers: iw (then inter, then the IoU), ih and t.
    """
    if a.size == 0 or b.size == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    iw = np.minimum(a[:, None, 2], b[None, :, 2])
    t = np.maximum(a[:, None, 0], b[None, :, 0])
    iw -= t
    ih = np.minimum(a[:, None, 3], b[None, :, 3])
    ih -= np.maximum(a[:, None, 1], b[None, :, 1], out=t)
    np.clip(iw, 0, None, out=iw)
    iw *= np.clip(ih, 0, None, out=ih)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    np.add(area_a[:, None], area_b[None, :], out=t)
    t -= iw
    # Integer boxes keep their integer buffers and divide into a new float array.
    return np.divide(iw, t, out=iw if iw.dtype.kind == "f" else None)


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
        sizes = [(s * np.sqrt(r), s / np.sqrt(r)) for r in ratios]
        extra = np.sqrt(s * scales[level + 1])
        w, h = np.array(sizes + [(extra, extra)], dtype=np.float64).T
        # Cell centers; boxes broadcast over (row, column, size), in that order.
        c = (np.arange(extent) + 0.5) * (image_size / extent)
        cy, cx = c[:, None, None], c[None, :, None]
        out.append(np.stack(np.broadcast_arrays(cx - w / 2, cy - h / 2, cx + w / 2,
                                                cy + h / 2), axis=-1).reshape(-1, 4))
    return np.clip(np.concatenate(out), 0, image_size)


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

    Descending score, ties by index, NaN scores last; suppress same-class
    IoU >= threshold (or NaN). A candidate's fate depends only on higher-ranked
    ones, so the pass ranks only the top 2 * max_keep (every tie at the cut
    included; doubled if that runs out) and walks them in blocks of 64, taking
    IoU of the boxes kept so far and of the block's rows against the block.
    """
    neg = -np.asarray(scores)
    size = 2 * max_keep
    while True:
        cut = np.partition(neg, size - 1)[size - 1] if size < len(neg) else np.nan
        top = np.flatnonzero(neg <= cut) if not np.isnan(cut) else np.arange(len(neg))
        order = top[np.lexsort((top, neg[top]))]
        cand, cls = boxes[order], classes[order]
        keep = []
        for r0 in range(0, len(cand), 64):
            if len(keep) >= max_keep:
                break
            block = np.arange(r0, min(r0 + 64, len(cand)))
            rows = np.concatenate([np.array(keep, dtype=np.int64), block])
            hit = ~(iou_matrix(cand[rows], cand[block]) < iou_threshold)
            hit &= cls[rows, None] == cls[None, block]
            # The greedy pass on Python-int bitmasks, bit j for candidate r0 + j:
            # `dead` starts as the block's candidates that a kept box suppresses.
            k, b = len(keep), len(block)
            bits = np.zeros((b + 1, 64), dtype=bool)
            bits[0, :b], bits[1:, :b] = hit[:k].any(axis=0), hit[k:]
            dead, *masks = np.packbits(bits, axis=1, bitorder="little").view("<u8")[:, 0].tolist()
            for i, mask in enumerate(masks):
                if not dead >> i & 1 and len(keep) < max_keep:
                    keep.append(r0 + i)
                    dead |= mask
        if len(keep) >= max_keep or len(order) == len(neg):
            return order[np.array(keep, dtype=np.int64)]
        size *= 2
