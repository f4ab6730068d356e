"""Box-level weakly-supervised segmentation ground truth and loss.

Objects are painted into a ternary per-pixel mask by box area: boxes with
area inside [t1, t2] paint foreground, boxes below t1 paint ignore pixels
(too little signal to train on), boxes above t2 paint background. Overlaps
resolve as Foreground > Ignore > Background. The loss is a binary softmax
cross-entropy over non-ignored pixels, normalized by their count.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .tensor_core import ShapeError, _log_softmax, _node, as_tensor


class SegLabel(IntEnum):
    BACKGROUND = 0
    FOREGROUND = 1
    IGNORE = 2


@dataclass(frozen=True)
class AreaThresholds:
    t1: float
    t2: float

    def __post_init__(self):
        if not 0 < self.t1 < self.t2:
            raise ShapeError(f"need 0 < t1 < t2, got ({self.t1}, {self.t2})")


# All-object-focusing variant: every box paints foreground.
AWS_THRESHOLDS = AreaThresholds(np.finfo(np.float64).tiny, np.inf)


def classify_box(area: float, thresholds: AreaThresholds) -> SegLabel:
    """Label painted by a box interior, by its area (closed [t1, t2])."""
    if area <= 0:
        raise ShapeError("box area must be positive")
    if area < thresholds.t1:
        return SegLabel.IGNORE
    if area > thresholds.t2:
        return SegLabel.BACKGROUND
    return SegLabel.FOREGROUND


def rasterize_sws_mask(gts, image_size: int, thresholds: AreaThresholds) -> np.ndarray:
    """Paint (M, 5) ground truth into an (image_size, image_size) SegLabel grid.

    Pixel (px, py) is inside a box iff xmin <= px < xmax and
    ymin <= py < ymax (half-open, integer pixel centers). Priority on
    overlap: Foreground > Ignore > Background.
    """
    mask = np.full((image_size, image_size), int(SegLabel.BACKGROUND), dtype=np.uint8)
    labels = [classify_box(w * h, thresholds) for w, h in (gts[:, 2:4] - gts[:, :2]).tolist()]
    corners = np.clip(np.ceil(gts[:, :4]), 0, image_size).astype(np.int64).tolist()
    # Background is the fill, so painting ignore boxes and then foreground
    # boxes leaves each pixel with its highest-priority label.
    for label in (SegLabel.IGNORE, SegLabel.FOREGROUND):
        for (x0, y0, x1, y1), box_label in zip(corners, labels):
            if box_label == label:
                mask[y0:y1, x0:x1] = int(label)
    return mask


def seg_loss(seg_logits, mask: np.ndarray):
    """Per-image binary softmax cross-entropy over valid (non-Ignore) pixels.

    seg_logits is (N, 2, H, W) and mask (N, H, W). Returns (an (N,) loss
    Tensor of per-image means over the valid pixels, (N,) valid pixel
    counts); an image without valid pixels has loss 0 and zero gradient.
    Gradient is defined w.r.t. the logits.
    """
    logits = as_tensor(seg_logits)
    if logits.data.ndim != 4 or logits.shape[1] != 2:
        raise ShapeError(f"seg logits must be (N, 2, H, W), got {logits.shape}")
    if logits.shape[:1] + logits.shape[2:] != mask.shape:
        raise ShapeError(f"logits extent {logits.shape[:1] + logits.shape[2:]} != "
                         f"mask extent {mask.shape}")
    valid = mask != int(SegLabel.IGNORE)
    count = valid.sum(axis=(1, 2))
    logp = _log_softmax(logits.data, axis=1)
    truth = (mask == int(SegLabel.FOREGROUND)).astype(np.int64)
    picked = np.where(truth == 1, logp[:, 1], logp[:, 0])
    denom = np.maximum(count, 1)
    weight = (valid / denom[:, None, None])[:, None]
    loss = -np.where(valid, picked, 0.0).sum(axis=(1, 2), dtype=np.float64) / denom

    def grad_logits(g):
        p = np.exp(logp)
        onehot = np.stack([1.0 - truth, truth.astype(np.float64)], axis=1)
        return g[:, None, None, None] * ((p - onehot) * weight)
    return _node(loss, (logits,), grad_logits), count


def mask_to_pgm_bytes(mask: np.ndarray) -> bytes:
    """Binary PGM (P5) encoding: 0=Background, 128=Ignore, 255=Foreground."""
    values = np.zeros_like(mask, dtype=np.uint8)
    values[mask == int(SegLabel.FOREGROUND)] = 255
    values[mask == int(SegLabel.IGNORE)] = 128
    header = f"P5\n{mask.shape[1]} {mask.shape[0]}\n255\n".encode("ascii")
    return header + values.tobytes()
