"""Multi-task detection objective over a batch of N images: softmax
confidence loss over matched anchors and mined hard negatives, smooth-L1
localization loss over encoded box offsets, and the auxiliary segmentation
term. Image i contributes

    total_i = (l_conf_i + beta * l_loc_i) / n_i + alpha * l_seg_i

with n_i the number of its positive anchors; when n_i == 0 its detection
term is dropped entirely. The batch loss is the sum of the total_i.

The anchor assignment is an (N, A) int array: the index of an anchor's
ground-truth row for positives, -1 for negatives. Ground-truth rows of all
N images are joined into one (sum M_i, 5) array that the assignment indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import encode_array
from .sws_masks import seg_loss
from .tensor_core import ShapeError, Tensor, _log_softmax, _node, add, as_tensor, inner


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 1.0
    beta: float = 1.0
    neg_pos_ratio: float = 3.0

    def __post_init__(self):
        # NaN fails each of these range checks.
        for key in ("alpha", "beta"):
            if not 0 <= getattr(self, key) < np.inf:
                raise ShapeError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if not 0 < self.neg_pos_ratio < np.inf:
            raise ShapeError(f"neg_pos_ratio must be finite and > 0, got {self.neg_pos_ratio}")


@dataclass
class LossBreakdown:
    l_conf: float
    l_loc: float
    l_det: float
    l_seg: float
    total: float
    n_pos: int

    def record(self, step: int) -> str:
        return (f"step={step} l_conf={self.l_conf:.6f} l_loc={self.l_loc:.6f} "
                f"l_seg={self.l_seg:.6f} total={self.total:.6f} n_pos={self.n_pos}")


def smooth_l1(x):
    """Elementwise 0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    ax = np.abs(x)
    return np.where(ax < 1.0, 0.5 * x * x, ax - 0.5)


def smooth_l1_grad(x):
    return np.clip(x, -1.0, 1.0)


def conf_loss(conf_logits, anchor_gt, gt_labels, mined) -> Tensor:
    """Per-image softmax cross-entropy sums, an (N,) Tensor, over positives
    (matched class) and the (N, A) mask of mined negatives (background
    class 0). Not averaged; Eq-level sums."""
    logits = as_tensor(conf_logits)
    if logits.data.ndim != 3:
        raise ShapeError(f"conf logits must be (images, anchors, classes), got {logits.shape}")
    pos = anchor_gt >= 0
    targets = np.zeros(anchor_gt.shape, dtype=np.int64)
    targets[pos] = np.asarray(gt_labels, dtype=np.int64)[anchor_gt[pos]]
    if np.any(targets[pos] == 0):
        raise ShapeError("positive anchor assigned to background class; corrupt assignment")
    if np.any(mined & pos):
        raise ShapeError("mined negatives must be Negative anchors")
    img, anchor = np.nonzero(pos | mined)
    targets = targets[img, anchor]
    if img.size == 0:
        return Tensor(np.zeros(len(anchor_gt)))
    rows = np.arange(img.size)
    logp = _log_softmax(logits.data, axis=2)[img, anchor]
    losses = np.bincount(img, -logp[rows, targets], minlength=len(anchor_gt))
    # softmax - onehot of the picked anchors, in the logits' dtype; the
    # gradient scales it by g in one array of the product's dtype.
    delta = np.exp(logp)
    delta[rows, targets] -= 1.0
    shape = logits.shape

    def grad_logits(g):
        grad = np.zeros(shape, np.result_type(delta, g))
        grad[img, anchor] = delta
        grad *= g[:, None, None]
        return grad
    return _node(losses, (logits,), grad_logits)


def loc_loss(loc_preds, anchor_gt, gt_boxes, anchors) -> Tensor:
    """Per-image smooth-L1 sums, an (N,) Tensor, between predicted offsets
    and encoded targets, positives only."""
    preds = as_tensor(loc_preds)
    if preds.data.ndim != 3 or preds.shape[2] != 4:
        raise ShapeError(f"loc predictions must be (images, anchors, 4), got {preds.shape}")
    img, anchor = np.nonzero(anchor_gt >= 0)
    if img.size == 0:
        return Tensor(np.zeros(len(anchor_gt)))
    targets = encode_array(np.asarray(gt_boxes)[anchor_gt[img, anchor]],
                           np.asarray(anchors)[anchor])
    diff = preds.data[img, anchor] - targets
    losses = np.bincount(img, smooth_l1(diff).sum(axis=1), minlength=len(anchor_gt))
    shape, dtype = preds.shape, preds.dtype

    def grad_preds(g):
        grad = np.zeros(shape, dtype)
        grad[img, anchor] = smooth_l1_grad(diff)
        return g[:, None, None] * grad
    return _node(losses, (preds,), grad_preds)


def background_ce(conf_logits: np.ndarray) -> np.ndarray:
    """Per-anchor cross-entropy against the background class, for mining."""
    return -_log_softmax(np.asarray(conf_logits), axis=-1)[..., 0]


def hard_negative_mine(per_anchor_conf_loss, anchor_gt, ratio) -> np.ndarray:
    """(N, A) mask of each image's top floor(ratio * n_i) negatives by
    descending loss; ties by lowest index."""
    if ratio <= 0:
        raise ShapeError("mining ratio must be positive")
    neg = anchor_gt < 0
    n_keep = np.minimum((ratio * (~neg).sum(axis=1)).astype(np.int64), neg.sum(axis=1))
    # Negatives first, by descending loss (NaN last), then positives; stable.
    order = np.lexsort((-np.asarray(per_anchor_conf_loss), ~neg), axis=1)
    mined = np.zeros_like(neg)
    np.put_along_axis(mined, order, np.arange(neg.shape[1]) < n_keep[:, None], axis=1)
    return mined


def total_loss(head_outputs, anchor_gt, gts, seg_mask, config: LossConfig):
    """Combine the detection and segmentation terms over a batch.

    head_outputs carries conf logits (N, A, classes), loc offsets (N, A, 4)
    and optional seg logits (N, 2, H, W); anchor_gt is the (N, A) assignment
    into the joined (sum M_i, 5) ground truth gts (corners, class id), and
    seg_mask the (N, H, W) SegLabel masks or None. Returns (LossBreakdown
    summed over the images, scalar Tensor) where the Tensor backpropagates
    into all head outputs.
    """
    anchor_gt = np.asarray(anchor_gt)
    n_pos = (anchor_gt >= 0).sum(axis=1)
    weights = 1.0 / np.maximum(n_pos, 1)  # an image without positives has no terms
    mined = hard_negative_mine(background_ce(head_outputs.conf.data), anchor_gt,
                               config.neg_pos_ratio)
    lc = conf_loss(head_outputs.conf, anchor_gt, gts[:, 4], mined)
    ll = loc_loss(head_outputs.loc, anchor_gt, gts[:, :4], head_outputs.anchors)
    terms = [inner(lc, weights), inner(ll, config.beta * weights)]
    l_seg = 0.0
    if seg_mask is not None and head_outputs.seg_logits is not None:
        ls, _ = seg_loss(head_outputs.seg_logits, seg_mask)
        terms.append(inner(ls, np.full(len(n_pos), config.alpha)))
        l_seg = float(ls.data.sum())
    total = add(terms)
    breakdown = LossBreakdown(l_conf=float(lc.data.sum()), l_loc=float(ll.data.sum()),
                              l_det=float(((lc.data + config.beta * ll.data) * weights).sum()),
                              l_seg=l_seg, total=total.item(), n_pos=int(n_pos.sum()))
    return breakdown, total
