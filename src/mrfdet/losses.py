"""Multi-task detection objective: softmax confidence loss over matched
anchors and mined hard negatives, smooth-L1 localization loss over encoded
box offsets, and the auxiliary segmentation term, combined as

    total = (l_conf + beta * l_loc) / max(N, 1) + alpha * l_seg

with N the number of positive anchors; when N == 0 the detection term is
dropped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import MatchAssignment, encode_array
from .sws_masks import seg_loss
from .tensor_core import ShapeError, Tensor, _log_softmax, _node, as_tensor


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 1.0
    beta: float = 1.0
    neg_pos_ratio: float = 3.0

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.neg_pos_ratio <= 0:
            raise ShapeError(f"invalid loss config: {self}")


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


def conf_loss(conf_logits, assignment: MatchAssignment, gt_labels,
              mined_negatives) -> Tensor:
    """Softmax cross-entropy summed over positives (matched class) and mined
    negatives (background class 0). Not averaged; Eq-level sum."""
    logits = as_tensor(conf_logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"conf logits must be (anchors, classes), got {logits.shape}")
    pos = assignment.positive_indices
    labels = np.asarray(gt_labels, dtype=np.int64)[assignment.anchor_gt[pos]]
    if np.any(labels == 0):
        raise ShapeError("positive anchor assigned to background class; corrupt assignment")
    neg = np.asarray(mined_negatives, dtype=np.int64)
    if neg.size and assignment.anchor_gt[neg].max() >= 0:
        raise ShapeError("mined negatives must be Negative anchors")
    rows = np.concatenate([pos, neg])
    if rows.size == 0:
        return Tensor(np.array(0.0))
    targets = np.concatenate([labels, np.zeros(neg.size, dtype=np.int64)])
    logp = _log_softmax(logits.data, axis=1)

    def grad_logits(g):
        p = np.exp(logp[rows])
        p[np.arange(rows.size), targets] -= 1.0
        grad = np.zeros_like(logits.data)
        np.add.at(grad, rows, p)
        return g * grad
    return _node(np.array(-float(logp[rows, targets].sum())), (logits,), grad_logits)


def loc_loss(loc_preds, assignment: MatchAssignment, gt_boxes,
             anchors) -> Tensor:
    """Smooth-L1 between predicted offsets and encoded targets, positives only."""
    preds = as_tensor(loc_preds)
    if preds.data.ndim != 2 or preds.shape[1] != 4:
        raise ShapeError(f"loc predictions must be (anchors, 4), got {preds.shape}")
    pos = assignment.positive_indices
    if pos.size == 0:
        return Tensor(np.array(0.0))
    targets = encode_array(np.asarray(gt_boxes)[assignment.anchor_gt[pos]],
                           np.asarray(anchors)[pos])
    diff = preds.data[pos] - targets
    loss = float(smooth_l1(diff).sum())

    def grad_preds(g):
        grad = np.zeros_like(preds.data)
        grad[pos] = smooth_l1_grad(diff)
        return g * grad
    return _node(np.array(loss), (preds,), grad_preds)


def background_ce(conf_logits: np.ndarray) -> np.ndarray:
    """Per-anchor cross-entropy against the background class, for mining."""
    return -_log_softmax(np.asarray(conf_logits), axis=1)[:, 0]


def hard_negative_mine(per_anchor_conf_loss, assignment: MatchAssignment,
                       ratio) -> np.ndarray:
    """Top floor(ratio * N) negatives by descending loss; ties by lowest index."""
    if ratio <= 0:
        raise ShapeError("mining ratio must be positive")
    n_keep = int(ratio * assignment.n_pos)
    neg = assignment.negative_indices
    if n_keep == 0 or neg.size == 0:
        return np.zeros(0, dtype=np.int64)
    losses = np.asarray(per_anchor_conf_loss)[neg]
    order = np.argsort(-losses, kind="stable")
    return neg[order[:min(n_keep, neg.size)]]


def total_loss(head_outputs, assignment: MatchAssignment, gts, seg_mask,
               config: LossConfig):
    """Combine the detection and segmentation terms.

    head_outputs carries flat conf logits (N, classes), flat loc offsets
    (N, 4) and optional seg logits (2, H, W); gts is the (M, 5) ground truth
    (corners, class id). Returns (LossBreakdown, scalar Tensor) where the
    Tensor backpropagates into all head outputs.
    """
    n = assignment.n_pos
    terms = []
    if n > 0:
        mined = hard_negative_mine(background_ce(head_outputs.conf.data),
                                   assignment, config.neg_pos_ratio)
        lc = conf_loss(head_outputs.conf, assignment, gts[:, 4], mined)
        ll = loc_loss(head_outputs.loc, assignment, gts[:, :4], head_outputs.anchors)
        det = (lc + config.beta * ll) * (1.0 / n)
        terms.append(det)
        lc_v, ll_v, det_v = lc.item(), ll.item(), det.item()
    else:
        lc_v = ll_v = det_v = 0.0
    if seg_mask is not None and head_outputs.seg_logits is not None:
        ls, _ = seg_loss(head_outputs.seg_logits, seg_mask)
        terms.append(config.alpha * ls)
        ls_v = ls.item()
    else:
        ls_v = 0.0
    if terms:
        total = terms[0]
        for t in terms[1:]:
            total = total + t
    else:
        total = Tensor(np.array(0.0))
    breakdown = LossBreakdown(l_conf=lc_v, l_loc=ll_v, l_det=det_v, l_seg=ls_v,
                              total=total.item(), n_pos=n)
    return breakdown, total
