"""Per-image reference composition of the detection loss, for tests only.

The package's total_loss takes a batch: one (N, A) assignment into the
joined ground truth, one node per loss term over all N images, and mining
by one sort along the anchor axis. These versions take one image at a
time, an (A,) assignment into that image's (M, 5) ground truth, and the
mined negatives as an index array, and the tests check the batch against
the per-image sums.
"""

import numpy as np

from mrfdet.anchors import encode_array
from mrfdet.losses import LossBreakdown, smooth_l1, smooth_l1_grad
from mrfdet.sws_masks import SegLabel
from mrfdet.tensor_core import ShapeError, Tensor, _log_softmax, _node, as_tensor


def conf_loss(conf_logits, anchor_gt, gt_labels, mined_negatives) -> Tensor:
    """Softmax cross-entropy summed over positives (matched class) and mined
    negatives (background class 0). Not averaged; Eq-level sum."""
    logits = as_tensor(conf_logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"conf logits must be (anchors, classes), got {logits.shape}")
    pos = np.flatnonzero(anchor_gt >= 0)
    labels = np.asarray(gt_labels, dtype=np.int64)[anchor_gt[pos]]
    if np.any(labels == 0):
        raise ShapeError("positive anchor assigned to background class; corrupt assignment")
    neg = np.asarray(mined_negatives, dtype=np.int64)
    if neg.size and anchor_gt[neg].max() >= 0:
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


def loc_loss(loc_preds, anchor_gt, gt_boxes, anchors) -> Tensor:
    """Smooth-L1 between predicted offsets and encoded targets, positives only."""
    preds = as_tensor(loc_preds)
    if preds.data.ndim != 2 or preds.shape[1] != 4:
        raise ShapeError(f"loc predictions must be (anchors, 4), got {preds.shape}")
    pos = np.flatnonzero(anchor_gt >= 0)
    if pos.size == 0:
        return Tensor(np.array(0.0))
    targets = encode_array(np.asarray(gt_boxes)[anchor_gt[pos]],
                           np.asarray(anchors)[pos])
    diff = preds.data[pos] - targets
    loss = float(smooth_l1(diff).sum())

    def grad_preds(g):
        grad = np.zeros_like(preds.data)
        grad[pos] = smooth_l1_grad(diff)
        return g * grad
    return _node(np.array(loss), (preds,), grad_preds)


def seg_loss(seg_logits, mask: np.ndarray):
    """Per-pixel binary softmax cross-entropy over valid (non-Ignore) pixels
    of one (2, H, W) logit map; (loss Tensor scalar, valid pixel count)."""
    logits = as_tensor(seg_logits)
    if logits.data.ndim != 3 or logits.shape[0] != 2:
        raise ShapeError(f"seg logits must be (2, H, W), got {logits.shape}")
    if logits.shape[1:] != mask.shape:
        raise ShapeError(f"logits extent {logits.shape[1:]} != mask extent {mask.shape}")
    valid = mask != int(SegLabel.IGNORE)
    count = int(valid.sum())
    if count == 0:
        return Tensor(np.array(0.0)), 0
    logp = _log_softmax(logits.data, axis=0)
    truth = (mask == int(SegLabel.FOREGROUND)).astype(np.int64)
    picked = np.where(truth == 1, logp[1], logp[0])
    loss = -float(picked[valid].sum()) / count

    def grad_logits(g):
        p = np.exp(logp)
        onehot = np.stack([1.0 - truth, truth.astype(np.float64)])
        return g * ((p - onehot) * (valid / count))
    return _node(np.array(loss), (logits,), grad_logits), count


def background_ce(conf_logits: np.ndarray) -> np.ndarray:
    """Per-anchor cross-entropy against the background class, for mining."""
    return -_log_softmax(np.asarray(conf_logits), axis=1)[:, 0]


def hard_negative_mine(per_anchor_conf_loss, anchor_gt, ratio) -> np.ndarray:
    """Top floor(ratio * N) negatives by descending loss; ties by lowest index."""
    if ratio <= 0:
        raise ShapeError("mining ratio must be positive")
    n_keep = int(ratio * int((anchor_gt >= 0).sum()))
    neg = np.flatnonzero(anchor_gt < 0)
    if n_keep == 0 or neg.size == 0:
        return np.zeros(0, dtype=np.int64)
    losses = np.asarray(per_anchor_conf_loss)[neg]
    order = np.argsort(-losses, kind="stable")
    return neg[order[:min(n_keep, neg.size)]]


def total_loss(head_outputs, anchor_gt, gts, seg_mask, config):
    """One image's (LossBreakdown, scalar Tensor); head_outputs holds that
    image's (A, classes) conf, (A, 4) loc and (2, H, W) seg logits (or None)."""
    n = int((anchor_gt >= 0).sum())
    terms = []
    if n > 0:
        mined = hard_negative_mine(background_ce(head_outputs.conf.data),
                                   anchor_gt, config.neg_pos_ratio)
        lc = conf_loss(head_outputs.conf, anchor_gt, gts[:, 4], mined)
        ll = loc_loss(head_outputs.loc, anchor_gt, gts[:, :4], head_outputs.anchors)
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
