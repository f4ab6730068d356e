"""Detection inference: a no-grad forward over batches of images, then per
image box decoding, a score threshold and one NMS pass within classes, and
dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .anchors import decode_array, nms_array
from .dataset import check_class_ids, load_dataset
from .detector_net import FORWARD_BATCH, DetectorParams, forward
from .eval_metrics import EvalConfig, EvalReport, evaluate_detections
from .tensor_core import no_grad


def detect_image(det: DetectorParams, image, score_threshold=0.01,
                 nms_iou=0.45, max_keep=200, head=None):
    """Scored, NMS-filtered detections for one image as a float64 (K, 6)
    array of xmin, ymin, xmax, ymax, score and class id, by descending
    score (ties in class order, then NMS order).

    head is this image's HeadOutputs when a batch forward already ran;
    without it the image gets a forward of its own.
    """
    if head is None:
        with no_grad():
            _, head = forward(det, image.astype(np.float32), with_seg=False)
    logits = head.conf.data.astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    # Decoding is row-wise, so one pass over every anchor serves all classes.
    boxes = np.clip(decode_array(head.loc.data.astype(np.float64), det.anchors),
                    0, det.backbone.image_size)
    valid = (boxes[:, 2] - boxes[:, 0] > 1e-6) & (boxes[:, 3] - boxes[:, 1] > 1e-6)
    # Class-major candidates: nms_array's index tie-break orders equal scores by class, then anchor.
    cls, anchor = np.nonzero((valid[:, None] & (probs[:, 1:] > score_threshold)).T)
    scores = probs[anchor, cls + 1]
    keep = nms_array(boxes[anchor], scores, cls, nms_iou, max_keep)
    return np.column_stack([boxes[anchor[keep]], scores[keep], cls[keep] + 1.0])


def collect_detections(det: DetectorParams, data_dir, size_from="the detector"):
    """(K, 6) detections and (M, 5) ground truth per image, from one no-grad
    forward per FORWARD_BATCH images; size_from names the source of the
    detector's image size in the error for an image of another size."""
    dets_by_image, gts_by_image = {}, {}
    samples = load_dataset(data_dir, det.backbone.image_size, size_from)
    check_class_ids(samples, data_dir, det.num_classes)
    for start in range(0, len(samples), FORWARD_BATCH):
        chunk = samples[start:start + FORWARD_BATCH]
        with no_grad():
            _, outputs = forward(det, np.stack([image for _, image, _ in chunk])
                                 .astype(np.float32), with_seg=False)
        for i, (rel, image, gts) in enumerate(chunk):
            gts_by_image[rel] = gts
            dets_by_image[rel] = detect_image(det, image, head=outputs.image(i))
    return dets_by_image, gts_by_image


def evaluate_detector(det: DetectorParams, data_dir) -> EvalReport:
    return evaluate_detections(*collect_detections(det, data_dir), EvalConfig())
