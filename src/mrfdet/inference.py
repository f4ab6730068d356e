"""Detection inference: forward, per-class score threshold, box decoding,
NMS, and dataset-level evaluation."""

from __future__ import annotations

import numpy as np

from .anchors import Box, decode_array, nms_array
from .dataset import load_dataset
from .detector_net import DetectorParams, forward
from .eval_metrics import EvalConfig, EvalReport, evaluate_detections


def detect_image(det: DetectorParams, image, score_threshold=0.01,
                 nms_iou=0.45, max_keep=200):
    """Scored, NMS-filtered detections for one image."""
    _, outputs = forward(det, image.astype(np.float32), with_seg=False)
    logits = outputs.conf.data.astype(np.float64)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    # Decoding is row-wise, so one pass over every anchor serves all classes.
    boxes = np.clip(decode_array(outputs.loc.data.astype(np.float64), det.anchors),
                    0, det.backbone.image_size)
    valid = (boxes[:, 2] - boxes[:, 0] > 1e-6) & (boxes[:, 3] - boxes[:, 1] > 1e-6)
    detections = []
    for cls in range(1, det.num_classes + 1):
        keep = np.flatnonzero(valid & (probs[:, cls] > score_threshold))
        decoded, scores = boxes[keep], probs[keep, cls]
        for i in nms_array(decoded, scores, nms_iou, max_keep):
            detections.append(Box(*decoded[i], class_id=cls, score=float(scores[i])))
    detections.sort(key=lambda b: -b.score)
    return detections[:max_keep]


def collect_detections(det: DetectorParams, data_dir, score_threshold=0.01,
                       nms_iou=0.45, max_keep=200, size_from="the detector"):
    """Detections and ground truth per image; size_from names the source of
    the detector's image size in the error for an image of another size."""
    dets_by_image, gts_by_image = {}, {}
    for rel, image, boxes in load_dataset(data_dir, det.backbone.image_size, size_from):
        gts_by_image[rel] = boxes
        dets_by_image[rel] = detect_image(det, image, score_threshold,
                                          nms_iou, max_keep)
    return dets_by_image, gts_by_image


def evaluate_detector(det: DetectorParams, data_dir, config: EvalConfig = None,
                      score_threshold=0.01, nms_iou=0.45, max_keep=200) -> EvalReport:
    return evaluate_detections(*collect_detections(det, data_dir, score_threshold,
                                                   nms_iou, max_keep),
                               config or EvalConfig())
