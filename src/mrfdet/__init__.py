"""Desk-scale multi-receptive-field detector with a small-object-focusing
weakly-supervised segmentation auxiliary task."""

from .anchors import (decode_array, encode_array, generate_anchors, iou_matrix,
                      match_anchors, nms_array)
from .detector_net import (BackboneSpec, DetectorParams, HeadOutputs, Toggles,
                           build_network, describe, forward, fpn_merge,
                           seg_head_forward)
from .eval_metrics import (EvalConfig, EvalReport, average_precision,
                           evaluate_detections, match_detections)
from .losses import (LossBreakdown, LossConfig, conf_loss, hard_negative_mine,
                     loc_loss, smooth_l1, total_loss)
from .mrf_block import (BranchSpec, MRFBlockSpec, default_mrf_spec,
                        effective_receptive_field, mrf_forward, rf_report)
from .sws_masks import (AreaThresholds, SegLabel, classify_box,
                        rasterize_sws_mask, seg_loss)
from .tensor_core import (ConvSpec, ShapeError, Tensor, add, concat,
                          conv2d, finite_diff_check, relu, transposed_conv2d,
                          upsample_nearest_2x)
from .trainer import TrainConfig, load_checkpoint, lr_at, save_checkpoint, train

__version__ = "0.1.0"
