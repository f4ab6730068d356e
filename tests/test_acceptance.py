"""Acceptance gate: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured value and pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the desk-scale training criteria dominate the runtime.
"""

import filecmp
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from box_oracles import Box, ScoredBox, box_from_center, corners, gt_array, iou
from mrfdet.anchors import encode_array, iou_matrix, match_anchors, nms_array
from mrfdet.cli import ablate, format_ablation_table
from mrfdet.dataset import DatasetSpec, synth_dataset
from mrfdet.detector_net import (BackboneSpec, Toggles, build_network,
                                 forward)
from mrfdet.eval_metrics import average_precision
from mrfdet.gradcheck import run_suite
from mrfdet.inference import evaluate_detector
from mrfdet.losses import (LossConfig, conf_loss, smooth_l1, total_loss)
from mrfdet.mrf_block import DEFAULT_BRANCHES, branch_taps, effective_receptive_field
from mrfdet.sws_masks import (AWS_THRESHOLDS, AreaThresholds, SegLabel,
                              classify_box, rasterize_sws_mask, seg_loss)
from mrfdet.trainer import TrainConfig, train

TRAIN_SPEC = DatasetSpec(num_images=200, seed=0)
TEST_SPEC = DatasetSpec(num_images=50, seed=1)


def report(criterion, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Shared desk-scale artifacts: datasets and the default training run."""
    root = tmp_path_factory.mktemp("desk")
    train_dir, test_dir = root / "train", root / "test"
    synth_dataset(TRAIN_SPEC, train_dir)
    synth_dataset(TEST_SPEC, test_dir)
    t0 = time.time()
    result = train(TrainConfig(), train_dir)
    wall = time.time() - t0
    return {"root": root, "train_dir": train_dir, "test_dir": test_dir,
            "result": result, "train_seconds": wall}


def test_criterion_1_gradient_suite():
    t0 = time.time()
    results = run_suite(("tensor", "mrf", "net", "loss"))
    wall = time.time() - t0
    worst = max(err / tol for _, err, tol in results)
    ok = all(err < tol for _, err, tol in results) and wall < 60.0
    report("criterion 1 (gradient suite)", ok,
           f"{len(results)} checks, worst err/tol={worst:.3f}, {wall:.1f}s (<60s)")


def test_criterion_2_equation_fixtures():
    # Confidence: one positive with uniform 2-class logits contributes -ln 0.5.
    lc = conf_loss(np.zeros((1, 1, 2)), np.array([[0]]), np.array([1]),
                   np.zeros((1, 1), dtype=bool))
    conf_err = abs(lc.item() - (-np.log(0.5)))

    # Smooth L1 fixtures are exact.
    sl1_exact = smooth_l1(0.5) == 0.125 and smooth_l1(2.0) == 1.5

    # Box encoding fixture (0.5, 0, ln 2, 0).
    t_cx, t_cy, t_w, t_h = encode_array(
        corners([box_from_center(12, 10, 8, 6)]),
        corners([box_from_center(10, 10, 4, 6)]))[0]
    enc_err = max(abs(t_cx - 0.5), abs(t_cy), abs(t_w - np.log(2.0)), abs(t_h))

    # Segmentation: uniform logits over all-valid pixels give ln 2.
    ls, _ = seg_loss(np.zeros((1, 2, 4, 4)), np.zeros((1, 4, 4), dtype=np.uint8))
    seg_err = abs(ls.item() - np.log(2.0))

    # Composition: total equals the hand-combined sum on a micro-scene.
    rng = np.random.default_rng(0)
    anchors = np.array([[0, 0, 10, 10], [20, 20, 30, 30], [40, 40, 50, 50.0]])
    assign = np.array([[0, -1, -1]])
    gt = np.array([[1, 1, 11, 11, 1.0]])
    conf = rng.standard_normal((1, 3, 2))
    loc = rng.standard_normal((1, 3, 4))
    seg = rng.standard_normal((1, 2, 4, 4))
    mask = np.zeros((1, 4, 4), dtype=np.uint8)
    heads = SimpleNamespace(conf=conf, loc=loc, anchors=anchors, seg_logits=seg)
    cfg = LossConfig(alpha=1.0, beta=1.0, neg_pos_ratio=2.0)
    bd, total = total_loss(heads, assign, gt, mask, cfg)
    hand = (bd.l_conf + cfg.beta * bd.l_loc) / (assign >= 0).sum() + cfg.alpha * bd.l_seg
    comp_err = abs(total.item() - hand)

    ok = (conf_err < 1e-9 and sl1_exact and enc_err < 1e-12
          and seg_err < 1e-9 and comp_err < 1e-9)
    report("criterion 2 (equation fixtures)", ok,
           f"conf_err={conf_err:.1e} (<1e-9), smooth_l1 exact={sl1_exact}, "
           f"encode_err={enc_err:.1e} (<1e-12), seg_err={seg_err:.1e} (<1e-9), "
           f"composition_err={comp_err:.1e} (<1e-9)")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(7)

    # IoU vs exact pixel enumeration on integer boxes, 1000 instances.
    def int_box(r):
        x, y = r.integers(0, 40, 2)
        w, h = r.integers(1, 30, 2)
        return Box(float(x), float(y), float(x + w), float(y + h))

    iou_worst = 0.0
    for _ in range(1000):
        a, b = int_box(rng), int_box(rng)
        grid = np.zeros((80, 80, 2), dtype=bool)
        for k, box in enumerate((a, b)):
            grid[int(box.ymin):int(box.ymax), int(box.xmin):int(box.xmax), k] = True
        inter = (grid[..., 0] & grid[..., 1]).sum()
        union = (grid[..., 0] | grid[..., 1]).sum()
        got = iou_matrix(corners([a]), corners([b]))[0, 0]
        iou_worst = max(iou_worst, abs(got - inter / union))

    # Matching vs brute force, 1000 instances.
    match_exact = True
    for _ in range(1000):
        anchors = np.sort(rng.uniform(0, 50, (12, 2)), axis=1)
        anchors = np.concatenate([anchors[:, :1], anchors[:, :1],
                                  anchors[:, :1] + rng.uniform(2, 20, (12, 1)),
                                  anchors[:, :1] + rng.uniform(2, 20, (12, 1))], axis=1)
        gts = [int_box(rng) for _ in range(int(rng.integers(1, 4)))]
        ious = iou_matrix(anchors, corners(gts))
        got = match_anchors(anchors, corners(gts))
        want = np.full(12, -1, dtype=np.int64)
        best_gt = ious.argmax(axis=1)
        thr = ious[np.arange(12), best_gt] >= 0.5
        want[thr] = best_gt[thr]
        claimed = set()
        for j in range(len(gts)):
            order = [i for i in range(12) if i not in claimed]
            best = max(order, key=lambda i: ious[i, j])
            want[best] = j
            claimed.add(best)
        if not np.array_equal(got, want):
            match_exact = False
            break

    # Per-class NMS vs O(n^2) reference, 1000 instances.
    nms_exact = True
    for _ in range(1000):
        dets = [ScoredBox(b.xmin, b.ymin, b.xmax, b.ymax,
                          class_id=int(rng.integers(0, 2)), score=float(rng.random()))
                for b in (int_box(rng) for _ in range(10))]
        keep = nms_array(corners(dets), np.array([d.score for d in dets]),
                         np.array([d.class_id for d in dets]), 0.45, 50)
        got = [dets[i] for i in keep]
        chosen = []
        for i in sorted(range(10), key=lambda i: (-dets[i].score, i)):
            if all(dets[i].class_id != dets[j].class_id
                   or iou(dets[i], dets[j]) < 0.45 for j in chosen):
                chosen.append(i)
        want = [dets[i] for i in sorted(chosen, key=lambda i: (-dets[i].score, i))]
        if [(d.score, d.xmin, d.class_id) for d in got] != \
           [(d.score, d.xmin, d.class_id) for d in want]:
            nms_exact = False
            break

    # SWS rasterization vs per-pixel oracle, 1000 instances, including the
    # closed-interval boundary areas and foreground-over-ignore priority.
    thresholds = AreaThresholds(1024.0, 9216.0)
    prio = {SegLabel.BACKGROUND: 0, SegLabel.IGNORE: 1, SegLabel.FOREGROUND: 2}
    sws_exact = True
    boundary = [Box(0, 0, 32, 32), Box(0, 0, 96, 96),        # areas 1024, 9216
                Box(0, 0, 100, 100), Box(2, 2, 10, 10)]
    for trial in range(1000):
        if trial == 0:
            boxes = boundary
        else:
            boxes = [int_box(rng) for _ in range(int(rng.integers(1, 4)))]
        got = rasterize_sws_mask(gt_array(boxes), 24, thresholds)
        want = np.zeros((24, 24), dtype=np.uint8)
        for py in range(24):
            for px in range(24):
                best = 0
                for b in boxes:
                    if b.xmin <= px < b.xmax and b.ymin <= py < b.ymax:
                        lab = classify_box(b.area, thresholds)
                        if prio[lab] >= prio[SegLabel(best)] or best == 0:
                            best = max(best, int(lab),
                                       key=lambda v: prio[SegLabel(v)])
                want[py, px] = best
        if not np.array_equal(got, want):
            sws_exact = False
            break
    bmask = rasterize_sws_mask(gt_array(boundary[:2]), 100, thresholds)
    sws_exact = sws_exact and bmask[10, 10] == int(SegLabel.FOREGROUND)

    # AP vs hand-constructed PR curves.
    ap_fixture = average_precision([True, False, True], 2, "all_point")
    ap_err = abs(ap_fixture - 5 / 6)
    ap_checks = (ap_err < 1e-9
                 and average_precision([True], 2, "all_point") == 0.5
                 and average_precision([True, True], 2, "eleven_point") == 1.0
                 and average_precision([False], 1, "all_point") == 0.0)

    ok = (iou_worst < 1e-6 and match_exact and nms_exact and sws_exact
          and ap_checks)
    report("criterion 3 (oracle equivalence, 1000 instances each)", ok,
           f"iou_worst={iou_worst:.1e} (<1e-6), match exact={match_exact}, "
           f"nms exact={nms_exact}, sws exact={sws_exact}, "
           f"ap 0.8333-fixture err={ap_err:.1e} (<1e-9)")


def test_criterion_4_receptive_field_report():
    cases = {(1, 3): 1, (3, 1): 3, (3, 2): 5, (3, 3): 7, (5, 5): 21}
    enum_ok = True
    for (k, d), want in cases.items():
        taps = branch_taps(k, d)
        span = max(t[0] for t in taps) - min(t[0] for t in taps) + 1
        if span != effective_receptive_field(k, d) or (k > 1 and span != want):
            enum_ok = False
    # The five-branch union strictly exceeds any single branch's tap set.
    per_branch = [set(branch_taps(k, d)) for k, d in DEFAULT_BRANCHES]
    union = set().union(*per_branch)
    strictly_more = all(len(union) > len(s) for s in per_branch)
    ok = enum_ok and strictly_more
    report("criterion 4 (receptive-field report)", ok,
           f"effective kernels match tap spans={enum_ok}, union {len(union)} "
           f"offsets > best single branch "
           f"{max(len(s) for s in per_branch)}={strictly_more}")


def test_criterion_5_structural_assertions():
    backbone = BackboneSpec(image_size=64, stage_channels=(8, 8, 8, 8, 8))
    det = build_network(backbone, 3, Toggles(mrf=True, extra_level=True,
                                             seg_mode="sws"), seed=2)
    coarsest_clear = not any(lv.use_mrf for lv in det.levels[-2:])

    rng = np.random.default_rng(3)
    img = rng.random((1, 3, 64, 64))
    _, out = forward(det, img)
    seg_extent_ok = out.seg_logits.shape == (1, 2, 64, 64)

    # seg off: identical detection outputs and untouched seg parameters.
    det_off = build_network(backbone, 3, Toggles(mrf=True, extra_level=True,
                                                 seg_mode="off"), seed=2)
    _, out_off = forward(det_off, img)
    det_same = (np.array_equal(out.conf.data, out_off.conf.data)
                and np.array_equal(out.loc.data, out_off.loc.data))
    seg_params_same = all(
        np.array_equal(det.params[n].data, det_off.params[n].data)
        for n in det.params if n.startswith("seg."))

    # AWS equals SWS with thresholds (0, inf): same masks on any scene.
    boxes = [Box(2, 2, 12, 12, 1), Box(20, 20, 60, 60, 2), Box(5, 40, 9, 44, 3)]
    aws = rasterize_sws_mask(gt_array(boxes), 64, AWS_THRESHOLDS)
    open_sws = rasterize_sws_mask(gt_array(boxes), 64,
                                  AreaThresholds(np.finfo(np.float64).tiny, np.inf))
    aws_ok = np.array_equal(aws, open_sws)

    ok = coarsest_clear and seg_extent_ok and det_same and seg_params_same and aws_ok
    report("criterion 5 (structural assertions)", ok,
           f"no MRF on two coarsest={coarsest_clear}, seg extent==image={seg_extent_ok}, "
           f"seg off leaves detection/seg params untouched={det_same and seg_params_same}, "
           f"AWS==SWS(0,inf)={aws_ok}")


def test_criterion_6_desk_training(desk):
    cfg = TrainConfig()
    trained = evaluate_detector(desk["result"].detector, desk["test_dir"])
    untrained_det = build_network(
        BackboneSpec(cfg.image_size, cfg.stage_channels), cfg.num_classes,
        cfg.toggles, seed=cfg.seed, dtype=np.float32)
    untrained = evaluate_detector(untrained_det, desk["test_dir"])
    ok_map = trained.map >= 0.5
    ok_floor = untrained.map < 0.1
    ok_time = desk["train_seconds"] < 600.0
    report("criterion 6a (desk training sanity)",
           ok_map and ok_floor and ok_time,
           f"trained mAP@0.5={trained.map:.4f} (>=0.5), untrained "
           f"mAP={untrained.map:.4f} (<0.1), train time "
           f"{desk['train_seconds']:.0f}s (<600s)")


def test_criterion_6_ablation_ladder(desk):
    rows = ablate(TrainConfig(), desk["train_dir"], desk["test_dir"])
    table = format_ablation_table(rows)
    print("\n" + table)
    labels = [label for label, _, _ in rows]
    ok = (len(rows) == 5
          and labels == ["baseline", "+MRF", "+MRF +extra level",
                         "+MRF +extra level +AWS", "+MRF +extra level +SWS"]
          and all(np.isfinite(m) for _, m, _ in rows)
          and table.count("\n") == 5)
    report("criterion 6b (ablation ladder)", ok,
           f"5 rows completed, mAPs={[f'{m:.3f}' for _, m, _ in rows]} "
           "(orderings reported, not asserted)")


def test_criterion_7_determinism(tmp_path):
    spec = DatasetSpec(num_images=12, seed=3)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, lr_drop_epochs=(),
                      batch_size=6)
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        synth_dataset(spec, d / "data")
        ckpt = d / "model.ckpt"
        result = train(cfg, d / "data", ckpt_path=ckpt)
        rep = evaluate_detector(result.detector, d / "data")
        outputs.append((d, ckpt, rep))
    (d1, c1, r1), (d2, c2, r2) = outputs
    data_same = all(
        filecmp.cmp(d1 / "data" / "images" / n, d2 / "data" / "images" / n,
                    shallow=False)
        for n in sorted(os.listdir(d1 / "data" / "images")))
    data_same = data_same and ((d1 / "data" / "annotations.txt").read_bytes()
                               == (d2 / "data" / "annotations.txt").read_bytes())
    ckpt_same = c1.read_bytes() == c2.read_bytes()
    report_same = (r1.per_class_ap == r2.per_class_ap and r1.map == r2.map
                   and r1.tp == r2.tp and r1.fp == r2.fp)
    ok = data_same and ckpt_same and report_same
    report("criterion 7 (pipeline determinism)", ok,
           f"dataset bytes identical={data_same}, checkpoint bytes "
           f"identical={ckpt_same}, eval report identical={report_same}")
