import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from box_oracles import (Box, ScoredBox, corners, detection_array, greedy_match, gt_array,
                         reference_coco_summary, reference_evaluate)
from mrfdet.anchors import iou_matrix
from mrfdet.eval_metrics import (AREA_BANDS, IOU_SWEEP, average_precision, evaluate_detections,
                                 match_detections)


def as_arrays(dets_by_image):
    """ScoredBox lists as the (K, 6) detection arrays evaluation reads."""
    return {img: detection_array(dets) for img, dets in dets_by_image.items()}


def gt_arrays(gts_by_image):
    """Box lists as the (M, 5) ground-truth arrays evaluation reads."""
    return {img: gt_array(gts) for img, gts in gts_by_image.items()}


def loop_average_precision(tp_fp_sequence, n_gt, interpolation="eleven_point"):
    """Reference AP: 11 recall points scanned one at a time, and the all-point
    envelope built by a backward loop."""
    seq = [bool(v) for v in tp_fp_sequence]
    if n_gt == 0:
        return None if not seq else 0.0
    if not seq:
        return 0.0
    tp = np.cumsum(seq)
    fp = np.cumsum([not v for v in seq])
    recall = tp / n_gt
    precision = tp / (tp + fp)
    if interpolation == "eleven_point":
        pts = []
        for r in np.linspace(0, 1, 11):
            above = precision[recall >= r - 1e-12]
            pts.append(above.max() if above.size else 0.0)
        return float(np.mean(pts))
    r = np.concatenate([[0.0], recall, [recall[-1]]])
    p = np.concatenate([[0.0], precision, [0.0]])
    for i in range(p.size - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    idx = np.flatnonzero(r[1:] != r[:-1]) + 1
    return float(np.sum((r[idx] - r[idx - 1]) * p[idx]))


FLAG_CODES = {True: 1, False: 0, None: -1}

# The COCO thresholds (the sixth is 0.7500000000000002), AP@0.75's own
# 0.75, and IoUs that land exactly on them or repeat, so that ties and
# strict-versus-inclusive comparisons both occur.
THRESHOLDS = np.arange(0.5, 0.955, 0.05).tolist() + [0.75]
IOU_VALUES = sorted(set(THRESHOLDS + [0.0, 0.25, 0.5, 0.75, 1.0]))


def match(dets, gts, iou_threshold, ignore_gts=()):
    """match_detections at one setting on Box lists: dets in descending score
    order (stable), the IoU matrix against gts followed by ignore_gts, the
    latter out of band. Flags come back as True/False/None for TP/FP/ignored."""
    dets = sorted(dets, key=lambda d: -d.score)
    all_gts = list(gts) + list(ignore_gts)
    ious = iou_matrix(corners(dets), corners(all_gts))
    in_band = np.arange(len(all_gts)) < len(gts)
    flags, matched = match_detections(ious, [iou_threshold], in_band[None])
    codes = {code: flag for flag, code in FLAG_CODES.items()}
    return [codes[f] for f in flags[0].tolist()], matched[0, :len(gts)].tolist()


class TestGreedyMatch:
    def test_simple_tp_fp(self):
        gts = [Box(0, 0, 10, 10)]
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.9), ScoredBox(50, 50, 60, 60, 0, 0.8)]
        flags, matched = match(dets, gts, 0.5)
        assert flags == [True, False]
        assert matched == [True]

    def test_duplicate_detection_is_fp(self):
        gts = [Box(0, 0, 10, 10)]
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.9), ScoredBox(0.5, 0, 10.5, 10, 0, 0.8)]
        flags, _ = match(dets, gts, 0.5)
        assert flags == [True, False]

    def test_higher_score_claims_first(self):
        gts = [Box(0, 0, 10, 10)]
        dets = [ScoredBox(0.5, 0, 10.5, 10, 0, 0.3), ScoredBox(0, 0, 10, 10, 0, 0.9)]
        flags, _ = match(dets, gts, 0.5)
        # flags come back in descending score order: 0.9 first.
        assert flags == [True, False]

    def test_strictly_above_threshold(self):
        # IoU exactly at the threshold does not match.
        gts = [Box(0, 0, 10, 10)]
        dets = [ScoredBox(0, 0, 10, 5, 0, 0.9)]  # IoU exactly 0.5
        flags, matched = match(dets, gts, 0.5)
        assert flags == [False] and matched == [False]

    def test_ignored_gts_absorb_detections(self):
        ignore = [Box(0, 0, 10, 10)]
        dets = [ScoredBox(0, 0, 10, 10, 0, 0.9), ScoredBox(50, 50, 60, 60, 0, 0.8)]
        flags, _ = match(dets, [], 0.5, ignore_gts=ignore)
        assert flags == [None, False]

    def test_real_gt_preferred_over_ignore(self):
        gts = [Box(0, 0, 10, 10)]
        ignore = [Box(0, 0, 10, 10)]
        flags, matched = match([ScoredBox(0, 0, 10, 10, 0, 0.9)], gts, 0.5, ignore)
        assert flags == [True] and matched == [True]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_dets=st.integers(0, 8), n_gts=st.integers(0, 5),
           n_settings=st.integers(1, 13))
    def test_every_setting_equals_the_oracle_run_alone(self, data, n_dets, n_gts,
                                                       n_settings):
        ious = np.array(data.draw(st.lists(
            st.lists(st.sampled_from(IOU_VALUES), min_size=n_gts, max_size=n_gts),
            min_size=n_dets, max_size=n_dets)), dtype=np.float64).reshape(n_dets, n_gts)
        thresholds = data.draw(st.lists(st.sampled_from(THRESHOLDS),
                                        min_size=n_settings, max_size=n_settings))
        in_band = np.array(data.draw(st.lists(
            st.lists(st.booleans(), min_size=n_gts, max_size=n_gts),
            min_size=n_settings, max_size=n_settings)), dtype=bool).reshape(n_settings, n_gts)
        flags, matched = match_detections(ious, thresholds, in_band)
        assert flags.shape == (n_settings, n_dets) and matched.shape == (n_settings, n_gts)
        for p, thr in enumerate(thresholds):
            ref_flags, ref_matched = greedy_match(ious.tolist(), thr, in_band[p].tolist())
            assert flags[p].tolist() == [FLAG_CODES[f] for f in ref_flags]
            assert matched[p].tolist() == ref_matched


class TestAveragePrecision:
    def test_perfect_detector(self):
        assert average_precision([True, True], 2, "eleven_point") == pytest.approx(1.0)
        assert average_precision([True, True], 2, "all_point") == pytest.approx(1.0)

    def test_all_false(self):
        assert average_precision([False, False], 3, "all_point") == 0.0
        assert average_precision([False], 3, "eleven_point") == 0.0

    def test_tp_fp_tp_all_point(self):
        # precision (1, 1/2, 2/3) at recall (1/2, 1/2, 1): envelope gives
        # 0.5 * 1 + 0.5 * 2/3 = 5/6.
        ap = average_precision([True, False, True], 2, "all_point")
        assert ap == pytest.approx(5 / 6)

    def test_tp_fp_tp_eleven_point(self):
        # 6 recall points up to 0.5 see precision 1, the other 5 see 2/3.
        ap = average_precision([True, False, True], 2, "eleven_point")
        assert ap == pytest.approx((6 * 1.0 + 5 * (2 / 3)) / 11)

    def test_missed_gts_cap_recall(self):
        # One TP against 2 gts: all-point AP is bounded by recall 0.5.
        assert average_precision([True], 2, "all_point") == pytest.approx(0.5)

    def test_no_gts_no_dets_excluded(self):
        assert average_precision([], 0, "all_point") is None

    def test_no_gts_with_dets_zero(self):
        assert average_precision([False, False], 0, "all_point") == 0.0

    def test_no_dets_with_gts_zero(self):
        assert average_precision([], 4, "eleven_point") == 0.0

    def test_monotone_in_prepended_tp(self):
        base = [True, False, False, True]
        better = [True] + base
        for interp in ("eleven_point", "all_point"):
            assert (average_precision(better, 3, interp)
                    >= average_precision(base, 3, interp))

    @settings(max_examples=400, deadline=None)
    @given(seq=st.lists(st.booleans(), max_size=40), n_gt=st.integers(0, 45),
           interpolation=st.sampled_from(["eleven_point", "all_point"]))
    @example(seq=[], n_gt=0, interpolation="all_point")
    @example(seq=[], n_gt=3, interpolation="eleven_point")
    @example(seq=[False, False], n_gt=0, interpolation="eleven_point")
    @example(seq=[True, False, False, True, False], n_gt=10, interpolation="eleven_point")
    def test_equals_loop_oracle_exactly(self, seq, n_gt, interpolation):
        # FPs repeat the previous recall, so most sequences have recall ties.
        assert average_precision(seq, n_gt, interpolation) == \
            loop_average_precision(seq, n_gt, interpolation)


def two_image_fixture():
    gts = {
        "a": [Box(0, 0, 10, 10, 1), Box(20, 20, 40, 40, 2)],
        "b": [Box(5, 5, 15, 15, 1)],
    }
    dets = {
        "a": [ScoredBox(0, 0, 10, 10, 1, 0.9),       # TP class 1
              ScoredBox(21, 21, 41, 41, 2, 0.8),     # TP class 2
              ScoredBox(50, 50, 60, 60, 1, 0.7)],    # FP class 1
        "b": [ScoredBox(5, 5, 15, 15, 1, 0.6)],      # TP class 1
    }
    return dets, gts


class TestEvaluateDetections:
    def test_counts(self):
        dets, gts = two_image_fixture()
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        assert rep.tp == 3 and rep.fp == 1 and rep.missed == 0

    def test_per_class_ap(self):
        dets, gts = two_image_fixture()
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        # Class 1: [TP at 0.9, FP at 0.7, TP at 0.6] against 2 gts -> 5/6.
        assert rep.coco_per_class_ap[1] == pytest.approx(5 / 6)
        assert rep.coco_per_class_ap[2] == pytest.approx(1.0)
        assert rep.coco_maps[0] == pytest.approx((5 / 6 + 1.0) / 2)

    def test_detection_only_class_scores_zero(self):
        dets = {"a": [ScoredBox(0, 0, 10, 10, 3, 0.9)]}
        gts = {"a": [Box(0, 0, 10, 10, 1)]}
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        assert rep.per_class_ap[3] == 0.0
        assert rep.per_class_ap[1] == 0.0

    def test_area_bands_ignore_semantics(self):
        # A gt of area 400 (small band) and one of 1600 (medium band).
        gts = {"a": [Box(0, 0, 20, 20, 1), Box(30, 0, 70, 40, 1)]}
        dets = {"a": [ScoredBox(0, 0, 20, 20, 1, 0.9), ScoredBox(30, 0, 70, 40, 1, 0.8)]}
        bands = evaluate_detections(as_arrays(dets), gt_arrays(gts)).coco_per_area_ap
        # In the S band the medium gt is ignored, so its matching detection
        # is dropped rather than counted as an FP.
        assert bands["S"] == pytest.approx(1.0)
        assert bands["M"] == pytest.approx(1.0)
        assert bands["L"] is None

    def test_out_of_band_fp_still_counts(self):
        gts = {"a": [Box(0, 0, 20, 20, 1)]}
        dets = {"a": [ScoredBox(0, 0, 20, 20, 1, 0.9), ScoredBox(40, 40, 60, 60, 1, 0.8)]}
        bands = evaluate_detections(as_arrays(dets), gt_arrays(gts)).coco_per_area_ap
        # The stray detection overlaps no gt at all: an FP even in band S.
        assert bands["S"] == pytest.approx(1.0)  # FP ranks after the TP

    def test_band_without_gt_is_excluded(self):
        # One S-band gt with its matching detection, plus a stray M-sized
        # detection (area 1600). No class has a gt in the M band, so, as in
        # the COCO evaluation, the band has no AP rather than 0.
        gts = {"a": [Box(0, 0, 20, 20, 1)]}
        dets = {"a": [ScoredBox(0, 0, 20, 20, 1, 0.9), ScoredBox(20, 20, 60, 60, 1, 0.8)]}
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        assert rep.coco_per_area_ap["S"] == pytest.approx(1.0)
        assert rep.coco_per_area_ap["M"] is None and rep.coco_per_area_ap["L"] is None
        assert "AP_M=n/a" in rep.format_table()
        assert "AP_M @0.5     n/a" in rep.format_coco()

    def test_band_mean_skips_classes_without_gt_in_band(self):
        # Class 1 has an M-band gt; class 2 has only a stray M-sized detection.
        gts = {"a": [Box(0, 0, 40, 40, 1)]}
        dets = {"a": [ScoredBox(0, 0, 40, 40, 1, 0.9), ScoredBox(0, 0, 40, 40, 2, 0.8)]}
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        assert rep.coco_per_class_ap[2] == 0.0
        assert rep.coco_per_area_ap["M"] == pytest.approx(1.0)

    def test_global_score_ordering_across_images(self):
        gts = {"a": [Box(0, 0, 10, 10, 1)], "b": [Box(0, 0, 10, 10, 1)]}
        dets = {"a": [ScoredBox(50, 50, 60, 60, 1, 0.9)],  # highest-scoring is an FP
                "b": [ScoredBox(0, 0, 10, 10, 1, 0.5)]}
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        # Sequence is [FP, TP] against 2 gts: AP = 0.5 * 0.5 = 0.25.
        assert rep.coco_per_class_ap[1] == pytest.approx(0.25)

    def test_format_table(self):
        dets, gts = two_image_fixture()
        rep = evaluate_detections(as_arrays(dets), gt_arrays(gts))
        text = rep.format_table()
        assert text.splitlines()[0] == "class  AP"
        assert "mAP" in text and "TP=3" in text

    def test_class_ids_from_the_array_stay_ints(self):
        # The class column is float64; the report keys and table rows are ints.
        dets, gts = two_image_fixture()
        rep = evaluate_detections(as_arrays(dets), {})
        assert all(type(cls) is int for cls in rep.per_class_ap)
        assert rep.format_table().splitlines()[1:3] == ["    1  0.0000", "    2  0.0000"]


class TestCocoSummary:
    def test_perfect_detector_all_ones(self):
        gts = {"a": [Box(0, 0, 20, 20, 1)]}
        dets = {"a": [ScoredBox(0, 0, 20, 20, 1, 0.99)]}
        text = evaluate_detections(as_arrays(dets), gt_arrays(gts)).format_coco()
        assert "AP@0.5        1.0000" in text
        assert "AP@0.75       1.0000" in text
        assert "AP@[0.5:0.95] 1.0000" in text

    def test_loose_detection_fails_high_thresholds(self):
        gts = {"a": [Box(0, 0, 20, 20, 1)]}
        dets = {"a": [ScoredBox(3, 3, 23, 23, 1, 0.99)]}  # IoU ~ 0.57
        text = evaluate_detections(as_arrays(dets), gt_arrays(gts)).format_coco()
        assert "AP@0.5        1.0000" in text
        assert "AP@0.75       0.0000" in text

    def test_ap75_is_taken_at_075_itself(self):
        # IoU 0.7500000000000002 lies above 0.75 but not above the sweep's
        # sixth threshold, which is that same value.
        gts = {"a": [Box(0, 0, 20, 20, 1)]}
        dets = {"a": [ScoredBox(0, 0, 20, 15.000000000000002, 1, 0.9)]}
        text = evaluate_detections(as_arrays(dets), gt_arrays(gts)).format_coco()
        assert "AP@0.75       1.0000" in text
        assert "AP@[0.5:0.95] 0.5000" in text
        assert text == reference_coco_summary(as_arrays(dets), gt_arrays(gts))


# Coordinates on an 8-pixel grid, so IoUs are ratios of small integers and
# land exactly on thresholds, and sides up to 104 pixels, so the S, M and
# L bands all occur.
grid = st.integers(0, 4).map(lambda v: 8.0 * v)
side = st.integers(1, 13).map(lambda v: 8.0 * v)
step = st.sampled_from([-8.0, 0.0, 8.0])


@st.composite
def datasets(draw):
    """(detections, ground truth) over 1-4 images and 1-3 classes; an image
    may be missing from either dict. Scores have one decimal, so equal
    scores occur across images, and most detections are a gt moved by a
    grid step, so TPs, ignored detections and IoUs on a threshold are common."""
    label = st.integers(1, draw(st.integers(1, 3))).map(float)
    dets, gts = {}, {}
    for img in "dbca"[:draw(st.integers(1, 4))]:
        g = [[x, y, x + w, y + h, c] for x, y, w, h, c in
             draw(st.lists(st.tuples(grid, grid, side, side, label), max_size=5))]
        d = []
        for _ in range(draw(st.integers(0, 8))):
            if g and draw(st.booleans()):
                x0, y0, x1, y1, c = draw(st.sampled_from(g))
                x0, y0 = x0 + draw(step), y0 + draw(step)
                x1, y1 = max(x1 + draw(step), x0 + 8), max(y1 + draw(step), y0 + 8)
                c = draw(st.sampled_from([c, draw(label)]))
            else:
                x0, y0, w, h, c = draw(st.tuples(grid, grid, side, side, label))
                x1, y1 = x0 + w, y0 + h
            d.append([x0, y0, x1, y1, draw(st.integers(0, 10)) / 10, c])
        present = draw(st.sampled_from(["both", "dets", "gts"]))
        if present != "gts":
            dets[img] = np.array(d, dtype=np.float64).reshape(-1, 6)
        if present != "dets":
            gts[img] = np.array(g, dtype=np.float64).reshape(-1, 5)
    return dets, gts


class TestReportOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=datasets())
    def test_reports_equal_the_per_setting_composition(self, data):
        dets, gts = data
        rep = evaluate_detections(dets, gts)
        voc = reference_evaluate(dets, gts, 0.5, "eleven_point", AREA_BANDS)
        coco = reference_evaluate(dets, gts, 0.5, "all_point", AREA_BANDS)
        assert {key: getattr(rep, key) for key in voc} == voc
        assert (rep.tp, rep.fp, rep.missed) == (coco["tp"], coco["fp"], coco["missed"])
        assert rep.coco_per_class_ap == coco["per_class_ap"]
        assert rep.coco_per_area_ap == coco["per_area_ap"]
        assert rep.coco_maps == tuple(reference_evaluate(dets, gts, t, "all_point")["map"]
                                      for t in [*IOU_SWEEP, 0.75])
        assert rep.format_coco() == reference_coco_summary(dets, gts)
