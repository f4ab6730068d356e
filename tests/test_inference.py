import numpy as np
import pytest

from box_oracles import ScoredBox, detection_array, nms
from mrfdet.anchors import decode_array
from mrfdet.dataset import DatasetSpec, load_dataset, synth_dataset
from mrfdet.detector_net import BackboneSpec, Toggles, build_network, forward
from mrfdet.gradcheck import COMPOSED_TOL, PRIMITIVE_TOL, run_suite
from mrfdet.inference import (collect_detections, detect, detect_image,
                              evaluate_detector)
from mrfdet.trainer import TrainConfig


@pytest.fixture(scope="module")
def small_det():
    return build_network(BackboneSpec(32, (8, 8, 8, 8)), 3,
                         Toggles(mrf=False, extra_level=True, seg_mode="off"),
                         seed=1, dtype=np.float32)


@pytest.fixture(scope="module")
def small_data(tmp_path_factory):
    d = tmp_path_factory.mktemp("infdata")
    synth_dataset(DatasetSpec(image_size=32, num_images=4, small_side=(8, 16),
                              large_side=(18, 24), seed=11), d)
    return d


class TestDetectImage:
    def test_outputs_are_valid_boxes(self, small_det):
        img = np.random.default_rng(0).random((3, 32, 32))
        dets = detect_image(small_det, img)
        for xmin, ymin, xmax, ymax, score, class_id in dets:
            assert 0 <= xmin < xmax <= 32
            assert 0 <= ymin < ymax <= 32
            assert class_id in (1, 2, 3)
            assert 0 < score <= 1.0

    def test_sorted_by_score(self, small_det):
        img = np.random.default_rng(1).random((3, 32, 32))
        dets = detect_image(small_det, img)
        scores = dets[:, 4].tolist()
        assert scores == sorted(scores, reverse=True)

    def test_max_keep_respected(self, small_det):
        img = np.random.default_rng(2).random((3, 32, 32))
        assert len(detect_image(small_det, img, max_keep=5)) <= 5

    def test_high_threshold_prunes(self, small_det):
        img = np.random.default_rng(3).random((3, 32, 32))
        loose = detect_image(small_det, img, score_threshold=0.01)
        tight = detect_image(small_det, img, score_threshold=0.9)
        assert len(tight) <= len(loose)

    def test_batch_rows_equal_one_image_calls(self, small_det):
        images = np.random.default_rng(5).random((3, 3, 32, 32))
        dets = detect(small_det, images, score_threshold=0.2, max_keep=50)
        assert len(dets) == 3
        for got, image in zip(dets, images):
            want = detect_image(small_det, image, score_threshold=0.2, max_keep=50)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_deterministic(self, small_det):
        img = np.random.default_rng(4).random((3, 32, 32))
        a = detect_image(small_det, img)
        b = detect_image(small_det, img)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("max_keep", [1, 7, 200])
    @pytest.mark.parametrize("score_threshold", [0.01, 0.26, 0.999])
    def test_array_contract(self, small_det, max_keep, score_threshold):
        img = np.random.default_rng(max_keep).random((3, 32, 32))
        dets = detect_image(small_det, img, score_threshold=score_threshold,
                            max_keep=max_keep)
        assert dets.dtype == np.float64 and dets.ndim == 2 and dets.shape[1] == 6
        assert len(dets) <= max_keep
        classes = dets[:, 5]
        assert np.array_equal(classes, np.round(classes))
        assert ((classes >= 1) & (classes <= small_det.num_classes)).all()
        assert (np.diff(dets[:, 4]) <= 0).all()
        assert (dets[:, 4] > score_threshold).all()


class TestDenseRegime:
    """The untrained default network scores every anchor above the score
    threshold, so each class sends all 1520 anchors to NMS and the image
    keeps the full 200 detections."""

    def test_matches_per_class_decode_and_oracle_nms(self, tmp_path):
        cfg = TrainConfig()
        det = build_network(BackboneSpec(cfg.image_size, cfg.stage_channels),
                            cfg.num_classes, cfg.toggles, seed=cfg.seed,
                            dtype=np.float32)
        synth_dataset(DatasetSpec(num_images=1, seed=1), tmp_path)
        (_, image, _), = load_dataset(tmp_path)
        _, outputs = forward(det, image[None].astype(np.float32), with_seg=False)
        logits = outputs.conf.data[0].astype(np.float64)
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        candidates = []
        for cls in range(1, cfg.num_classes + 1):
            idx = np.flatnonzero(probs[:, cls] > 0.01)
            assert idx.size == len(det.anchors) == 1520
            boxes = np.clip(decode_array(outputs.loc.data[0, idx].astype(np.float64),
                                         det.anchors[idx]), 0, cfg.image_size)
            candidates += [ScoredBox(*b, class_id=cls, score=float(probs[i, cls]))
                           for b, i in zip(boxes, idx)]
        want = nms(candidates, 0.45, 200)
        got = detect_image(det, image)
        assert len(got) == 200
        np.testing.assert_array_equal(got, detection_array(want))


class TestEvaluateDetector:
    def test_untrained_scores_low(self, small_det, small_data):
        report = evaluate_detector(small_det, small_data)
        assert 0.0 <= report.map < 0.5  # untrained: essentially noise

    def test_same_model_same_report(self, small_det, small_data):
        a = evaluate_detector(small_det, small_data)
        b = evaluate_detector(small_det, small_data)
        assert a.per_class_ap == b.per_class_ap
        assert a.map == b.map and a.tp == b.tp and a.fp == b.fp

    def test_collect_equals_one_image_detect_exactly(self, small_det, tmp_path):
        # 6 images: one full batch of 4 and a partial batch of 2.
        synth_dataset(DatasetSpec(image_size=32, num_images=6, small_side=(8, 16),
                                  large_side=(18, 24), seed=12), tmp_path)
        dets, gts = collect_detections(small_det, tmp_path)
        samples = load_dataset(tmp_path)
        assert list(dets) == [rel for rel, _, _ in samples]
        for rel, image, boxes in samples:
            want = detect_image(small_det, image)
            assert dets[rel].dtype == want.dtype and np.array_equal(dets[rel], want)
            assert np.array_equal(gts[rel], boxes)

    def test_collect_keys_match_dataset(self, small_det, small_data):
        dets, gts = collect_detections(small_det, small_data)
        assert set(dets) == set(gts)
        assert len(gts) == 4


class TestGradcheckSuite:
    def test_tensor_module(self):
        for name, err, tol in run_suite(("tensor",)):
            assert err < tol, f"{name}: {err} >= {tol}"

    def test_loss_module(self):
        for name, err, tol in run_suite(("loss",)):
            assert err < tol, f"{name}: {err} >= {tol}"

    def test_mrf_module(self):
        for name, err, tol in run_suite(("mrf",)):
            assert err < tol, f"{name}: {err} >= {tol}"

    def test_net_module(self):
        for name, err, tol in run_suite(("net",)):
            assert err < tol, f"{name}: {err} >= {tol}"

    def test_tolerances(self):
        assert PRIMITIVE_TOL == 1e-5
        assert COMPOSED_TOL == 1e-4

    def test_suite_covers_required_primitives(self):
        names = [n for n, _, _ in run_suite(("tensor", "loss"))]
        text = " ".join(names)
        for needle in ("conv", "transposed", "relu", "conf_loss",
                       "loc_loss", "seg_loss", "total_loss"):
            assert needle in text, needle
