import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from box_oracles import Box, gt_array
from mrfdet.sws_masks import (AWS_THRESHOLDS, AreaThresholds, SegLabel,
                              classify_box, mask_to_pgm_bytes,
                              rasterize_sws_mask, seg_loss)
from mrfdet.tensor_core import ShapeError, Tensor, finite_diff_check

T = AreaThresholds(64.0, 1024.0)


def oracle_mask(gt_boxes, image_size, thresholds):
    """Per-pixel reference: evaluate every pixel against every box."""
    prio = {SegLabel.BACKGROUND: 0, SegLabel.IGNORE: 1, SegLabel.FOREGROUND: 2}
    mask = np.zeros((image_size, image_size), dtype=np.uint8)
    for py in range(image_size):
        for px in range(image_size):
            best = None
            for b in gt_boxes:
                if b.xmin <= px < b.xmax and b.ymin <= py < b.ymax:
                    lab = classify_box(b.area, thresholds)
                    if best is None or prio[lab] > prio[best]:
                        best = lab
            mask[py, px] = int(best) if best is not None else 0
    return mask


class TestClassifyBox:
    def test_bands(self):
        assert classify_box(63.9, T) is SegLabel.IGNORE
        assert classify_box(200.0, T) is SegLabel.FOREGROUND
        assert classify_box(1500.0, T) is SegLabel.BACKGROUND

    def test_boundaries_closed(self):
        # The foreground band is the closed interval [t1, t2].
        assert classify_box(64.0, T) is SegLabel.FOREGROUND
        assert classify_box(1024.0, T) is SegLabel.FOREGROUND
        big = AreaThresholds(1024.0, 9216.0)
        assert classify_box(1024.0, big) is SegLabel.FOREGROUND
        assert classify_box(9216.0, big) is SegLabel.FOREGROUND
        assert classify_box(1023.999, big) is SegLabel.IGNORE
        assert classify_box(9216.001, big) is SegLabel.BACKGROUND

    def test_aws_everything_foreground(self):
        for area in (1e-6, 64.0, 1e7):
            assert classify_box(area, AWS_THRESHOLDS) is SegLabel.FOREGROUND

    def test_invalid(self):
        with pytest.raises(ShapeError):
            classify_box(0.0, T)
        with pytest.raises(ShapeError):
            AreaThresholds(10.0, 10.0)


class TestRasterize:
    def test_single_foreground_box(self):
        mask = rasterize_sws_mask(gt_array([Box(4, 6, 14, 16)]), 32, T)
        want = np.zeros((32, 32), dtype=np.uint8)
        want[6:16, 4:14] = int(SegLabel.FOREGROUND)
        np.testing.assert_array_equal(mask, want)

    def test_half_open_fractional_edges(self):
        # Pixel px is inside iff xmin <= px < xmax; a box (1.5, 1.5, 4.5, 4.5)
        # covers integer coordinates {2, 3, 4}.
        mask = rasterize_sws_mask(gt_array([Box(1.5, 1.5, 4.5, 4.5, 0)]), 8,
                                  AreaThresholds(1.0, 100.0))
        ys, xs = np.nonzero(mask == int(SegLabel.FOREGROUND))
        assert set(xs) == {2, 3, 4} and set(ys) == {2, 3, 4}

    def test_priority_foreground_beats_ignore(self):
        # Tiny (ignore) box overlapping a foreground box: overlap stays FG.
        fg = Box(4, 4, 20, 20)
        tiny = Box(10, 10, 14, 14)
        mask = rasterize_sws_mask(gt_array([tiny, fg]), 32, T)
        assert (mask[12, 12] == int(SegLabel.FOREGROUND))
        mask2 = rasterize_sws_mask(gt_array([fg, tiny]), 32, T)
        np.testing.assert_array_equal(mask, mask2)

    def test_priority_ignore_beats_background(self):
        huge = Box(0, 0, 40, 40)  # area 1600 > t2 -> background paint
        tiny = Box(10, 10, 14, 14)
        mask = rasterize_sws_mask(gt_array([huge, tiny]), 32, T)
        assert mask[12, 12] == int(SegLabel.IGNORE)
        assert mask[30, 30] == int(SegLabel.BACKGROUND)

    def test_matches_per_pixel_oracle(self):
        rng = np.random.default_rng(0)
        outside_rng = np.random.default_rng(1)
        for trial in range(15):
            boxes = []
            for _ in range(rng.integers(1, 5)):
                x, y = rng.uniform(-4, 28, 2)
                w, h = rng.uniform(2, 30, 2)
                boxes.append(Box(x, y, x + w, y + h))
            # Plus one box wholly outside the frame, past a random edge
            # (touching it when the gap is 0).
            x, y = outside_rng.uniform(-4, 28, 2)
            w, h = outside_rng.uniform(2, 30, 2)
            gap = outside_rng.choice([0.0, outside_rng.uniform(0, 40)])
            x, y = [(-w - gap, y), (32 + gap, y), (x, -h - gap), (x, 32 + gap)][trial % 4]
            boxes.append(Box(x, y, x + w, y + h))
            got = rasterize_sws_mask(gt_array(boxes), 32, T)
            np.testing.assert_array_equal(got, oracle_mask(boxes, 32, T))

    def test_out_of_frame_clipped(self):
        mask = rasterize_sws_mask(gt_array([Box(-10, -10, 5, 5)]), 16, AreaThresholds(1, 1e6))
        assert mask[0, 0] == int(SegLabel.FOREGROUND)
        assert mask[:5, :5].all()

    def test_aws_equals_sws_with_open_thresholds(self):
        rng = np.random.default_rng(1)
        boxes = [Box(2, 2, 10, 10), Box(5, 20, 30, 31), Box(0, 0, 31, 31)]
        a = rasterize_sws_mask(gt_array(boxes), 32, AWS_THRESHOLDS)
        assert set(np.unique(a)) <= {int(SegLabel.BACKGROUND), int(SegLabel.FOREGROUND)}
        np.testing.assert_array_equal(a, oracle_mask(boxes, 32, AWS_THRESHOLDS))


class TestSegLoss:
    def test_uniform_logits_give_ln2(self):
        mask = np.zeros((1, 4, 4), dtype=np.uint8)
        mask[0, 1, 1] = int(SegLabel.FOREGROUND)
        loss, count = seg_loss(np.zeros((1, 2, 4, 4)), mask)
        assert count.tolist() == [16]
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_confident_correct_is_small(self):
        mask = np.full((1, 3, 3), int(SegLabel.FOREGROUND), dtype=np.uint8)
        logits = np.zeros((1, 2, 3, 3))
        logits[0, 1] = 20.0
        loss, _ = seg_loss(logits, mask)
        assert loss.item() < 1e-6

    def test_ignored_pixels_excluded(self):
        mask = np.full((1, 2, 2), int(SegLabel.IGNORE), dtype=np.uint8)
        mask[0, 0, 0] = int(SegLabel.BACKGROUND)
        logits = np.zeros((1, 2, 2, 2))
        logits[0, 1, 1, 1] = 50.0  # wrong but ignored: must not affect the loss
        loss, count = seg_loss(logits, mask)
        assert count.tolist() == [1]
        assert loss.item() == pytest.approx(np.log(2.0))

    def test_all_ignored_zero_loss_zero_grad(self):
        mask = np.full((1, 3, 3), int(SegLabel.IGNORE), dtype=np.uint8)
        logits = Tensor(np.random.default_rng(2).standard_normal((1, 2, 3, 3)),
                        requires_grad=True)
        loss, count = seg_loss(logits, mask)
        assert count.tolist() == [0] and loss.item() == 0.0
        loss.backward()
        assert logits.grad is None or not logits.grad.any()

    def test_normalized_by_valid_count(self):
        mask_full = np.zeros((1, 4, 4), dtype=np.uint8)
        mask_half = mask_full.copy()
        mask_half[0, :2] = int(SegLabel.IGNORE)
        logits = np.random.default_rng(3).standard_normal((1, 2, 4, 4))
        full, _ = seg_loss(logits, mask_full)
        half, n = seg_loss(logits, mask_half)
        assert n.tolist() == [8]
        # Both are means over their own valid sets, so both are O(1).
        assert 0 < half.item() < 20 and 0 < full.item() < 20

    def test_batch_rows_are_one_image_losses(self):
        rng = np.random.default_rng(5)
        mask = rng.integers(0, 3, size=(3, 5, 5)).astype(np.uint8)
        mask[1] = int(SegLabel.IGNORE)
        logits = rng.standard_normal((3, 2, 5, 5))
        batch, counts = seg_loss(logits, mask)
        for i in range(3):
            one, count = seg_loss(logits[i:i + 1], mask[i:i + 1])
            assert counts[i] == count[0] and batch.data[i] == one.item()
        assert counts[1] == 0 and batch.data[1] == 0.0

    def test_gradient(self):
        rng = np.random.default_rng(4)
        mask = rng.integers(0, 3, size=(1, 5, 5)).astype(np.uint8)
        logits = rng.standard_normal((1, 2, 5, 5))
        assert finite_diff_check(lambda t: seg_loss(t, mask)[0], logits) < 1e-5

    def test_shape_validation(self):
        with pytest.raises(ShapeError, match="2, H, W"):
            seg_loss(np.zeros((1, 3, 4, 4)), np.zeros((1, 4, 4), dtype=np.uint8))
        with pytest.raises(ShapeError, match="2, H, W"):
            seg_loss(np.zeros((2, 4, 4)), np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ShapeError, match="extent"):
            seg_loss(np.zeros((1, 2, 4, 4)), np.zeros((1, 5, 5), dtype=np.uint8))


class TestPgm:
    def test_header_and_values(self):
        mask = np.array([[0, 1], [2, 0]], dtype=np.uint8)
        data = mask_to_pgm_bytes(mask)
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[-4:] == bytes([0, 255, 128, 0])


@given(st.floats(0.001, 1e5), st.floats(1.0, 1e4))
@settings(max_examples=60, deadline=None)
def test_classification_total_order(area, t1):
    thresholds = AreaThresholds(t1, t1 * 4)
    lab = classify_box(area, thresholds)
    if lab is SegLabel.IGNORE:
        assert area < t1
    elif lab is SegLabel.BACKGROUND:
        assert area > t1 * 4
    else:
        assert t1 <= area <= t1 * 4
