from types import SimpleNamespace

import numpy as np
import pytest

from mrfdet.anchors import MatchAssignment, encode_array
from mrfdet.losses import (LossConfig, background_ce, conf_loss,
                           hard_negative_mine, loc_loss, smooth_l1,
                           smooth_l1_grad, total_loss)
from mrfdet.sws_masks import SegLabel
from mrfdet.tensor_core import ShapeError, Tensor, finite_diff_check


class TestSmoothL1:
    def test_hand_values(self):
        assert smooth_l1(0.0) == 0.0
        assert smooth_l1(0.5) == pytest.approx(0.125)
        assert smooth_l1(-0.5) == pytest.approx(0.125)
        assert smooth_l1(1.0) == pytest.approx(0.5)
        assert smooth_l1(2.0) == pytest.approx(1.5)
        assert smooth_l1(-3.0) == pytest.approx(2.5)

    def test_continuous_at_kink(self):
        eps = 1e-9
        assert smooth_l1(1.0 - eps) == pytest.approx(smooth_l1(1.0 + eps), abs=1e-8)

    def test_grad(self):
        np.testing.assert_allclose(smooth_l1_grad(np.array([-2.0, -0.3, 0.0, 0.7, 5.0])),
                                   [-1.0, -0.3, 0.0, 0.7, 1.0])


def micro_scene(n_anchors=10, n_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    anchors = np.stack([
        np.linspace(0, 40, n_anchors),
        np.linspace(0, 40, n_anchors),
        np.linspace(0, 40, n_anchors) + 10,
        np.linspace(0, 40, n_anchors) + 10,
    ], axis=1)
    assign = np.full(n_anchors, -1, dtype=np.int64)
    assign[1] = 0
    assign[7] = 1
    gts = np.array([[4, 4, 15, 15, 1], [30, 30, 42, 41, n_classes]], dtype=np.float64)
    conf = rng.standard_normal((n_anchors, n_classes + 1))
    loc = rng.standard_normal((n_anchors, 4))
    return anchors, MatchAssignment(assign), gts, conf, loc


class TestConfLoss:
    def test_uniform_logits_two_class(self):
        # One positive, one mined negative, two classes: each contributes
        # -ln(0.5), so the sum is 2 ln 2.
        assign = MatchAssignment(np.array([0, -1]))
        loss = conf_loss(np.zeros((2, 2)), assign, np.array([1]), np.array([1]))
        assert loss.item() == pytest.approx(2 * np.log(2.0))

    def test_perfect_prediction_small(self):
        assign = MatchAssignment(np.array([0, -1]))
        logits = np.array([[0.0, 30.0], [30.0, 0.0]])
        loss = conf_loss(logits, assign, np.array([1]), np.array([1]))
        assert loss.item() < 1e-6

    def test_unmined_negatives_excluded(self):
        assign = MatchAssignment(np.array([0, -1, -1]))
        logits = np.zeros((3, 2))
        logits[2, 1] = 100.0  # grossly wrong but not mined
        loss = conf_loss(logits, assign, np.array([1]), np.array([1]))
        assert loss.item() == pytest.approx(2 * np.log(2.0))

    def test_no_rows_zero(self):
        logits = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = conf_loss(logits, MatchAssignment(np.array([-1, -1])), np.zeros(0),
                         np.zeros(0))
        assert loss.item() == 0.0
        loss.backward()
        assert logits.grad is None

    def test_background_positive_rejected(self):
        assign = MatchAssignment(np.array([0, -1]))
        with pytest.raises(ShapeError, match="background"):
            conf_loss(np.zeros((2, 2)), assign, np.array([0]), np.zeros(0))

    def test_positive_passed_as_negative_rejected(self):
        assign = MatchAssignment(np.array([0, -1]))
        with pytest.raises(ShapeError, match="Negative"):
            conf_loss(np.zeros((2, 2)), assign, np.array([1]), np.array([0]))

    def test_gradient(self):
        anchors, assign, gts, conf, _ = micro_scene()
        mined = assign.negative_indices  # all negatives, keeps mining constant
        assert finite_diff_check(
            lambda t: conf_loss(t, assign, gts[:, 4], mined), conf) < 1e-5


class TestLocLoss:
    def test_perfect_prediction_zero(self):
        anchors, assign, gts, _, loc = micro_scene()
        pos = assign.positive_indices
        loc = np.zeros_like(loc)
        loc[pos] = encode_array(gts[:, :4][assign.anchor_gt[pos]], anchors[pos])
        loss = loc_loss(loc, assign, gts[:, :4], anchors)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # Single positive, all four offsets off by 0.5: 4 * 0.125 = 0.5.
        anchors = np.array([[0, 0, 10, 10.0]])
        gt = np.array([[0, 0, 10, 10.0]])
        assign = MatchAssignment(np.array([0]))
        target = encode_array(gt, anchors)
        loss = loc_loss(target + 0.5, assign, gt, anchors)
        assert loss.item() == pytest.approx(0.5)

    def test_negatives_ignored(self):
        anchors, assign, gts, _, loc = micro_scene()
        loc2 = loc.copy()
        loc2[assign.negative_indices] += 100.0
        a = loc_loss(loc, assign, gts[:, :4], anchors)
        b = loc_loss(loc2, assign, gts[:, :4], anchors)
        assert a.item() == pytest.approx(b.item())

    def test_no_positives_zero(self):
        assign = MatchAssignment(np.array([-1, -1]))
        preds = Tensor(np.ones((2, 4)), requires_grad=True)
        loss = loc_loss(preds, assign, np.zeros((0, 4)), np.ones((2, 4)))
        assert loss.item() == 0.0
        loss.backward()
        assert preds.grad is None

    def test_gradient(self):
        anchors, assign, gts, _, loc = micro_scene()
        assert finite_diff_check(
            lambda t: loc_loss(t, assign, gts[:, :4], anchors), loc) < 1e-5


class TestMining:
    def test_ratio_three_to_one(self):
        assign = MatchAssignment(np.array([0, -1, -1, -1, -1, -1]))
        losses = np.array([9.0, 0.1, 0.5, 0.3, 0.2, 0.4])
        mined = hard_negative_mine(losses, assign, 3.0)
        np.testing.assert_array_equal(sorted(mined), [2, 3, 5])

    def test_picks_highest_loss(self):
        assign = MatchAssignment(np.array([0, -1, -1, -1]))
        losses = np.array([0.0, 1.0, 3.0, 2.0])
        mined = hard_negative_mine(losses, assign, 1.0)
        np.testing.assert_array_equal(mined, [2])

    def test_tie_break_lowest_index(self):
        assign = MatchAssignment(np.array([0, -1, -1]))
        mined = hard_negative_mine(np.array([0.0, 0.7, 0.7]), assign, 1.0)
        np.testing.assert_array_equal(mined, [1])

    def test_capped_by_pool(self):
        assign = MatchAssignment(np.array([0, 0, -1]))
        mined = hard_negative_mine(np.array([0.0, 0.0, 1.0]), assign, 3.0)
        np.testing.assert_array_equal(mined, [2])

    def test_zero_positives_no_mining(self):
        assign = MatchAssignment(np.array([-1, -1]))
        assert hard_negative_mine(np.array([1.0, 2.0]), assign, 3.0).size == 0

    def test_background_ce_matches_direct(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((6, 4))
        ce = background_ce(logits)
        for i in range(6):
            z = logits[i] - logits[i].max()
            p0 = np.exp(z[0]) / np.exp(z).sum()
            assert ce[i] == pytest.approx(-np.log(p0))


class TestTotalLoss:
    def heads(self, conf, loc, anchors, seg=None):
        return SimpleNamespace(conf=Tensor(np.asarray(conf, dtype=float), requires_grad=True),
                               loc=Tensor(np.asarray(loc, dtype=float), requires_grad=True),
                               anchors=anchors,
                               seg_logits=None if seg is None else
                               Tensor(np.asarray(seg, dtype=float), requires_grad=True))

    def test_normalization_by_n_pos(self):
        anchors, assign, gts, conf, loc = micro_scene()
        heads = self.heads(conf, loc, anchors)
        bd, total = total_loss(heads, assign, gts, None,
                               LossConfig())
        assert bd.n_pos == 2
        assert bd.total == pytest.approx((bd.l_conf + bd.l_loc) / 2)
        assert total.item() == pytest.approx(bd.total)

    def test_beta_weighting(self):
        anchors, assign, gts, conf, loc = micro_scene()
        cfg = LossConfig(beta=2.0)
        bd, _ = total_loss(self.heads(conf, loc, anchors), assign,
                           gts, None, cfg)
        assert bd.total == pytest.approx((bd.l_conf + 2.0 * bd.l_loc) / 2)

    def test_no_positives_detection_term_dropped(self):
        anchors, _, gts, conf, loc = micro_scene()
        assign = MatchAssignment(np.full(len(anchors), -1, dtype=np.int64))
        seg = np.zeros((2, 4, 4))
        mask = np.zeros((4, 4), dtype=np.uint8)
        bd, total = total_loss(self.heads(conf, loc, anchors, seg), assign,
                               np.zeros((0, 5)), mask,
                               LossConfig())
        assert bd.l_det == 0.0 and bd.l_conf == 0.0 and bd.l_loc == 0.0
        assert bd.total == pytest.approx(np.log(2.0))  # alpha * seg only

    def test_alpha_weighting(self):
        anchors, assign, gts, conf, loc = micro_scene()
        seg = np.zeros((2, 4, 4))
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[0, 0] = int(SegLabel.FOREGROUND)
        a1, _ = total_loss(self.heads(conf, loc, anchors, seg), assign,
                           gts, mask, LossConfig(alpha=1.0))
        a3, _ = total_loss(self.heads(conf, loc, anchors, seg), assign,
                           gts, mask, LossConfig(alpha=3.0))
        assert a3.total - a3.l_det == pytest.approx(3 * (a1.total - a1.l_det))

    def test_seg_off_when_mask_none(self):
        anchors, assign, gts, conf, loc = micro_scene()
        bd, _ = total_loss(self.heads(conf, loc, anchors), assign,
                           gts, None, LossConfig())
        assert bd.l_seg == 0.0

    def test_gradient_through_everything(self):
        anchors, assign, gts, conf, loc = micro_scene(seed=3)
        seg = np.random.default_rng(4).standard_normal((2, 4, 4))
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1:3, 1:3] = int(SegLabel.FOREGROUND)
        cfg = LossConfig(neg_pos_ratio=4.0)  # 8 kept = all negatives: mining constant

        def wrt_conf(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.conf = t
            return total_loss(heads, assign, gts, mask, cfg)[1]

        def wrt_loc(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.loc = t
            return total_loss(heads, assign, gts, mask, cfg)[1]

        def wrt_seg(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.seg_logits = t
            return total_loss(heads, assign, gts, mask, cfg)[1]

        assert finite_diff_check(wrt_conf, conf) < 1e-4
        assert finite_diff_check(wrt_loc, loc) < 1e-4
        assert finite_diff_check(wrt_seg, seg) < 1e-4

    def test_breakdown_record_format(self):
        anchors, assign, gts, conf, loc = micro_scene()
        bd, _ = total_loss(self.heads(conf, loc, anchors), assign,
                           gts, None, LossConfig())
        line = bd.record(7)
        assert line.startswith("step=7 ")
        assert "total=" in line and "n_pos=2" in line

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            LossConfig(alpha=-1.0)
        with pytest.raises(ShapeError):
            LossConfig(neg_pos_ratio=0.0)
