from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loss_oracles
from mrfdet.anchors import encode_array
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
    conf = rng.standard_normal((1, n_anchors, n_classes + 1))
    loc = rng.standard_normal((1, n_anchors, 4))
    return anchors, assign[None], gts, conf, loc


def mask(*anchors, n_anchors):
    """(1, n_anchors) mask of one image's listed anchors."""
    out = np.zeros((1, n_anchors), dtype=bool)
    out[0, list(anchors)] = True
    return out


class TestConfLoss:
    def test_uniform_logits_two_class(self):
        # One positive, one mined negative, two classes: each contributes
        # -ln(0.5), so the sum is 2 ln 2.
        assign = np.array([[0, -1]])
        loss = conf_loss(np.zeros((1, 2, 2)), assign, np.array([1]), mask(1, n_anchors=2))
        assert loss.item() == pytest.approx(2 * np.log(2.0))

    def test_perfect_prediction_small(self):
        assign = np.array([[0, -1]])
        logits = np.array([[[0.0, 30.0], [30.0, 0.0]]])
        loss = conf_loss(logits, assign, np.array([1]), mask(1, n_anchors=2))
        assert loss.item() < 1e-6

    def test_unmined_negatives_excluded(self):
        assign = np.array([[0, -1, -1]])
        logits = np.zeros((1, 3, 2))
        logits[0, 2, 1] = 100.0  # grossly wrong but not mined
        loss = conf_loss(logits, assign, np.array([1]), mask(1, n_anchors=3))
        assert loss.item() == pytest.approx(2 * np.log(2.0))

    def test_no_rows_zero(self):
        logits = Tensor(np.ones((1, 2, 2)), requires_grad=True)
        loss = conf_loss(logits, np.array([[-1, -1]]), np.zeros(0), mask(n_anchors=2))
        assert loss.item() == 0.0
        loss.backward()
        assert logits.grad is None

    def test_background_positive_rejected(self):
        assign = np.array([[0, -1]])
        with pytest.raises(ShapeError, match="background"):
            conf_loss(np.zeros((1, 2, 2)), assign, np.array([0]), mask(n_anchors=2))

    def test_positive_passed_as_negative_rejected(self):
        assign = np.array([[0, -1]])
        with pytest.raises(ShapeError, match="Negative"):
            conf_loss(np.zeros((1, 2, 2)), assign, np.array([1]), mask(0, n_anchors=2))

    def test_gradient(self):
        anchors, assign, gts, conf, _ = micro_scene()
        mined = assign < 0  # all negatives, keeps mining constant
        assert finite_diff_check(
            lambda t: conf_loss(t, assign, gts[:, 4], mined), conf) < 1e-5


class TestLocLoss:
    def test_perfect_prediction_zero(self):
        anchors, assign, gts, _, loc = micro_scene()
        pos = np.flatnonzero(assign[0] >= 0)
        loc = np.zeros_like(loc)
        loc[0, pos] = encode_array(gts[:, :4][assign[0, pos]], anchors[pos])
        loss = loc_loss(loc, assign, gts[:, :4], anchors)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        # Single positive, all four offsets off by 0.5: 4 * 0.125 = 0.5.
        anchors = np.array([[0, 0, 10, 10.0]])
        gt = np.array([[0, 0, 10, 10.0]])
        target = encode_array(gt, anchors)
        loss = loc_loss(target[None] + 0.5, np.array([[0]]), gt, anchors)
        assert loss.item() == pytest.approx(0.5)

    def test_negatives_ignored(self):
        anchors, assign, gts, _, loc = micro_scene()
        loc2 = loc.copy()
        loc2[assign < 0] += 100.0
        a = loc_loss(loc, assign, gts[:, :4], anchors)
        b = loc_loss(loc2, assign, gts[:, :4], anchors)
        assert a.item() == pytest.approx(b.item())

    def test_no_positives_zero(self):
        preds = Tensor(np.ones((1, 2, 4)), requires_grad=True)
        loss = loc_loss(preds, np.array([[-1, -1]]), np.zeros((0, 4)), np.ones((2, 4)))
        assert loss.item() == 0.0
        loss.backward()
        assert preds.grad is None

    def test_gradient(self):
        anchors, assign, gts, _, loc = micro_scene()
        assert finite_diff_check(
            lambda t: loc_loss(t, assign, gts[:, :4], anchors), loc) < 1e-5


class TestMining:
    def test_ratio_three_to_one(self):
        assign = np.array([[0, -1, -1, -1, -1, -1]])
        losses = np.array([[9.0, 0.1, 0.5, 0.3, 0.2, 0.4]])
        mined = hard_negative_mine(losses, assign, 3.0)
        np.testing.assert_array_equal(np.flatnonzero(mined[0]), [2, 3, 5])

    def test_picks_highest_loss(self):
        assign = np.array([[0, -1, -1, -1]])
        losses = np.array([[0.0, 1.0, 3.0, 2.0]])
        mined = hard_negative_mine(losses, assign, 1.0)
        np.testing.assert_array_equal(np.flatnonzero(mined[0]), [2])

    def test_tie_break_lowest_index(self):
        mined = hard_negative_mine(np.array([[0.0, 0.7, 0.7]]), np.array([[0, -1, -1]]), 1.0)
        np.testing.assert_array_equal(np.flatnonzero(mined[0]), [1])

    def test_capped_by_pool(self):
        mined = hard_negative_mine(np.array([[0.0, 0.0, 1.0]]), np.array([[0, 0, -1]]), 3.0)
        np.testing.assert_array_equal(np.flatnonzero(mined[0]), [2])

    def test_zero_positives_no_mining(self):
        mined = hard_negative_mine(np.array([[1.0, 2.0]]), np.array([[-1, -1]]), 3.0)
        assert not mined.any()

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
        assign = np.full((1, len(anchors)), -1, dtype=np.int64)
        seg = np.zeros((1, 2, 4, 4))
        seg_mask = np.zeros((1, 4, 4), dtype=np.uint8)
        bd, total = total_loss(self.heads(conf, loc, anchors, seg), assign,
                               np.zeros((0, 5)), seg_mask,
                               LossConfig())
        assert bd.l_det == 0.0 and bd.l_conf == 0.0 and bd.l_loc == 0.0
        assert bd.total == pytest.approx(np.log(2.0))  # alpha * seg only

    def test_alpha_weighting(self):
        anchors, assign, gts, conf, loc = micro_scene()
        seg = np.zeros((1, 2, 4, 4))
        seg_mask = np.zeros((1, 4, 4), dtype=np.uint8)
        seg_mask[0, 0, 0] = int(SegLabel.FOREGROUND)
        a1, _ = total_loss(self.heads(conf, loc, anchors, seg), assign,
                           gts, seg_mask, LossConfig(alpha=1.0))
        a3, _ = total_loss(self.heads(conf, loc, anchors, seg), assign,
                           gts, seg_mask, LossConfig(alpha=3.0))
        assert a3.total - a3.l_det == pytest.approx(3 * (a1.total - a1.l_det))

    def test_seg_off_when_mask_none(self):
        anchors, assign, gts, conf, loc = micro_scene()
        bd, _ = total_loss(self.heads(conf, loc, anchors), assign,
                           gts, None, LossConfig())
        assert bd.l_seg == 0.0

    def test_gradient_through_everything(self):
        anchors, assign, gts, conf, loc = micro_scene(seed=3)
        seg = np.random.default_rng(4).standard_normal((1, 2, 4, 4))
        seg_mask = np.zeros((1, 4, 4), dtype=np.uint8)
        seg_mask[0, 1:3, 1:3] = int(SegLabel.FOREGROUND)
        cfg = LossConfig(neg_pos_ratio=4.0)  # 8 kept = all negatives: mining constant

        def wrt_conf(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.conf = t
            return total_loss(heads, assign, gts, seg_mask, cfg)[1]

        def wrt_loc(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.loc = t
            return total_loss(heads, assign, gts, seg_mask, cfg)[1]

        def wrt_seg(t):
            heads = self.heads(conf, loc, anchors, seg)
            heads.seg_logits = t
            return total_loss(heads, assign, gts, seg_mask, cfg)[1]

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


def batch_case(n_anchors, images, tied, ratio, alpha, beta, with_seg, seed):
    """A loss batch from per-image (objects, positives, seg mask) choices.

    positives is "none", "some" or "all" anchors; the seg mask is "mixed"
    or "ignored" (no valid pixel). Tied logits take values in {-1, 0, 1},
    so whole rows of background cross-entropy tie.
    """
    rng = np.random.default_rng(seed)
    corner = rng.uniform(0, 20, (n_anchors, 2))
    anchors = np.hstack([corner, corner + rng.uniform(2, 10, (n_anchors, 2))])
    samples = []
    for n_objects, positives, seg_mask in images:
        corner = rng.uniform(0, 20, (n_objects, 2))
        gts = np.hstack([corner, corner + rng.uniform(2, 10, (n_objects, 2)),
                         rng.integers(1, 3, (n_objects, 1))]).astype(np.float64)
        assign = np.full(n_anchors, -1, dtype=np.int64)
        if n_objects and positives != "none":
            hit = (rng.random(n_anchors) < 0.4) | (positives == "all")
            assign[hit] = rng.integers(0, n_objects, int(hit.sum()))
        mask = rng.integers(0, 3, (4, 4)).astype(np.uint8)
        if seg_mask == "ignored":
            mask[:] = int(SegLabel.IGNORE)
        samples.append((gts, assign, mask))
    # Joined as a tape joins them: each assignment offset into the joined gts.
    offsets = np.cumsum([0] + [len(g) for g, _, _ in samples[:-1]])
    gts = np.concatenate([g for g, _, _ in samples])
    assign = np.stack([np.where(a >= 0, a + off, -1) for (_, a, _), off in zip(samples, offsets)])
    masks = np.stack([m for _, _, m in samples])
    n = len(images)
    if tied:
        conf = rng.integers(-1, 2, (n, n_anchors, 3)).astype(np.float64)
    else:
        conf = rng.standard_normal((n, n_anchors, 3))
    heads = SimpleNamespace(conf=conf, loc=rng.standard_normal((n, n_anchors, 4)),
                            seg_logits=rng.standard_normal((n, 2, 4, 4)), anchors=anchors)
    return (heads, assign, gts, masks if with_seg else None,
            LossConfig(alpha=alpha, beta=beta, neg_pos_ratio=ratio), samples)


@st.composite
def loss_batches(draw):
    image = st.tuples(st.integers(0, 3), st.sampled_from(["none", "some", "all"]),
                      st.sampled_from(["mixed", "ignored"]))
    return batch_case(draw(st.integers(2, 12)), draw(st.lists(image, min_size=1, max_size=4)),
                      draw(st.booleans()), draw(st.sampled_from([0.5, 1.0, 3.0, 10.0])),
                      draw(st.sampled_from([0.0, 0.7, 1.0])),
                      draw(st.sampled_from([0.5, 1.0, 1.3])), draw(st.booleans()),
                      draw(st.integers(0, 2 ** 32 - 1)))


def taped(heads, rows=slice(None)):
    """The head outputs of every image, or of image `rows`, as leaf Tensors."""
    return SimpleNamespace(anchors=heads.anchors, **{
        key: Tensor(getattr(heads, key)[rows].copy(), requires_grad=True)
        for key in ("conf", "loc", "seg_logits")})


class TestBatchAgainstPerImageOracle:
    """The batched loss equals the sum of the per-image reference losses,
    and each image's logit gradients equal the reference's."""

    @given(case=loss_batches())
    # Every drawn case at once: an image without positives, a mask without a
    # valid pixel, a mining pool smaller than ratio * n_pos (all anchors
    # positive, or ratio 10) and tied background losses.
    @example(case=batch_case(8, [(0, "none", "mixed"), (2, "all", "ignored"),
                                 (3, "some", "mixed")], True, 10.0, 0.7, 1.3, True, 3))
    @settings(max_examples=100, deadline=None)
    def test_breakdown_and_gradients(self, case):
        heads, assign, gts, masks, cfg, samples = case
        batch = taped(heads)
        bd, total = total_loss(batch, assign, gts, masks, cfg)
        total.backward()
        sums = np.zeros(5)
        n_pos = 0
        for i, (image_gts, image_assign, image_mask) in enumerate(samples):
            one = taped(heads, i)
            want, one_total = loss_oracles.total_loss(
                one, image_assign, image_gts, None if masks is None else image_mask, cfg)
            one_total.backward()
            sums += [want.l_conf, want.l_loc, want.l_det, want.l_seg, want.total]
            n_pos += want.n_pos
            for key in ("conf", "loc", "seg_logits"):
                got, want_grad = getattr(batch, key).grad, getattr(one, key).grad
                np.testing.assert_allclose(
                    0.0 if got is None else got[i], 0.0 if want_grad is None else want_grad,
                    rtol=1e-12, atol=1e-12, err_msg=f"image {i} {key}")
        got = [bd.l_conf, bd.l_loc, bd.l_det, bd.l_seg, bd.total]
        np.testing.assert_allclose(got, sums, rtol=1e-12, atol=1e-12)
        assert bd.n_pos == n_pos
        assert total.item() == pytest.approx(bd.total, rel=1e-12, abs=1e-12)
