import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfdet import detector_net
from mrfdet.dataset import DatasetSpec, load_dataset, synth_dataset
from mrfdet.detector_net import (BackboneSpec, Toggles, anchor_counts, anchor_scales,
                                 aspect_ratios_for, build_network, describe,
                                 flatten_level_maps, forward, fpn_merge,
                                 seg_head_forward)
from mrfdet.losses import total_loss
from mrfdet.tensor_core import (ShapeError, Tensor, add, finite_diff_check,
                                inner, no_grad, relu)
from mrfdet.trainer import TrainConfig, join_samples, match_sample

SMALL = BackboneSpec(image_size=32, stage_channels=(8, 8, 8, 8))


def small_net(mrf=False, extra=True, seg="sws", num_classes=2, seed=0):
    return build_network(SMALL, num_classes,
                         Toggles(mrf=mrf, extra_level=extra, seg_mode=seg),
                         seed=seed)


class TestToggles:
    def test_seg_requires_extra_level(self):
        with pytest.raises(ShapeError, match="stride-4"):
            Toggles(extra_level=False, seg_mode="sws")
        Toggles(extra_level=False, seg_mode="off")

    def test_seg_mode_validated(self):
        with pytest.raises(ShapeError, match="seg_mode"):
            Toggles(seg_mode="bogus")


class TestAnchorLayout:
    def test_counts(self):
        assert anchor_counts(1) == [4]
        assert anchor_counts(3) == [4, 6, 4]
        assert anchor_counts(4) == [4, 6, 6, 4]

    def test_scales_monotone_with_final_bound(self):
        for extra in (False, True):
            s = anchor_scales(4, extra)
            assert len(s) == 5
            assert all(a < b for a, b in zip(s, s[1:]))
            assert s[-1] == 1.0

    def test_extra_level_adds_small_scale(self):
        assert anchor_scales(4, True)[0] == pytest.approx(0.1)

    def test_ratios(self):
        assert aspect_ratios_for(4) == [1.0, 2.0, 0.5]
        assert len(aspect_ratios_for(6)) == 5
        with pytest.raises(ShapeError):
            aspect_ratios_for(5)


class TestBuild:
    def test_levels_with_extra(self):
        det = small_net(extra=True)
        assert [lv.stride for lv in det.levels] == [4, 8, 16]
        assert [lv.extent for lv in det.levels] == [8, 4, 2]

    def test_levels_without_extra(self):
        det = build_network(SMALL, 2, Toggles(mrf=False, extra_level=False,
                                              seg_mode="off"))
        assert [lv.stride for lv in det.levels] == [8, 16]

    def test_mrf_never_on_two_coarsest(self):
        det = build_network(BackboneSpec(image_size=64, stage_channels=(8, 8, 8, 8, 8)),
                            2, Toggles(mrf=True, extra_level=True, seg_mode="sws"))
        flags = [lv.use_mrf for lv in det.levels]
        assert flags[-2:] == [False, False]
        assert any(flags[:-2])
        assert set(det.mrf_specs) == {lv.name for lv in det.levels if lv.use_mrf}

    def test_anchor_total_matches_layout(self):
        det = small_net()
        want = sum(lv.extent ** 2 * lv.anchors_per_loc for lv in det.levels)
        assert det.num_anchors == want

    def test_seed_determinism(self):
        a, b = small_net(seed=5), small_net(seed=5)
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    @pytest.mark.parametrize("mrf,extra,seg", [(True, True, "sws"), (False, True, "off"),
                                               (True, False, "off")])
    def test_unseeded_build_has_the_seeded_layout_with_zeros(self, mrf, extra, seg):
        seeded, bare = small_net(mrf, extra, seg, seed=4), small_net(mrf, extra, seg, seed=None)
        assert bare.seed is None and bare.levels == seeded.levels
        assert bare.anchors.tobytes() == seeded.anchors.tobytes()
        assert [(n, t.shape, t.data.dtype) for n, t in bare.named_params()] == \
            [(n, t.shape, t.data.dtype) for n, t in seeded.named_params()]
        assert all(not t.data.any() and t.requires_grad for t in bare.params.values())

    def test_seg_params_exist_whenever_extra_level(self):
        # Same RNG draw order for seg off and on: toggling segmentation
        # cannot perturb the rest of the initialization.
        on = small_net(seg="sws", seed=3)
        off = small_net(seg="off", seed=3)
        assert "seg.cls.w" in off.params
        for name in on.params:
            assert np.array_equal(on.params[name].data, off.params[name].data)

    def test_mrf_too_large_for_extent_rejected(self):
        tiny = BackboneSpec(image_size=16, stage_channels=(8, 8, 8, 8))
        with pytest.raises(ShapeError, match="effective kernel"):
            build_network(tiny, 2, Toggles(mrf=True, extra_level=True, seg_mode="sws"))


class TestFpnMerge:
    def test_shape_and_value(self):
        rng = np.random.default_rng(0)
        top = rng.standard_normal((1, 4, 2, 2))
        lat = rng.standard_normal((1, 6, 4, 4))
        w = rng.standard_normal((4, 6, 1, 1))
        b = rng.standard_normal(4)
        out = fpn_merge({"lat.w": w, "lat.b": b}, "lat", top, lat)
        assert out.shape == (1, 4, 4, 4)
        # Spot check one cell: nearest upsample + 1x1 projection.
        proj = np.tensordot(w[:, :, 0, 0], lat[0], axes=(1, 0)) + b[:, None, None]
        np.testing.assert_allclose(out.data[0],
                                   np.repeat(np.repeat(top[0], 2, 1), 2, 2) + proj)

    def test_extent_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="twice"):
            fpn_merge({"lat.w": np.zeros((2, 2, 1, 1)), "lat.b": np.zeros(2)}, "lat",
                      np.zeros((1, 2, 3, 3)), np.zeros((1, 2, 5, 5)))


class TestFlatten:
    def test_order_cells_row_major_anchor_innermost(self):
        # One level, 2 anchors, K=3, extent 2: channel c = a*K + k holds the
        # value for anchor a, output k.
        m = np.arange(2 * 3 * 2 * 2, dtype=float).reshape(6, 2, 2)
        flat = flatten_level_maps([m[None]], 3).data[0]
        assert flat.shape == (8, 3)
        # Row 0: cell (0,0) anchor 0 -> channels 0..2 at (0,0).
        np.testing.assert_array_equal(flat[0], m[0:3, 0, 0])
        # Row 1: cell (0,0) anchor 1 -> channels 3..5 at (0,0).
        np.testing.assert_array_equal(flat[1], m[3:6, 0, 0])
        # Row 2: cell (0,1) anchor 0 (row-major scan of cells).
        np.testing.assert_array_equal(flat[2], m[0:3, 0, 1])
        # Row 4: cell (1,0) anchor 0.
        np.testing.assert_array_equal(flat[4], m[0:3, 1, 0])

    def test_gradient(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((1, 8, 3, 3))
        c = rng.standard_normal((1, 18, 4))
        assert finite_diff_check(lambda t: inner(flatten_level_maps([t], 4), c), m) < 1e-6

    def test_two_levels_stack_level_by_level(self):
        rng = np.random.default_rng(4)
        fine, coarse = rng.standard_normal((1, 8, 3, 3)), rng.standard_normal((1, 4, 2, 2))
        flat = flatten_level_maps([fine, coarse], 4).data
        assert flat.shape == (1, 3 * 3 * 2 + 2 * 2 * 1, 4)
        np.testing.assert_array_equal(flat[:, :18], flatten_level_maps([fine], 4).data)
        np.testing.assert_array_equal(flat[:, 18:], flatten_level_maps([coarse], 4).data)

    def test_gradient_two_levels(self):
        rng = np.random.default_rng(5)
        fine, coarse = rng.standard_normal((1, 8, 3, 3)), rng.standard_normal((1, 4, 2, 2))
        c = rng.standard_normal((1, 22, 4))
        assert finite_diff_check(
            lambda t: inner(flatten_level_maps([t, coarse], 4), c), fine) < 1e-6
        assert finite_diff_check(
            lambda t: inner(flatten_level_maps([fine, t], 4), c), coarse) < 1e-6

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ShapeError, match="divisible"):
            flatten_level_maps([np.zeros((1, 5, 2, 2))], 4)


class TestForward:
    def test_output_shapes(self):
        det = small_net(num_classes=2)
        rng = np.random.default_rng(2)
        pyramid, out = forward(det, rng.standard_normal((1, 3, 32, 32)))
        assert out.loc.shape == (1, det.num_anchors, 4)
        assert out.conf.shape == (1, det.num_anchors, 3)
        assert out.seg_logits.shape == (1, 2, 32, 32)
        assert [name for name, _, _ in pyramid] == [lv.name for lv in det.levels]

    def test_seg_off_skips_head(self):
        det = small_net(seg="off")
        _, out = forward(det, np.zeros((1, 3, 32, 32)))
        assert out.seg_logits is None

    def test_with_seg_override(self):
        det = small_net(seg="off")
        _, out = forward(det, np.zeros((1, 3, 32, 32)), with_seg=True)
        assert out.seg_logits is not None

    def test_seg_without_extra_level_rejected(self):
        det = build_network(SMALL, 2, Toggles(mrf=False, extra_level=False,
                                              seg_mode="off"))
        with pytest.raises(ShapeError, match="extra level"):
            forward(det, np.zeros((1, 3, 32, 32)), with_seg=True)

    def test_wrong_image_shape_rejected(self):
        det = small_net()
        with pytest.raises(ShapeError, match="image"):
            forward(det, np.zeros((1, 3, 16, 16)))

    def test_seg_logits_cover_full_image(self):
        det = build_network(BackboneSpec(image_size=64, stage_channels=(8, 8, 8, 8, 8)),
                            2, Toggles(mrf=True, extra_level=True, seg_mode="sws"))
        _, out = forward(det, np.zeros((1, 3, 64, 64)))
        assert out.seg_logits.shape == (1, 2, 64, 64)

    def test_mrf_toggle_changes_predictions_not_pyramid(self):
        # MRF sits between the pyramid feature and the heads; the shared
        # backbone weights are drawn from different RNG positions though,
        # so compare against a rebuilt copy with identical shapes instead:
        # here we just assert the toggle flows through to the level specs.
        det_on = build_network(BackboneSpec(image_size=64, stage_channels=(8, 8, 8, 8)),
                               2, Toggles(mrf=True, extra_level=True, seg_mode="off"))
        assert any(lv.use_mrf for lv in det_on.levels)

    def test_forward_reads_mrf_weights_from_params(self):
        # The MRF block takes its weights from det.params by name, so a
        # tensor swapped in there is the one the forward pass uses.
        det = build_network(BackboneSpec(image_size=64, stage_channels=(8, 8, 8, 8, 8)),
                            2, Toggles(mrf=True, extra_level=True, seg_mode="off"))
        img = np.random.default_rng(6).standard_normal((1, 3, 64, 64))
        _, base = forward(det, img)
        name = "mrf.level4.fuse.w"
        saved = det.params[name]
        det.params[name] = Tensor(saved.data * 3.0, requires_grad=True)
        _, swapped = forward(det, img)
        assert not np.allclose(swapped.conf.data, base.conf.data)
        inner(swapped.conf, np.ones(swapped.conf.shape)).backward()
        assert det.params[name].grad is not None and saved.grad is None
        det.params[name] = saved
        _, restored = forward(det, img)
        np.testing.assert_array_equal(restored.conf.data, base.conf.data)

    def test_forward_deterministic(self):
        det = small_net()
        img = np.random.default_rng(3).standard_normal((1, 3, 32, 32))
        _, a = forward(det, img)
        _, b = forward(det, img)
        assert np.array_equal(a.conf.data, b.conf.data)
        assert np.array_equal(a.loc.data, b.loc.data)

    def test_end_to_end_gradient(self):
        det = small_net(num_classes=1, seed=7)
        rng = np.random.default_rng(8)
        img = rng.standard_normal((1, 3, 32, 32))
        c_loc = rng.standard_normal((1, det.num_anchors, 4))

        def f(t):
            _, out = forward(det, t, with_seg=False)
            return inner(out.loc, c_loc)

        assert finite_diff_check(f, img) < 1e-4

    def test_backbone_weight_gradient(self):
        det = small_net(num_classes=1, seed=9)
        rng = np.random.default_rng(10)
        img = rng.standard_normal((1, 3, 32, 32))
        c = rng.standard_normal((1, det.num_anchors, 2))
        wname = "backbone.s1.c1.w"

        def f(t):
            saved = det.params[wname]
            det.params[wname] = t if isinstance(t, Tensor) else Tensor(t, requires_grad=True)
            try:
                _, out = forward(det, img, with_seg=False)
                return inner(out.conf, c)
            finally:
                det.params[wname] = saved

        assert finite_diff_check(f, det.params[wname].data) < 1e-4


MRF_NET = build_network(BackboneSpec(image_size=32, stage_channels=(8, 8, 8, 8)), 2,
                        Toggles(mrf=True, extra_level=True, seg_mode="sws"),
                        seed=12, dtype=np.float32)


def head_arrays(outputs):
    return [t.data for t in (outputs.loc, outputs.conf, outputs.seg_logits)]


class TestBatch:
    @given(n=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_no_grad_batch_equals_one_image_forwards_bit_for_bit(self, n, seed):
        images = np.random.default_rng(seed).random((n, 3, 32, 32)).astype(np.float32)
        with no_grad():
            pyramid, batch = forward(MRF_NET, images)
        assert batch.conf.node.edges == () and batch.loc.shape == (n, MRF_NET.num_anchors, 4)
        for i, image in enumerate(images):
            one_pyramid, one = forward(MRF_NET, image[None])
            for got, want in zip(head_arrays(batch), head_arrays(one)):
                assert got.dtype == want.dtype and np.array_equal(got[i], want[0])
            for (_, _, feat), (_, _, one_feat) in zip(pyramid, one_pyramid):
                assert np.array_equal(feat.data[i], one_feat.data[0])

    def test_batch_tape_leaf_gradients_match_one_image_tapes(self):
        det = build_network(BackboneSpec(image_size=32, stage_channels=(8, 8, 8, 8)), 2,
                            Toggles(mrf=True, extra_level=True, seg_mode="sws"), seed=14)
        rng = np.random.default_rng(15)
        images = rng.random((3, 3, 32, 32))
        coeffs = [[rng.standard_normal(t.shape) for t in (o.loc, o.conf, o.seg_logits)]
                  for o in (forward(det, image[None])[1] for image in images)]

        def image_loss(out, c):
            return add([inner(t, ci) for t, ci in zip((out.loc, out.conf, out.seg_logits), c)])

        for image, c in zip(images, coeffs):
            image_loss(forward(det, image[None])[1], c).backward()
        want = {name: t.grad for name, t in det.named_params()}
        for _, t in det.named_params():
            t.grad = None
        _, batch = forward(det, images)
        root = image_loss(batch, [np.concatenate(c) for c in zip(*coeffs)])
        interior, stack = {}, [root.node]
        while stack:
            node = stack.pop()
            if node.edges and id(node) not in interior:
                interior[id(node)] = node
                stack.extend(p for p, _ in node.edges)
        root.backward()
        assert all(n.grad is None and n.edges == () for n in interior.values())
        for name, t in det.named_params():
            np.testing.assert_allclose(t.grad, want[name], rtol=1e-9, atol=1e-12,
                                       err_msg=name)

    def test_uint8_scaling_equals_the_float64_path_for_every_byte(self):
        pixels = np.arange(256, dtype=np.uint8)
        scaled = pixels.astype(np.float32) / np.float32(255)
        old = (pixels.astype(np.float64) / 255.0).astype(np.float32)
        assert scaled.dtype == np.float32
        assert np.array_equal(scaled.view(np.uint32), old.view(np.uint32))

    def test_uint8_forward_equals_float32_image_forward_bit_for_bit(self):
        # 3 x 32 x 32 pixels hold every byte value 12 times.
        pixels = np.random.default_rng(16).permutation(np.arange(3 * 32 * 32) % 256)
        pixels = pixels.astype(np.uint8).reshape(1, 3, 32, 32)
        with no_grad():
            _, got = forward(MRF_NET, pixels)
            _, want = forward(MRF_NET, (pixels / 255.0).astype(np.float32))
        for g, w in zip(head_arrays(got), head_arrays(want)):
            assert g.dtype == w.dtype == np.float32 and np.array_equal(g, w)

    def test_bad_batch_shape_rejected(self):
        with pytest.raises(ShapeError, match="image"):
            forward(MRF_NET, np.zeros((3, 32, 32)))
        with pytest.raises(ShapeError, match="image"):
            forward(MRF_NET, np.zeros((2, 4, 32, 32)))
        with pytest.raises(ShapeError, match="image"):
            forward(MRF_NET, np.zeros((1, 2, 3, 32, 32)))


class TestTapeMemory:
    def test_conv_output_read_only_by_relu_is_freed_with_the_forward(self, monkeypatch):
        det = small_net(mrf=True, seed=14)
        images = np.random.default_rng(17).random((2, 3, 32, 32))

        def taped_loss(relu_fn):
            monkeypatch.setattr(detector_net, "relu", relu_fn)
            _, out = forward(det, images)
            rng = np.random.default_rng(18)
            return add([inner(t, rng.standard_normal(t.shape))
                        for t in (out.loc, out.conf, out.seg_logits)])

        arrays = []

        def watched(x):
            y = relu(x)
            arrays.append((weakref.ref(x.data), weakref.ref(y.data)))
            return y

        root = taped_loss(watched)
        # The backbone and seg head ReLUs, each after a conv.
        assert len(arrays) == len(SMALL.stage_channels) * detector_net.CONVS_PER_STAGE + 3
        assert all(pre() is None for pre, _ in arrays)
        assert all(post() is not None for _, post in arrays)
        root.backward()
        assert all(post() is None for _, post in arrays)
        got = {name: t.grad for name, t in det.named_params()}

        # The same tape with every conv output held alive gives the same gradients.
        for _, t in det.named_params():
            t.grad = None
        held = []
        taped_loss(lambda x: held.append(x) or relu(x)).backward()
        for name, t in det.named_params():
            assert np.array_equal(t.grad, got[name]), name

    def test_default_four_image_tape_holds_at_most_4_mb(self, tmp_path):
        # The first 4 seed-0 training images through the default float32 network:
        # the tape held about 8.8 MB of traced memory when it kept every array.
        synth_dataset(DatasetSpec(num_images=4, seed=0), tmp_path)
        cfg = TrainConfig()
        det = build_network(BackboneSpec(cfg.image_size, cfg.stage_channels),
                            cfg.num_classes, cfg.toggles, seed=cfg.seed, dtype=np.float32)
        samples = [match_sample(det, image, boxes) for _, image, boxes in load_dataset(tmp_path)]
        images, gts, assignment, mask = join_samples(det, cfg, samples)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, loss = total_loss(forward(det, images)[1], assignment, gts, mask, cfg.loss)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert held <= 4.0e6
        loss.backward()
        assert all(t.grad is not None for _, t in det.named_params())


class TestSegHead:
    def test_rejects_wrong_stride(self):
        det = small_net()
        with pytest.raises(ShapeError, match="stride-4"):
            seg_head_forward(det, np.zeros((1, 8, 4, 4)))


class TestDescribe:
    def test_mentions_levels_and_params(self):
        det = small_net()
        text = describe(det)
        assert "level4" in text and "level16" in text
        assert "anchors total" in text and "parameters:" in text
        assert "segmentation head" in text
