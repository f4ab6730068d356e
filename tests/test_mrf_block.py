import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfdet.mrf_block import (DEFAULT_BRANCHES, BranchSpec, branch_taps, default_mrf_spec,
                              effective_receptive_field, format_rf_report,
                              init_conv, init_mrf_params, mrf_forward,
                              msra_init, named_conv, rf_report)
from mrfdet.tensor_core import (ShapeError, finite_diff_check, inner, relu,
                               transposed_conv2d)


class TestEffectiveReceptiveField:
    def test_known_values(self):
        # e = k + (k - 1)(d - 1): hand-checked tap spans.
        assert effective_receptive_field(1, 3) == 1
        assert effective_receptive_field(3, 1) == 3
        assert effective_receptive_field(3, 2) == 5
        assert effective_receptive_field(3, 3) == 7
        assert effective_receptive_field(5, 1) == 5
        assert effective_receptive_field(5, 5) == 21

    def test_matches_tap_span(self):
        for k in (1, 3, 5, 7):
            for d in (1, 2, 3, 4):
                taps = branch_taps(k, d)
                span = max(t[0] for t in taps) - min(t[0] for t in taps) + 1
                assert span == effective_receptive_field(k, d)

    def test_rejects_nonpositive(self):
        with pytest.raises(ShapeError):
            effective_receptive_field(0, 1)
        with pytest.raises(ShapeError):
            effective_receptive_field(3, 0)


class TestBranchTaps:
    def test_3x3_dilation_2(self):
        assert branch_taps(3, 2) == sorted(
            (dy, dx) for dy in (-2, 0, 2) for dx in (-2, 0, 2))

    def test_symmetric_about_center(self):
        for k, d in ((3, 1), (3, 3), (5, 2)):
            taps = set(branch_taps(k, d))
            assert {(-dy, -dx) for dy, dx in taps} == taps
            assert (0, 0) in taps

    def test_count_is_k_squared(self):
        for k, d in ((1, 1), (3, 2), (5, 3)):
            assert len(branch_taps(k, d)) == k * k


class TestSpecs:
    def test_branch_padding_preserves_extent(self):
        # Every default branch conv, padded by named_conv, keeps a 9x9 extent.
        for k, d in DEFAULT_BRANCHES:
            params = {}
            init_conv(params, "b", 4, 2, k, np.random.default_rng(0))
            assert (named_conv(params, "b", np.zeros((1, 2, 9, 9)), dilation=d).shape
                    == (1, 4, 9, 9))

    def test_even_effective_kernel_rejected(self):
        with pytest.raises(ShapeError, match="even"):
            BranchSpec(2, 1, 4)
        with pytest.raises(ShapeError, match="even"):
            BranchSpec(4, 3, 4)

    def test_default_spec_channel_budget(self):
        spec = default_mrf_spec(64, 64)
        assert spec.concat_channels == 64
        assert [b.out_channels for b in spec.branches] == [16, 12, 12, 12, 12]
        assert spec.bottleneck_channels == 16
        assert not spec.needs_projection
        assert spec.max_effective_kernel == 7

    def test_projection_when_channels_differ(self):
        assert default_mrf_spec(32, 64).needs_projection

    def test_too_narrow_rejected(self):
        with pytest.raises(ShapeError, match="too small"):
            default_mrf_spec(64, 4)


def block_params(spec, seed, name="mrf"):
    params = {}
    init_mrf_params(params, name, spec, np.random.default_rng(seed))
    return params


class TestInit:
    def test_msra_std(self):
        rng = np.random.default_rng(0)
        w = msra_init(rng, (256, 64, 3, 3))
        assert abs(w.std() - np.sqrt(2.0 / (64 * 9))) < 0.002
        assert abs(w.mean()) < 0.002

    def test_param_names_and_shapes(self):
        spec = default_mrf_spec(32, 64)
        names = block_params(spec, 1, "mrf.level8")
        assert list(names) == [f"mrf.level8.{conv}.{wb}" for conv in (
            "bottleneck", "branch0", "branch1", "branch2", "branch3", "branch4",
            "fuse", "proj") for wb in "wb"]
        assert names["mrf.level8.fuse.w"].shape == (64, 64, 1, 1)
        assert names["mrf.level8.branch3.w"].shape == (12, 8, 3, 3)

    def test_seed_determinism(self):
        spec = default_mrf_spec(16, 16)
        a, b = block_params(spec, 7), block_params(spec, 7)
        assert list(a) == list(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)


class TestNamedConv:
    def test_geometry_from_weight_shape(self):
        # A 5x5 conv at dilation 2 over 3 -> 4 channels keeps the extent,
        # and its bias is added at every position.
        params = {}
        init_conv(params, "c", 4, 3, 5, np.random.default_rng(0))
        assert params["c.w"].shape == (4, 3, 5, 5) and params["c.b"].shape == (4,)
        params["c.b"].data[:] = [1.0, 2.0, 3.0, 4.0]
        x = np.zeros((1, 3, 11, 11))
        out = named_conv(params, "c", x, dilation=2).data
        assert out.shape == (1, 4, 11, 11)
        np.testing.assert_array_equal(out[0, :, 5, 5], [1.0, 2.0, 3.0, 4.0])
        assert named_conv(params, "c", x, stride=2).shape == (1, 4, 6, 6)

    def test_transposed_layout_and_geometry(self):
        # A transposed 3 -> 4 conv with a 2x2 kernel stores (in, out, k, k) MSRA
        # draws and runs at stride k, doubling the extent.
        params = {}
        init_conv(params, "t", 4, 3, 2, np.random.default_rng(0), transposed=True)
        np.testing.assert_array_equal(params["t.w"].data,
                                      msra_init(np.random.default_rng(0), (3, 4, 2, 2)))
        assert params["t.b"].shape == (4,)
        x = np.random.default_rng(1).standard_normal((2, 3, 5, 5))
        out = named_conv(params, "t", x, transposed=True).data
        want = transposed_conv2d(x, params["t.w"], params["t.b"])
        assert out.shape == (2, 4, 10, 10)
        np.testing.assert_array_equal(out, want.data)

    def test_scale(self):
        a, b = {}, {}
        init_conv(a, "c", 2, 2, 3, np.random.default_rng(1))
        init_conv(b, "c", 2, 2, 3, np.random.default_rng(1), scale=0.1)
        np.testing.assert_allclose(b["c.w"].data, 0.1 * a["c.w"].data)


class TestForward:
    def test_extent_preserved(self):
        spec = default_mrf_spec(8, 8)
        params = block_params(spec, 2)
        x = np.random.default_rng(3).standard_normal((1, 8, 9, 9))
        out = mrf_forward(params, "mrf", spec, x)
        assert out.shape == (1, 8, 9, 9)

    def test_output_nonnegative(self):
        spec = default_mrf_spec(8, 16)
        params = block_params(spec, 4)
        x = np.random.default_rng(5).standard_normal((1, 8, 9, 9))
        assert (mrf_forward(params, "mrf", spec, x).data >= 0).all()

    def test_zero_weights_give_relu_shortcut(self):
        # With every conv weight and bias zero, only the identity shortcut
        # survives, so the block reduces to relu(x).
        spec = default_mrf_spec(8, 8)
        params = block_params(spec, 6)
        for t in params.values():
            t.data[...] = 0.0
        x = np.random.default_rng(7).standard_normal((1, 8, 9, 9))
        np.testing.assert_array_equal(mrf_forward(params, "mrf", spec, x).data,
                                      relu(x).data)

    def test_wrong_channels_rejected(self):
        spec = default_mrf_spec(8, 8)
        params = block_params(spec, 8)
        with pytest.raises(ShapeError, match="channels"):
            mrf_forward(params, "mrf", spec, np.zeros((1, 4, 9, 9)))

    def test_too_small_extent_rejected(self):
        spec = default_mrf_spec(8, 8)
        params = block_params(spec, 9)
        with pytest.raises(ShapeError, match="effective kernel"):
            mrf_forward(params, "mrf", spec, np.zeros((1, 8, 5, 5)))

    def test_gradients_input_and_weights(self):
        spec = default_mrf_spec(6, 10)
        params = block_params(spec, 10)
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 6, 9, 9))
        c = rng.standard_normal((1, 10, 9, 9)) + 0.3
        assert finite_diff_check(
            lambda t: inner(mrf_forward(params, "mrf", spec, t), c), x) < 1e-4

        def wrt_fuse(t):
            saved = params["mrf.fuse.w"]
            params["mrf.fuse.w"] = t
            try:
                return inner(mrf_forward(params, "mrf", spec, x), c)
            finally:
                params["mrf.fuse.w"] = saved

        assert finite_diff_check(wrt_fuse, params["mrf.fuse.w"].data) < 1e-4

    def test_dilated_branch_actually_used(self):
        # Zero out everything but the d=3 branch path: a perturbation 3 pixels
        # away from the probe location must change the output there.
        spec = default_mrf_spec(4, 5)
        params = block_params(spec, 12)
        x = np.random.default_rng(13).standard_normal((1, 4, 11, 11))
        base = mrf_forward(params, "mrf", spec, x).data
        x2 = x.copy()
        x2[:, :, 2, 5] += 10.0
        bumped = mrf_forward(params, "mrf", spec, x2).data
        assert not np.allclose(base[:, :, 5, 5], bumped[:, :, 5, 5])


class TestRfReport:
    def test_rows(self):
        rows = rf_report(default_mrf_spec(16, 16))
        assert [(k, d, e) for _, k, d, e, _ in rows] == [
            (1, 1, 1), (3, 1, 3), (5, 1, 5), (3, 2, 5), (3, 3, 7)]

    def test_union_coverage(self):
        # Default five branches jointly cover every offset of the 5x5 grid
        # plus the d=3 ring, 33 distinct offsets in all.
        union = set()
        for _, _, _, _, taps in rf_report(default_mrf_spec(16, 16)):
            union.update(taps)
        five_by_five = {(dy, dx) for dy in range(-2, 3) for dx in range(-2, 3)}
        assert five_by_five <= union
        assert len(union) == 33

    def test_format_mentions_union(self):
        text = format_rf_report(default_mrf_spec(16, 16))
        assert "33 distinct offsets" in text
        assert text.splitlines()[0].startswith("branch")


@given(k=st.sampled_from([1, 3, 5, 7]), d=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_taps_fit_inside_effective_span(k, d):
    e = effective_receptive_field(k, d)
    half = (e - 1) // 2
    for dy, dx in branch_taps(k, d):
        assert -half <= dy <= half and -half <= dx <= half
