import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfdet import tensor_core
from mrfdet.tensor_core import (ShapeError, Tensor, add, concat, conv2d,
                                finite_diff_check, inner, no_grad, relu,
                                transposed_conv2d, upsample_nearest_2x)
from reference_machine import REFERENCE_MACHINE, machine_keys


def identity_kernel(channels):
    w = np.zeros((channels, channels, 1, 1))
    for c in range(channels):
        w[c, c, 0, 0] = 1.0
    return w


def conv2d_grads(g, x, w, **geometry):
    """(grad_input, grad_weights, grad_bias) of conv2d for output grad g."""
    x, w = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    b = Tensor(np.zeros(w.shape[0]), requires_grad=True)
    conv2d(x, w, b, **geometry).backward(g)
    return x.grad, w.grad, b.grad


class TestConvForward:
    def test_identity_1x1(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 3, 5, 5))
        out = conv2d(x, identity_kernel(3), np.zeros(3)).data
        np.testing.assert_array_equal(out, x)

    def test_all_ones_3x3_on_constant(self):
        # 3x3 all-ones kernel over constant 2 sums 9 taps of 2 -> 18 everywhere.
        x = np.full((1, 1, 5, 5), 2.0)
        out = conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1)).data
        assert out.shape == (1, 1, 3, 3)
        np.testing.assert_allclose(out, 18.0)

    def test_dilation_2_tap_positions(self):
        # Oracle: enumerate tap coordinates {0,2,4} x {0,2,4} by hand.
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 5, 5))
        out = conv2d(x, np.ones((1, 1, 3, 3)), np.zeros(1), dilation=2).data
        expected = sum(x[0, 0, i, j] for i in (0, 2, 4) for j in (0, 2, 4))
        assert out.shape == (1, 1, 1, 1)
        np.testing.assert_allclose(out[0, 0, 0, 0], expected)

    def test_loop_oracle_random_case(self):
        # Brute-force nested-loop convolution on a random strided dilated case.
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 7, 7))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        out = conv2d(x[None], w, b, stride=2, padding=2, dilation=2).data[0]
        xp = np.pad(x, ((0, 0), (2, 2), (2, 2)))
        oh = (7 + 2 * 2 - 5) // 2 + 1
        assert out.shape == (3, oh, oh)
        expected = np.zeros((3, oh, oh))
        for o in range(3):
            for y in range(oh):
                for xx in range(oh):
                    acc = b[o]
                    for c in range(2):
                        for i in range(3):
                            for j in range(3):
                                acc += w[o, c, i, j] * xp[c, y * 2 + i * 2, xx * 2 + j * 2]
                    expected[o, y, xx] = acc
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_kernel1_dilation_is_vacuous(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((2, 2, 1, 1))
        b = rng.standard_normal(2)
        for d in (2, 3, 5):
            np.testing.assert_array_equal(
                conv2d(x, w, b, dilation=d).data, conv2d(x, w, b).data)

    def test_bias_per_output_channel(self):
        x = np.zeros((1, 1, 3, 3))
        out = conv2d(x, np.zeros((2, 1, 1, 1)), np.array([1.5, -2.0])).data
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_shape_mismatch_names_dimension(self):
        x = np.zeros((1, 2, 5, 5))
        with pytest.raises(ShapeError, match="channels"):
            conv2d(x, np.zeros((1, 3, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError, match="weights shape"):
            conv2d(x, np.zeros((1, 2, 3, 5)), np.zeros(1))

    @pytest.mark.parametrize("weights,bias,geometry,message", [
        ((2, 3, 3), (2,), {}, r"weights shape \(2, 3, 3\) is not a nonempty"),
        ((2, 3, 3, 2), (2,), {}, r"weights shape \(2, 3, 3, 2\) is not a nonempty"),
        ((2, 3, 0, 0), (2,), {}, r"weights shape \(2, 3, 0, 0\) is not a nonempty"),
        ((2, 4, 3, 3), (2,), {}, "input has 3 channels, weights expect 4"),
        ((2, 3, 3, 3), (3,), {}, r"bias shape \(3,\) != \(2,\)"),
        ((2, 3, 3, 3), (2,), {"stride": 0}, "stride 0"),
        ((2, 3, 3, 3), (2,), {"dilation": 0}, "dilation 0"),
        ((2, 3, 3, 3), (2,), {"padding": -1}, "padding -1")],
        ids=["3-d", "non-square", "empty", "channels", "bias", "stride", "dilation",
             "padding"])
    def test_geometry_rejected_in_one_line(self, weights, bias, geometry, message):
        with pytest.raises(ShapeError, match=message) as err:
            conv2d(np.zeros((1, 3, 6, 6)), np.zeros(weights), np.zeros(bias), **geometry)
        assert "\n" not in str(err.value)

    def test_too_small_input_rejected(self):
        with pytest.raises(ShapeError, match="extent"):
            conv2d(np.zeros((1, 1, 4, 4)), np.ones((1, 1, 3, 3)), np.zeros(1), dilation=3)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 8, 8))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        a = conv2d(x, w, b, padding=1).data
        assert np.array_equal(a, conv2d(x, w, b, padding=1).data)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        gx, gw, gb = conv2d_grads(np.zeros((1, 3, 3, 3)), x, w)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_identity_kernel_adjoint(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((1, 2, 4, 4))
        gx, _, _ = conv2d_grads(g, rng.standard_normal((1, 2, 4, 4)),
                                identity_kernel(2))
        np.testing.assert_array_equal(gx, g)

    def test_grad_bias_is_channel_sum(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((1, 2, 3, 3))
        _, _, gb = conv2d_grads(g, rng.standard_normal((1, 1, 5, 5)),
                                rng.standard_normal((2, 1, 3, 3)))
        np.testing.assert_allclose(gb, g.sum(axis=(0, 2, 3)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        c = rng.standard_normal((1, 3, 4, 4))
        assert finite_diff_check(lambda t: inner(conv2d(t, w, b, padding=1), c), x) < 1e-5
        assert finite_diff_check(lambda t: inner(conv2d(x, t, b, padding=1), c), w) < 1e-5
        assert finite_diff_check(lambda t: inner(conv2d(x, w, t, padding=1), c), b) < 1e-5

    def test_grad_out_shape_rejected(self):
        with pytest.raises(ShapeError, match="grad shape"):
            conv2d_grads(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 5, 5)),
                         np.zeros((1, 1, 3, 3)))


class TestTransposedConv:
    def test_identity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 4, 4))
        out = transposed_conv2d(x, identity_kernel(2), np.zeros(2)).data
        np.testing.assert_array_equal(out, x)

    def test_stride2_disjoint_blocks(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = transposed_conv2d(x, np.ones((1, 1, 2, 2)), np.zeros(1)).data
        assert out.shape == (1, 1, 4, 4)
        for (y, xx), v in np.ndenumerate(x[0, 0]):
            np.testing.assert_allclose(out[0, 0, 2 * y:2 * y + 2, 2 * xx:2 * xx + 2], v)

    def test_adjoint_inner_product_identity(self):
        # <transposed(x), y> == <x, conv(y)> for the 2x2 stride-2 conv.
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4, 5))
        w = rng.standard_normal((3, 2, 2, 2))
        y = rng.standard_normal((2, 2, 8, 10))
        lhs = (transposed_conv2d(x, w, np.zeros(2)).data * y).sum()
        # conv weights (out, in, k, k) = (3, 2, k, k): same array.
        rhs = (x * conv2d(y, w, np.zeros(3), stride=2).data).sum()
        assert abs(lhs - rhs) < 1e-10

    def test_gradients(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((1, 2, 3, 3))
        w = rng.standard_normal((2, 3, 2, 2))
        b = rng.standard_normal(3)
        c = rng.standard_normal((1, 3, 6, 6))
        assert finite_diff_check(lambda t: inner(transposed_conv2d(t, w, b), c), x) < 1e-5
        assert finite_diff_check(lambda t: inner(transposed_conv2d(x, t, b), c), w) < 1e-5


def conv_oracle(x, w, b, g, stride=1, padding=0, dilation=1):
    """Nested-loop conv2d output and its (input, weight, bias) gradients for
    output gradient g."""
    k, s, d, p = w.shape[2], stride, dilation, padding
    (_, h, wd), (_, oh, ow) = x.shape, g.shape
    y = np.zeros(g.shape) + b[:, None, None]
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for r in range(oh):
        for q in range(ow):
            for i in range(k):
                for j in range(k):
                    a, c = r * s + i * d - p, q * s + j * d - p
                    if 0 <= a < h and 0 <= c < wd:
                        y[:, r, q] += w[:, :, i, j] @ x[:, a, c]
                        gx[:, a, c] += w[:, :, i, j].T @ g[:, r, q]
                        gw[:, :, i, j] += np.outer(g[:, r, q], x[:, a, c])
    return y, gx, gw, g.sum(axis=(1, 2))


def transposed_oracle(x, w, b, g):
    """Nested-loop transposed_conv2d: input pixel (r, q) adds w[:, :, i, j]
    times its value at output (r*k + i, q*k + j)."""
    k, (_, h, wd) = w.shape[2], x.shape
    y = np.zeros(g.shape) + b[:, None, None]
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for r in range(h):
        for q in range(wd):
            for i in range(k):
                for j in range(k):
                    a, c = r * k + i, q * k + j
                    y[:, a, c] += w[:, :, i, j].T @ x[:, r, q]
                    gx[:, r, q] += w[:, :, i, j] @ g[:, a, c]
                    gw[:, :, i, j] += np.outer(x[:, r, q], g[:, a, c])
    return y, gx, gw, g.sum(axis=(1, 2))


@st.composite
def conv_geometry(draw):
    """Channel counts, a kernel, keyword geometry with padding up to one
    past the kernel span, and an H != W input on which it gives at least one
    output pixel."""
    k, s, d = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    span = d * (k - 1) + 1
    p = draw(st.integers(0, span))
    low = max(1, span - 2 * p)
    h = draw(st.integers(low, low + 5))
    w = draw(st.integers(low, low + 5).filter(lambda v: v != h))
    geometry = {"stride": s, "padding": p, "dilation": d}
    return (draw(st.integers(1, 3)), draw(st.integers(1, 3)), k, geometry, h, w,
            draw(st.integers(1, 3)), draw(st.integers(0, 2 ** 32 - 1)))


def assert_matches_oracle(op, oracle, x, w, b, g, **geometry):
    """op on an (N, C, H, W) batch against the one-image oracle per image:
    outputs and input gradients stack, parameter gradients sum."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    y = op(xt, wt, bt, **geometry)
    assert y.shape == g.shape
    y.backward(g)
    per_image = [oracle(xi, w, b, gi, **geometry) for xi, gi in zip(x, g)]
    want = (np.stack([r[0] for r in per_image]), np.stack([r[1] for r in per_image]),
            sum(r[2] for r in per_image), sum(r[3] for r in per_image))
    for got, expected in zip((y.data, xt.grad, wt.grad, bt.grad), want):
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


class TestConvOracle:
    @given(conv_geometry())
    @settings(max_examples=40, deadline=None)
    def test_conv2d_forward_and_gradients(self, case):
        in_c, out_c, k, geometry, h, wd, n, seed = case
        s, p, d = geometry["stride"], geometry["padding"], geometry["dilation"]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, in_c, h, wd))
        w = rng.standard_normal((out_c, in_c, k, k))
        b = rng.standard_normal(out_c)
        g = rng.standard_normal((n, out_c) + tuple((e + 2 * p - d * (k - 1) - 1) // s + 1
                                                   for e in (h, wd)))
        assert_matches_oracle(conv2d, conv_oracle, x, w, b, g, **geometry)

    @given(k=st.integers(1, 4), in_c=st.integers(1, 3), out_c=st.integers(1, 3),
           hw=st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True),
           n=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_transposed_conv2d_forward_and_gradients(self, k, in_c, out_c, hw, n, seed):
        h, wd = hw
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, in_c, h, wd))
        w = rng.standard_normal((in_c, out_c, k, k))
        b = rng.standard_normal(out_c)
        g = rng.standard_normal((n, out_c, h * k, wd * k))
        assert_matches_oracle(transposed_conv2d, transposed_oracle, x, w, b, g)

    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("c,o,extent", [(64, 16, 16), (16, 8, 32)],
                             ids=["seg.up1", "seg.up2"])
    def test_seg_head_transposed_conv_equals_the_zero_insertion_path(self, c, o, extent, n):
        # The op is the adjoint of a 2x2 stride-2 conv2d with the same (c, o, 2, 2)
        # array as its weights, so conv2d's kernels give it too: the forward is
        # that conv's zero-inserted input gradient, the input gradient its
        # forward, and the weight gradient its weight gradient with input and
        # output gradient swapped. Extra zero terms leave each sum's bits as
        # they are on the pinned BLAS; elsewhere the sums need only agree.
        rng = np.random.default_rng(c + n)
        x, w, b, g = (rng.standard_normal(shape).astype(np.float32) for shape in (
            (n, c, extent, extent), (c, o, 2, 2), (o,), (n, o, 2 * extent, 2 * extent)))
        xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
        y = transposed_conv2d(xt, wt, bt)
        y.backward(g)
        want = (tensor_core._conv_grad_input(x, w, 2, 0, 1, 2 * extent, 2 * extent)
                + b[:, None, None],
                tensor_core._conv_fwd(g, w, 2, 0, 1),
                tensor_core._conv_grad_w(x, g, 2, 2, 0, 1),
                g.sum(axis=(0, 2, 3)))
        exact = machine_keys() == REFERENCE_MACHINE
        for got, expected in zip((y.data, xt.grad, wt.grad, bt.grad), want):
            assert got.dtype == np.float32 and got.shape == expected.shape
            if exact:
                assert got.tobytes() == expected.tobytes()
            np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-4)

    @pytest.mark.parametrize("weights,bias,message", [
        ((3, 2, 2), (2,), r"weights shape \(3, 2, 2\) is not a nonempty"),
        ((3, 2, 2, 1), (2,), r"weights shape \(3, 2, 2, 1\) is not a nonempty"),
        ((4, 2, 2, 2), (2,), "input has 3 channels, weights expect 4"),
        ((3, 2, 2, 2), (3,), r"bias shape \(3,\) != \(2,\)")],
        ids=["3-d", "non-square", "channels", "bias"])
    def test_transposed_geometry_rejected_in_one_line(self, weights, bias, message):
        with pytest.raises(ShapeError, match=message) as err:
            transposed_conv2d(np.zeros((1, 3, 4, 4)), np.zeros(weights), np.zeros(bias))
        assert "\n" not in str(err.value)

    def test_tap_view_rejects_short_buffer(self):
        # k=3, d=1, s=1, 2 output rows over a 4-wide canvas: the last tap of
        # the last spill column is element 17 of each buffer row.
        view = tensor_core._tap_view(np.arange(36.0).reshape(2, 18), 3, 1, 1, 2, 4)
        assert view.shape == (2, 3, 3, 2, 4) and view[1, 2, 2, 1, 3] == 35.0
        with pytest.raises(ShapeError, match="tap view"):
            tensor_core._tap_view(np.zeros((2, 17)), 3, 1, 1, 2, 4)


class TestElementwise:
    def test_relu_cases(self):
        np.testing.assert_array_equal(relu(np.full((1, 1, 2, 2), -3.0)).data, 0.0)
        x = np.full((1, 1, 2, 2), 3.0)
        np.testing.assert_array_equal(relu(x).data, x)
        np.testing.assert_array_equal(
            relu(np.array([[[[-1.0, 0.0, 2.0]]]])).data, [[[[0.0, 0.0, 2.0]]]])

    def test_relu_backward_gating(self):
        g = np.ones((1, 1, 1, 3))
        x = np.array([[[[-1.0, 0.0, 2.0]]]])
        t = Tensor(x, requires_grad=True)
        relu(t).backward(g)
        np.testing.assert_array_equal(t.grad, [[[[0.0, 0.0, 1.0]]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_gradient_from_its_output_is_the_input_mask(self, dtype):
        # y > 0 and x > 0 agree on NaN, -0.0, 0.0, subnormals and infinities.
        x = np.array([np.nan, -np.nan, -0.0, 0.0, -1.0, 2.0, np.finfo(dtype).smallest_subnormal,
                      -np.finfo(dtype).smallest_subnormal, np.inf, -np.inf], dtype=dtype)
        g = np.arange(1.0, x.size + 1, dtype=dtype)
        t = Tensor(x, requires_grad=True)
        relu(t).backward(g)
        assert t.grad.dtype == dtype
        assert t.grad.tobytes() == (g * (x > 0)).tobytes()

    @given(shape=st.sampled_from([(), (1,), (2, 3), (2, 1, 3, 3)]), count=st.integers(1, 7),
           dtypes=st.sampled_from(["f8", "f4", "f4 f8"]), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_add_equals_the_stacked_sum_bit_for_bit(self, shape, count, dtypes, seed):
        # Seven or fewer one-element inputs: np.sum switches to pairwise
        # summation from eight, where add stays an in-order sum.
        rng = np.random.default_rng(seed)
        kinds = dtypes.split()
        xs = [(rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6, shape))
              .astype(kinds[i % len(kinds)]) for i in range(count)]
        got, want = add(xs).data, np.asarray(np.sum(xs, axis=0))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_upsample_equals_the_repeated_copy(self):
        x = np.random.default_rng(11).standard_normal((2, 3, 4, 5)).astype(np.float32)
        out = upsample_nearest_2x(x).data
        assert out.dtype == x.dtype and out.flags.c_contiguous
        assert np.array_equal(out, np.repeat(np.repeat(x, 2, axis=2), 2, axis=3))

    def test_upsample(self):
        out = upsample_nearest_2x(np.full((1, 1, 1, 1), 7.0)).data
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 7.0))
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = upsample_nearest_2x(x).data
        expected = np.array([[[[1, 1, 2, 2], [1, 1, 2, 2],
                               [3, 3, 4, 4], [3, 3, 4, 4]]]], dtype=float)
        np.testing.assert_array_equal(out, expected)

    def test_upsample_add_lateral(self):
        rng = np.random.default_rng(12)
        top = rng.standard_normal((1, 2, 3, 3))
        lateral = rng.standard_normal((1, 2, 6, 6))
        out = add([upsample_nearest_2x(top), Tensor(lateral)])
        assert out.shape == (1, 2, 6, 6)

    def test_concat(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((1, 2, 4, 4))
        b = rng.standard_normal((1, 3, 4, 4))
        out = concat([Tensor(a), Tensor(b)]).data
        assert out.shape == (1, 5, 4, 4)
        np.testing.assert_array_equal(out[:, :2], a)
        np.testing.assert_array_equal(out[:, 2:], b)
        # Any rank: (N, rows, K) tables stack the same way.
        rows = concat([np.ones((1, 2, 3)), np.zeros((1, 1, 3))]).data
        np.testing.assert_array_equal(rows, [[[1, 1, 1], [1, 1, 1], [0, 0, 0]]])

    def test_concat_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="mismatch"):
            concat([Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 1, 3, 3)))])
        with pytest.raises(ShapeError, match="mismatch"):
            concat([np.zeros((1, 2, 3)), np.zeros((1, 2, 4))])
        with pytest.raises(ShapeError, match="mismatch"):
            concat([np.zeros((1, 2, 3)), np.zeros((1, 2, 3, 1))])
        with pytest.raises(ShapeError, match="at least one"):
            concat([])

    def test_concat_gradient(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((1, 2, 3, 3))
        b = rng.standard_normal((1, 3, 3, 3))
        c = rng.standard_normal((1, 5, 3, 3))
        assert finite_diff_check(lambda t: inner(concat([a, t]), c), b) < 1e-6
        assert finite_diff_check(lambda t: inner(concat([t, b]), c), a) < 1e-6


class TestScalarArithmetic:
    def test_add_backward_reaches_both_terms(self):
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(np.array(3.0), requires_grad=True)
        out = (a + b) + 1.0
        assert out.item() == 6.0
        (out * 2.0).backward()
        assert a.grad == 2.0 and b.grad == 2.0

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="add shape mismatch"):
            Tensor(np.zeros(2)) + Tensor(np.zeros(3))


class TestBackwardOrder:
    def test_deep_chain_has_no_recursion_limit(self):
        x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = add([y, x])
        y.backward(np.array([1.0, 3.0]))
        np.testing.assert_array_equal(x.grad, [5001.0, 15003.0])

    def test_nodes_run_in_reverse_depth_first_post_order(self):
        # Post-order over inputs in order is [x, p, y, q, d]; backward runs it
        # reversed, so q's gradient functions run before p's.
        ran = []

        def tagged(name, t):
            (parent, fn), *rest = t.node.edges

            def logged(g):
                ran.append(name)
                return fn(g)
            t.node.edges = ((parent, logged), *rest)
            return t

        x = Tensor(np.ones(2), requires_grad=True)
        y = Tensor(np.ones(2), requires_grad=True)
        p, q = tagged("p", relu(x)), tagged("q", relu(y))
        tagged("d", add([p, q, p])).backward(np.ones(2))
        assert ran == ["d", "q", "p"]
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_unneeded_input_gradient_never_computed(self, monkeypatch):
        def fail(*args):
            raise AssertionError("input gradient computed for a plain array")
        monkeypatch.setattr(tensor_core, "_conv_grad_input", fail)
        w = Tensor(np.ones((2, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        conv2d(x, w, b, padding=1).backward(np.ones((1, 2, 4, 4)))
        np.testing.assert_array_equal(b.grad, [16.0, 16.0])
        assert w.grad.shape == (2, 1, 3, 3) and w.grad[0, 0, 1, 1] == x.sum()


class TestFiniteDiff:
    def test_linear_op_exact(self):
        rng = np.random.default_rng(15)
        w = rng.standard_normal((2, 2, 1, 1))
        c = rng.standard_normal((1, 2, 3, 3))
        x = rng.standard_normal((1, 2, 3, 3))
        err = finite_diff_check(
            lambda t: inner(conv2d(t, w, np.zeros(2)), c), x)
        assert err < 1e-9

    def test_dilated_conv(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((2, 1, 3, 3))
        c = rng.standard_normal((1, 2, 2, 2))
        assert finite_diff_check(
            lambda t: inner(conv2d(t, w, np.zeros(2), dilation=3), c), x) < 1e-5


class TestTensorInvariants:
    def test_all_finite_after_ops(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        out = relu(conv2d(x, w, rng.standard_normal(4), padding=1))
        assert np.isfinite(out.data).all()
        out.backward(np.ones_like(out.data))

    def test_accumulation_order_deterministic(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((1, 2, 4, 4)), requires_grad=True)
        out = add([relu(x), relu(x), x])
        out.backward(np.ones_like(out.data))
        g1 = x.grad.copy()
        x.grad = None
        out2 = add([relu(x), relu(x), x])
        out2.backward(np.ones_like(out2.data))
        assert np.array_equal(g1, x.grad)


class TestNoGrad:
    def test_ops_keep_no_edges(self):
        w = Tensor(np.ones((2, 1, 3, 3)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        x = np.ones((2, 1, 4, 4))
        with no_grad():
            out = relu(conv2d(x, w, b, padding=1))
        assert out.node.edges == ()
        taped = relu(conv2d(x, w, b, padding=1))
        np.testing.assert_array_equal(out.data, taped.data)
        assert taped.node.edges != ()

    def test_mode_restored_after_an_error(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError
        x = Tensor(np.ones(2), requires_grad=True)
        assert relu(x).node.edges != ()


def tape_nodes(root):
    """Every gradient node reachable from the Tensor root, leaves included."""
    seen, stack = {id(root.node): root.node}, [root.node]
    while stack:
        for p, _ in stack.pop().edges:
            if id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return list(seen.values())


class TestBackwardFreesTheTape:
    def test_interior_nodes_released_and_leaf_gradients_kept(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        h = relu(conv2d(x, w, b, padding=1))
        out = add([h, relu(h)])
        nodes = tape_nodes(out)
        interior = [n for n in nodes if n.edges]
        assert len(interior) == 4 and len(nodes) == 7
        out.backward(np.ones(out.shape))
        for node in interior:
            assert node.grad is None and node.edges == ()
        assert all(t.grad is not None for t in (x, w, b))
