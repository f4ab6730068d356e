"""Minimal dense-array layer primitives with explicit backward passes.

Every spatial operation works on batches of channels-first arrays
(N, C, H, W) and is a pure function of its inputs. Results are wrapped in
:class:`Tensor`, a thin reverse-mode tape node, so composed blocks can be
differentiated without hand-wiring adjoints at every call site. All
gradients here are exact adjoints of the forward maps and are validated
against central finite differences (see :func:`finite_diff_check`).

Convolutions run one kernel (im2col as GEMM): the N inputs are padded once
into a zero-filled flat buffer, a strided view of it yields every tap as a
contiguous run, and one GEMM per image follows, with the shapes of a
one-image batch, so an image's forward keeps its bits in any batch.
The input gradient, and with it the transposed convolution, is the same
kernel applied to the zero-inserted gradient with the flipped kernel, so
nothing is scatter-added.

Under :func:`no_grad` ops record no tape, so each intermediate array is
freed as soon as the next op has read it. ``Tensor.backward`` frees each
interior node's gradient and edges once they have been used.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

_grad_enabled = True


@contextmanager
def no_grad():
    """Ops run inside this block keep no tape edges."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


class ShapeError(ValueError):
    """Raised when an operation is handed inconsistently shaped arrays."""


@dataclass(frozen=True)
class ConvSpec:
    """Geometry of a (possibly dilated, strided) square convolution."""

    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    dilation: int = 1

    def __post_init__(self):
        if min(self.in_channels, self.out_channels, self.kernel,
               self.stride, self.dilation) < 1 or self.padding < 0:
            raise ShapeError(f"invalid conv spec: {self}")

    @property
    def effective_kernel(self) -> int:
        return self.kernel + (self.kernel - 1) * (self.dilation - 1)

    def out_extent(self, extent: int) -> int:
        out = (extent + 2 * self.padding - self.effective_kernel) // self.stride + 1
        if out < 1:
            raise ShapeError(
                f"conv output extent {out} < 1 for input extent {extent} "
                f"with kernel {self.kernel}, dilation {self.dilation}, "
                f"padding {self.padding}, stride {self.stride}")
        return out

    def transposed_out_extent(self, extent: int) -> int:
        out = (extent - 1) * self.stride - 2 * self.padding + self.effective_kernel
        if out < 1:
            raise ShapeError(
                f"transposed conv output extent {out} < 1 for input extent {extent}")
        return out


class Tensor:
    """A numpy array plus an optional tape node for reverse-mode gradients.

    _edges holds one (input, gradient function) pair per input that needs a
    gradient; the function maps this node's gradient to that input's share.
    """

    __slots__ = ("data", "grad", "requires_grad", "_edges")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind != "f" else None)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._edges = ()

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self, grad=None):
        """Reverse-mode sweep from this node; default seed is 1 for scalars.

        Each interior node's gradient and edges are dropped once its
        gradient functions have run, so the tape is consumed and only leaf
        gradients remain.
        """
        if grad is None:
            if self.data.size != 1:
                raise ShapeError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.shape:
            raise ShapeError(f"backward grad shape {np.shape(grad)} != node shape {self.shape}")
        # Depth-first post-order (inputs in order) with an explicit stack,
        # so tape depth is not bounded by the recursion limit.
        topo, seen, stack = [], {id(self)}, [(self, iter(self._edges))]
        while stack:
            node, edges = stack[-1]
            for p, _ in edges:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._edges)))
                    break
            else:
                topo.append(stack.pop()[0])
        self._accumulate(grad)
        while topo:
            node = topo.pop()
            if node._edges:
                for p, fn in node._edges:
                    p._accumulate(fn(node.grad))
                node.grad, node._edges = None, ()

    # Scalar arithmetic, enough to combine loss terms.
    def __add__(self, other):
        return add([self, other if isinstance(other, Tensor)
                    else Tensor(np.asarray(other, dtype=self.dtype))])

    __radd__ = __add__

    def __mul__(self, scalar):
        s = float(scalar)
        return _node(self.data * s, (self,), lambda g: g * s)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def _node(data, parents, *grad_fns):
    """Tape node over data; grad_fns[i] maps its gradient to parents[i]'s.

    Only inputs that need a gradient get an edge, so no other input's
    gradient is ever computed; under no_grad no input gets one.
    """
    out = Tensor(data)
    if _grad_enabled:
        out._edges = tuple([(p, fn) for p, fn in zip(parents, grad_fns)
                            if p.requires_grad or p._edges])
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Convolution internals: one gather of contiguous tap runs from a zero-padded
# flat buffer, then one GEMM per image, for conv2d, both its gradients and
# the transposed conv.
# ---------------------------------------------------------------------------

def _check_nchw(x, name):
    if x.ndim != 4:
        raise ShapeError(f"{name} must be (N, C, H, W), got shape {x.shape}")


def _tap_view(buf, k, d, s, oh, wp):
    """(..., k, k, oh, wp // s) view of the taps in a buffer whose last axis
    is contiguous, e.g. (N, C, L).

    Each buffer row holds a canvas row by row, wp wide. Tap (i, j) of output
    (r, q) reads canvas row i*d + r*s, column j*d + q*s. An output column
    whose taps run past the canvas width reads the next row instead; callers
    drop those columns.
    """
    n = buf.shape[-1]
    wq = wp // s
    last = ((k - 1) * d + (oh - 1) * s) * wp + (k - 1) * d + (wq - 1) * s
    if last >= n:
        raise ShapeError(f"tap view reads element {last} of a {n}-element buffer row")
    e = buf.itemsize
    return np.ndarray(buf.shape[:-1] + (k, k, oh, wq), buf.dtype, buf, 0,
                      buf.strides[:-1] + (d * wp * e, d * e, s * wp * e, s * e))


def _gather(x, k, d, s, oh, ow, offset, step=1):
    """(N, C, k, k, oh, wq) view of the taps of x, and the row width wq.

    x[:, :, r, q] sits at canvas pixel (offset + r*step, offset + q*step) of
    a zero canvas: offset is a conv's padding (a negative one crops x), and
    a step above 1 inserts zeros between pixels. The canvas is as large as
    the oh x ow outputs need, with its width rounded up to a multiple of s,
    so that every tap's oh rows form one run of stride s; output columns
    ow..wq of each row are spill. All N canvases share one zero fill.
    """
    n, c, h, w = x.shape
    hp = (k - 1) * d + (oh - 1) * s + 1
    wp = -(-((k - 1) * d + (ow - 1) * s + 1) // s) * s
    buf = np.zeros((n, c, hp * wp + max(0, (k - 1) * d - s + 1)), dtype=x.dtype)
    first = max(0, -(offset // step))
    start = offset + first * step
    nr = min(h, (hp - 1 - offset) // step + 1) - first
    nc = min(w, (wp - 1 - offset) // step + 1) - first
    if nr > 0 and nc > 0:
        canvas = buf[:, :, :hp * wp].reshape(n, c, hp, wp)
        canvas[:, :, start:start + (nr - 1) * step + 1:step,
               start:start + (nc - 1) * step + 1:step] = x[:, :, first:first + nr,
                                                             first:first + nc]
    return _tap_view(buf, k, d, s, oh, wp), wp // s


def _apply(a, taps):
    """(N, rows, oh*wq) product of a with each image's GEMM columns
    (C*k*k, oh*wq), copied out of its (C, k, k, oh, wq) taps.

    One GEMM per image, of the shapes of a one-image batch, so an image's
    result keeps its bits in any batch. Copying one image's columns at a
    time bounds the transient copy: the 3x3 seg transition of a 4-image
    training tape would otherwise copy out 4.9 MB at once.
    """
    out = np.empty((taps.shape[0], a.shape[0], taps.shape[-2] * taps.shape[-1]), a.dtype)
    for i, image_taps in enumerate(taps):
        np.matmul(a, image_taps.reshape(a.shape[1], -1), out=out[i])
    return out


def _conv_fwd(x, w, spec: ConvSpec):
    n, oh, ow = x.shape[0], spec.out_extent(x.shape[2]), spec.out_extent(x.shape[3])
    taps, wq = _gather(x, spec.kernel, spec.dilation, spec.stride, oh, ow, spec.padding)
    y = _apply(w.reshape(spec.out_channels, -1), taps)
    return y.reshape(n, spec.out_channels, oh, wq)[..., :ow]


def _conv_grad_input(g, w, spec: ConvSpec, h, wd):
    """Adjoint of _conv_fwd in its input: the stride-1 correlation of the
    zero-inserted gradient with the flipped, transposed kernel."""
    k, d = spec.kernel, spec.dilation
    taps, wq = _gather(g, k, d, 1, h, wd, (k - 1) * d - spec.padding, step=spec.stride)
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(spec.in_channels, -1)
    return _apply(wf, taps).reshape(g.shape[0], spec.in_channels, h, wq)[..., :wd]


def _conv_grad_w(g, x, spec: ConvSpec):
    """Weight gradient summed over the batch, image by image."""
    k, oh, ow = spec.kernel, g.shape[2], g.shape[3]
    taps, wq = _gather(x, k, spec.dilation, spec.stride, oh, ow, spec.padding)
    # Zero gradient on the spill columns keeps their taps out of the sum.
    gp = np.zeros((spec.out_channels, oh, wq), dtype=g.dtype)
    gw = 0
    for gi, image_taps in zip(g, taps):
        gp[:, :, :ow] = gi
        gw = gw + gp.reshape(spec.out_channels, -1) @ image_taps.reshape(-1, oh * wq).T
    return gw.reshape(spec.out_channels, x.shape[1], k, k)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def conv2d(input, weights, bias, spec: ConvSpec) -> Tensor:
    """Dilated cross-correlation; tap (i, j) samples offset (d*i, d*j)."""
    x, w, b = as_tensor(input), as_tensor(weights), as_tensor(bias)
    _check_nchw(x.data, "input")
    if w.shape != (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel):
        raise ShapeError(f"weights shape {w.shape} != "
                         f"({spec.out_channels}, {spec.in_channels}, {spec.kernel}, {spec.kernel})")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    if b.shape != (spec.out_channels,):
        raise ShapeError(f"bias shape {b.shape} != ({spec.out_channels},)")
    y = _conv_fwd(x.data, w.data, spec) + b.data[:, None, None]
    h, wd = x.shape[2], x.shape[3]
    return _node(y, (x, w, b),
                 lambda g: _conv_grad_input(g, w.data, spec, h, wd),
                 lambda g: _conv_grad_w(g, x.data, spec),
                 lambda g: g.sum(axis=(0, 2, 3)))


def transposed_conv2d(input, weights, bias, spec: ConvSpec) -> Tensor:
    """Fractionally-strided convolution: the adjoint map of conv2d.

    weights shape is (in_channels, out_channels, k, k); with stride 2 the
    spatial extent roughly doubles.
    """
    x, w, b = as_tensor(input), as_tensor(weights), as_tensor(bias)
    _check_nchw(x.data, "input")
    if w.shape != (spec.in_channels, spec.out_channels, spec.kernel, spec.kernel):
        raise ShapeError(f"weights shape {w.shape} != "
                         f"({spec.in_channels}, {spec.out_channels}, {spec.kernel}, {spec.kernel})")
    if x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[1]} channels, spec expects {spec.in_channels}")
    # The adjoint of a conv mapping out_channels -> in_channels with the
    # same geometry; reuse the conv gradient kernels with roles swapped.
    adj = ConvSpec(spec.out_channels, spec.in_channels, spec.kernel,
                   spec.stride, spec.padding, spec.dilation)
    h, wd = x.shape[2], x.shape[3]
    oh, ow = spec.transposed_out_extent(h), spec.transposed_out_extent(wd)
    y = _conv_grad_input(x.data, w.data, adj, oh, ow) + b.data[:, None, None]
    return _node(y, (x, w, b),
                 lambda g: _conv_fwd(g, w.data, adj),
                 lambda g: _conv_grad_w(x.data, g, adj),
                 lambda g: g.sum(axis=(0, 2, 3)))


def relu(input) -> Tensor:
    x = as_tensor(input)
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: g * (x.data > 0))


def upsample_nearest_2x(input) -> Tensor:
    x = as_tensor(input)
    _check_nchw(x.data, "input")
    y = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)
    n, c, h, w = x.shape
    return _node(y, (x,), lambda g: g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)))


def concat(inputs) -> Tensor:
    """Join tensors along axis 1, the axis after the batch axis; every other
    axis must agree."""
    ts = [as_tensor(t) for t in inputs]
    if not ts:
        raise ShapeError("concat needs at least one input")
    for i, t in enumerate(ts):
        if t.data.ndim < 2 or (t.shape[:1] + t.shape[2:]) != (ts[0].shape[:1] + ts[0].shape[2:]):
            raise ShapeError(f"concat shape mismatch: input[{i}] is {t.shape}, "
                             f"input[0] is {ts[0].shape}")
    ends = np.cumsum([t.shape[1] for t in ts]).tolist()
    return _node(np.concatenate([t.data for t in ts], axis=1), ts,
                 *(lambda g, lo=lo, hi=hi: g[:, lo:hi] for lo, hi in zip([0] + ends, ends)))


def add(inputs) -> Tensor:
    ts = [as_tensor(t) for t in inputs]
    if not ts:
        raise ShapeError("add needs at least one input")
    for i, t in enumerate(ts):
        if t.shape != ts[0].shape:
            raise ShapeError(f"add shape mismatch: input[{i}] is {t.shape}, "
                             f"input[0] is {ts[0].shape}")
    return _node(np.sum([t.data for t in ts], axis=0), ts, *[lambda g: g] * len(ts))


def inner(input, coeffs) -> Tensor:
    """Scalar <input, coeffs>; the standard trick for reducing to a scalar loss."""
    x = as_tensor(input)
    c = np.asarray(coeffs, dtype=x.dtype)
    if c.shape != x.shape:
        raise ShapeError(f"inner: shapes {x.shape} vs {c.shape}")
    return _node(np.array((x.data * c).sum()), (x,), lambda g: g * c)


def _log_softmax(z: np.ndarray, axis: int) -> np.ndarray:
    """Numerically stable log-softmax of a plain array along one axis."""
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def finite_diff_check(op_handle, point, eps=1e-5) -> float:
    """Worst relative error of the analytic gradient vs central differences.

    op_handle maps a Tensor to a scalar Tensor; point is the ndarray at
    which to differentiate. Relative error uses max(|analytic|, |numeric|,
    1e-8) as denominator.
    """
    p = np.array(point, dtype=np.float64)
    t = Tensor(p.copy(), requires_grad=True)
    out = op_handle(t)
    out.backward()
    analytic = t.grad.reshape(-1)
    flat = p.reshape(-1)
    numeric = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = op_handle(Tensor(p)).item()
        flat[i] = orig - eps
        lo = op_handle(Tensor(p)).item()
        flat[i] = orig
        numeric[i] = (hi - lo) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
