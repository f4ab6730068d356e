"""Minimal dense-array layer primitives with explicit backward passes.

Every spatial operation works on batches of channels-first arrays
(N, C, H, W) and is a pure function of its inputs. Results are wrapped in
:class:`Tensor`, an array plus a reverse-mode gradient node, so composed
blocks can be differentiated without hand-wiring adjoints at every call
site. All gradients here are exact adjoints of the forward maps and are
validated against central finite differences (see :func:`finite_diff_check`).

The tape is made of gradient nodes, not Tensors: a node holds its gradient
and edges to its inputs' nodes, and each gradient function captures only
the arrays it reads (a conv its input and weights, a ReLU its output). An
array that no gradient reads, such as a pre-ReLU conv output or an MRF
branch output, is freed as soon as the forward drops its Tensor.

Convolutions run one kernel (im2col as GEMM): the N inputs are padded once
into a zero-filled flat buffer, a strided view of it yields every tap as a
contiguous run, and one GEMM per image follows, with the shapes of a
one-image batch, so an image's forward keeps its bits in any batch.
The input gradient is the same kernel applied to the zero-inserted
gradient with the flipped kernel, so nothing is scatter-added. The weights
are the only record of a conv's kernel and channel counts.

The transposed convolution takes only the seg head's shape, a k x k kernel
at stride k: each input pixel writes its own output block, so it is one
GEMM per image and a depth-to-space reshape, and no zeros are inserted.

Under :func:`no_grad` ops record no tape, so each intermediate array is
freed as soon as the next op has read it. ``Tensor.backward`` frees each
interior node's gradient and edges once they have been used.
"""

from __future__ import annotations

from contextlib import contextmanager

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


class _GradNode:
    """A Tensor's place on the tape: its gradient, the dtype that
    accumulation gives it, and one (input node, gradient function) edge per
    input that needs a gradient; the function maps this node's gradient to
    that input's share. Edges point at nodes, never at Tensors, so a Tensor's
    array lives only as long as a gradient function reads it."""

    __slots__ = ("grad", "edges", "dtype")

    def __init__(self, dtype):
        self.grad, self.edges, self.dtype = None, (), dtype

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.array(g, dtype=self.dtype)
        else:
            self.grad += g


class Tensor:
    """A numpy array plus its gradient node for reverse-mode gradients."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64 if np.asarray(data).dtype.kind != "f" else None)
        self.requires_grad = bool(requires_grad)
        self.node = _GradNode(self.data.dtype)

    @property
    def grad(self):
        return self.node.grad

    @grad.setter
    def grad(self, value):
        self.node.grad = value

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return self.data.item()

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
        topo, seen, stack = [], {id(self.node)}, [(self.node, iter(self.node.edges))]
        while stack:
            node, edges = stack[-1]
            for p, _ in edges:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p.edges)))
                    break
            else:
                topo.append(stack.pop()[0])
        self.node.accumulate(grad)
        while topo:
            node = topo.pop()
            if node.edges:
                for p, fn in node.edges:
                    p.accumulate(fn(node.grad))
                node.grad, node.edges = None, ()

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
    """A Tensor over data whose node has an edge to each parent's node;
    grad_fns[i] maps its gradient to parents[i]'s.

    Only inputs that need a gradient get an edge, so no other input's
    gradient is ever computed; under no_grad no input gets one.
    """
    out = Tensor(data)
    if _grad_enabled:
        out.node.edges = tuple([(p.node, fn) for p, fn in zip(parents, grad_fns)
                                if p.requires_grad or p.node.edges])
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# Convolution internals: one gather of contiguous tap runs from a zero-padded
# flat buffer, then one GEMM per image, for conv2d and both its gradients.
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


def _out_extent(extent, k, stride, padding, dilation):
    out = (extent + 2 * padding - (k - 1) * dilation - 1) // stride + 1
    if out < 1:
        raise ShapeError(
            f"conv output extent {out} < 1 for input extent {extent} "
            f"with kernel {k}, dilation {dilation}, padding {padding}, stride {stride}")
    return out


def _conv_fwd(x, w, stride, padding, dilation):
    n, (o, _, k, _) = x.shape[0], w.shape
    oh, ow = (_out_extent(e, k, stride, padding, dilation) for e in x.shape[2:])
    taps, wq = _gather(x, k, dilation, stride, oh, ow, padding)
    return _apply(w.reshape(o, -1), taps).reshape(n, o, oh, wq)[..., :ow]


def _conv_grad_input(g, w, stride, padding, dilation, h, wd):
    """Adjoint of _conv_fwd in its input: the stride-1 correlation of the
    zero-inserted gradient with the flipped, transposed kernel."""
    k = w.shape[2]
    taps, wq = _gather(g, k, dilation, 1, h, wd, (k - 1) * dilation - padding, step=stride)
    wf = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(w.shape[1], -1)
    return _apply(wf, taps).reshape(g.shape[0], w.shape[1], h, wq)[..., :wd]


def _conv_grad_w(g, x, k, stride, padding, dilation):
    """Weight gradient summed over the batch, image by image."""
    o, oh, ow = g.shape[1:]
    taps, wq = _gather(x, k, dilation, stride, oh, ow, padding)
    # Zero gradient on the spill columns keeps their taps out of the sum.
    gp = np.zeros((o, oh, wq), dtype=g.dtype)
    gw = 0
    for gi, image_taps in zip(g, taps):
        gp[:, :, :ow] = gi
        gw = gw + gp.reshape(o, -1) @ image_taps.reshape(-1, oh * wq).T
    return gw.reshape(o, x.shape[1], k, k)


def _check_conv(x, w, b, in_axis):
    """One-line ShapeError unless x is (N, C, H, W), w a nonempty (., ., k, k)
    kernel with C on axis in_axis, and b as long as w's other channel axis."""
    _check_nchw(x.data, "input")
    if w.data.ndim != 4 or w.shape[2] != w.shape[3] or min(w.shape) < 1:
        raise ShapeError(f"weights shape {w.shape} is not a nonempty (., ., k, k) kernel")
    if x.shape[1] != w.shape[in_axis]:
        raise ShapeError(f"input has {x.shape[1]} channels, weights expect {w.shape[in_axis]}")
    if b.shape != (w.shape[1 - in_axis],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[1 - in_axis]},)")


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

def conv2d(input, weights, bias, stride=1, padding=0, dilation=1) -> Tensor:
    """Dilated cross-correlation; tap (i, j) samples offset (d*i, d*j).

    The (out, in, k, k) weights give the kernel and both channel counts.
    """
    x, w, b = as_tensor(input), as_tensor(weights), as_tensor(bias)
    _check_conv(x, w, b, 1)
    if min(stride, dilation) < 1 or padding < 0:
        raise ShapeError(f"need stride >= 1, dilation >= 1 and padding >= 0, got "
                         f"stride {stride}, dilation {dilation}, padding {padding}")
    xa, wa = x.data, w.data  # all that the gradients read
    y = _conv_fwd(xa, wa, stride, padding, dilation) + b.data[:, None, None]
    k, (h, wd) = wa.shape[2], x.shape[2:]
    return _node(y, (x, w, b),
                 lambda g: _conv_grad_input(g, wa, stride, padding, dilation, h, wd),
                 lambda g: _conv_grad_w(g, xa, k, stride, padding, dilation),
                 lambda g: g.sum(axis=(0, 2, 3)))


def transposed_conv2d(input, weights, bias) -> Tensor:
    """Transposed conv with (in, out, k, k) weights at stride k, unpadded:
    the adjoint of a k x k stride-k conv2d, so the extent grows k-fold and
    input pixel (r, q) writes only output block (r*k:(r+1)*k, q*k:(q+1)*k).

    The forward is one (out*k*k, in) GEMM per image, so an image's output
    keeps its bits in any batch, then a depth-to-space reshape. The input
    gradient is the transposed GEMM over the space-to-depth of the output
    gradient; the weight gradient sums over the images.
    """
    x, w, b = as_tensor(input), as_tensor(weights), as_tensor(bias)
    _check_conv(x, w, b, 0)
    (n, c, h, wd), (o, k) = x.shape, w.shape[1:3]
    xa, wa = x.data.reshape(n, c, h * wd), w.data.reshape(c, o * k * k)

    def space_to_depth(g):
        return g.reshape(n, o, h, k, wd, k).transpose(0, 1, 3, 5, 2, 4).reshape(n, -1, h * wd)

    def grad_w(g):
        return sum(xi @ gi.T for xi, gi in zip(xa, space_to_depth(g))).reshape(c, o, k, k)

    blocks = np.matmul(wa.T, xa).reshape(n, o, k, k, h, wd).transpose(0, 1, 4, 2, 5, 3)
    y = (blocks + b.data[:, None, None, None, None]).reshape(n, o, h * k, wd * k)
    return _node(y, (x, w, b),
                 lambda g: np.matmul(wa, space_to_depth(g)).reshape(n, c, h, wd),
                 grad_w,
                 lambda g: g.sum(axis=(0, 2, 3)))


def relu(input) -> Tensor:
    x = as_tensor(input)
    y = np.maximum(x.data, 0.0)
    # y > 0 is the mask x > 0, NaN and -0.0 included: the gradient keeps the
    # output, which the next op reads anyway, so x can be freed.
    return _node(y, (x,), lambda g: g * (y > 0))


def upsample_nearest_2x(input) -> Tensor:
    x = as_tensor(input)
    _check_nchw(x.data, "input")
    n, c, h, w = x.shape
    y = np.broadcast_to(x.data[:, :, :, None, :, None], (n, c, h, 2, w, 2)).reshape(
        n, c, 2 * h, 2 * w)
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
    # An in-order sum into one array: np.sum over the stacked inputs would
    # copy them all first.
    out = ts[0].data.astype(np.result_type(*[t.data for t in ts]))
    for t in ts[1:]:
        np.add(out, t.data, out=out)
    return _node(out, ts, *[lambda g: g] * len(ts))


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
