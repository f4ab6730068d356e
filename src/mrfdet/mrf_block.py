"""Multi-receptive-field block: parallel multi-kernel / multi-dilation
convolution branches over a shared 1x1 bottleneck, concatenated, fused by a
1x1 convolution and added to a residual shortcut.

Branch padding is chosen as dilation * (kernel - 1) / 2 so every branch
preserves the spatial extent and the concat is always well formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (ShapeError, Tensor, add, as_tensor, concat, conv2d, relu,
                          transposed_conv2d)


@dataclass(frozen=True)
class BranchSpec:
    kernel: int
    dilation: int
    out_channels: int

    def __post_init__(self):
        if self.kernel < 1 or self.dilation < 1 or self.out_channels < 1:
            raise ShapeError(f"invalid branch spec: {self}")
        if effective_receptive_field(self.kernel, self.dilation) % 2 == 0:
            raise ShapeError(f"branch {self} has even effective kernel; "
                             "symmetric same-padding is impossible")


@dataclass(frozen=True)
class MRFBlockSpec:
    in_channels: int
    bottleneck_channels: int
    branches: tuple
    out_channels: int

    def __post_init__(self):
        if not self.branches:
            raise ShapeError("MRF block needs at least one branch")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def concat_channels(self) -> int:
        return sum(b.out_channels for b in self.branches)

    @property
    def needs_projection(self) -> bool:
        return self.in_channels != self.out_channels

    @property
    def max_effective_kernel(self) -> int:
        return max(effective_receptive_field(b.kernel, b.dilation) for b in self.branches)


DEFAULT_BRANCHES = ((1, 1), (3, 1), (5, 1), (3, 2), (3, 3))


def default_mrf_spec(in_channels, out_channels, branch_kds=DEFAULT_BRANCHES) -> MRFBlockSpec:
    """Five-branch default: kernels 1/3/5 plus 3x3 at dilations 2 and 3.

    Per-branch channels split the output budget of the concat uniformly,
    remainder to the first branch; bottleneck is in_channels / 4 rounded up.
    """
    if in_channels < 1 or out_channels < 1:
        raise ShapeError("channel counts must be positive")
    n = len(branch_kds)
    per = out_channels // n
    if per < 1:
        raise ShapeError(f"out_channels {out_channels} too small for {n} branches")
    widths = [per] * n
    widths[0] += out_channels - per * n
    branches = tuple(BranchSpec(k, d, w) for (k, d), w in zip(branch_kds, widths))
    return MRFBlockSpec(
        in_channels=in_channels,
        bottleneck_channels=-(-in_channels // 4),
        branches=branches,
        out_channels=out_channels,
    )


def msra_init(rng, shape, dtype=np.float64) -> np.ndarray:
    """Zero-mean Gaussian with std sqrt(2 / fan_in) for conv weights."""
    fan_in = int(np.prod(shape[1:]))
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def init_conv(params: dict, name, out_c, in_c, k, rng, dtype=np.float64, scale=1.0,
              transposed=False):
    """Add an MSRA `{name}.w` (out_c, in_c, k, k), or (in_c, out_c, k, k) when
    transposed, times scale, and a zero `{name}.b`; with rng None the weight is
    zero too and nothing is drawn."""
    shape = (in_c, out_c, k, k) if transposed else (out_c, in_c, k, k)
    w = np.zeros(shape, dtype) if rng is None else msra_init(rng, shape, dtype) * dtype(scale)
    params[f"{name}.w"] = Tensor(w, requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(out_c, dtype=dtype), requires_grad=True)


def named_conv(params: dict, name, x, stride=1, dilation=1, transposed=False) -> Tensor:
    """Apply the conv stored as `{name}.w`/`{name}.b`, with extent-keeping padding;
    transposed, a k x k kernel at stride k, which multiplies the extent by k.

    Kernel size and channel counts come from the weight's shape.
    """
    w, b = params[f"{name}.w"], params[f"{name}.b"]
    if transposed:
        return transposed_conv2d(x, w, b)
    return conv2d(x, w, b, stride, dilation * (w.shape[2] - 1) // 2, dilation)


def init_mrf_params(params: dict, name, spec: MRFBlockSpec, rng, dtype=np.float64):
    """Add the block's `{name}.bottleneck`, `.branch{i}`, `.fuse` and, when the
    shortcut needs one, `.proj` convs to params, in that order."""
    init_conv(params, f"{name}.bottleneck", spec.bottleneck_channels, spec.in_channels,
              1, rng, dtype)
    for i, b in enumerate(spec.branches):
        init_conv(params, f"{name}.branch{i}", b.out_channels, spec.bottleneck_channels,
                  b.kernel, rng, dtype)
    init_conv(params, f"{name}.fuse", spec.out_channels, spec.concat_channels, 1, rng, dtype)
    if spec.needs_projection:
        init_conv(params, f"{name}.proj", spec.out_channels, spec.in_channels, 1, rng, dtype)


def mrf_forward(params: dict, name, spec: MRFBlockSpec, input) -> Tensor:
    """bottleneck -> parallel branches -> concat -> 1x1 fuse -> +shortcut -> ReLU,
    over an (N, C, H, W) batch.

    Weights are read from params under the names init_mrf_params gave them.
    """
    x = as_tensor(input)
    if x.data.ndim != 4 or x.shape[1] != spec.in_channels:
        raise ShapeError(f"input has shape {x.shape}, spec expects {spec.in_channels} "
                         "channels in (N, C, H, W)")
    if min(x.shape[2], x.shape[3]) < spec.max_effective_kernel:
        raise ShapeError(
            f"input extent {x.shape[2:]} smaller than largest effective kernel "
            f"{spec.max_effective_kernel}")
    neck = relu(named_conv(params, f"{name}.bottleneck", x))
    outs = [named_conv(params, f"{name}.branch{i}", neck, dilation=b.dilation)
            for i, b in enumerate(spec.branches)]
    fused = named_conv(params, f"{name}.fuse", concat(outs))
    short = named_conv(params, f"{name}.proj", x) if spec.needs_projection else x
    return relu(add([fused, short]))


def effective_receptive_field(kernel: int, dilation: int) -> int:
    """Span of the dilated tap grid: kernel + (kernel - 1) * (dilation - 1)."""
    if kernel < 1 or dilation < 1:
        raise ShapeError("kernel and dilation must be >= 1")
    return kernel + (kernel - 1) * (dilation - 1)


def branch_taps(kernel: int, dilation: int):
    """Tap offsets relative to the kernel center, as a sorted set of (dy, dx)."""
    e = effective_receptive_field(kernel, dilation)
    half = (e - 1) // 2
    offsets = [i * dilation - half for i in range(kernel)]
    return sorted((dy, dx) for dy in offsets for dx in offsets)


def rf_report(spec: MRFBlockSpec):
    """Per-branch (index, kernel, dilation, effective kernel, tap offsets)."""
    return [(i, b.kernel, b.dilation,
             effective_receptive_field(b.kernel, b.dilation),
             branch_taps(b.kernel, b.dilation))
            for i, b in enumerate(spec.branches)]


def format_rf_report(spec: MRFBlockSpec) -> str:
    lines = ["branch  k  d  effective  taps"]
    for i, k, d, e, taps in rf_report(spec):
        tap_str = " ".join(f"({dy},{dx})" for dy, dx in taps)
        lines.append(f"{i:>6}  {k}  {d}  {e:>9}  {tap_str}")
    union = set()
    for _, _, _, _, taps in rf_report(spec):
        union.update(taps)
    lines.append(f"union of taps: {len(union)} distinct offsets")
    return "\n".join(lines)
