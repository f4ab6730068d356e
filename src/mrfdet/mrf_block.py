"""Multi-receptive-field block: parallel multi-kernel / multi-dilation
convolution branches over a shared 1x1 bottleneck, concatenated, fused by a
1x1 convolution and added to a residual shortcut.

Branch padding is chosen as dilation * (kernel - 1) / 2 so every branch
preserves the spatial extent and the concat is always well formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import (ConvSpec, ShapeError, Tensor, add, as_tensor,
                          concat_channels, conv2d, relu)


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

    @property
    def padding(self) -> int:
        return self.dilation * (self.kernel - 1) // 2


@dataclass(frozen=True)
class MRFBlockSpec:
    in_channels: int
    bottleneck_channels: int
    branches: tuple
    out_channels: int
    shortcut: bool = True

    def __post_init__(self):
        if not self.branches:
            raise ShapeError("MRF block needs at least one branch")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def concat_channels(self) -> int:
        return sum(b.out_channels for b in self.branches)

    @property
    def needs_projection(self) -> bool:
        return self.shortcut and self.in_channels != self.out_channels

    @property
    def max_effective_kernel(self) -> int:
        return max(effective_receptive_field(b.kernel, b.dilation) for b in self.branches)


@dataclass
class MRFBlockParams:
    """Learned weights of one block, keyed consistently with the spec."""

    bottleneck_w: Tensor
    bottleneck_b: Tensor
    branch_w: list
    branch_b: list
    fuse_w: Tensor
    fuse_b: Tensor
    projection_w: Tensor = None
    projection_b: Tensor = None

    def named(self, prefix=""):
        pairs = [("bottleneck.w", self.bottleneck_w), ("bottleneck.b", self.bottleneck_b)]
        for i, (w, b) in enumerate(zip(self.branch_w, self.branch_b)):
            pairs += [(f"branch{i}.w", w), (f"branch{i}.b", b)]
        pairs += [("fuse.w", self.fuse_w), ("fuse.b", self.fuse_b)]
        if self.projection_w is not None:
            pairs += [("proj.w", self.projection_w), ("proj.b", self.projection_b)]
        return [(prefix + name, t) for name, t in pairs]


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
        shortcut=True,
    )


def msra_init(rng, shape, dtype=np.float64) -> np.ndarray:
    """Zero-mean Gaussian with std sqrt(2 / fan_in) for conv weights."""
    fan_in = int(np.prod(shape[1:]))
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def init_mrf_params(spec: MRFBlockSpec, rng, dtype=np.float64) -> MRFBlockParams:
    def wt(shape):
        return Tensor(msra_init(rng, shape, dtype), requires_grad=True)

    def bias(n):
        return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

    bw = wt((spec.bottleneck_channels, spec.in_channels, 1, 1))
    params = MRFBlockParams(
        bottleneck_w=bw, bottleneck_b=bias(spec.bottleneck_channels),
        branch_w=[wt((b.out_channels, spec.bottleneck_channels, b.kernel, b.kernel))
                  for b in spec.branches],
        branch_b=[bias(b.out_channels) for b in spec.branches],
        fuse_w=wt((spec.out_channels, spec.concat_channels, 1, 1)),
        fuse_b=bias(spec.out_channels),
    )
    if spec.needs_projection:
        params.projection_w = wt((spec.out_channels, spec.in_channels, 1, 1))
        params.projection_b = bias(spec.out_channels)
    return params


def mrf_forward(params: MRFBlockParams, spec: MRFBlockSpec, input) -> Tensor:
    """bottleneck -> parallel branches -> concat -> 1x1 fuse -> +shortcut -> ReLU."""
    x = as_tensor(input)
    if x.shape[0] != spec.in_channels:
        raise ShapeError(f"input has {x.shape[0]} channels, spec expects {spec.in_channels}")
    if min(x.shape[1], x.shape[2]) < spec.max_effective_kernel:
        raise ShapeError(
            f"input extent {x.shape[1:]} smaller than largest effective kernel "
            f"{spec.max_effective_kernel}")
    neck = relu(conv2d(x, params.bottleneck_w, params.bottleneck_b,
                       ConvSpec(spec.in_channels, spec.bottleneck_channels, 1)))
    outs = []
    for b, w, bb in zip(spec.branches, params.branch_w, params.branch_b):
        cs = ConvSpec(spec.bottleneck_channels, b.out_channels, b.kernel,
                      padding=b.padding, dilation=b.dilation)
        outs.append(conv2d(neck, w, bb, cs))
    fused = conv2d(concat_channels(outs), params.fuse_w, params.fuse_b,
                   ConvSpec(spec.concat_channels, spec.out_channels, 1))
    if spec.shortcut:
        if spec.needs_projection:
            short = conv2d(x, params.projection_w, params.projection_b,
                           ConvSpec(spec.in_channels, spec.out_channels, 1))
        else:
            short = x
        fused = add([fused, short])
    return relu(fused)


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
