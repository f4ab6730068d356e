"""Desk-scale single-shot detector.

A small staged backbone (each stage halves resolution) feeds an SSD-style
set of detection levels at strides 8, 16, 32, ... When the extra-level
toggle is on, a top-down pathway (nearest-neighbor 2x upsample + 1x1
lateral projection, elementwise add) runs from the coarsest stage down to
stride 4, the merged features replace the bottom-up ones as detection
features, and the stride-4 merged feature becomes the finest detection
level and the input of the auxiliary segmentation head. All detection
levels except the two coarsest carry a multi-receptive-field block in
front of their 3x3 class/box prediction heads when the MRF toggle is on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .anchors import generate_anchors
from .mrf_block import default_mrf_spec, init_conv, init_mrf_params, mrf_forward, named_conv
from .tensor_core import (ShapeError, Tensor, _node, add, as_tensor, concat, relu,
                          upsample_nearest_2x)

SEG_MODES = ("off", "aws", "sws")

# Images per forward in training and eval. Measured on the default network
# (2-core x86 host, OpenBLAS on one thread): one 8-image training step
# peaks at 3.7 / 6.3 / 11.0 / 20.6 MB traced (tracemalloc) with tapes of
# 1 / 2 / 4 / 8 images, against 7.3 MB for one-image tapes that kept every
# gradient until the end of backward; the no-grad forward of 50 test images
# takes 134 / 94 / 87 ms at 1 / 4 / 8 images per forward. Past 4 images the
# memory grows faster than the time falls.
FORWARD_BATCH = 4

# 3x3 convs per backbone stage; the first of each has stride 2.
CONVS_PER_STAGE = 2


@dataclass(frozen=True)
class Toggles:
    mrf: bool = True
    extra_level: bool = True
    seg_mode: str = "sws"

    def __post_init__(self):
        if self.seg_mode not in SEG_MODES:
            raise ShapeError(f"seg_mode must be one of {SEG_MODES}")
        if self.seg_mode != "off" and not self.extra_level:
            raise ShapeError("segmentation head needs the extra (stride-4) level")


@dataclass(frozen=True)
class BackboneSpec:
    image_size: int = 64
    stage_channels: tuple = (16, 32, 64, 64, 64)

    def __post_init__(self):
        if len(self.stage_channels) < 3:
            raise ShapeError("backbone needs at least 3 stages")
        if min(self.stage_channels) < 1:
            raise ShapeError(f"stage_channels {' '.join(map(str, self.stage_channels))} "
                             "must all be at least 1")
        stride = 2 ** len(self.stage_channels)
        if self.image_size < 1 or self.image_size % stride != 0:
            raise ShapeError(f"image_size {self.image_size} must be a positive multiple "
                             f"of the coarsest stride {stride}")


@dataclass(frozen=True)
class LevelSpec:
    name: str
    stride: int
    extent: int
    channels: int
    use_mrf: bool
    anchors_per_loc: int


@dataclass
class HeadOutputs:
    """Flattened anchor-major predictions of every level for a batch of N
    images; the loss and the decoder take the whole batch."""

    loc: Tensor                 # (N, num_anchors, 4)
    conf: Tensor                # (N, num_anchors, num_classes + 1)
    anchors: np.ndarray         # (num_anchors, 4) corner form
    seg_logits: Tensor = None   # (N, 2, image, image) when segmentation ran


@dataclass
class DetectorParams:
    backbone: BackboneSpec
    toggles: Toggles
    num_classes: int
    levels: list                # LevelSpec, finest first
    params: dict                # name -> Tensor, insertion-ordered
    mrf_specs: dict             # level name -> MRFBlockSpec
    anchors: np.ndarray
    seed: int | None            # None for a build that drew no init

    def named_params(self):
        return list(self.params.items())

    @property
    def num_anchors(self):
        return self.anchors.shape[0]


def anchor_counts(num_levels: int):
    """4 anchors per cell on the finest and coarsest level, 6 elsewhere."""
    if num_levels == 1:
        return [4]
    return [4] + [6] * (num_levels - 2) + [4]


def anchor_scales(num_levels: int, extra_level: bool):
    """Per-level box scales as fractions of the image, plus the final bound."""
    if extra_level:
        rest = list(np.linspace(0.35, 0.85, num_levels - 1)) if num_levels > 1 else []
        return [0.1] + rest + [1.0]
    if num_levels == 1:
        return [0.5, 1.0]
    return list(np.linspace(0.2, 0.8, num_levels)) + [1.0]


def aspect_ratios_for(a: int):
    if a == 4:
        return [1.0, 2.0, 0.5]
    if a == 6:
        return [1.0, 2.0, 3.0, 0.5, 1.0 / 3.0]
    raise ShapeError(f"unsupported anchors-per-location {a} (need 4 or 6)")


def build_network(backbone: BackboneSpec, num_classes: int, toggles: Toggles,
                  seed: int | None = 0, dtype=np.float64) -> DetectorParams:
    """Construct and initialize all parameters; fully determined by the seed.

    With seed None nothing is drawn: the layout, names, shapes and anchors are
    the same, and every parameter is zero.
    """
    rng = None if seed is None else np.random.default_rng(seed)
    params = {}

    # Backbone stages: first conv of each stage downsamples by 2.
    in_c = 3
    for s, out_c in enumerate(backbone.stage_channels):
        for c in range(CONVS_PER_STAGE):
            init_conv(params, f"backbone.s{s}.c{c}", out_c, in_c, 3, rng, dtype)
            in_c = out_c

    n_stages = len(backbone.stage_channels)
    stage_stride = [2 ** (s + 1) for s in range(n_stages)]
    stage_extent = [backbone.image_size // st for st in stage_stride]

    if toggles.extra_level:
        det_stages = list(range(1, n_stages))          # strides 4, 8, ...
        top_c = backbone.stage_channels[-1]
        # Lateral 1x1 projections for every merged stage (all but the coarsest).
        for s in range(n_stages - 2, 0, -1):
            init_conv(params, f"lateral.s{s}", top_c, backbone.stage_channels[s], 1,
                      rng, dtype)
        level_channels = {s: (backbone.stage_channels[s] if s == n_stages - 1 else top_c)
                          for s in det_stages}
    else:
        det_stages = list(range(2, n_stages))          # strides 8, 16, ...
        level_channels = {s: backbone.stage_channels[s] for s in det_stages}

    n_levels = len(det_stages)
    per_level_a = anchor_counts(n_levels)
    levels, mrf_specs = [], {}
    for rank, s in enumerate(det_stages):
        use_mrf = toggles.mrf and rank < n_levels - 2
        name = f"level{stage_stride[s]}"
        spec = LevelSpec(name=name, stride=stage_stride[s], extent=stage_extent[s],
                         channels=level_channels[s], use_mrf=use_mrf,
                         anchors_per_loc=per_level_a[rank])
        if use_mrf:
            mspec = default_mrf_spec(spec.channels, spec.channels)
            if spec.extent < mspec.max_effective_kernel:
                raise ShapeError(
                    f"{name} extent {spec.extent} is smaller than the largest MRF "
                    f"effective kernel {mspec.max_effective_kernel}; disable MRF or "
                    "use a larger input")
            mrf_specs[name] = mspec
            init_mrf_params(params, f"mrf.{name}", mspec, rng, dtype)
        levels.append(spec)
        a = spec.anchors_per_loc
        # Prediction heads start near zero so initial boxes stay close to
        # their anchors; full-size random heads regress wildly off-image
        # boxes early on and the localization loss never recovers.
        for head, k in (("loc", 4), ("conf", num_classes + 1)):
            init_conv(params, f"head.{name}.{head}", a * k, spec.channels, 3, rng, dtype,
                      scale=0.1)

    if toggles.extra_level:
        # Segmentation head on the finest merged feature (stride 4):
        # two stride-2 transposed convs, 3x3 transition + ReLU, 1x1 to 2 logits.
        init_conv(params, "seg.up1", 16, levels[0].channels, 2, rng, dtype, transposed=True)
        init_conv(params, "seg.up2", 8, 16, 2, rng, dtype, transposed=True)
        init_conv(params, "seg.transition", 8, 8, 3, rng, dtype)
        init_conv(params, "seg.cls", 2, 8, 1, rng, dtype)

    scales = [sc * backbone.image_size
              for sc in anchor_scales(n_levels, toggles.extra_level)]
    anchors = generate_anchors([lv.extent for lv in levels], scales,
                               [aspect_ratios_for(lv.anchors_per_loc) for lv in levels],
                               backbone.image_size)
    return DetectorParams(backbone=backbone, toggles=toggles, num_classes=num_classes,
                          levels=levels, params=params, mrf_specs=mrf_specs,
                          anchors=anchors, seed=seed)


def fpn_merge(params: dict, name, top_feature, lateral_feature) -> Tensor:
    """upsample_nearest_2x(top) + the lateral projected by the 1x1 conv `name`."""
    top = as_tensor(top_feature)
    lat = as_tensor(lateral_feature)
    if lat.shape[2] != 2 * top.shape[2] or lat.shape[3] != 2 * top.shape[3]:
        raise ShapeError(f"lateral extent {lat.shape[2:]} is not twice the top "
                         f"extent {top.shape[2:]}")
    return add([upsample_nearest_2x(top), named_conv(params, name, lat)])


def _anchor_rows(level_map: Tensor, k: int) -> Tensor:
    """(N, A*K, S, S) head maps -> (N, S*S*A, K) rows: cells row-major,
    anchor innermost."""
    n, c, s1, s2 = level_map.shape
    a = c // k
    if a * k != c:
        raise ShapeError(f"head map channels {c} not divisible by {k}")
    return _node(level_map.data.reshape(n, a, k, s1, s2).transpose(0, 3, 4, 1, 2)
                 .reshape(n, -1, k), (level_map,),
                 lambda g: g.reshape(n, s1, s2, a, k).transpose(0, 3, 4, 1, 2)
                 .reshape(n, c, s1, s2))


def flatten_level_maps(maps, per_anchor: int) -> Tensor:
    """Stack per-level (N, A*K, S, S) maps into one (N, total_anchors, K) tensor.

    Anchor order matches generate_anchors: level by level, cells row-major,
    anchor index within the cell innermost.
    """
    return concat([_anchor_rows(as_tensor(m), per_anchor) for m in maps])


def seg_head_forward(det: DetectorParams, finest_feature) -> Tensor:
    """stride 4 -> 2 -> 1 via two transposed convs, then transition + classifier."""
    p = det.params
    x = as_tensor(finest_feature)
    if x.shape[2] * 4 != det.backbone.image_size:
        raise ShapeError(f"segmentation head expects a stride-4 feature, got extent "
                         f"{x.shape[2]} for image size {det.backbone.image_size}")
    up1 = relu(named_conv(p, "seg.up1", x, transposed=True))
    up2 = relu(named_conv(p, "seg.up2", up1, transposed=True))
    trans = relu(named_conv(p, "seg.transition", up2))
    return named_conv(p, "seg.cls", trans)


def forward(det: DetectorParams, images, with_seg=None):
    """Full forward pass over (N, 3, H, W) images: (FeaturePyramid, HeadOutputs).

    Arrays are cast to the parameters' dtype, and uint8 pixels scaled by 1/255: the one
    place pixels become numbers. FeaturePyramid is the list of (level name, stride, feature
    Tensor), finest first. with_seg: run the seg head (default: seg_mode is not "off").
    """
    dtype = next(iter(det.params.values())).dtype
    x = images if isinstance(images, Tensor) else Tensor(
        images.astype(dtype, copy=False) / dtype.type(255 if images.dtype == np.uint8 else 1))
    size = det.backbone.image_size
    if x.data.ndim != 4 or x.shape[1:] != (3, size, size):
        raise ShapeError(f"images must be a batch (N, 3, {size}, {size}), got {x.shape}")
    p = det.params
    stages = []
    for s in range(len(det.backbone.stage_channels)):
        for c in range(CONVS_PER_STAGE):
            x = relu(named_conv(p, f"backbone.s{s}.c{c}", x, stride=2 if c == 0 else 1))
        stages.append(x)

    n_stages = len(stages)
    by_stride = {}
    if det.toggles.extra_level:
        top = stages[-1]
        by_stride[2 ** n_stages] = top
        for s in range(n_stages - 2, 0, -1):
            top = fpn_merge(p, f"lateral.s{s}", top, stages[s])
            by_stride[2 ** (s + 1)] = top
    else:
        for s in range(2, n_stages):
            by_stride[2 ** (s + 1)] = stages[s]

    pyramid, loc_maps, conf_maps = [], [], []
    for lv in det.levels:
        feat = by_stride[lv.stride]
        pyramid.append((lv.name, lv.stride, feat))
        if lv.use_mrf:
            feat = mrf_forward(p, f"mrf.{lv.name}", det.mrf_specs[lv.name], feat)
        loc_maps.append(named_conv(p, f"head.{lv.name}.loc", feat))
        conf_maps.append(named_conv(p, f"head.{lv.name}.conf", feat))
    loc = flatten_level_maps(loc_maps, 4)
    conf = flatten_level_maps(conf_maps, det.num_classes + 1)

    seg_logits = None
    run_seg = det.toggles.seg_mode != "off" if with_seg is None else with_seg
    if run_seg:
        if not det.toggles.extra_level:
            raise ShapeError("segmentation head requires the extra level")
        seg_logits = seg_head_forward(det, pyramid[0][2])

    return pyramid, HeadOutputs(loc=loc, conf=conf, anchors=det.anchors,
                                seg_logits=seg_logits)


def describe(det: DetectorParams) -> str:
    """Human-readable architecture summary for the CLI."""
    lines = [f"input: 3 x {det.backbone.image_size} x {det.backbone.image_size}",
             f"backbone stages: {det.backbone.stage_channels} "
             f"({CONVS_PER_STAGE} convs each, stride 2 per stage)",
             f"toggles: mrf={det.toggles.mrf} extra_level={det.toggles.extra_level} "
             f"seg_mode={det.toggles.seg_mode}",
             "level      stride  extent  channels  mrf  A  loc_ch  conf_ch"]
    for lv in det.levels:
        lines.append(f"{lv.name:<9}  {lv.stride:>6}  {lv.extent:>6}  {lv.channels:>8}  "
                     f"{'yes' if lv.use_mrf else 'no ':<3}  {lv.anchors_per_loc}  "
                     f"{lv.anchors_per_loc * 4:>6}  "
                     f"{lv.anchors_per_loc * (det.num_classes + 1):>7}")
    lines.append(f"anchors total: {det.num_anchors}")
    if det.toggles.extra_level:
        lines.append("segmentation head: 2x transposed conv (stride 2) + 3x3 transition "
                     "+ ReLU + 1x1 -> 2 logits at full image resolution")
    n_params = sum(t.data.size for _, t in det.named_params())
    lines.append(f"parameters: {n_params}")
    return "\n".join(lines)
