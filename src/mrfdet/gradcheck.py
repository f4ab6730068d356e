"""Central-finite-difference gradient suite over every primitive, the
composed multi-receptive-field block, the loss terms on micro-scenes, and
a tiny end-to-end network. Used by the CLI `gradcheck` command and by the
acceptance tests."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .detector_net import BackboneSpec, Toggles, build_network, forward
from .losses import LossConfig, conf_loss, loc_loss, total_loss
from .mrf_block import default_mrf_spec, init_mrf_params, mrf_forward
from .sws_masks import SegLabel, seg_loss
from .tensor_core import (ConvSpec, Tensor, conv2d, finite_diff_check, inner,
                          relu, transposed_conv2d, upsample_nearest_2x)

PRIMITIVE_TOL = 1e-5
COMPOSED_TOL = 1e-4


def _coeffs(rng, shape):
    return rng.standard_normal(shape)


def conv_checks(rng):
    checks = []
    for k in (1, 3, 5):
        for d in (1, 2, 3, 5):
            for s in (1, 2):
                e = k + (k - 1) * (d - 1)
                size = e + 3
                spec = ConvSpec(2, 3, k, stride=s, padding=0, dilation=d)
                x = rng.standard_normal((1, 2, size, size))
                w = rng.standard_normal((3, 2, k, k)) * 0.5
                b = rng.standard_normal(3) * 0.1
                oh = spec.out_extent(size)
                c = _coeffs(rng, (1, 3, oh, oh))
                checks.append((
                    f"conv2d k={k} d={d} s={s} (input)",
                    finite_diff_check(lambda t: inner(conv2d(t, w, b, spec), c), x),
                ))
                checks.append((
                    f"conv2d k={k} d={d} s={s} (weights)",
                    finite_diff_check(lambda t: inner(conv2d(x, t, b, spec), c), w),
                ))
    # Two-image batches: the weight gradient sums over the images.
    for k, d, s, pad in ((3, 2, 2, 1), (3, 3, 1, 3)):
        spec = ConvSpec(2, 3, k, stride=s, padding=pad, dilation=d)
        x = rng.standard_normal((2, 2, 7, 6))
        w = rng.standard_normal((3, 2, k, k)) * 0.5
        b = rng.standard_normal(3) * 0.1
        c = _coeffs(rng, (2, 3, spec.out_extent(7), spec.out_extent(6)))
        name = f"conv2d k={k} d={d} s={s} N=2"
        checks += [
            (f"{name} (input)", finite_diff_check(lambda t: inner(conv2d(t, w, b, spec), c), x)),
            (f"{name} (weights)",
             finite_diff_check(lambda t: inner(conv2d(x, t, b, spec), c), w)),
            (f"{name} (bias)", finite_diff_check(lambda t: inner(conv2d(x, w, t, spec), c), b))]
    return checks


def transposed_checks(rng, n):
    spec = ConvSpec(3, 2, 2, stride=2)
    x = rng.standard_normal((n, 3, 4, 4))
    w = rng.standard_normal((3, 2, 2, 2)) * 0.5
    b = rng.standard_normal(2) * 0.1
    c = _coeffs(rng, (n, 2, 8, 8))
    batch = "" if n == 1 else f" N={n}"
    return [(f"transposed_conv2d{batch} (input)",
             finite_diff_check(lambda t: inner(transposed_conv2d(t, w, b, spec), c), x)),
            (f"transposed_conv2d{batch} (weights)",
             finite_diff_check(lambda t: inner(transposed_conv2d(x, t, b, spec), c), w))]


def primitive_checks(rng):
    checks = conv_checks(rng) + transposed_checks(rng, 1) + transposed_checks(rng, 2)

    # ReLU away from the kink at 0.
    xr = rng.standard_normal((1, 2, 5, 5))
    xr += np.sign(xr) * 0.2
    cr = _coeffs(rng, xr.shape)
    checks.append(("relu (off-kink)",
                   finite_diff_check(lambda t: inner(relu(t), cr), xr)))

    xu = rng.standard_normal((1, 2, 3, 3))
    cu = _coeffs(rng, (1, 2, 6, 6))
    checks.append(("upsample_nearest_2x",
                   finite_diff_check(lambda t: inner(upsample_nearest_2x(t), cu), xu)))
    return checks


def micro_scene(rng, n_anchors=10, n_classes=2):
    """A tiny one-image detection scene: fixed anchors, 2 positives, all
    negatives mined."""
    anchors = np.stack([
        np.linspace(2, 30, n_anchors),
        np.linspace(2, 30, n_anchors),
        np.linspace(10, 38, n_anchors),
        np.linspace(10, 38, n_anchors),
    ], axis=1)
    gts = np.column_stack([anchors[[1, 7]], [1, n_classes]])
    assign = np.full(n_anchors, -1, dtype=np.int64)
    assign[1], assign[7] = 0, 1
    return anchors, gts, assign[None]


def loss_checks(rng):
    checks = []
    anchors, gts, assignment = micro_scene(rng)
    n_classes = 2
    conf = rng.standard_normal((1, 10, n_classes + 1))
    loc = rng.standard_normal((1, 10, 4)) * 0.3
    mined = assignment < 0  # ratio 3 with N=2 covers all 8 negatives

    checks.append(("conf_loss (micro-scene)", finite_diff_check(
        lambda t: conf_loss(t, assignment, gts[:, 4], mined), conf)))
    checks.append(("loc_loss (micro-scene)", finite_diff_check(
        lambda t: loc_loss(t, assignment, gts[:, :4], anchors), loc)))

    mask = np.array(rng.integers(0, 3, (1, 4, 4)), dtype=np.uint8)
    mask[0, 0, 0] = int(SegLabel.FOREGROUND)  # keep at least one valid pixel
    logits = rng.standard_normal((1, 2, 4, 4))
    checks.append(("seg_loss", finite_diff_check(
        lambda t: seg_loss(t, mask)[0], logits)))

    seg = rng.standard_normal((1, 2, 4, 4))
    cfg = LossConfig(alpha=0.7, beta=1.3, neg_pos_ratio=4.0)

    point = {"conf": conf, "loc": loc, "seg_logits": seg}

    def total_wrt(field):
        def total(t):
            head = SimpleNamespace(anchors=anchors, **{k: t if k == field else Tensor(v)
                                                       for k, v in point.items()})
            return total_loss(head, assignment, gts, mask, cfg)[1]
        return total

    for path, field in (("conf", "conf"), ("loc", "loc"), ("seg", "seg_logits")):
        checks.append((f"total_loss ({path} path)",
                       finite_diff_check(total_wrt(field), point[field])))
    return checks


def mrf_checks(rng):
    spec = default_mrf_spec(8, 8)
    params = {}
    init_mrf_params(params, "mrf", spec, np.random.default_rng(7))
    x = rng.standard_normal((1, 8, 9, 9)) * 0.5
    c = _coeffs(rng, (1, 8, 9, 9))
    err = finite_diff_check(lambda t: inner(mrf_forward(params, "mrf", spec, t), c), x)
    return [("mrf_block (composed)", err, COMPOSED_TOL)]


def tiny_net():
    det = build_network(BackboneSpec(16, (8, 8, 8)), num_classes=2,
                        toggles=Toggles(mrf=False, extra_level=True, seg_mode="sws"),
                        seed=11)
    return det


def net_checks(rng):
    """The tiny net on a batch of one image and on a batch of two."""
    det = tiny_net()
    wname = "backbone.s0.c0.w"
    checks = []
    for shape, label in (((1, 3, 16, 16), ""), ((2, 3, 16, 16), " N=2")):
        image = rng.standard_normal(shape) * 0.5 + 0.5
        _, probe = forward(det, image, with_seg=True)
        coeffs = [_coeffs(rng, t.shape) for t in (probe.conf, probe.loc, probe.seg_logits)]

        def scalarize(img_tensor):
            _, out = forward(det, img_tensor, with_seg=True)
            return (inner(out.conf, coeffs[0]) + inner(out.loc, coeffs[1])
                    + inner(out.seg_logits, coeffs[2]))

        def check_weight(t):
            saved = det.params[wname]
            det.params[wname] = t
            try:
                return scalarize(Tensor(image))
            finally:
                det.params[wname] = saved

        checks += [(f"tiny net end-to-end{label} (image)",
                    finite_diff_check(scalarize, image), COMPOSED_TOL),
                   (f"tiny net end-to-end{label} (first conv weights)",
                    finite_diff_check(check_weight, det.params[wname].data.copy()),
                    COMPOSED_TOL)]
    return checks


def run_suite(modules=("tensor", "mrf", "net", "loss")):
    """Returns a list of (name, max relative error, tolerance)."""
    rng = np.random.default_rng(3)
    results = []
    if "tensor" in modules:
        results += [(n, e, PRIMITIVE_TOL) for n, e in primitive_checks(rng)]
    if "loss" in modules:
        results += [(n, e, PRIMITIVE_TOL) for n, e in loss_checks(rng)]
    if "mrf" in modules:
        results += mrf_checks(rng)
    if "net" in modules:
        results += net_checks(rng)
    return results
