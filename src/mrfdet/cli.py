"""Command-line harness: dataset synthesis, training, evaluation, the
ablation ladder, gradient checking, mask generation and reports.

Config files are line-based `key = value` text; `#` starts a comment.
Every command exits 0 on success and nonzero with a one-line diagnostic
on any rejection.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, is_dataclass, replace
from functools import partial

from .dataset import DatasetSpec, load_dataset, synth_dataset
from .detector_net import BackboneSpec, Toggles, build_network, describe
from .eval_metrics import evaluate_detections
from .gradcheck import run_suite
from .inference import collect_detections, evaluate_detector
from .mrf_block import MRFBlockSpec, default_mrf_spec, format_rf_report
from .sws_masks import AreaThresholds, mask_to_pgm_bytes, rasterize_sws_mask
from .trainer import TrainConfig, load_checkpoint, train


def parse_config_file(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _get(values, key, convert, default):
    """Convert and consume values[key]; keys left unread are unknown keys."""
    if key not in values:
        return default
    return convert(values.pop(key))


def read_config(path, build):
    """build(values) from a `key = value` file, or from defaults without one."""
    values = parse_config_file(path) if path else {}
    result = build(values)
    if values:
        raise ValueError(f"{path}: unknown key {next(iter(values))!r}")
    return result


def _bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _int_tuple(s):
    return tuple(int(v) for v in s.replace(",", " ").split())


def fields_from(cls, values: dict):
    """cls() with each field read from values by its name, converted by the type of
    its default; a field holding a dataclass reads its own fields from the same keys."""
    default = cls()
    kwargs = {}
    for f in fields(cls):
        d = getattr(default, f.name)
        if is_dataclass(d):
            kwargs[f.name] = fields_from(type(d), values)
        else:
            convert = {bool: _bool, tuple: _int_tuple}.get(type(d), type(d))
            kwargs[f.name] = _get(values, f.name, convert, d)
    return cls(**kwargs)


def mrf_spec_from(values: dict) -> MRFBlockSpec:
    in_c = _get(values, "in_channels", int, 256)
    out_c = _get(values, "out_channels", int, 256)
    if "branches" not in values:
        return default_mrf_spec(in_c, out_c)
    kds = []
    for item in values.pop("branches").split(","):
        try:
            k, d = (int(v) for v in item.split(":"))
        except ValueError:
            raise ValueError(f"branches item {item.strip()!r} is not of the form "
                             "kernel:dilation, e.g. 3:2") from None
        kds.append((k, d))
    return default_mrf_spec(in_c, out_c, tuple(kds))


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------

def cmd_synth(args):
    synth_dataset(read_config(args.spec, partial(fields_from, DatasetSpec)), args.out)
    print(f"dataset written to {args.out}")


def cmd_train(args):
    config = read_config(args.config, partial(fields_from, TrainConfig))
    result = train(config, args.data, log_fn=print, ckpt_path=args.out)
    print(f"trained {result.steps} steps; checkpoint at {args.out}")


def cmd_eval(args):
    det, _ = load_checkpoint(args.ckpt)
    report = evaluate_detections(
        *collect_detections(det, args.data, size_from=f"checkpoint {args.ckpt}"))
    print(report.format_coco() if args.coco_style else report.format_table())


ABLATION_LADDER = (
    ("baseline", Toggles(mrf=False, extra_level=False, seg_mode="off")),
    ("+MRF", Toggles(mrf=True, extra_level=False, seg_mode="off")),
    ("+MRF +extra level", Toggles(mrf=True, extra_level=True, seg_mode="off")),
    ("+MRF +extra level +AWS", Toggles(mrf=True, extra_level=True, seg_mode="aws")),
    ("+MRF +extra level +SWS", Toggles(mrf=True, extra_level=True, seg_mode="sws")),
)


def ablate(base_config: TrainConfig, train_dir, test_dir, log_fn=None):
    """Train and evaluate the five-row ablation ladder with shared budget/seed.

    Orderings are reported, not asserted; desk-scale runs are too small to
    guarantee the full-dataset progression.
    """
    rows = []
    for label, toggles in ABLATION_LADDER:
        config = replace(base_config, toggles=toggles)
        result = train(config, train_dir, log_fn=log_fn)
        report = evaluate_detector(result.detector, test_dir)
        rows.append((label, report.map, report.per_area_ap.get("S")))
    return rows


def format_ablation_table(rows) -> str:
    lines = [f"{'configuration':<26} {'mAP@0.5':>8} {'AP_S':>8}"]
    for label, m, ap_s in rows:
        lines.append(f"{label:<26} {m:>8.4f} "
                     f"{'n/a' if ap_s is None else f'{ap_s:>8.4f}'}")
    return "\n".join(lines)


def cmd_ablate(args):
    config = read_config(args.config, partial(fields_from, TrainConfig))
    test_dir = args.test_data or args.data
    rows = ablate(config, args.data, test_dir)
    print(format_ablation_table(rows))


def cmd_gradcheck(args):
    modules = ("tensor", "mrf", "net", "loss") if args.module == "all" else (args.module,)
    results = run_suite(modules)
    failed = 0
    for name, err, tol in results:
        ok = err < tol
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<42} max_rel_err={err:.3e} tol={tol:g}")
    if failed:
        raise SystemExit(f"{failed} gradient checks failed")
    print(f"all {len(results)} gradient checks passed")


def cmd_mask_gen(args):
    thresholds = AreaThresholds(args.t1, args.t2)
    samples = load_dataset(args.data)
    for rel, image, _ in samples:
        if image.shape[1] != image.shape[2]:
            raise ValueError(f"{os.path.join(args.data, rel)}: image is {image.shape[2]}x"
                             f"{image.shape[1]} pixels; masks need a square image")
    os.makedirs(args.out, exist_ok=True)
    for rel, image, gts in samples:
        mask = rasterize_sws_mask(gts, image.shape[1], thresholds)
        name = os.path.splitext(os.path.basename(rel))[0] + ".pgm"
        with open(os.path.join(args.out, name), "wb") as f:
            f.write(mask_to_pgm_bytes(mask))
    print(f"masks written to {args.out}")


def cmd_rf_report(args):
    print(format_rf_report(read_config(args.spec, mrf_spec_from)))


def cmd_describe(args):
    config = read_config(args.config, partial(fields_from, TrainConfig))
    det = build_network(BackboneSpec(config.image_size, config.stage_channels),
                        config.num_classes, config.toggles, seed=None)
    print(describe(det))


def build_parser():
    parser = argparse.ArgumentParser(prog="mrfdet",
                                     description="Desk-scale multi-receptive-field detector")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="dataset spec file (key = value)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a detector")
    p.add_argument("--config", help="train config file (key = value)")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--coco-style", action="store_true")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run the five-row ablation ladder")
    p.add_argument("--config", help="train config file")
    p.add_argument("--data", required=True, help="training dataset")
    p.add_argument("--test-data", help="held-out dataset (defaults to --data)")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.add_argument("--module", choices=["all", "tensor", "mrf", "net", "loss"],
                   default="all")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("mask-gen", help="write segmentation ground-truth masks as PGM")
    p.add_argument("--data", required=True)
    # Same area thresholds as training, so default masks are the ones it uses.
    p.add_argument("--t1", type=float, default=TrainConfig().t1)
    p.add_argument("--t2", type=float, default=TrainConfig().t2)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_mask_gen)

    p = sub.add_parser("rf-report", help="per-branch receptive-field table")
    p.add_argument("--spec", help="MRF spec file (key = value)")
    p.set_defaults(fn=cmd_rf_report)

    p = sub.add_parser("describe", help="summarize the network architecture")
    p.add_argument("--config", help="train config file")
    p.set_defaults(fn=cmd_describe)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except SystemExit:
        raise
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
