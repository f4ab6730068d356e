"""Spans around the program's public functions, for the traced run.

The benchmark wraps each probed function in every mrfdet module namespace
that holds it (a function imported by name lives in several), records one
span per call (name, start, end, parent span, request) in memory, and turns
the spans into per-layer metrics when the run ends. A request is one
top-level span: one CLI command or the traced set-up. A probed function
that the program no longer has is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("tensor_core", "mrf_block", "detector_net", "losses", "sws_masks", "anchors",
          "trainer", "inference", "eval_metrics", "dataset")
POINTWISE = ("relu", "add", "concat_channels", "upsample_nearest_2x")
PHASES = ("train", "eval", "coco_eval")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []         # [name, start, end, parent index, request index]
        self.counts = defaultdict(int)
        self.sums = defaultdict(float)
        self.absent = set()
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        request = self.spans[self._stack[0]][4] if self._stack else idx
        self.spans.append([name, time.perf_counter(), None, parent, request])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def write(self, path, header):
        """Spans as JSON lines after one header line; times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({"run_id": self.run_id, **header}) + "\n")
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                f.write(json.dumps([i, name, round(start - t0, 7), round(end - t0, 7),
                                    parent, request]) + "\n")


# ---------------------------------------------------------------------------
# Probes.
# ---------------------------------------------------------------------------

def _conv_gflop(tracer, args, kwargs, result):
    # 2 * C_in * k^2 multiply-adds per output element; batch-agnostic.
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    w = getattr(weights, "data", weights)
    tracer.sums["tensor_core.conv2d.gflop"] += 2.0 * (w.size / w.shape[0]) * result.data.size / 1e9


def _nms_boxes(tracer, args, kwargs, result):
    boxes = args[0] if args else kwargs["boxes"]
    tracer.sums["anchors.nms_array.boxes_in"] += len(boxes)
    tracer.sums["anchors.nms_array.boxes_kept"] += len(result)


def _detections(tracer, args, kwargs, result):
    tracer.sums["inference.detections"] += len(result)


@dataclass(frozen=True)
class Probe:
    key: str                # span name, "<layer>.<name>"
    module: str             # mrfdet module that defines the function
    attr: str               # function name, or "Class.method"
    count_only: bool = False
    extra: object = None    # fn(tracer, args, kwargs, result) recording counters
    namespaces: tuple = None  # restrict patching to these modules (default: all)


PROBES = (
    Probe("tensor_core.conv2d", "tensor_core", "conv2d", extra=_conv_gflop),
    Probe("tensor_core.transposed_conv2d", "tensor_core", "transposed_conv2d"),
    *(Probe(f"tensor_core.{name}", "tensor_core", name) for name in POINTWISE),
    Probe("tensor_core.backward", "tensor_core", "Tensor.backward"),
    Probe("mrf_block.mrf_forward", "mrf_block", "mrf_forward"),
    Probe("detector_net.forward", "detector_net", "forward"),
    Probe("detector_net.build_network", "detector_net", "build_network"),
    Probe("losses.total_loss", "losses", "total_loss"),
    Probe("sws_masks.rasterize_sws_mask", "sws_masks", "rasterize_sws_mask"),
    Probe("sws_masks.seg_loss", "sws_masks", "seg_loss"),
    Probe("anchors.match_anchors", "anchors", "match_anchors"),
    Probe("anchors.decode_array", "anchors", "decode_array"),
    Probe("anchors.nms_array", "anchors", "nms_array", extra=_nms_boxes),
    Probe("anchors.iou_matrix", "anchors", "iou_matrix", count_only=True),
    Probe("trainer.prepare_sample", "trainer", "prepare_sample"),
    Probe("trainer.sgd_step", "trainer", "SGD.step"),
    Probe("trainer.save_checkpoint", "trainer", "save_checkpoint"),
    Probe("trainer.load_checkpoint", "trainer", "load_checkpoint"),
    Probe("inference.detect_image", "inference", "detect_image", extra=_detections),
    Probe("eval_metrics.evaluate_detections", "eval_metrics", "evaluate_detections"),
    Probe("eval_metrics.greedy_match", "eval_metrics", "greedy_match"),
    # The pairwise Box IoU that eval matching calls; dataset synthesis calls
    # the same function, so only the eval_metrics namespace is counted.
    Probe("eval_metrics.pair_iou", "eval_metrics", "iou", count_only=True,
          namespaces=("mrfdet.eval_metrics",)),
    Probe("dataset.synth_dataset", "dataset", "synth_dataset"),
    Probe("dataset.load_dataset", "dataset", "load_dataset"),
)


def _wrap(fn, probe, tracer):
    if probe.count_only:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[probe.key] += 1
            return fn(*args, **kwargs)
        return counted

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.begin(probe.key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if probe.extra is not None and probe.key not in tracer.absent:
            try:
                probe.extra(tracer, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # The signature or result changed shape; its counters are absent.
                tracer.absent.add(probe.key)
        return result
    return traced


def _program_modules(probe):
    if probe.namespaces is not None:
        return [sys.modules[m] for m in probe.namespaces if m in sys.modules]
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mrfdet" or name.startswith("mrfdet."))]


@contextlib.contextmanager
def installed(tracer):
    """Patch every probe in; restore the originals on exit."""
    undo = []
    try:
        for probe in PROBES:
            try:
                owner = importlib.import_module(f"mrfdet.{probe.module}")
            except ImportError:
                tracer.absent.add(probe.key)
                continue
            cls_name, _, name = probe.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(name) if isinstance(cls, type) else None
                if original is None:
                    tracer.absent.add(probe.key)
                    continue
                setattr(cls, name, _wrap(original, probe, tracer))
                undo.append((cls, name, original))
                continue
            original = getattr(owner, name, None)
            if original is None:
                tracer.absent.add(probe.key)
                continue
            wrapper = _wrap(original, probe, tracer)
            for mod in _program_modules(probe):
                if vars(mod).get(name) is original:
                    setattr(mod, name, wrapper)
                    undo.append((mod, name, original))
        yield tracer
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

def _phase_of(root_name):
    return root_name.split(".", 1)[1] if root_name.startswith("cli.") else "setup"


def per_layer_metrics(tracer, untraced, traced):
    """Metric name -> (value, unit) from the spans of the traced rounds.

    `untraced` and `traced` are lists of rounds (lists of CommandResults)
    of the same commands run without and with the probes; the difference of
    their median round times is the tracing overhead.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    total_ms = defaultdict(float)
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    phase_ms = defaultdict(float)       # (phase, span name) -> inclusive ms
    phase_self_ms = defaultdict(float)
    for i, (name, start, end, parent, request) in enumerate(spans):
        dur = end - start
        phase = _phase_of(spans[request][0])
        calls[name] += 1
        total_ms[name] += dur * 1e3
        self_ms[name] += (dur - child_s[i]) * 1e3
        phase_ms[(phase, name)] += dur * 1e3
        phase_self_ms[(phase, name)] += (dur - child_s[i]) * 1e3

    absent = tracer.absent
    m = {}

    def put(name, value, unit, needs=()):
        m[name] = (0.0 if any(k in absent for k in needs) else float(value), unit)

    def ratio(a, b):
        return a / b if b else 0.0

    conv = "tensor_core.conv2d"
    put(f"{conv}.calls", calls[conv], "count", [conv])
    put(f"{conv}.ms", total_ms[conv], "ms", [conv])
    gflop = tracer.sums[f"{conv}.gflop"]
    put(f"{conv}.gflop", gflop, "gflop", [conv])
    put(f"{conv}.gflops_per_s", ratio(gflop, total_ms[conv] / 1e3), "gflop/s", [conv])
    put("tensor_core.transposed_conv2d.ms", total_ms["tensor_core.transposed_conv2d"],
        "ms", ["tensor_core.transposed_conv2d"])
    pointwise = [f"tensor_core.{n}" for n in POINTWISE]
    put("tensor_core.pointwise.ms", sum(total_ms[k] for k in pointwise), "ms", pointwise)
    for key in ("tensor_core.backward", "mrf_block.mrf_forward", "anchors.nms_array",
                "eval_metrics.evaluate_detections"):
        put(f"{key}.calls", calls[key], "count", [key])
        put(f"{key}.ms", total_ms[key], "ms", [key])
    fwd = "detector_net.forward"
    put(f"{fwd}.calls", calls[fwd], "count", [fwd])
    put(f"{fwd}.ms_per_call", ratio(total_ms[fwd], calls[fwd]), "ms", [fwd])
    put(f"{fwd}.self_ms", self_ms[fwd], "ms", [fwd])
    for key in ("detector_net.build_network", "losses.total_loss",
                "sws_masks.rasterize_sws_mask", "sws_masks.seg_loss",
                "anchors.match_anchors", "anchors.decode_array", "trainer.prepare_sample",
                "trainer.sgd_step", "trainer.save_checkpoint", "trainer.load_checkpoint",
                "dataset.synth_dataset", "dataset.load_dataset"):
        put(f"{key}.ms", total_ms[key], "ms", [key])
    nms = "anchors.nms_array"
    boxes_in, kept = tracer.sums[f"{nms}.boxes_in"], tracer.sums[f"{nms}.boxes_kept"]
    put(f"{nms}.boxes_in", boxes_in, "count", [nms])
    put(f"{nms}.boxes_kept", kept, "count", [nms])
    put(f"{nms}.keep_ratio", ratio(kept, boxes_in), "ratio", [nms])
    for key in ("anchors.iou_matrix", "eval_metrics.pair_iou"):
        put(f"{key}.calls", tracer.counts[key], "count", [key])
    det = "inference.detect_image"
    put(f"{det}.ms_per_call", ratio(total_ms[det], calls[det]), "ms", [det])
    put("inference.detections_per_image", ratio(tracer.sums["inference.detections"],
                                                calls[det]), "count/image", [det])
    put("eval_metrics.greedy_match.calls", calls["eval_metrics.greedy_match"], "count",
        ["eval_metrics.greedy_match"])

    # Self time per layer; what no probe covers stays with the command span.
    for layer in LAYERS + ("cli",):
        put(f"{layer}.self_ms", sum(v for k, v in self_ms.items()
                                    if k.startswith(layer + ".")), "ms")

    # Shares of each command's traced wall time.
    for phase in PHASES:
        root = f"cli.{phase}"
        put(f"share.{phase}.attributed",
            ratio(phase_ms[(phase, root)] - phase_self_ms[(phase, root)],
                  phase_ms[(phase, root)]), "ratio")
    for phase, key in (("train", fwd), ("train", "tensor_core.backward"),
                       ("eval", fwd), ("eval", nms),
                       ("coco_eval", "eval_metrics.evaluate_detections")):
        short = key.rsplit(".", 1)[1]
        put(f"share.{phase}.{short}", ratio(phase_ms[(phase, key)],
                                             phase_ms[(phase, f"cli.{phase}")]),
            "ratio", [key])

    # Tracing overhead: the same rounds with and without the probes.
    def round_s(rounds, kind=None):
        times = [sum(r.wall_s for r in rnd if kind in (None, r.kind)) for rnd in rounds]
        return statistics.median(times) if times else 0.0

    for phase in PHASES:
        put(f"phase.{phase}.untraced_s", round_s(untraced, phase), "s")
        put(f"phase.{phase}.traced_s", round_s(traced, phase), "s")
    base = round_s(untraced)
    overhead = round_s(traced) - base
    put("trace.overhead_s", overhead, "s")
    put("trace.overhead_share", ratio(overhead, base), "ratio")
    put("trace.spans", len(spans), "count")
    return m
