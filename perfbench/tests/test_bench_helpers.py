"""The benchmark's own helpers: statistics, output parsing, ground-truth
counting, the trained-weights loader and the tracing probes."""

import json
import math
import shutil

import numpy as np
import pytest

import harness
import tracing


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def test_median_odd_and_even():
    assert harness.median([3.0, 1.0, 2.0]) == 2.0
    assert harness.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert harness.median([7.0]) == 7.0


@pytest.mark.parametrize("q", [0.0, 10.0, 50.0, 90.0, 99.0, 100.0])
def test_percentile_matches_linear_interpolation_reference(q):
    rng = np.random.default_rng(0)
    for n in (1, 2, 7, 100, 101):
        xs = list(rng.normal(size=n))
        assert harness.percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)


def test_percentile_tail_of_known_sequence():
    xs = list(range(1, 102))                 # 1..101: rank 90 holds 91
    assert harness.percentile(xs, 90.0) == 91.0
    assert sum(x > harness.percentile(xs, 90.0) for x in xs) == 10


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        harness.percentile([], 50.0)
    with pytest.raises(ValueError):
        harness.percentile([1.0], 101.0)


# ---------------------------------------------------------------------------
# Parsing the CLI's output.
# ---------------------------------------------------------------------------

STEP_LINE = ("step=12 l_conf=3.250000 l_loc=0.500000 l_seg=0.250000 total=1.125000 "
             "n_pos=40 lr=0.005 epoch=1")


def test_parse_step_record():
    rec = harness.parse_step_record(STEP_LINE)
    assert rec == {"step": 12, "l_conf": 3.25, "l_loc": 0.5, "l_seg": 0.25,
                   "total": 1.125, "n_pos": 40, "lr": 0.005, "epoch": 1}
    assert harness.parse_step_record("trained 125 steps; checkpoint at x.ckpt") is None
    assert harness.parse_step_record("") is None


def test_parse_step_record_keeps_non_finite_losses():
    rec = harness.parse_step_record(STEP_LINE.replace("total=1.125000", "total=nan"))
    assert math.isnan(rec["total"])


def test_step_intervals_exclude_setup_and_other_lines():
    lines = [(0.0, "loading"), (1.0, STEP_LINE), (1.2, "noise"),
             (1.5, STEP_LINE), (2.5, STEP_LINE), (9.0, "trained 3 steps")]
    assert harness.step_intervals_ms(lines) == pytest.approx([500.0, 1000.0])


def test_timed_lines_joins_partial_writes():
    out = harness.TimedLines()
    out.write("step=0 a=1")
    out.write("\nsecond")
    out.write(" half\n")
    assert [line for _, line in out.lines] == ["step=0 a=1", "second half"]
    assert out.lines[0][0] <= out.lines[1][0]


VOC_OUTPUT = """class  AP
    1  0.7397
    2  0.7349
    3  0.6710
mAP    0.7152
AP_S=0.5883  AP_M=0.9262  AP_L=0.0000
TP=92 FP=743 missed=14"""

COCO_OUTPUT = """AP@0.5        0.7467
AP@0.75       0.3162
AP@[0.5:0.95] 0.3566
AP_S @0.5     0.6181
AP_M @0.5     0.9500
AP_L @0.5     0.0000"""


def test_parse_reports():
    assert harness.parse_voc_report(VOC_OUTPUT) == (0.7152, 92, 743, 14)
    assert harness.parse_coco_ap50(COCO_OUTPUT) == 0.7467
    with pytest.raises(ValueError):
        harness.parse_voc_report(COCO_OUTPUT)
    with pytest.raises(ValueError):
        harness.parse_coco_ap50(VOC_OUTPUT)


# ---------------------------------------------------------------------------
# Ground truth and inputs.
# ---------------------------------------------------------------------------

def test_count_ground_truth_counts_object_lines(tmp_path):
    (tmp_path / "annotations.txt").write_text(
        "images/0000.ppm 1 0 0 10 10\n\nimages/0000.ppm 2 5 5 20 20\n"
        "images/0001.ppm 3 1 1 9 9\n")
    assert harness.count_ground_truth(tmp_path) == 3


def test_gate_test_set_has_106_objects(tmp_path):
    from mrfdet import dataset
    _, test_seed = harness.dataset_seeds(0)
    dataset.synth_dataset(dataset.DatasetSpec(num_images=50, seed=test_seed), str(tmp_path))
    assert test_seed == 1
    assert harness.count_ground_truth(tmp_path) == 106


def test_dataset_seeds_are_disjoint():
    seen = set()
    for seed in range(20):
        pair = harness.dataset_seeds(seed)
        assert not seen & set(pair)
        seen |= set(pair)


def test_trained_weights_load_by_name_and_check_their_hash(tmp_path, monkeypatch):
    det = harness.build_seed_network(harness.trainer.TrainConfig())
    digest = harness.load_trained_weights(det)
    assert digest == harness.read_weights_manifest()["sha256"]
    assert all(np.all(np.isfinite(t.data)) for _, t in det.named_params())

    manifest = harness.read_weights_manifest()
    shutil.copy(harness.WEIGHTS_MANIFEST.parent / manifest["data"], tmp_path / manifest["data"])
    manifest["sha256"] = "0" * 64
    (tmp_path / "trained.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(harness, "WEIGHTS_MANIFEST", tmp_path / "trained.json")
    with pytest.raises(harness.SetupError, match="hash"):
        harness.load_trained_weights(det)


# ---------------------------------------------------------------------------
# Tracing.
# ---------------------------------------------------------------------------

def test_probes_patch_every_namespace_and_restore():
    from mrfdet import detector_net, eval_metrics, mrf_block, tensor_core
    originals = (tensor_core.conv2d, tensor_core.Tensor.backward, eval_metrics.iou)
    tracer = tracing.Tracer("test")
    with tracing.installed(tracer):
        assert detector_net.conv2d is mrf_block.conv2d is tensor_core.conv2d
        assert detector_net.conv2d is not originals[0]
        assert tensor_core.Tensor.backward is not originals[1]
        assert eval_metrics.iou is not originals[2]
    assert (tensor_core.conv2d, tensor_core.Tensor.backward, eval_metrics.iou) == originals
    assert detector_net.conv2d is originals[0] and mrf_block.conv2d is originals[0]


def test_missing_function_is_reported_absent(monkeypatch):
    probes = tracing.PROBES + (tracing.Probe("anchors.gone", "anchors", "gone"),
                               tracing.Probe("trainer.Gone.step", "trainer", "Gone.step"))
    monkeypatch.setattr(tracing, "PROBES", probes)
    tracer = tracing.Tracer("test")
    with tracing.installed(tracer):
        pass
    assert tracer.absent == {"anchors.gone", "trainer.Gone.step"}


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer("test")
    with tracer.span("cli.eval"):
        with tracer.span("detector_net.forward"):
            with tracer.span("tensor_core.conv2d"):
                pass
        with tracer.span("tensor_core.conv2d"):
            pass
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    requests = {s[4] for s in tracer.spans}
    assert names == ["cli.eval", "detector_net.forward", "tensor_core.conv2d",
                     "tensor_core.conv2d"]
    assert parents == [None, 0, 1, 0]
    assert requests == {0}
    m = tracing.per_layer_metrics(tracer, [], [])
    assert m["tensor_core.conv2d.calls"][0] == 2
    total = tracer.spans[0][2] - tracer.spans[0][1]
    layer_self = sum(m[f"{layer}.self_ms"][0] for layer in tracing.LAYERS + ("cli",))
    assert layer_self == pytest.approx(total * 1e3, rel=1e-9)
