"""Minimal-length runs of every workload through run.py's command line.

The workloads are shrunk (fewer images, one round) so the whole file runs
in well under a minute; the checks and metrics are the full ones.
"""

import dataclasses
import json

import pytest

import bootstrap
import harness
import run

BENCHMARK = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
SMALL = {"train": {"train_images": 40, "test_images": 10},
         "eval_sparse": {"train_images": 8, "test_images": 10},
         "eval_dense": {"train_images": 8, "test_images": 10}}


@pytest.fixture
def small_workloads(monkeypatch, tmp_path):
    shrunk = {name: dataclasses.replace(w, **SMALL[name]) for name, w in harness.WORKLOADS.items()}
    monkeypatch.setattr(harness, "WORKLOADS", shrunk)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "TRACE_PAIRS", 1)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    return shrunk


def run_once(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("workload", list(SMALL))
def test_smoke_run_is_correct_and_reports_every_end_to_end_metric(
        small_workloads, capsys, workload):
    result, prov = run_once(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert prov["seeds"]["train_set"] == 6 and prov["seeds"]["test_set"] == 7
    assert prov["inputs"]["test_objects"] > 0


def test_traced_run_reports_every_per_layer_metric(small_workloads, capsys):
    result, _ = run_once(capsys, "eval_dense", trace=1)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (6, 0)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["inference.detections_per_image"] == 200
    assert m["eval_metrics.evaluate_detections.calls"] == 13
    assert m["anchors.nms_array.boxes_kept"] <= m["anchors.nms_array.boxes_in"]


def test_missing_program_exits_nonzero_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bootstrap, "SRC", tmp_path / "src")
    code = run.main(["--workload", "train", "--seed", "0", "--seconds", "1", "--trace", "0"])
    captured = capsys.readouterr()
    assert code != 0
    assert captured.out == ""
    assert "no mrfdet package" in captured.err
