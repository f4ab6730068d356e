"""The benchmark's warm-up runs against this tree's package: it prepares
samples, runs forward, loss and backward on each as a batch of one, and
detects on one image. Every benchmark workload fails if it breaks."""

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402
from mrfdet.dataset import DatasetSpec, synth_dataset  # noqa: E402


def test_warm_up_runs(tmp_path):
    synth_dataset(DatasetSpec(num_images=4, seed=0), tmp_path)
    harness.warm_up(SimpleNamespace(train_dir=tmp_path))
