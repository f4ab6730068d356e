"""Make the trained weights that the eval_sparse workload evaluates.

    python3 perfbench/make_weights.py

Trains the default 30-epoch config on the seed-0 training set (200
images), prints the mAP@0.5 on the seed-1 test set (50 images), and writes
the parameters in the benchmark's own format, independent of the
program's checkpoint format:

- weights/trained.f32: every parameter, in network order, as little-endian
  float32, concatenated;
- weights/trained.json: the parameter names and shapes, the sha256 of the
  .f32 file, and how the weights were made.

Takes about 2.5 minutes on one core. Exits nonzero if the mAP is below 0.5.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import bootstrap

MIN_MAP = 0.5


def main():
    bootstrap.prepare()
    import numpy as np

    import harness
    from mrfdet import dataset, inference, trainer

    work = bootstrap.ROOT / ".perfbench_work" / "make_weights"
    work.mkdir(parents=True, exist_ok=True)
    train_dir, test_dir = work / "train", work / "test"
    dataset.synth_dataset(dataset.DatasetSpec(num_images=200, seed=0), str(train_dir))
    dataset.synth_dataset(dataset.DatasetSpec(num_images=50, seed=1), str(test_dir))
    config = trainer.TrainConfig()
    t0 = time.perf_counter()
    result = trainer.train(config, str(train_dir))
    train_s = time.perf_counter() - t0
    report = inference.evaluate_detector(result.detector, str(test_dir))
    print(report.format_table())
    print(f"trained {result.steps} steps in {train_s:.1f} s; mAP@0.5 = {report.map:.4f}")
    if report.map < MIN_MAP:
        print(f"error: mAP {report.map:.4f} below {MIN_MAP}; weights not written",
              file=sys.stderr)
        return 1

    params = result.detector.named_params()
    raw = b"".join(np.ascontiguousarray(t.data, dtype="<f4").tobytes() for _, t in params)
    manifest = {
        "format": "little-endian float32 parameters, concatenated in 'params' order",
        "data": "trained.f32",
        "sha256": hashlib.sha256(raw).hexdigest(),
        "params": [[name, list(t.data.shape)] for name, t in params],
        "made_by": "python3 perfbench/make_weights.py",
        "train": {"config": "TrainConfig() defaults", "epochs": config.epochs,
                  "steps": result.steps, "dataset_seed": 0, "num_images": 200,
                  "dataset_sha256": harness.fingerprint_dataset(train_dir)},
        "test": {"dataset_seed": 1, "num_images": 50, "map_at_0.5": round(report.map, 4),
                 "tp": report.tp, "fp": report.fp, "missed": report.missed,
                 "dataset_sha256": harness.fingerprint_dataset(test_dir)},
    }
    out = harness.WEIGHTS_MANIFEST
    (out.parent / manifest["data"]).write_bytes(raw)
    out.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    print(f"weights written to {out.parent}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
