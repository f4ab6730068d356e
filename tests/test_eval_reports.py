"""The bytes of the `eval` and `eval --coco-style` reports.

Two networks, the untrained seed-0 default network and the benchmark's
trained weights (perfbench/weights), are evaluated on four synthetic test
sets. Their 16 reports are pinned by sha256; in the order (untrained,
trained) x (10_1, 50_1, 50_7, 10_9) x (eval, coco) the reports concatenated
hash to 40fc4a1d92c33e34f3c52efca8e549f25f00f57c5dd5eaf96b1fd8847e1c3486.
Their bits hold only for the numpy and BLAS they were pinned with.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from mrfdet.cli import main
from mrfdet.dataset import DatasetSpec, synth_dataset
from mrfdet.trainer import TrainConfig, save_checkpoint
from reference_machine import skip_unless_reference_machine

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import harness  # noqa: E402

# (number of images, dataset seed) of each test set.
TEST_SETS = {"10_1": (10, 1), "50_1": (50, 1), "50_7": (50, 7), "10_9": (10, 9)}
UNTRAINED_COCO = "66233e68e88ec9724e1f90f8dfe331f78671cb34275109bc18240543722ff410"
REPORT_SHA256 = {
    ("untrained", "10_1", "eval"):
        "ccf019ccffc984315dd8db6427e5b9ee286d6ef3feb68494e989292fb9bbb64f",
    ("untrained", "50_1", "eval"):
        "b64df98e72fa5326d5b64c4d603f0e9338fcfe62b3d2c921cef535d3fe7523f7",
    ("untrained", "50_7", "eval"):
        "bd100c3a1e7469ab244dd155402a79f326866be857846e3365443d23c9c7fd18",
    ("untrained", "10_9", "eval"):
        "ffc4701e8545b147587f33ffe97174c852c20bb9d59069e57afe1585f9f849c5",
    # The untrained network finds nothing, so its four COCO reports are all zeros.
    ("untrained", "10_1", "coco"): UNTRAINED_COCO,
    ("untrained", "50_1", "coco"): UNTRAINED_COCO,
    ("untrained", "50_7", "coco"): UNTRAINED_COCO,
    ("untrained", "10_9", "coco"): UNTRAINED_COCO,
    ("trained", "10_1", "eval"): "5df2016cfe657d6d8317c48119924b68cb870d9ce29447cd6b7c0e7f0da96105",
    ("trained", "50_1", "eval"): "14bda2c3116a47fb51e178e437fe7ed62d80e13083da5c5c559e0a2a064d38c7",
    ("trained", "50_7", "eval"): "74f2f0445b880f3fa6f40456f8e6945eaadf342db2b0682ff66cb2f86c153810",
    ("trained", "10_9", "eval"): "292dcc1ce5ff6cab65dc17149a5ecc964adbc2d60c9ff74e89538a51e5ef0042",
    ("trained", "10_1", "coco"): "7960d53f1b5458789e4f6bd8758b6230c90500dd35050257f16813f93e6a21ad",
    ("trained", "50_1", "coco"): "525b8e6ac3caefa173c43d7fab1f42d44b0f4e88361c0f1999a22260ade4bc30",
    ("trained", "50_7", "coco"): "afd0453d91f9689374e1e2abcdae7c66395f3684291592488c3784f4e7e9ddc7",
    ("trained", "10_9", "coco"): "723113a8da598ac8c9efd9b088983a93df90fb97b6b71aa8114fb7ba1e425631",
}


@pytest.fixture(scope="module")
def eval_inputs(tmp_path_factory):
    """The two checkpoints and four test sets, by name."""
    root = tmp_path_factory.mktemp("eval_reports")
    config = TrainConfig()
    paths = {}
    for model in ("untrained", "trained"):
        det = harness.build_seed_network(config)
        if model == "trained":
            harness.load_trained_weights(det)
        paths[model] = root / f"{model}.ckpt"
        save_checkpoint(str(paths[model]), det, config)
    for name, (n, seed) in TEST_SETS.items():
        paths[name] = root / name
        synth_dataset(DatasetSpec(num_images=n, seed=seed), paths[name])
    return paths


def eval_stdout(ckpt, data, coco):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]
                    + ["--coco-style"] * coco) == 0
    return out.getvalue()


@pytest.mark.parametrize("model,test_set,report", REPORT_SHA256)
def test_report_bytes_are_pinned(eval_inputs, model, test_set, report):
    skip_unless_reference_machine("eval report bytes")
    text = eval_stdout(eval_inputs[model], eval_inputs[test_set], report == "coco")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        REPORT_SHA256[model, test_set, report], text
