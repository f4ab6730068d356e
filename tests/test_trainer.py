import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import mrfdet
from mrfdet.cli import main
from mrfdet.dataset import DatasetSpec, load_dataset, synth_dataset
from mrfdet.detector_net import BackboneSpec, Toggles, build_network
from mrfdet.tensor_core import ShapeError, Tensor
from mrfdet.trainer import (SGD, TrainConfig, load_checkpoint, lr_at,
                            prepare_sample, save_checkpoint, train)

TINY_CFG = TrainConfig(epochs=3, batch_size=4, lr_drop_epochs=(2,),
                       warmup_epochs=1, stage_channels=(8, 8, 8, 8),
                       image_size=32, base_lr=1e-3, warmup_start_lr=1e-5)
TINY_DATA = DatasetSpec(image_size=32, num_images=6, large_side=(18, 24),
                        small_side=(8, 16), seed=5)


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("tinydata")
    synth_dataset(TINY_DATA, d)
    return d


@pytest.fixture(scope="module")
def tiny_result(tiny_dir):
    return train(TINY_CFG, tiny_dir)


class TestSchedule:
    def test_warmup_endpoints(self):
        cfg = TrainConfig(epochs=300, warmup_epochs=10, base_lr=1e-4,
                          warmup_start_lr=1e-6, lr_drop_epochs=(150, 250))
        assert lr_at(0, cfg) == pytest.approx(1e-6)
        # Linear ramp: epoch 5 sits halfway between start and base.
        assert lr_at(5, cfg) == pytest.approx((1e-6 + 1e-4) / 2)
        assert lr_at(10, cfg) == pytest.approx(1e-4)

    def test_step_drops(self):
        cfg = TrainConfig(epochs=300, warmup_epochs=10, base_lr=1e-4,
                          warmup_start_lr=1e-6, lr_drop_epochs=(150, 250))
        assert lr_at(149, cfg) == pytest.approx(1e-4)
        assert lr_at(150, cfg) == pytest.approx(1e-5)
        assert lr_at(249, cfg) == pytest.approx(1e-5)
        assert lr_at(260, cfg) == pytest.approx(1e-6)

    def test_out_of_range_epoch(self):
        with pytest.raises(ShapeError):
            lr_at(30, TrainConfig())
        with pytest.raises(ShapeError):
            lr_at(-1, TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ShapeError):
            TrainConfig(base_lr=0.0)
        with pytest.raises(ShapeError):
            TrainConfig(epochs=10, warmup_epochs=5, lr_drop_epochs=(4,))
        with pytest.raises(ShapeError):
            TrainConfig(epochs=10, lr_drop_epochs=(12,))

    def test_epochs_and_batch_size_positive(self):
        with pytest.raises(ShapeError, match="epochs must be >= 1, got 0"):
            TrainConfig(epochs=0, lr_drop_epochs=())
        with pytest.raises(ShapeError, match="batch_size must be >= 1, got 0"):
            TrainConfig(batch_size=0)
        TrainConfig(epochs=1, batch_size=1, lr_drop_epochs=())

    def test_aws_thresholds_override(self):
        sws = TrainConfig()
        aws = TrainConfig(toggles=Toggles(seg_mode="aws"))
        assert sws.thresholds.t1 == 64.0 and sws.thresholds.t2 == 1024.0
        assert aws.thresholds.t2 == np.inf


class TestSGD:
    def one_param(self, value, name="p.w"):
        t = Tensor(np.array([value], dtype=np.float64), requires_grad=True)
        return [(name, t)], t

    def test_plain_step(self):
        params, t = self.one_param(1.0)
        opt = SGD(params, momentum=0.0, weight_decay=0.0)
        t.grad = np.array([2.0])
        opt.step(0.1)
        np.testing.assert_allclose(t.data, [0.8])
        assert t.grad is None

    def test_momentum_accumulates(self):
        params, t = self.one_param(0.0)
        opt = SGD(params, momentum=0.9, weight_decay=0.0)
        t.grad = np.array([1.0])
        opt.step(1.0)          # v = 1, x = -1
        t.grad = np.array([1.0])
        opt.step(1.0)          # v = 1.9, x = -2.9
        np.testing.assert_allclose(t.data, [-2.9])

    def test_decay_applies_to_weights_only(self):
        params_w, tw = self.one_param(1.0, "layer.w")
        params_b, tb = self.one_param(1.0, "layer.b")
        for params, t in ((params_w, tw), (params_b, tb)):
            opt = SGD(params, momentum=0.0, weight_decay=0.5)
            t.grad = np.zeros(1)
            opt.step(0.1)
        np.testing.assert_allclose(tw.data, [1.0 - 0.1 * 0.5])
        np.testing.assert_allclose(tb.data, [1.0])

    def test_missing_grad_treated_as_zero(self):
        params, t = self.one_param(3.0)
        opt = SGD(params, momentum=0.9, weight_decay=0.0)
        opt.step(0.1)
        np.testing.assert_allclose(t.data, [3.0])


class TestTraining:
    def test_runs_and_logs(self, tiny_result):
        assert tiny_result.steps == 3 * 2  # 6 images / batch 4 -> 2 steps/epoch
        assert len(tiny_result.log) == tiny_result.steps
        assert all(np.isfinite(bd.total) for bd in tiny_result.log)

    def test_loss_decreases(self, tiny_dir):
        cfg = TrainConfig(epochs=8, batch_size=6, lr_drop_epochs=(7,),
                          warmup_epochs=1, stage_channels=(8, 8, 8, 8),
                          image_size=32, base_lr=2e-3, warmup_start_lr=1e-5)
        result = train(cfg, tiny_dir)
        assert result.log[-1].total < result.log[0].total

    def test_deterministic(self, tiny_dir, tiny_result):
        again = train(TINY_CFG, tiny_dir)
        for name, t in tiny_result.detector.named_params():
            assert np.array_equal(t.data, dict(again.detector.named_params())[name].data)
        assert [bd.total for bd in again.log] == [bd.total for bd in tiny_result.log]

    def test_log_fn_called(self, tiny_dir):
        lines = []
        cfg = TrainConfig(epochs=1, batch_size=6, lr_drop_epochs=(),
                          warmup_epochs=0, stage_channels=(8, 8, 8, 8),
                          image_size=32)
        train(cfg, tiny_dir, log_fn=lines.append)
        assert len(lines) == 1
        assert "l_conf=" in lines[0] and "lr=" in lines[0]

    def test_missing_data_dir(self, tmp_path):
        empty = tmp_path / "none"
        with pytest.raises((ShapeError, FileNotFoundError)):
            train(TINY_CFG, empty)

    def test_params_are_float32(self, tiny_result):
        for _, t in tiny_result.detector.named_params():
            assert t.data.dtype == np.float32


class TestPrepareSample:
    def test_masks_follow_toggle(self, tiny_dir):
        _, img, boxes = load_dataset(tiny_dir)[0]
        cfg_off = TrainConfig(epochs=3, warmup_epochs=1, lr_drop_epochs=(2,),
                              image_size=32, stage_channels=(8, 8, 8, 8),
                              toggles=Toggles(seg_mode="off"))
        det = build_network(BackboneSpec(32, (8, 8, 8, 8)), 3, cfg_off.toggles)
        image, gts, assignment, mask = prepare_sample(det, cfg_off, img, boxes)
        assert mask is None
        assert image.dtype == np.float32 and image.shape == (1, 3, 32, 32)
        assert assignment.shape == (1, det.num_anchors)
        assert (assignment >= 0).sum() >= len(boxes)

        det2 = build_network(BackboneSpec(32, (8, 8, 8, 8)), 3, TINY_CFG.toggles)
        _, _, _, mask2 = prepare_sample(det2, TINY_CFG, img, boxes)
        assert mask2 is not None and mask2.shape == (1, 32, 32)


def member_spans(path):
    """(local header start, data start, data end) of every zip member, in file
    order, and the offset of the central directory."""
    raw = Path(path).read_bytes()
    with zipfile.ZipFile(path) as z:
        spans = []
        for info in z.infolist():
            start = info.header_offset
            name_len = int.from_bytes(raw[start + 26:start + 28], "little")
            extra_len = int.from_bytes(raw[start + 28:start + 30], "little")
            data = start + 30 + name_len + extra_len
            spans.append((info.filename, start, data, data + info.compress_size))
        return spans, z.start_dir


def rewrite(path, out, **edits):
    """Load the members of checkpoint `path`, apply `edits` (None drops a
    member) and write them to `out` with np.savez."""
    with np.load(path) as z:
        members = {key: z[key] for key in z.files}
    members.update(edits)
    with open(out, "wb") as f:
        np.savez(f, **{k: v for k, v in members.items() if v is not None})
    return out


def eval_error(ckpt, data, capsys):
    """Run `mrfdet eval` on `ckpt`; assert exit 1 with exactly one error line."""
    capsys.readouterr()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data)])
    out, err = capsys.readouterr()
    assert rc == 1 and out == "" and len(err.splitlines()) == 1, (rc, err)
    assert err.startswith("error: ") and "Traceback" not in err
    return err.strip()


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tiny_result, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG)
        det, records = load_checkpoint(path)
        for name, t in tiny_result.detector.named_params():
            loaded = dict(det.named_params())[name]
            assert np.array_equal(t.data, loaded.data), name
            assert loaded.data.dtype == np.float32

    def test_members_are_typed(self, tiny_result, tmp_path):
        path = tmp_path / "model.ckpt"
        det = tiny_result.detector
        save_checkpoint(path, det, TINY_CFG, SGD(det.named_params(), 0.9, 0.0))
        with np.load(path, allow_pickle=False) as z:
            kinds = {key: (z[key].dtype.str, z[key].shape) for key in z.files}
        size = sum(t.data.size for t in det.params.values())
        names = list(det.params)
        assert kinds == {"meta": ("<i8", (7,)), "meta.stages": ("<i8", (4,)),
                         "rng.pcg64": ("|u1", (32,)),
                         "names": (f"<U{max(map(len, names))}", (len(names),)),
                         "params": ("<f4", (size,)), "momentum": ("<f4", (size,))}
        with zipfile.ZipFile(path) as z:
            assert all(i.compress_type == zipfile.ZIP_STORED for i in z.infolist())

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ShapeError, match="not a detector checkpoint"):
            load_checkpoint(path)

    def test_version_checked(self, tmp_path):
        # A version-1 file (magic "MRFD", u32 version, float32 records).
        path = tmp_path / "v1.ckpt"
        path.write_bytes(b"MRFD" + (1).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(ShapeError, match="version-1"):
            load_checkpoint(path)

    def test_config_restored_via_meta(self, tiny_result, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG, step=12)
        det, records = load_checkpoint(path)
        assert det.backbone.image_size == 32
        assert det.backbone.stage_channels == (8, 8, 8, 8)
        assert det.toggles == tiny_result.detector.toggles
        assert int(records["meta"][6]) == 12

    def test_meta_comes_from_the_detector(self, tiny_result, tmp_path):
        # A config that disagrees with the network does not change what is saved.
        path = tmp_path / "model.ckpt"
        other = TrainConfig(image_size=64, stage_channels=(16, 32, 64, 64, 64))
        save_checkpoint(path, tiny_result.detector, other)
        det, _ = load_checkpoint(path)
        assert det.backbone == tiny_result.detector.backbone

    def test_integers_past_float32_round_trip(self, tmp_path):
        big = 2 ** 24 + 1
        det = build_network(BackboneSpec(32, (8, 8, 8, 8)), 3, TINY_CFG.toggles,
                            seed=big, dtype=np.float32)
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, det, TINY_CFG, step=big)
        loaded, records = load_checkpoint(path)
        assert loaded.seed == big and records["meta"][0] == big
        assert records["meta"][6] == big

    def test_rng_state_preserved(self, tiny_result, tmp_path):
        rng = np.random.default_rng(99)
        rng.random(17)  # advance
        state = rng.bit_generator.state["state"]["state"]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG, rng=rng)
        _, records = load_checkpoint(path)
        raw = records["rng.pcg64"].tobytes()
        assert int.from_bytes(raw[:16], "little") == state

    def test_optimizer_velocity_stored(self, tiny_dir, tmp_path):
        path = tmp_path / "train.ckpt"
        train(TINY_CFG, tiny_dir, ckpt_path=path)
        _, records = load_checkpoint(path)
        # One velocity per parameter value, and training moved them.
        assert records["momentum"].shape == records["params"].shape
        assert np.any(records["momentum"])

    def test_training_writes_checkpoint_each_epoch(self, tiny_dir, tmp_path):
        path = tmp_path / "epoch.ckpt"
        train(TrainConfig(epochs=1, warmup_epochs=0, lr_drop_epochs=(),
                          image_size=32, stage_channels=(8, 8, 8, 8)),
              tiny_dir, ckpt_path=path)
        det, _ = load_checkpoint(path)
        assert det.num_anchors > 0

    def test_layout_mismatch_rejected(self, tiny_result, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG)
        # Rename one stored parameter so the names no longer line up.
        names = np.array([n.replace("backbone.s0.c0.w", "backbone.s0.c9.w")
                          for n in tiny_result.detector.params])
        rewrite(path, path, names=names)
        with pytest.raises(ShapeError, match="layout"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value", [
        ("params", np.zeros(5, dtype="<f4")), ("params", "float64"),
        ("momentum", np.zeros(5, dtype="<f4")), ("rng.pcg64", np.zeros(31, dtype="u1")),
        ("rng.pcg64", "int64")])
    def test_member_dtype_and_shape_checked(self, tiny_result, tmp_path, key, value):
        path = tmp_path / "model.ckpt"
        det = tiny_result.detector
        save_checkpoint(path, det, TINY_CFG, SGD(det.named_params(), 0.9, 0.0))
        if isinstance(value, str):
            with np.load(path) as z:
                value = z[key].astype(value)
        rewrite(path, path, **{key: value})
        with pytest.raises(ShapeError, match=f"has a {key} member of {value.dtype.str}"):
            load_checkpoint(path)

    def test_truncated_checkpoint_fails_with_one_line(self, tiny_result, tiny_dir,
                                                      tmp_path, capsys):
        path = tmp_path / "model.ckpt"
        det = tiny_result.detector
        save_checkpoint(path, det, TINY_CFG, SGD(det.named_params(), 0.9, 0.0))
        raw = path.read_bytes()
        spans, central = member_spans(path)
        assert [name for name, *_ in spans] == [
            "meta.npy", "meta.stages.npy", "rng.pcg64.npy", "names.npy", "params.npy",
            "momentum.npy"]
        assert spans[-1][3] == central
        assert "momentum" in load_checkpoint(path)[1]
        # Inside the zip magic and the first local header, then one offset
        # inside every member's local header and one inside its data, then
        # every member boundary, then inside the central directory.
        cuts = ([2, 4, 10, 13]
                + [c for _, h, d, e in spans for c in ((h + d) // 2, (d + e) // 2, e)]
                + [(central + len(raw)) // 2, len(raw) - 1])
        cut = tmp_path / "cut.ckpt"
        for n in cuts:
            cut.write_bytes(raw[:n])
            err = eval_error(cut, tiny_dir, capsys)
            assert "truncated" in err and str(cut) in err, (n, err)

    def test_cut_dropping_only_momentum_fails(self, tiny_result, tiny_dir, tmp_path,
                                              capsys):
        path = tmp_path / "model.ckpt"
        det = tiny_result.detector
        save_checkpoint(path, det, TINY_CFG, SGD(det.named_params(), 0.9, 0.0))
        spans, _ = member_spans(path)
        momentum = [h for name, h, _, _ in spans if name == "momentum.npy"]
        cut = tmp_path / "cut.ckpt"
        cut.write_bytes(path.read_bytes()[:momentum[0]])
        err = eval_error(cut, tiny_dir, capsys)
        assert err.startswith(f"error: checkpoint {cut} is truncated")

    # The middle of the params data, and the low byte of the params .npy
    # header length, which np.load alone would not catch: the header still
    # parses and the data is read from inside the header's padding.
    @pytest.mark.parametrize("where,xor", [("data", 0x01), ("npy-header-length", 0x10)])
    def test_flipped_params_byte_fails_crc(self, tiny_result, tiny_dir, tmp_path, capsys,
                                           where, xor):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG)
        spans, _ = member_spans(path)
        (_, _, data, end), = [s for s in spans if s[0] == "params.npy"]
        raw = bytearray(path.read_bytes())
        raw[{"data": (data + end) // 2, "npy-header-length": data + 8}[where]] ^= xor
        path.write_bytes(bytes(raw))
        err = eval_error(path, tiny_dir, capsys)
        assert err.startswith(f"error: checkpoint {path} is truncated or corrupt")
        assert "CRC" in err

    def test_comment_hiding_a_member_rejected(self, tiny_result, tmp_path):
        # A comment length flipped into the params entry of the central
        # directory would swallow the momentum entry after it.
        path = tmp_path / "model.ckpt"
        det = tiny_result.detector
        save_checkpoint(path, det, TINY_CFG, SGD(det.named_params(), 0.9, 0.0))
        raw = bytearray(path.read_bytes())
        _, pos = member_spans(path)
        while raw[pos + 46:pos + 56] != b"params.npy":
            pos += 46 + sum(int.from_bytes(raw[pos + i:pos + i + 2], "little")
                            for i in (28, 30, 32))
        raw[pos + 32] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(ShapeError, match="truncated or corrupt"):
            load_checkpoint(path)

    def test_missing_meta_records_reported(self, tiny_result, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG)
        for key in ("meta", "meta.stages", "rng.pcg64", "names", "params"):
            cut = rewrite(path, tmp_path / "cut.ckpt", **{key: None})
            with pytest.raises(ShapeError, match=f"truncated: it has no {key} member"):
                load_checkpoint(cut)

    def test_failed_write_keeps_previous_checkpoint(self, tiny_result, tmp_path,
                                                    monkeypatch):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tiny_result.detector, TINY_CFG)
        before = path.read_bytes()
        write_array = np.lib.format.write_array

        def failing(fp, array, *args, **kwargs):
            if array.dtype == np.float32:  # the params member
                raise OSError("disk full")
            write_array(fp, array, *args, **kwargs)

        monkeypatch.setattr(np.lib.format, "write_array", failing)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, tiny_result.detector, TINY_CFG, step=5)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert not (tmp_path / "model.ckpt.tmp").exists()
        assert int(load_checkpoint(path)[1]["meta"][6]) == 0


@pytest.fixture(scope="module")
def sixteen_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("sixteen")
    synth_dataset(DatasetSpec(num_images=16, seed=7), d)
    return d


@pytest.mark.parametrize("threads", ["1", "2"])
def test_cli_training_byte_identical_across_processes(sixteen_dir, tmp_path, threads):
    """Two `mrfdet train` processes, 1 epoch of the default network on 16
    images (two 8-image steps of two 4-image tapes), write the same bytes."""
    config = tmp_path / "train.txt"
    config.write_text("epochs = 1\nwarmup_epochs = 0\nlr_drop_epochs =\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=str(Path(mrfdet.__file__).resolve().parents[1]))
    ckpts = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.ckpt"
        subprocess.run([sys.executable, "-m", "mrfdet.cli", "train", "--config",
                        str(config), "--data", str(sixteen_dir), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        ckpts.append(out.read_bytes())
    assert ckpts[0] == ckpts[1]
