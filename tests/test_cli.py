import contextlib
import io
import re
import shutil
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrfdet.cli import (ABLATION_LADDER, _bool, _int_tuple,
                        dataset_spec_from, format_ablation_table, main,
                        mrf_spec_from, parse_config_file, train_config_from)
from mrfdet.dataset import load_annotations, write_ppm
from mrfdet.detector_net import BackboneSpec, build_network
from mrfdet.sws_masks import mask_to_pgm_bytes, rasterize_sws_mask
from mrfdet.trainer import SGD, TrainConfig, save_checkpoint


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("clidata")
    spec = d / "spec.txt"
    spec.write_text("image_size = 32\nnum_images = 6\nseed = 3\n"
                    "max_objects = 2\nsmall_side = 8 16\n"
                    "large_side = 18 24\n# comment line\n")
    assert main(["synth", "--spec", str(spec), "--out", str(d / "data")]) == 0
    return d


class TestConfigParsing:
    def test_parse_file(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("a = 1\n# full comment\nb = two words  # trailing\n\n")
        assert parse_config_file(p) == {"a": "1", "b": "two words"}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("just some words\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(p)

    def test_bool_values(self):
        assert _bool("yes") and _bool("True") and _bool("1")
        assert not _bool("off") and not _bool("0")
        with pytest.raises(ValueError):
            _bool("maybe")

    def test_int_tuple(self):
        assert _int_tuple("16, 32, 64") == (16, 32, 64)
        assert _int_tuple("8 8") == (8, 8)

    def test_dataset_spec_defaults_and_overrides(self):
        spec = dataset_spec_from({"image_size": "48", "seed": "9",
                                  "large_side": "30 40"})
        assert spec.image_size == 48 and spec.seed == 9
        assert spec.large_side == (30, 40)
        assert spec.num_classes == 3  # default preserved

    def test_train_config_toggles(self):
        cfg = train_config_from({"mrf": "no", "seg_mode": "off",
                                 "extra_level": "false", "epochs": "12",
                                 "lr_drop_epochs": "8, 10"})
        assert not cfg.toggles.mrf and cfg.toggles.seg_mode == "off"
        assert cfg.epochs == 12 and cfg.lr_drop_epochs == (8, 10)

    def test_mrf_spec_branches(self):
        spec = mrf_spec_from({"in_channels": "32", "out_channels": "32",
                              "branches": "3:1, 3:2"})
        assert [(b.kernel, b.dilation) for b in spec.branches] == [(3, 1), (3, 2)]


class TestCommands:
    def test_synth_writes_dataset(self, data_dir):
        assert (data_dir / "data" / "annotations.txt").exists()
        assert len(list((data_dir / "data" / "images").iterdir())) == 6

    def test_train_then_eval(self, data_dir, capsys):
        cfg = data_dir / "train.txt"
        cfg.write_text("epochs = 2\nwarmup_epochs = 0\nlr_drop_epochs = 1\n"
                       "image_size = 32\nstage_channels = 8 8 8 8\n"
                       "batch_size = 6\n")
        ckpt = data_dir / "model.ckpt"
        assert main(["train", "--config", str(cfg), "--data",
                     str(data_dir / "data"), "--out", str(ckpt)]) == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data",
                     str(data_dir / "data")]) == 0
        out = capsys.readouterr().out
        assert "mAP" in out and "class  AP" in out

    def test_eval_coco_style(self, data_dir, capsys):
        ckpt = data_dir / "model.ckpt"
        assert main(["eval", "--ckpt", str(ckpt), "--data",
                     str(data_dir / "data"), "--coco-style"]) == 0
        out = capsys.readouterr().out
        assert "AP@0.5" in out and "AP@[0.5:0.95]" in out

    def test_eval_missing_checkpoint_fails_cleanly(self, data_dir, capsys):
        rc = main(["eval", "--ckpt", str(data_dir / "nope.ckpt"),
                   "--data", str(data_dir / "data")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_gradcheck_loss_module(self, capsys):
        assert main(["gradcheck", "--module", "loss"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_mask_gen(self, data_dir, capsys):
        out_dir = data_dir / "masks"
        assert main(["mask-gen", "--data", str(data_dir / "data"),
                     "--t1", "16", "--t2", "400", "--out", str(out_dir)]) == 0
        files = sorted(out_dir.iterdir())
        assert len(files) == 6
        assert files[0].read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_mask_gen_defaults_are_the_training_masks(self, data_dir):
        out_dir = data_dir / "default_masks"
        assert main(["mask-gen", "--data", str(data_dir / "data"),
                     "--out", str(out_dir)]) == 0
        for rel, boxes in sorted(load_annotations(data_dir / "data").items()):
            want = mask_to_pgm_bytes(rasterize_sws_mask(boxes, 32, TrainConfig().thresholds))
            assert (out_dir / (Path(rel).stem + ".pgm")).read_bytes() == want

    def test_mask_gen_without_dataset_txt(self, data_dir, tmp_path):
        # `train` accepts a dataset without dataset.txt, and so does mask-gen:
        # each mask takes its size from its image.
        data, out_dir = tmp_path / "data", tmp_path / "masks"
        shutil.copytree(data_dir / "data", data)
        (data / "dataset.txt").unlink()
        assert main(["mask-gen", "--data", str(data), "--out", str(out_dir)]) == 0
        for rel, boxes in sorted(load_annotations(data).items()):
            want = mask_to_pgm_bytes(rasterize_sws_mask(boxes, 32, TrainConfig().thresholds))
            assert (out_dir / (Path(rel).stem + ".pgm")).read_bytes() == want

    def test_rf_report_default(self, capsys):
        assert main(["rf-report"]) == 0
        out = capsys.readouterr().out
        assert "branch  k  d  effective" in out
        assert "union of taps" in out

    def test_rf_report_custom(self, tmp_path, capsys):
        spec = tmp_path / "mrf.txt"
        spec.write_text("in_channels = 64\nout_channels = 64\nbranches = 3:1, 3:3\n")
        assert main(["rf-report", "--spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert " 7  " in out  # effective kernel of the 3:3 branch

    def test_describe(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("image_size = 32\nstage_channels = 8 8 8 8\n"
                       "epochs = 3\nwarmup_epochs = 0\nlr_drop_epochs = 2\n")
        assert main(["describe", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "anchors total" in out and "parameters:" in out

    def test_bad_config_value_fails_cleanly(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("epochs = banana\n")
        assert main(["describe", "--config", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err


class TestDiagnostics:
    """Bad input exits 1 with one `error:` line and writes nothing."""

    def run_error(self, argv, capsys):
        capsys.readouterr()
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        return err.strip()

    @pytest.mark.parametrize("command,flag", [
        ("train", "--config"), ("describe", "--config"), ("ablate", "--config"),
        ("synth", "--spec"), ("rf-report", "--spec")])
    def test_unknown_key_rejected(self, data_dir, tmp_path, capsys, command, flag):
        cfg = tmp_path / "c.txt"
        cfg.write_text("epoch = 5\n")
        extra = {"train": ["--data", str(data_dir / "data"), "--out",
                           str(tmp_path / "m.ckpt")],
                 "ablate": ["--data", str(data_dir / "data")],
                 "synth": ["--out", str(tmp_path / "d")]}.get(command, [])
        err = self.run_error([command, flag, str(cfg)] + extra, capsys)
        assert err == f"error: {cfg}: unknown key 'epoch'"
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "d").exists()

    def test_benchmark_keys_stay_valid(self):
        values = {"epochs": "1", "batch_size": "8", "warmup_epochs": "0",
                  "lr_drop_epochs": ""}
        cfg = train_config_from(values)
        assert (cfg.epochs, cfg.batch_size, cfg.warmup_epochs) == (1, 8, 0)
        assert values == {}  # every key was read

    @pytest.mark.parametrize("line,message", [
        ("epochs = 0\nlr_drop_epochs =\n", "error: epochs must be >= 1, got 0"),
        ("batch_size = 0\n", "error: batch_size must be >= 1, got 0")])
    def test_nonpositive_budget_rejected(self, data_dir, tmp_path, capsys, line, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line)
        ckpt = tmp_path / "m.ckpt"
        err = self.run_error(["train", "--config", str(cfg), "--data",
                              str(data_dir / "data"), "--out", str(ckpt)], capsys)
        assert err == message
        assert not ckpt.exists()

    @pytest.mark.parametrize("command,seed,message", [
        ("train", "99999999999999999999",
         f"seed must lie in 0..{2 ** 63 - 1}, got 99999999999999999999"),
        ("train", "-1", f"seed must lie in 0..{2 ** 63 - 1}, got -1"),
        ("synth", "-1", "seed must be >= 0, got -1")],
        ids=["train-huge", "train-negative", "synth-negative"])
    def test_out_of_range_seed_named(self, data_dir, tmp_path, capsys, command, seed,
                                     message):
        cfg = tmp_path / "c.txt"
        train_keys = ("epochs = 1\nwarmup_epochs = 0\nlr_drop_epochs =\n"
                      "image_size = 32\nstage_channels = 8 8 8 8\n")
        cfg.write_text(f"seed = {seed}\n" + (train_keys if command == "train" else ""))
        out = tmp_path / "out"
        argv = (["train", "--config", str(cfg), "--data", str(data_dir / "data"),
                 "--out", str(out)] if command == "train"
                else ["synth", "--spec", str(cfg), "--out", str(out)])
        assert self.run_error(argv, capsys) == f"error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("command,class_id", [("train", 9), ("train", 0),
                                                  ("eval", 9), ("eval", 0)],
                             ids=["9", "0", "eval-9", "eval-0"])
    def test_class_id_outside_network_rejected(self, data_dir, tmp_path, capsys,
                                               small_ckpt, command, class_id):
        data = tmp_path / "data"
        shutil.copytree(data_dir / "data", data)
        with open(data / "annotations.txt", "a", encoding="utf-8") as f:
            f.write(f"images/0000.ppm {class_id} 1 1 5 5\n")
        err = self.run_on_data(command, data, tmp_path, small_ckpt, capsys)
        assert err == (f"error: {data / 'annotations.txt'}: class id {class_id} "
                       "outside 1..3")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("class_id", ["99999999999999999999", "-1"])
    def test_class_id_beyond_float64_integers_rejected(self, data_dir, tmp_path, capsys,
                                                       small_ckpt, command, class_id):
        data = tmp_path / "data"
        shutil.copytree(data_dir / "data", data)
        with open(data / "annotations.txt", "a", encoding="utf-8") as f:
            f.write(f"images/0000.ppm {class_id} 1 1 5 5\n")
        line = len((data / "annotations.txt").read_text().splitlines())
        err = self.run_on_data(command, data, tmp_path, small_ckpt, capsys)
        assert err == (f"error: {data / 'annotations.txt'}:{line}: class id {class_id} "
                       f"outside 0..{2 ** 53}")

    def test_bad_annotation_line_located(self, data_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "annotations.txt").write_text("images/0000.ppm 1 2 3 4 5\n"
                                             "images/0000.ppm 1 2 3\n")
        err = self.run_error(["mask-gen", "--data", str(bad), "--out",
                              str(tmp_path / "m")], capsys)
        assert err == (f"error: {bad / 'annotations.txt'}:2: expected "
                       "'image class xmin ymin xmax ymax'")

    @pytest.fixture
    def small_ckpt(self, tmp_path):
        config = TrainConfig(image_size=32, stage_channels=(8, 8, 8, 8))
        det = build_network(BackboneSpec(32, config.stage_channels), 3,
                            config.toggles, seed=0)
        save_checkpoint(str(tmp_path / "small.ckpt"), det, config)
        return tmp_path / "small.ckpt"

    def run_on_data(self, command, data, tmp_path, ckpt, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("epochs = 1\nwarmup_epochs = 0\nlr_drop_epochs =\n"
                       "image_size = 32\nstage_channels = 8 8 8 8\n")
        argv = {"train": ["train", "--config", str(cfg), "--data", str(data),
                          "--out", str(tmp_path / "m.ckpt")],
                "mask-gen": ["mask-gen", "--data", str(data), "--out",
                             str(tmp_path / "masks")],
                "eval": ["eval", "--ckpt", str(ckpt), "--data", str(data)]}[command]
        err = self.run_error(argv, capsys)
        assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "masks").exists()
        return err

    @pytest.mark.parametrize("command", ["train", "mask-gen", "eval"])
    @pytest.mark.parametrize("coords", ["1 1 inf 9", "nan 1 5 9", "5 1 5 9", "1 9 5 2"])
    def test_bad_box_located(self, data_dir, tmp_path, capsys, small_ckpt, command,
                             coords):
        data = tmp_path / "data"
        shutil.copytree(data_dir / "data", data)
        with open(data / "annotations.txt", "a", encoding="utf-8") as f:
            f.write(f"images/0000.ppm 1 {coords}\n")
        line = len((data / "annotations.txt").read_text().splitlines())
        err = self.run_on_data(command, data, tmp_path, small_ckpt, capsys)
        assert err.startswith(f"error: {data / 'annotations.txt'}:{line}: box {coords} ")

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("header,message", [
        (b"P6\n32 32\n65535\n", "not an 8-bit binary PPM (magic b'P6', maxval 65535)"),
        (b"P6\n# made by hand\n32 32\n255\n", "cannot parse the PPM header")],
        ids=["16-bit", "comment"])
    def test_unreadable_ppm_named(self, data_dir, tmp_path, capsys, small_ckpt, command,
                                  header, message):
        data = tmp_path / "data"
        shutil.copytree(data_dir / "data", data)
        image = data / "images" / "0003.ppm"
        image.write_bytes(header + bytes(2 * 32 * 32 * 3))
        err = self.run_on_data(command, data, tmp_path, small_ckpt, capsys)
        assert err.startswith(f"error: {image}: {message}")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_image_size_mismatch_named(self, data_dir, tmp_path, capsys, command):
        # Default 64-pixel model on the 32-pixel set: the error names the
        # first image and where the expected size comes from.
        config, out = TrainConfig(), tmp_path / "m.ckpt"
        if command == "train":
            argv, source = ["train", "--data", str(data_dir / "data"), "--out",
                            str(out)], "train config image_size"
        else:
            ckpt = tmp_path / "default.ckpt"
            det = build_network(BackboneSpec(config.image_size, config.stage_channels),
                                config.num_classes, config.toggles, seed=0)
            save_checkpoint(str(ckpt), det, config)
            argv, source = ["eval", "--ckpt", str(ckpt), "--data",
                            str(data_dir / "data")], f"checkpoint {ckpt}"
        err = self.run_error(argv, capsys)
        image = data_dir / "data" / "images" / "0000.ppm"
        assert err == f"error: {image}: image is 32x32 pixels; {source} needs 64x64"
        assert not out.exists()

    def test_mask_gen_non_square_image_named(self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir / "data", data)
        image = data / "images" / "0002.ppm"
        write_ppm(image, np.zeros((3, 32, 24)))
        err = self.run_error(["mask-gen", "--data", str(data), "--out",
                              str(tmp_path / "masks")], capsys)
        assert err == f"error: {image}: image is 24x32 pixels; masks need a square image"
        assert not (tmp_path / "masks").exists()

    @staticmethod
    def rewrite(ckpt, **edits):
        """Replace members of `ckpt` with `edits` (None drops one) through np.savez."""
        with np.load(ckpt) as z:
            members = {key: z[key] for key in z.files}
        members.update(edits)
        with open(ckpt, "wb") as f:
            np.savez(f, **{k: v for k, v in members.items() if v is not None})

    @pytest.mark.parametrize("meta", [
        np.array([0, 3, 32], dtype="<i8"), np.array([0, 3, 32, 1, 1, 7, 0], dtype="<i8"),
        np.array([0, 3, np.nan, 1, 1, 2, 0], dtype="<f8")],
        ids=["short", "seg-mode-7", "nan-size"])
    def test_malformed_meta_named(self, data_dir, small_ckpt, capsys, meta):
        self.rewrite(small_ckpt, meta=meta)
        err = self.run_error(["eval", "--ckpt", str(small_ckpt), "--data",
                              str(data_dir / "data")], capsys)
        assert err.startswith(f"error: checkpoint {small_ckpt} has a malformed meta member "
                              f"{meta.dtype.str} {meta.tolist()}")

    @pytest.mark.parametrize("meta,message", [
        ([-1, 3, 32, 1, 1, 2, 0], "has seed -1 in its meta member"),
        ([0, 0, 32, 1, 1, 2, 0], "has num_classes 0 in its meta member"),
        ([0, 3, 0, 1, 1, 2, 0], "describes no valid network: image_size 0 must be a "
         "positive multiple of the coarsest stride 16")],
        ids=["seed", "num-classes", "image-size"])
    def test_meta_field_out_of_range_named(self, data_dir, small_ckpt, capsys, meta, message):
        self.rewrite(small_ckpt, meta=np.array(meta, dtype="<i8"))
        err = self.run_error(["eval", "--ckpt", str(small_ckpt), "--data",
                              str(data_dir / "data")], capsys)
        assert err.startswith(f"error: checkpoint {small_ckpt} {message}")

    @pytest.mark.parametrize("stages,message", [
        (np.array([8, 0, 8, 8], dtype="<i8"),
         "describes no valid network: stage_channels 8 0 8 8 must all be at least 1"),
        (np.array([8, np.nan, 8, 8], dtype="<f8"),
         "has a malformed meta.stages member <f8 [8.0, nan, 8.0, 8.0]"),
        (np.array([8, 8], dtype="<i8"),
         "describes no valid network: backbone needs at least 3 stages")],
        ids=["zero-width", "nan-width", "two-stages"])
    def test_bad_stages_named(self, data_dir, small_ckpt, capsys, stages, message):
        self.rewrite(small_ckpt, **{"meta.stages": stages})
        err = self.run_error(["eval", "--ckpt", str(small_ckpt), "--data",
                              str(data_dir / "data")], capsys)
        assert err.startswith(f"error: checkpoint {small_ckpt} {message}")

    @pytest.mark.parametrize("damage", [
        "not-a-checkpoint", "version-1", "empty", "cut", "flipped-byte", "encrypted-flag",
        "moved-central-directory", "no-params", "malformed-meta", "bad-stages",
        "no-network", "renamed-parameter", "short-params", "float64-momentum",
        "short-rng", "compressed", "raw-member"])
    def test_every_load_error_names_the_path(self, data_dir, small_ckpt, capsys, damage):
        raw = small_ckpt.read_bytes()
        with np.load(small_ckpt) as z:
            names, params = z["names"], z["params"]
        edits = {"no-params": {"params": None},
                 "malformed-meta": {"meta": np.zeros(3, dtype="<i8")},
                 "bad-stages": {"meta.stages": np.zeros(4, dtype="<i8")},
                 "no-network": {"meta.stages": np.array([8, 8], dtype="<i8")},
                 "renamed-parameter": {"names": np.array(["x"] + names[1:].tolist())},
                 "short-params": {"params": params[:-1]},
                 "float64-momentum": {"momentum": params.astype("<f8")},
                 "short-rng": {"rng.pcg64": np.zeros(31, dtype="u1")}}
        # The zip end record's last 6 bytes: central directory offset, comment length.
        central = int.from_bytes(raw[-6:-2], "little")
        flips = {"flipped-byte": (len(raw) // 2, 0x40),
                 "encrypted-flag": (central + 8, 0x01),  # first entry's flag bits
                 "moved-central-directory": (len(raw) - 3, 0x40)}
        if damage in edits:
            self.rewrite(small_ckpt, **edits[damage])
        elif damage == "compressed":
            with np.load(small_ckpt) as z:
                members = {key: z[key] for key in z.files}
            with open(small_ckpt, "wb") as f:
                np.savez_compressed(f, **members)
        elif damage == "raw-member":  # a stored member that is no .npy file
            self.rewrite(small_ckpt, meta=None)
            with zipfile.ZipFile(small_ckpt, "a") as zf:
                zf.writestr("meta.npy", b"not an array")
        elif damage in flips:
            pos, xor = flips[damage]
            flipped = bytearray(raw)
            flipped[pos] ^= xor
            small_ckpt.write_bytes(bytes(flipped))
        else:
            small_ckpt.write_bytes({"not-a-checkpoint": b"GIF89a" + raw,
                                    "version-1": b"MRFD" + raw,
                                    "empty": b"",
                                    "cut": raw[:len(raw) // 2]}[damage])
        err = self.run_error(["eval", "--ckpt", str(small_ckpt), "--data",
                              str(data_dir / "data")], capsys)
        assert str(small_ckpt) in err

    @pytest.mark.parametrize("command", ["describe", "train"])
    @pytest.mark.parametrize("lines,message", [
        ("image_size = 0\nmrf = false\nextra_level = false\nseg_mode = off\n",
         "image_size 0 must be a positive multiple of the coarsest stride 32"),
        ("image_size = -64\n",
         "image_size -64 must be a positive multiple of the coarsest stride 32"),
        ("stage_channels = 16 0 64\n", "stage_channels 16 0 64 must all be at least 1")],
        ids=["zero-size", "negative-size", "zero-width"])
    def test_bad_backbone_named(self, data_dir, tmp_path, capsys, command, lines, message):
        cfg = tmp_path / "c.txt"
        cfg.write_text(lines)
        ckpt = tmp_path / "m.ckpt"
        extra = (["--data", str(data_dir / "data"), "--out", str(ckpt)]
                 if command == "train" else [])
        assert self.run_error([command, "--config", str(cfg)] + extra,
                              capsys) == f"error: {message}"
        assert not ckpt.exists()

    @pytest.mark.parametrize("lines,message", [
        ("small_side = 30 20\n", "small_side must be two sizes lo hi with "
         "1 <= lo <= hi < image_size 64, got 30 20"),
        ("small_side = 10\n", "small_side must be two sizes lo hi with "
         "1 <= lo <= hi < image_size 64, got 10"),
        ("image_size = 32\nlarge_side = 10 20\nsmall_side = 10 40\n",
         "small_side must be two sizes lo hi with 1 <= lo <= hi < image_size 32, got 10 40"),
        ("num_images = -3\n", "num_images must be >= 0, got -3")],
        ids=["reversed", "one-value", "beyond-image", "negative-count"])
    def test_synth_bad_field_named(self, tmp_path, capsys, lines, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(lines)
        out = tmp_path / "d"
        assert self.run_error(["synth", "--spec", str(spec), "--out", str(out)],
                              capsys) == f"error: {message}"
        assert not out.exists()

    def test_bad_branch_item_named(self, tmp_path, capsys):
        spec = tmp_path / "mrf.txt"
        spec.write_text("branches = 3:1, 3\n")
        err = self.run_error(["rf-report", "--spec", str(spec)], capsys)
        assert "'3'" in err and "kernel:dilation" in err


@pytest.fixture(scope="module")
def damage_case(data_dir, tmp_path_factory):
    """A small checkpoint with momentum, its eval report, the byte offsets of
    its zip structure (local headers, .npy headers, central directory) and a
    path for damaged copies."""
    ckpt = tmp_path_factory.mktemp("damage") / "small.ckpt"
    config = TrainConfig(image_size=32, stage_channels=(8, 8, 8, 8))
    det = build_network(BackboneSpec(32, config.stage_channels), 3, config.toggles, seed=0)
    save_checkpoint(ckpt, det, config, SGD(det.named_params(), 0.9, 0.0), step=3)
    raw = ckpt.read_bytes()
    with zipfile.ZipFile(ckpt) as z:
        # Each member's local header (30 bytes, its name, a 20-byte zip64
        # extra field) plus the first 128 bytes of its .npy file.
        structure = [p for info in z.infolist()
                     for p in range(info.header_offset, info.header_offset + 30
                                    + len(info.filename) + 20 + 128)]
        structure += range(z.start_dir, len(raw))
    code, out, err = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(data_dir / "data")])
    assert code == 0 and err == ""
    return raw, out, sorted(p for p in set(structure) if p < len(raw)), ckpt.with_name("d.ckpt")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_damaged_checkpoint_gives_one_error_line_or_the_intact_report(
        data_dir, damage_case, data):
    """A byte cut or a single-byte flip anywhere (half the draws aimed at the
    zip and .npy headers) either fails with exactly one `error:` line or, where
    zip leaves a field unchecked (a timestamp, say), evaluates exactly like the
    intact file. Never a traceback."""
    raw, intact, structure, ckpt = damage_case
    pos = data.draw(st.one_of(st.integers(0, len(raw) - 1), st.sampled_from(structure)))
    if data.draw(st.booleans(), label="cut"):
        damaged = raw[:pos]
    else:
        flipped = bytearray(raw)
        flipped[pos] ^= data.draw(st.integers(1, 255), label="xor")
        damaged = bytes(flipped)
    ckpt.write_bytes(damaged)
    code, out, err = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(data_dir / "data")])
    if code == 0:
        assert out == intact and err == ""
    else:
        assert code == 1 and out == "" and "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(ckpt) in err


@pytest.fixture(scope="module")
def dataset_case(data_dir, tmp_path_factory):
    """A small untrained checkpoint, the bytes of two 32-pixel images and a
    directory for the datasets made from them."""
    root = tmp_path_factory.mktemp("datasets")
    config = TrainConfig(image_size=32, stage_channels=(8, 8, 8, 8))
    det = build_network(BackboneSpec(32, config.stage_channels), 3, config.toggles, seed=0)
    save_checkpoint(root / "small.ckpt", det, config)
    images = [(data_dir / "data" / "images" / f"000{i}.ppm").read_bytes() for i in (0, 1)]
    return root / "small.ckpt", images, root / "data"


IMAGE_KEYS = ("images/0000.ppm", "images/0001.ppm")
coord = st.floats(-40, 80, allow_nan=False).map(repr)
extent = st.floats(0.5, 60).map(repr)
# Tokens that are not numbers, not finite, not an int class id or an empty
# field, and the key of an image that does not exist.
odd_token = st.sampled_from(["nan", "-inf", "inf", "1e400", "one", "1.5", "0x10", "",
                             "images/0002.ppm"])


@st.composite
def annotation_line(draw):
    key = draw(st.sampled_from(IMAGE_KEYS))
    cls = draw(st.integers(-2, 5) | st.just(2 ** 70))
    x0, y0 = draw(coord), draw(coord)
    x1, y1 = repr(float(x0) + float(draw(extent))), repr(float(y0) + float(draw(extent)))
    kind = draw(st.sampled_from(["valid"] * 3 + ["fields", "token", "inverted"]))
    fields = [key, str(cls), x0, y0, x1, y1]
    if kind == "fields":
        fields = draw(st.lists(st.sampled_from(fields), max_size=9).filter(
            lambda f: len(f) not in (0, 6)))
    elif kind == "token":
        fields[draw(st.integers(0, 5))] = draw(odd_token)
    elif kind == "inverted":
        # Zero width, zero height, then xmax < xmin and ymax < ymin.
        fields[4:] = draw(st.sampled_from([[x0, y1], [x1, y0], [repr(float(x0) - 1), y1],
                                           [x1, repr(float(y0) - 1)]]))
    return " ".join(fields)


PPM_HEADERS = [b"P6\n32 32\n255\n", b"P6\n32 32\n65535\n", b"P5\n32 32\n255\n",
               b"P6\n# c\n32 32\n255\n", b"P6 32 32 255\n", b"P6\n16 16\n255\n",
               b"P6\n0 32\n255\n", b"P6\n-32 32\n255\n", b"P6\n32\n255\n",
               b"P6\n99999999999999999999 1\n255\n", b""]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_dataset_gives_one_error_line_or_a_full_count(dataset_case, data):
    """Random annotation lines (valid rows, wrong field counts, odd tokens,
    inverted or empty boxes) and damaged images (other PPM headers, cuts)
    under `mrfdet eval`: exit 0 with every annotation row counted as TP or
    missed, or exit 1 with exactly one `error:` line. Never a traceback."""
    ckpt, images, root = dataset_case
    shutil.rmtree(root, ignore_errors=True)
    (root / "images").mkdir(parents=True)
    lines = data.draw(st.lists(annotation_line(), max_size=6), label="lines")
    for key, raw in zip(IMAGE_KEYS, images):
        damage = data.draw(st.sampled_from(["none"] * 3 + ["header", "cut"]), label=key)
        if damage == "header":
            raw = data.draw(st.sampled_from(PPM_HEADERS)) + raw[len(PPM_HEADERS[0]):]
        elif damage == "cut":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        (root / key).write_bytes(raw)
    (root / "annotations.txt").write_text("".join(f"{line}\n" for line in lines))
    code, out, err = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(root)])
    assert "Traceback" not in err
    if code == 0:
        tp, missed = (int(v) for v in re.search(r"TP=(\d+) FP=\d+ missed=(\d+)", out).groups())
        assert tp + missed == len(lines)
    else:
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestAblation:
    def test_ladder_rows(self):
        labels = [label for label, _ in ABLATION_LADDER]
        assert labels[0] == "baseline"
        assert labels[-1].endswith("+SWS")
        assert len(labels) == 5

    def test_table_format(self):
        rows = [("baseline", 0.5, 0.4), ("+MRF", 0.6, None)]
        text = format_ablation_table(rows)
        lines = text.splitlines()
        assert lines[0].startswith("configuration")
        assert "0.5000" in lines[1]
        assert "n/a" in lines[2]
