import filecmp
import os
import re

import numpy as np
import pytest

from box_oracles import boxes_of, iou
from mrfdet.dataset import (CLASS_COLORS, DatasetSpec, load_annotations,
                            load_dataset, read_ppm, render_image,
                            synth_dataset, write_ppm)
from mrfdet.tensor_core import ShapeError

SMALL = DatasetSpec(image_size=48, num_images=6, large_side=(30, 40), seed=42)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ShapeError):
            DatasetSpec(num_classes=5)
        with pytest.raises(ShapeError):
            DatasetSpec(min_objects=3, max_objects=1)
        with pytest.raises(ShapeError):
            DatasetSpec(image_size=32, large_side=(34, 50))


class TestRender:
    def test_image_range_and_shape(self):
        rng = np.random.default_rng(0)
        img, gts = render_image(SMALL, rng)
        assert img.shape == (3, 48, 48)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert 1 <= len(gts) <= 3

    def test_boxes_in_bounds_with_valid_classes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            boxes = boxes_of(render_image(SMALL, rng)[1])
            for b in boxes:
                assert 0 <= b.xmin < b.xmax <= 48
                assert 0 <= b.ymin < b.ymax <= 48
                assert b.class_id in (1, 2, 3)

    def test_low_overlap_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            boxes = boxes_of(render_image(SMALL, rng)[1])
            for i, a in enumerate(boxes):
                for b in boxes[i + 1:]:
                    assert iou(a, b) < 0.25

    def test_object_pixels_carry_class_color(self):
        rng = np.random.default_rng(3)
        img, gts = render_image(SMALL, rng)
        for b in boxes_of(gts):
            cx = int((b.xmin + b.xmax) / 2)
            cy = int((b.ymin + b.ymax) / 2)
            # Every shape covers its box center; the pixel there should be
            # near the class base color (within color jitter).
            want = np.array(CLASS_COLORS[b.class_id])
            assert np.abs(img[:, cy, cx] - want).max() < 0.15

    def test_seed_determinism(self):
        a = render_image(SMALL, np.random.default_rng(7))
        b = render_image(SMALL, np.random.default_rng(7))
        assert np.array_equal(a[0], b[0])
        assert [(x.xmin, x.class_id) for x in boxes_of(a[1])] == \
            [(x.xmin, x.class_id) for x in boxes_of(b[1])]

    def test_small_objects_dominate(self):
        rng = np.random.default_rng(4)
        areas = []
        for _ in range(80):
            _, gts = render_image(DatasetSpec(num_images=1, seed=0), rng)
            areas.extend(b.area for b in boxes_of(gts))
        small = sum(a <= 32 ** 2 for a in areas)
        assert small / len(areas) > 0.55


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.random((3, 12, 17))
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (3, 12, 17) and back.dtype == np.uint8
        # 8-bit quantization: exact to half a step.
        assert np.abs(back / 255.0 - img).max() <= 0.5 / 255 + 1e-12

    def test_quantized_round_trip_exact(self, tmp_path):
        pixels = np.random.default_rng(6).integers(0, 256, (3, 8, 8), dtype=np.uint8)
        path = tmp_path / "q.ppm"
        write_ppm(path, pixels / 255.0)
        back = read_ppm(path)
        assert back.dtype == np.uint8 and np.array_equal(back, pixels)

    def test_rejects_non_ppm(self, tmp_path):
        path = tmp_path / "bad.ppm"
        for raw in (b"P5\n2 2\n255\n\x00\x00\x00\x00", b"P6\n2 2\n65535\n" + bytes(24),
                    b"P6\n# comment\n2 2\n255\n" + bytes(12), b"P6\n2 2\n255\n" + bytes(11),
                    b"P6\n2 2\n"):
            path.write_bytes(raw)
            with pytest.raises(ShapeError, match=f"^{re.escape(str(path))}: .*PPM"):
                read_ppm(path)


class TestSynth:
    def test_files_written(self, tmp_path):
        synth_dataset(SMALL, tmp_path)
        assert (tmp_path / "annotations.txt").exists()
        assert (tmp_path / "dataset.txt").exists()
        assert len(list((tmp_path / "images").iterdir())) == 6

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_dataset(SMALL, a)
        synth_dataset(SMALL, b)
        for name in sorted(os.listdir(a / "images")):
            assert filecmp.cmp(a / "images" / name, b / "images" / name, shallow=False)
        assert (a / "annotations.txt").read_bytes() == (b / "annotations.txt").read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        synth_dataset(SMALL, a)
        synth_dataset(DatasetSpec(image_size=48, num_images=6, large_side=(30, 40), seed=43), b)
        assert (a / "annotations.txt").read_text() != (b / "annotations.txt").read_text()

    def test_load_round_trip(self, tmp_path):
        synth_dataset(SMALL, tmp_path)
        data = load_dataset(tmp_path)
        assert len(data) == 6
        for rel, img, gts in data:
            assert img.shape == (3, 48, 48)
            for b in boxes_of(gts):
                assert b.class_id in (1, 2, 3)

    def test_annotations_parse(self, tmp_path):
        synth_dataset(SMALL, tmp_path)
        by_image = load_annotations(tmp_path)
        assert len(by_image) == 6
        total = sum(len(v) for v in by_image.values())
        assert total >= 6  # at least min_objects per image

    @pytest.mark.parametrize("bad", ["images/0000.ppm 1 2 3",
                                     "images/0000.ppm one 1 2 3 4",
                                     "images/0000.ppm 1 1 2 3 4 5"])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad):
        synth_dataset(SMALL, tmp_path)
        ann = tmp_path / "annotations.txt"
        n_lines = len(ann.read_text().splitlines())
        ann.write_text(ann.read_text() + bad + "\n")
        with pytest.raises(ShapeError) as info:
            load_annotations(tmp_path)
        assert str(info.value) == (f"{ann}:{n_lines + 1}: expected "
                                   "'image class xmin ymin xmax ymax'")

    def test_class_ids_load_exactly_up_to_2_pow_53(self, tmp_path):
        # float64 holds every integer up to 2^53; one more would round.
        (tmp_path / "annotations.txt").write_text(
            f"images/0000.ppm {2 ** 53} 1 1 5 5\nimages/0000.ppm 0 1 1 5 5\n")
        gts = load_annotations(tmp_path)["images/0000.ppm"]
        assert [int(c) for c in gts[:, 4]] == [2 ** 53, 0]
        ann = tmp_path / "annotations.txt"
        ann.write_text(f"images/0000.ppm 0 1 1 5 5\nimages/0000.ppm {2 ** 53 + 1} 1 1 5 5\n")
        with pytest.raises(ShapeError) as info:
            load_annotations(tmp_path)
        assert str(info.value) == f"{ann}:2: class id {2 ** 53 + 1} outside 0..{2 ** 53}"
