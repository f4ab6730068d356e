"""Synthetic detection dataset: filled rectangles, ellipses and triangles
with per-class color schemes on a noisy background.

Images are written as binary PPM (P6); annotations are one object per
line: `image_path class_id xmin ymin xmax ymax`, whitespace-separated,
pixel coordinates. Class ids are 1-based (0 is the detector background).
Generation is fully determined by the seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .anchors import iou_matrix
from .tensor_core import ShapeError

CLASS_NAMES = {1: "rectangle", 2: "ellipse", 3: "triangle"}
# Distinct base colors per class; the dominant channel is what makes the
# classification task learnable at desk scale.
CLASS_COLORS = {1: (0.85, 0.25, 0.20), 2: (0.20, 0.80, 0.25), 3: (0.25, 0.30, 0.85)}


@dataclass(frozen=True)
class DatasetSpec:
    image_size: int = 64
    num_images: int = 200
    num_classes: int = 3
    min_objects: int = 1
    max_objects: int = 3
    small_ratio: float = 0.7      # fraction of objects with area <= 32^2
    small_side: tuple = (10, 26)
    large_side: tuple = (34, 50)
    noise: float = 0.04
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.num_classes <= 3:
            raise ShapeError("num_classes must be 1..3 (rectangle/ellipse/triangle)")
        if self.max_objects < self.min_objects or self.min_objects < 0:
            raise ShapeError("bad objects-per-image range")
        if self.num_images < 0:
            raise ShapeError(f"num_images must be >= 0, got {self.num_images}")
        for key in ("small_side", "large_side"):
            side = tuple(getattr(self, key))
            if len(side) != 2 or not 1 <= side[0] <= side[1] < self.image_size:
                raise ShapeError(f"{key} must be two sizes lo hi with 1 <= lo <= hi < "
                                 f"image_size {self.image_size}, got "
                                 f"{' '.join(map(str, side))}")
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")


def _shape_support(class_id, x0, y0, x1, y1, size):
    """Boolean pixel support of a shape filling box [x0,x1) x [y0,y1)."""
    ys, xs = np.mgrid[y0:y1, x0:x1]
    if class_id == 1:
        return np.ones((y1 - y0, x1 - x0), dtype=bool)
    if class_id == 2:
        cx, cy = (x0 + x1 - 1) / 2, (y0 + y1 - 1) / 2
        rx, ry = (x1 - x0) / 2, (y1 - y0) / 2
        return ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
    # Triangle: apex at the top-center, base along the bottom edge.
    h = max(y1 - y0 - 1, 1)
    frac = (ys - y0) / h
    cx = (x0 + x1 - 1) / 2
    half = frac * (x1 - x0 - 1) / 2
    return np.abs(xs - cx) <= half + 0.5


def render_image(spec: DatasetSpec, rng):
    """One (3, S, S) float image in [0, 1] plus its (M, 5) ground truth."""
    s = spec.image_size
    img = np.clip(0.45 + rng.normal(0.0, spec.noise, (3, s, s)), 0.0, 1.0)
    n_obj = int(rng.integers(spec.min_objects, spec.max_objects + 1))
    gts = np.zeros((0, 5))
    for _ in range(n_obj):
        for _attempt in range(40):
            small = rng.random() < spec.small_ratio
            lo, hi = spec.small_side if small else spec.large_side
            w = int(rng.integers(lo, hi + 1))
            h = int(rng.integers(lo, hi + 1))
            if small and w * h > 32 ** 2:
                continue
            x0 = int(rng.integers(0, s - w + 1))
            y0 = int(rng.integers(0, s - h + 1))
            box = np.array([[x0, y0, x0 + w, y0 + h]], dtype=np.float64)
            if (iou_matrix(box, gts[:, :4]) < 0.25).all():
                break
        else:
            continue
        cls = int(rng.integers(1, spec.num_classes + 1))
        support = _shape_support(cls, x0, y0, x0 + w, y0 + h, s)
        color = np.array(CLASS_COLORS[cls]) + rng.normal(0.0, 0.03, 3)
        region = img[:, y0:y0 + h, x0:x0 + w]
        region[:, support] = np.clip(color, 0, 1)[:, None]
        gts = np.vstack([gts, [x0, y0, x0 + w, y0 + h, cls]])
    return img, gts


def write_ppm(path, img):
    """img is (3, H, W) float in [0, 1]; stored as 8-bit binary PPM."""
    data = (np.clip(img, 0, 1) * 255.0).round().astype(np.uint8)
    h, w = img.shape[1], img.shape[2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path):
    """(3, H, W) uint8 pixels of the layout write_ppm writes: `P6\\n<w> <h>\\n255\\n` + RGB."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        magic, size, maxval, body = raw.split(b"\n", 3)
        w, h = (int(v) for v in size.split())
        maxval = int(maxval)
    except ValueError:
        raise ShapeError(f"{path}: cannot parse the PPM header, expected "
                         "'P6\\n<width> <height>\\n255\\n' without comments") from None
    if magic != b"P6" or maxval != 255:
        raise ShapeError(f"{path}: not an 8-bit binary PPM (magic {magic!r}, maxval {maxval})")
    if min(w, h) < 1 or len(body) < w * h * 3:
        raise ShapeError(f"{path}: PPM data has {len(body)} bytes, {w}x{h} needs {w * h * 3}")
    return np.frombuffer(body, np.uint8, w * h * 3).reshape(h, w, 3).transpose(2, 0, 1)


def synth_dataset(spec: DatasetSpec, out_dir):
    """Render the dataset to disk; byte-identical for a fixed spec."""
    rng = np.random.default_rng(spec.seed)
    img_dir = os.path.join(out_dir, "images")
    os.makedirs(img_dir, exist_ok=True)
    lines = []
    for i in range(spec.num_images):
        img, gts = render_image(spec, rng)
        rel = os.path.join("images", f"{i:04d}.ppm")
        write_ppm(os.path.join(out_dir, rel), img)
        for x0, y0, x1, y1, cls in gts.tolist():
            lines.append(f"{rel} {int(cls)} {x0:g} {y0:g} {x1:g} {y1:g}")
    with open(os.path.join(out_dir, "annotations.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + ("\n" if lines else ""))
    with open(os.path.join(out_dir, "dataset.txt"), "w", encoding="utf-8") as f:
        f.write(f"image_size = {spec.image_size}\n"
                f"num_images = {spec.num_images}\n"
                f"num_classes = {spec.num_classes}\n"
                f"seed = {spec.seed}\n")


def load_annotations(data_dir):
    """image path -> (M, 5) ground truth (corners, class id), rows in file order."""
    by_image = {}
    path = os.path.join(data_dir, "annotations.txt")
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rel, cls, x0, y0, x1, y1 = line.split()
                class_id, coords = int(cls), [float(v) for v in (x0, y0, x1, y1)]
            except ValueError:
                raise ShapeError(f"{path}:{lineno}: expected "
                                 "'image class xmin ymin xmax ymax'") from None
            # Ids are stored as float64, which holds every integer up to 2^53.
            if not 0 <= class_id <= 2 ** 53:
                raise ShapeError(f"{path}:{lineno}: class id {cls} outside 0..{2 ** 53}")
            if not (np.isfinite(coords).all() and coords[2] > coords[0]
                    and coords[3] > coords[1]):
                raise ShapeError(f"{path}:{lineno}: box {x0} {y0} {x1} {y1} needs finite "
                                 "coordinates with xmax > xmin and ymax > ymin")
            by_image.setdefault(rel, []).append([*coords, class_id])
    # Include images that have no objects at all.
    img_dir = os.path.join(data_dir, "images")
    if os.path.isdir(img_dir):
        for name in sorted(os.listdir(img_dir)):
            by_image.setdefault(os.path.join("images", name), [])
    return {rel: np.array(rows, dtype=np.float64).reshape(-1, 5)
            for rel, rows in by_image.items()}


def check_class_ids(samples, data_dir, num_classes):
    """Reject ground truth whose class id lies outside 1..num_classes."""
    bad = [int(c) for _, _, gts in samples for c in gts[:, 4].tolist()
           if not 1 <= c <= num_classes]
    if bad:
        raise ShapeError(f"{os.path.join(data_dir, 'annotations.txt')}: class id "
                         f"{bad[0]} outside 1..{num_classes}")


def load_dataset(data_dir, image_size=None, size_from=None):
    """Ordered list of (image key, (3, S, S) uint8 pixels, (M, 5) ground truth).

    With image_size, an image of any other size is rejected; the message
    names size_from, the source of the expected size. A directory without
    images is rejected too.
    """
    samples = []
    for rel, gts in sorted(load_annotations(data_dir).items()):
        path = os.path.join(data_dir, rel)
        image = read_ppm(path)
        if image_size is not None and image.shape[1:] != (image_size, image_size):
            raise ShapeError(f"{path}: image is {image.shape[2]}x{image.shape[1]} pixels; "
                             f"{size_from} needs {image_size}x{image_size}")
        samples.append((rel, image, gts))
    if not samples:
        raise ShapeError(f"no images found under {data_dir}")
    return samples

