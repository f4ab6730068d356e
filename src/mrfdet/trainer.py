"""Training loop, learning-rate schedule and checkpoint IO.

SGD with momentum; L2 weight decay is decoupled from the loss and applied
to convolution weights only (not biases). The schedule is linear warmup
from a start rate to the base rate, then step drops by 0.1 at configured
epochs. Everything is seeded: two runs with identical configs produce
bit-identical checkpoints.
"""

from __future__ import annotations

import contextlib
import os
import zipfile
from dataclasses import astuple, dataclass, field

import numpy as np

from .anchors import match_anchors
from .dataset import check_class_ids, load_dataset
from .detector_net import (FORWARD_BATCH, SEG_MODES, BackboneSpec, DetectorParams,
                           Toggles, build_network, forward)
from .losses import LossBreakdown, LossConfig, total_loss
from .sws_masks import AWS_THRESHOLDS, AreaThresholds, rasterize_sws_mask
from .tensor_core import ShapeError

@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    base_lr: float = 5e-3
    warmup_start_lr: float = 5e-5
    warmup_epochs: int = 3
    lr_drop_epochs: tuple = (20, 26)
    momentum: float = 0.9
    weight_decay: float = 0.0005
    seed: int = 0
    toggles: Toggles = field(default_factory=Toggles)
    t1: float = 64.0
    t2: float = 1024.0
    num_classes: int = 3
    image_size: int = 64
    stage_channels: tuple = (16, 32, 64, 64, 64)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        for key in ("epochs", "batch_size"):
            if getattr(self, key) < 1:
                raise ShapeError(f"{key} must be >= 1, got {getattr(self, key)}")
        # The checkpoint stores the seed as int64.
        if not 0 <= self.seed < 2 ** 63:
            raise ShapeError(f"seed must lie in 0..{2 ** 63 - 1}, got {self.seed}")
        drops = tuple(self.lr_drop_epochs)
        object.__setattr__(self, "lr_drop_epochs", drops)
        if self.base_lr <= 0 or self.warmup_start_lr <= 0:
            raise ShapeError("learning rates must be positive")
        if drops and not (self.warmup_epochs < drops[0] < self.epochs):
            raise ShapeError("need warmup epochs < first drop epoch < total epochs")

    @property
    def thresholds(self) -> AreaThresholds:
        if self.toggles.seg_mode == "aws":
            return AWS_THRESHOLDS
        return AreaThresholds(self.t1, self.t2)


def lr_at(epoch: int, config: TrainConfig) -> float:
    """Linear warmup to base_lr, then cumulative x0.1 drops."""
    if not 0 <= epoch < config.epochs:
        raise ShapeError(f"epoch {epoch} outside [0, {config.epochs})")
    if epoch < config.warmup_epochs:
        frac = epoch / config.warmup_epochs
        lr = config.warmup_start_lr + (config.base_lr - config.warmup_start_lr) * frac
    else:
        lr = config.base_lr
    for drop in config.lr_drop_epochs:
        if epoch >= drop:
            lr *= 0.1
    return lr


class SGD:
    """Momentum SGD with decoupled L2 decay on convolution weights."""

    def __init__(self, named_params, momentum, weight_decay):
        self.named_params = named_params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(t.data) for name, t in named_params}

    def step(self, lr):
        for name, t in self.named_params:
            g = t.grad if t.grad is not None else 0.0
            v = self.velocity[name]
            v *= self.momentum
            v += g
            if self.weight_decay and name.endswith(".w"):
                t.data *= 1.0 - lr * self.weight_decay
            t.data -= lr * v
            t.grad = None


@dataclass
class TrainResult:
    detector: DetectorParams
    log: list            # per-step LossBreakdown
    steps: int


def prepare_sample(det: DetectorParams, config: TrainConfig, image, gts):
    """One image as a batch of one: the (1, 3, S, S) float32 image, its
    (M, 5) ground truth, the (1, A) anchor assignment into it and the
    (1, S, S) SWS/AWS mask (None without segmentation)."""
    assignment = match_anchors(det.anchors, gts[:, :4])[None]
    mask = None
    if det.toggles.seg_mode != "off":
        mask = rasterize_sws_mask(gts, config.image_size, config.thresholds)[None]
    return image.astype(np.float32)[None], gts, assignment, mask


def join_samples(samples):
    """Prepared samples joined along the batch axis; each assignment is
    offset to its rows of the joined ground truth."""
    images, gts, assignments, masks = zip(*samples)
    offsets = np.cumsum([0] + [len(g) for g in gts[:-1]])
    assignment = np.concatenate([np.where(a >= 0, a + off, -1)
                                 for a, off in zip(assignments, offsets)])
    mask = None if masks[0] is None else np.concatenate(masks)
    return np.concatenate(images), np.concatenate(gts), assignment, mask


def train(config: TrainConfig, data_dir, log_fn=None, ckpt_path=None) -> TrainResult:
    """Train on a dataset directory; aborts with diagnostics on NaN loss.

    Each mini-batch runs as tapes of up to FORWARD_BATCH images: one forward,
    one loss over the tape and one backward seeded with 1/len(batch), so the
    step follows the mean loss of the mini-batch.
    """
    det = build_network(BackboneSpec(config.image_size, config.stage_channels),
                        config.num_classes, config.toggles,
                        seed=config.seed, dtype=np.float32)
    data = load_dataset(data_dir, config.image_size, "train config image_size")
    check_class_ids(data, data_dir, config.num_classes)
    samples = [prepare_sample(det, config, img, gts) for _, img, gts in data]
    del data  # training reads the float32 copies; free the float64 images
    if not samples:
        raise ShapeError(f"no images found under {data_dir}")
    opt = SGD(det.named_params(), config.momentum, config.weight_decay)
    rng = np.random.default_rng(config.seed + 1)
    log, step = [], 0
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = rng.permutation(len(samples))
        for start in range(0, len(order), config.batch_size):
            batch = order[start:start + config.batch_size]
            sums = np.zeros(6)  # the LossBreakdown fields, n_pos last
            for tape_start in range(0, len(batch), FORWARD_BATCH):
                images, gts, assignment, mask = join_samples(
                    [samples[idx] for idx in batch[tape_start:tape_start + FORWARD_BATCH]])
                _, outputs = forward(det, images)
                breakdown, loss = total_loss(outputs, assignment, gts, mask, config.loss)
                if not np.isfinite(breakdown.total):
                    raise FloatingPointError(
                        f"NaN/Inf loss at step {step}: l_conf={breakdown.l_conf} "
                        f"l_loc={breakdown.l_loc} l_seg={breakdown.l_seg}")
                sums += astuple(breakdown)
                loss.backward(np.array(1.0 / len(batch), dtype=np.float32))
            opt.step(lr)
            avg = LossBreakdown(*(sums[:5] / len(batch)), n_pos=int(sums[5]))
            log.append(avg)
            if log_fn is not None:
                log_fn(avg.record(step) + f" lr={lr:g} epoch={epoch}")
            step += 1
        if ckpt_path is not None:
            save_checkpoint(ckpt_path, det, config, opt, step, rng)
    return TrainResult(detector=det, log=log, steps=step)


# ---------------------------------------------------------------------------
# Checkpoint: one uncompressed numpy .npz whose zip container CRC-checks every
# member. Members:
#   meta         <i8 (7,)  seed, num_classes, image_size, mrf, extra_level,
#                          seg-mode index, step
#   meta.stages  <i8 (S,)  backbone stage widths
#   rng.pcg64    u1 (32,)  PCG64 state then increment, 16 bytes little-endian each
#   names        <U (P,)   parameter names in det.params order
#   params       <f4 (n,)  every parameter, flattened, in that order
#   momentum     <f4 (n,)  the SGD velocities, in that order (only with an optimizer)
# ---------------------------------------------------------------------------

REQUIRED_MEMBERS = ("meta", "meta.stages", "rng.pcg64", "names", "params")


class _Flat(list):
    """Arrays that np.savez flattens into one <f4 member only as it writes
    that member, so a save holds one flat member at a time."""

    def __array__(self, dtype=None, copy=None):
        return np.concatenate([np.ravel(a) for a in self]).astype("<f4", copy=False)


def save_checkpoint(path, det: DetectorParams, config: TrainConfig,
                    optimizer: SGD = None, step: int = 0, rng=None):
    """Write `det` (plus the optimizer state, step and shuffle RNG) to `path`."""
    names = list(det.params)
    meta = [det.seed, det.num_classes, det.backbone.image_size, int(det.toggles.mrf),
            int(det.toggles.extra_level), SEG_MODES.index(det.toggles.seg_mode), step]
    if rng is None:
        rng = np.random.default_rng(config.seed + 1)
    state = rng.bit_generator.state["state"]
    raw = state["state"].to_bytes(16, "little") + state["inc"].to_bytes(16, "little")
    members = {"meta": np.array(meta, dtype="<i8"),
               "meta.stages": np.array(det.backbone.stage_channels, dtype="<i8"),
               "rng.pcg64": np.frombuffer(raw, dtype="u1"),
               "names": np.array(names),
               "params": _Flat(t.data for t in det.params.values())}
    if optimizer is not None:
        members["momentum"] = _Flat(optimizer.velocity[name] for name in names)
    # Write a sibling file and rename it over the target, so a failed write
    # never leaves a cut checkpoint at `path`.
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **members)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Rebuild the detector and return (DetectorParams, members dict)."""
    with open(path, "rb") as f:
        head = f.read(4)
    if head == b"MRFD":
        raise ShapeError(f"checkpoint {path} is in the retired version-1 format; "
                         "train again to write an .npz checkpoint")
    if not b"PK\x03\x04".startswith(head):
        raise ShapeError(f"{path} is not a detector checkpoint")
    try:
        with np.load(path, allow_pickle=False) as z:
            # Members are written uncompressed and without comments: another
            # method is a corrupt header (refusing it keeps the decompressors
            # out of reach), and a comment would swallow the entries after it.
            if any(info.compress_type != zipfile.ZIP_STORED or info.comment
                   for info in z.zip.infolist()):
                raise zipfile.BadZipFile("corrupt member entry")
            # np.load checks a member's CRC-32 only when it reads to the
            # member's end, which a corrupt .npy header can prevent.
            if (bad := z.zip.testzip()) is not None:
                raise zipfile.BadZipFile(f"bad CRC-32 for {bad}")
            members = {key: z[key] for key in z.files}
            if not all(isinstance(a, np.ndarray) for a in members.values()):
                raise zipfile.BadZipFile("a member is not an .npy array")
    # What a cut or a flipped byte raises inside zipfile and numpy's .npy reader.
    except (zipfile.BadZipFile, EOFError, ValueError, OSError, RuntimeError) as exc:
        raise ShapeError(f"checkpoint {path} is truncated or corrupt ({exc!r})") from None
    for key in REQUIRED_MEMBERS:
        if key not in members:
            raise ShapeError(f"checkpoint {path} is truncated: it has no {key} member")
    meta = members["meta"]
    if meta.dtype != "<i8" or meta.shape != (7,) or not 0 <= meta[5] < len(SEG_MODES):
        raise ShapeError(f"checkpoint {path} has a malformed meta member {meta.dtype.str} "
                         f"{meta.tolist()}: expected 7 int64 values with a seg-mode index "
                         f"below {len(SEG_MODES)}")
    for field, value, low in (("seed", meta[0], 0), ("num_classes", meta[1], 1)):
        if value < low:
            raise ShapeError(f"checkpoint {path} has {field} {value} in its meta "
                             f"member; expected at least {low}")
    stages = members["meta.stages"]
    if stages.dtype != "<i8" or stages.ndim != 1:
        raise ShapeError(f"checkpoint {path} has a malformed meta.stages member "
                         f"{stages.dtype.str} {stages.tolist()}: expected int64 stage widths")
    try:
        toggles = Toggles(mrf=bool(meta[3]), extra_level=bool(meta[4]),
                          seg_mode=SEG_MODES[meta[5]])
        det = build_network(BackboneSpec(int(meta[2]), tuple(stages.tolist())),
                            int(meta[1]), toggles, seed=int(meta[0]), dtype=np.float32)
    except ShapeError as exc:
        raise ShapeError(f"checkpoint {path} describes no valid network: {exc}") from None
    names, expected = members["names"], list(det.params)
    if names.ndim != 1 or names.tolist() != expected:
        stored = set(names.ravel().tolist())
        raise ShapeError(f"checkpoint {path} parameter names do not match the network "
                         f"layout (missing {sorted(set(expected) - stored)[:3]}, "
                         f"unexpected {sorted(stored - set(expected), key=str)[:3]})")
    size = sum(t.data.size for t in det.params.values())
    for key, dtype, shape in (("rng.pcg64", "u1", (32,)), ("params", "<f4", (size,)),
                              ("momentum", "<f4", (size,))):
        if key in members and (members[key].dtype != dtype or members[key].shape != shape):
            raise ShapeError(f"checkpoint {path} has a {key} member of "
                             f"{members[key].dtype.str} {members[key].shape}; "
                             f"expected {dtype} {shape}")
    offset = 0
    for t in det.params.values():
        t.data = members["params"][offset:offset + t.data.size].reshape(t.data.shape)
        offset += t.data.size
    return det, members
