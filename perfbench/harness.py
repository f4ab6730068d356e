"""Workloads, set-up, output checks and metrics of the mrfdet benchmark.

Every timed operation is one in-process call of `mrfdet.cli.main`, the
interface users run. The Python API is called only in set-up, in the
warm-up, in the output checks and from the traced run's wrappers.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mrfdet
from mrfdet import cli, dataset, detector_net, inference, losses, trainer

import bootstrap
from bootstrap import SetupError

BENCH_DIR = Path(__file__).resolve().parent
WEIGHTS_MANIFEST = BENCH_DIR / "weights" / "trained.json"
SETUP_REPEATS = 11
MAX_DETECTIONS_PER_IMAGE = 200      # the CLI's max_keep


# ---------------------------------------------------------------------------
# Statistics.
# ---------------------------------------------------------------------------

def median(values):
    """Median of a non-empty sequence (mean of the two middle values if even)."""
    return percentile(values, 50.0)


def percentile(values, q):
    """q-th percentile with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    rank = (len(xs) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


# ---------------------------------------------------------------------------
# Parsing the CLI's output.
# ---------------------------------------------------------------------------

STEP_FIELDS = ("l_conf", "l_loc", "l_seg", "total")
_STEP_RE = re.compile(r"^step=(\d+) (.*)$")
_MAP_RE = re.compile(r"^mAP\s+(\S+)$", re.M)
_COUNTS_RE = re.compile(r"^TP=(\d+) FP=(\d+) missed=(\d+)$", re.M)
_COCO_AP50_RE = re.compile(r"^AP@0\.5\s+(\S+)$", re.M)
_TRAINED_RE = re.compile(r"^trained (\d+) steps", re.M)


def parse_step_record(line):
    """One per-step training record as a dict, or None for any other line."""
    m = _STEP_RE.match(line.strip())
    if not m:
        return None
    rec = {"step": int(m.group(1))}
    for item in m.group(2).split():
        key, _, value = item.partition("=")
        if key in STEP_FIELDS or key == "lr":
            rec[key] = float(value)
        elif key in ("n_pos", "epoch"):
            rec[key] = int(value)
    return rec


def step_intervals_ms(timed_lines):
    """Intervals between consecutive step records; set-up before step 0 is excluded."""
    stamps = [t for t, line in timed_lines if parse_step_record(line) is not None]
    return [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]


def parse_voc_report(text):
    """(mAP, TP, FP, missed) from `mrfdet eval` output."""
    m, c = _MAP_RE.search(text), _COUNTS_RE.search(text)
    if not m or not c:
        raise ValueError("eval output lacks the mAP or TP/FP/missed line")
    return float(m.group(1)), int(c.group(1)), int(c.group(2)), int(c.group(3))


def parse_coco_ap50(text):
    m = _COCO_AP50_RE.search(text)
    if not m:
        raise ValueError("coco-style output lacks the AP@0.5 line")
    return float(m.group(1))


def count_ground_truth(data_dir):
    """Objects in a dataset, counted from annotations.txt (one object per line)."""
    with open(Path(data_dir) / "annotations.txt", encoding="utf-8") as f:
        return sum(1 for line in f if line.strip())


# ---------------------------------------------------------------------------
# Running one CLI command in-process.
# ---------------------------------------------------------------------------

class TimedLines(io.TextIOBase):
    """A stdout replacement that stamps every completed line with perf_counter()."""

    def __init__(self):
        self.lines = []
        self._partial = ""

    def writable(self):
        return True

    def write(self, s):
        now = time.perf_counter()
        self._partial += s
        *done, self._partial = self._partial.split("\n")
        self.lines.extend((now, line) for line in done)
        return len(s)


@dataclass
class CommandResult:
    kind: str               # "train" | "eval" | "coco_eval"
    argv: list
    wall_s: float
    ok: bool
    lines: list             # (perf_counter, line) of stdout
    stderr: str

    @property
    def text(self):
        return "\n".join(line for _, line in self.lines)


def run_cli(kind, argv, tracer=None):
    # Each CLI command is a fresh process for a user; collect the previous
    # command's garbage outside the timed region.
    gc.collect()
    out, err = TimedLines(), io.StringIO()
    span = tracer.span(f"cli.{kind}") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:       # a crash is a failed operation, not a crashed benchmark
        err.write(traceback.format_exc())
        code = 1
    wall = time.perf_counter() - t0
    return CommandResult(kind, argv, wall, code == 0, out.lines, err.getvalue())


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

# The train workload's command: the default architecture, batch 8, 200
# images, one epoch instead of 30. Warmup and the LR drops are removed so
# the config validates and the one epoch trains at the base rate.
FULL_TRAIN = {"epochs": 1, "batch_size": 8, "warmup_epochs": 0, "lr_drop_epochs": ""}
# The eval workloads' command: one warmup-rate epoch at batch 1 on a
# 32-image set, so every workload reports the training metrics cheaply and
# a run still pools over 100 step intervals for p90.
TINY_TRAIN = {"epochs": 1, "batch_size": 1, "lr_drop_epochs": ""}
TEST_IMAGES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    train: dict             # config keys of the round's `mrfdet train`
    train_images: int
    model: str              # checkpoint the evals read: "trained" or "untrained"
    loss_must_drop: bool = False  # the train command runs at the base LR
    min_map: float = None   # mAP@0.5 property of the evaluated model
    max_map: float = None
    test_images: int = TEST_IMAGES


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("train", FULL_TRAIN, train_images=200, model="trained",
             loss_must_drop=True, min_map=0.5),
    Workload("eval_sparse", TINY_TRAIN, train_images=32, model="trained", min_map=0.5),
    Workload("eval_dense", TINY_TRAIN, train_images=32, model="untrained", max_map=0.1,
             test_images=10),
)}


def dataset_seeds(seed):
    """Benchmark seed -> (train set seed, test set seed); seed 0 gives the gate's 0/1."""
    return 2 * seed, 2 * seed + 1


@dataclass
class Env:
    """Everything set-up made for one run."""
    workload: Workload
    seed: int
    train_dir: Path
    test_dir: Path
    train_config: Path
    own_ckpt: Path          # written by the round's train command
    eval_ckpt: Path         # read by the round's eval commands
    gt_count: int
    fingerprints: dict
    weights_sha256: str = None
    _seed_params: dict = None

    def seed_params(self):
        """The seed initialisation the train command starts from."""
        if self._seed_params is None:
            det = build_seed_network(trainer.TrainConfig())
            self._seed_params = {name: t.data for name, t in det.named_params()}
        return self._seed_params


def build_seed_network(config):
    return detector_net.build_network(
        detector_net.BackboneSpec(config.image_size, config.stage_channels),
        config.num_classes, config.toggles, seed=config.seed, dtype=np.float32)


def read_weights_manifest():
    with open(WEIGHTS_MANIFEST, encoding="utf-8") as f:
        return json.load(f)


def load_trained_weights(det):
    """Fill `det` from the committed weights, by parameter name; returns their hash."""
    manifest = read_weights_manifest()
    raw = (WEIGHTS_MANIFEST.parent / manifest["data"]).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != manifest["sha256"]:
        raise SetupError(f"trained weights hash {digest} != recorded {manifest['sha256']}")
    names = [name for name, _ in manifest["params"]]
    if set(names) != set(det.params):
        missing = sorted(set(det.params) - set(names))[:3]
        unexpected = sorted(set(names) - set(det.params))[:3]
        raise SetupError(f"trained weights do not fit the network (missing {missing}, "
                         f"unexpected {unexpected}); remake them with make_weights.py")
    offset = 0
    for name, shape in manifest["params"]:
        shape = tuple(shape)
        if shape != det.params[name].data.shape:
            raise SetupError(f"trained weight {name} has shape {shape}, network "
                             f"expects {det.params[name].data.shape}")
        count = int(np.prod(shape))
        det.params[name].data = np.frombuffer(raw, "<f4", count, offset).reshape(shape) \
            .astype(np.float32)
        offset += 4 * count
    if offset != len(raw):
        raise SetupError(f"trained weights file has {len(raw) - offset} trailing bytes")
    return digest


def fingerprint_dataset(data_dir):
    """sha256 over annotations.txt and every image's bytes, in sorted order."""
    h = hashlib.sha256()
    data_dir = Path(data_dir)
    h.update((data_dir / "annotations.txt").read_bytes())
    for img in sorted((data_dir / "images").iterdir()):
        h.update(img.read_bytes())
    return h.hexdigest()


def write_config(path, values):
    with open(path, "w", encoding="utf-8") as f:
        for key, value in values.items():
            f.write(f"{key} = {value}\n")


def set_up(workload, seed, work):
    """Make the datasets, the train config and the checkpoint the evals read."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    train_seed, test_seed = dataset_seeds(seed)
    train_dir, test_dir = work / "train", work / "test"
    dataset.synth_dataset(dataset.DatasetSpec(num_images=workload.train_images,
                                              seed=train_seed), str(train_dir))
    dataset.synth_dataset(dataset.DatasetSpec(num_images=workload.test_images,
                                              seed=test_seed), str(test_dir))
    train_config = work / "train_config.txt"
    write_config(train_config, workload.train)
    config = trainer.TrainConfig()
    det = build_seed_network(config)
    weights_sha256 = load_trained_weights(det) if workload.model == "trained" else None
    eval_ckpt = work / f"{workload.model}.ckpt"
    trainer.save_checkpoint(str(eval_ckpt), det, config)
    return Env(workload, seed, train_dir, test_dir, train_config,
               own_ckpt=work / "own.ckpt", eval_ckpt=eval_ckpt,
               gt_count=count_ground_truth(test_dir),
               fingerprints={"train": fingerprint_dataset(train_dir),
                             "test": fingerprint_dataset(test_dir)},
               weights_sha256=weights_sha256)


def warm_up(env, n_images=4):
    """Untimed forward/backward and detection on a few images, so lazy
    allocation and first-call costs fall outside the measured commands."""
    config = trainer.TrainConfig()
    det = build_seed_network(config)
    samples = dataset.load_dataset(str(env.train_dir))[:n_images]
    for _, image, boxes in samples:
        img, gts, assignment, mask = trainer.prepare_sample(det, config, image, boxes)
        _, outputs = detector_net.forward(det, img)
        _, loss = losses.total_loss(outputs, assignment, gts, mask, config.loss)
        loss.backward()
        inference.detect_image(det, image)


def round_commands(env):
    """The CLI invocations of one round: train, eval, eval --coco-style."""
    test, ckpt = str(env.test_dir), str(env.eval_ckpt)
    return [("train", ["train", "--config", str(env.train_config),
                       "--data", str(env.train_dir), "--out", str(env.own_ckpt)]),
            ("eval", ["eval", "--ckpt", ckpt, "--data", test]),
            ("coco_eval", ["eval", "--ckpt", ckpt, "--data", test, "--coco-style"])]


def run_round(env, tracer=None):
    return [run_cli(kind, argv, tracer) for kind, argv in round_commands(env)]


# ---------------------------------------------------------------------------
# Output checks: against counts made here and properties of the method,
# never against a stored copy of earlier output.
# ---------------------------------------------------------------------------

def check_train(res, env):
    wl, problems = env.workload, []
    epochs, batch = wl.train["epochs"], wl.train["batch_size"]
    expected_steps = epochs * math.ceil(wl.train_images / batch)
    records = [r for r in (parse_step_record(line) for _, line in res.lines) if r]
    if len(records) != expected_steps:
        problems.append(f"train logged {len(records)} steps, expected {expected_steps}")
    m = _TRAINED_RE.search(res.text)
    if not m or int(m.group(1)) != expected_steps:
        problems.append(f"train reported {m.group(1) if m else 'no'} steps, "
                        f"expected {expected_steps}")
    if not all(math.isfinite(r[k]) for r in records for k in STEP_FIELDS):
        problems.append("train logged a non-finite loss")
    elif wl.loss_must_drop and len(records) >= 4:
        quarter = len(records) // 4
        first = np.mean([r["total"] for r in records[:quarter]])
        last = np.mean([r["total"] for r in records[-quarter:]])
        if not last < first:
            problems.append(f"mean loss of the last quarter of steps {last:.4f} is not "
                            f"below the first quarter's {first:.4f}")
    try:
        det, _ = trainer.load_checkpoint(str(env.own_ckpt))
    except (ValueError, OSError) as exc:
        return problems + [f"final checkpoint does not reload: {exc}"]
    seed_params = env.seed_params()
    for name, t in det.named_params():
        if not np.all(np.isfinite(t.data)):
            problems.append(f"parameter {name} is not finite")
        elif np.array_equal(t.data, seed_params[name]):
            problems.append(f"parameter {name} still equals its seed initialisation")
    return problems


def check_eval(res, env):
    mAP, tp, fp, missed = parse_voc_report(res.text)
    problems = []
    if tp + missed != env.gt_count:
        problems.append(f"TP {tp} + missed {missed} != {env.gt_count} ground-truth objects")
    limit = MAX_DETECTIONS_PER_IMAGE * env.workload.test_images
    if not 0 < tp + fp <= limit:
        problems.append(f"TP + FP = {tp + fp} outside (0, {limit}]")
    return problems + _check_map("eval mAP@0.5", mAP, env.workload)


def check_coco(res, env):
    return _check_map("coco-style AP@0.5", parse_coco_ap50(res.text), env.workload)


def _check_map(label, value, wl):
    if not 0.0 <= value <= 1.0:
        return [f"{label} {value} outside [0, 1]"]
    if wl.min_map is not None and not value >= wl.min_map:
        return [f"{label} {value} below {wl.min_map}"]
    if wl.max_map is not None and not value < wl.max_map:
        return [f"{label} {value} not below {wl.max_map}"]
    return []


CHECKS = {"train": check_train, "eval": check_eval, "coco_eval": check_coco}


def check_results(results, env):
    """Problems found in the outputs of the commands that did not fail."""
    problems = []
    for res in results:
        if not res.ok:
            continue
        try:
            found = CHECKS[res.kind](res, env)
        except ValueError as exc:
            found = [str(exc)]
        problems.extend(f"{res.kind}: {p}" for p in found)
    return problems


# ---------------------------------------------------------------------------
# End-to-end metrics.
# ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(results, env, setup_times):
    ok = [r for r in results if r.ok]
    trains = [r for r in ok if r.kind == "train"]
    evals = [r.wall_s for r in ok if r.kind == "eval"]
    cocos = [r.wall_s for r in ok if r.kind == "coco_eval"]
    if not trains or not evals or not cocos:
        raise RuntimeError("every command of a kind failed; no metric to report")
    images = env.workload.train["epochs"] * env.workload.train_images
    intervals = [ms for r in trains for ms in step_intervals_ms(r.lines)]
    # The host alternates between two speeds; a median flips between them
    # from run to run, the slow-side percentile does not (see README).
    return {
        "setup_s": (median(setup_times), "s"),
        "train_images_per_s_p10": (percentile([images / r.wall_s for r in trains], 10.0),
                                   "images/s"),
        "train_step_ms_p90": (percentile(intervals, 90.0), "ms"),
        "eval_s_p90": (percentile(evals, 90.0), "s"),
        "coco_eval_s_p90": (percentile(cocos, 90.0), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# ---------------------------------------------------------------------------
# Provenance.
# ---------------------------------------------------------------------------

def git_commit(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def provenance(env):
    train_seed, test_seed = dataset_seeds(env.seed)
    return {
        "git_commit": git_commit(bootstrap.ROOT),
        "mrfdet_version": getattr(mrfdet, "__version__", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "seeds": {"benchmark": env.seed, "train_set": train_seed, "test_set": test_seed,
                  "network": trainer.TrainConfig().seed},
        "dataset_sha256": env.fingerprints,
        "trained_weights_sha256": env.weights_sha256,
        "inputs": {"train_images": env.workload.train_images,
                   "test_images": env.workload.test_images,
                   "test_objects": env.gt_count},
    }
