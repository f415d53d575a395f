"""Data streams: synthetic class-cluster datasets, sharp task splits, and
gradually blurred class schedules.

A stream is a view over its dataset: one array of training-row indices in
stream order plus each step's start offset, so a step's batch is gathered
from the dataset only when the stream is iterated.  Its metadata (the
class-to-task map, batch layout, dataset digest, schedule scale) is never
seen by the learner; it serves evaluation, the doubly-masked ablation's
task partition and ``compare``'s check that two reports share a stream.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import numbers
import os
import struct
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:
    from .report import ExperimentConfig

DATASET_MAGIC = b"ARDS"
DATASET_VERSION = 1

# a setting's kind -> (its name in messages, the types that hold it)
_KINDS = {int: ("an integer", numbers.Integral),
          float: ("a number", numbers.Real), str: ("a string", str),
          tuple: ("a nonempty list of integers", (list, tuple))}


def shown(value) -> str:
    """``repr(value)``, or the size of an integer too long to print."""
    try:
        return repr(value)
    except ValueError:   # an integer past sys.get_int_max_str_digits()
        return (f"an integer of {int(value).bit_length()} bits"
                if isinstance(value, numbers.Integral)
                else f"a {type(value).__name__} too long to print")


def check_value(name, value, kind, floor=None, strict=False, optional=False):
    """Setting ``name``'s ``value`` as a ``kind`` (int, float, str, tuple:
    a nonempty list of integers, each checked as an int, or an enum: one of
    its members or their values), refused by name unless it is None and
    ``optional``, or of its kind (a bool is never a number) and, if a
    number, finite and >= ``floor`` (> when ``strict``)."""
    if value is None and optional:
        return None
    if isinstance(kind, enum.EnumMeta):
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"{name} must be one of "
                             f"{', '.join(m.value for m in kind)}, "
                             f"got {shown(value)}") from None
    noun, types = _KINDS[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or (kind is tuple and not value)):
        raise ValueError(f"{name} must be {noun}{' or null' * optional}, "
                         f"got {shown(value)}")
    if kind is tuple:
        return tuple(check_value(name, v, int, floor, strict) for v in value)
    # comparisons refuse NaN and never convert a big int to a float
    if kind is not str and not (
            (kind is int or abs(value) <= sys.float_info.max) and (
                floor is None or (floor < value if strict else floor <= value))):
        bound = f" and {'>' if strict else '>='} {floor}" * (floor is not None)
        raise ValueError(f"{name} must be finite{bound}, got {shown(value)}")
    return kind(value)


class StreamMode(enum.Enum):
    SPLIT = "split"
    BLURRY = "blurry"


def check_num_classes(cfg, num_classes: int):
    """Refuse a class count the stream of ``cfg`` cannot partition or reach."""
    if (cfg.stream_mode is StreamMode.SPLIT
            and num_classes % cfg.classes_per_task):
        raise ValueError(f"num_classes {num_classes} must be divisible "
                         f"by classes_per_task {cfg.classes_per_task}")
    if (cfg.stream_mode is StreamMode.BLURRY and cfg.variance_scale is None
            and cfg.target_unique_labels > num_classes):
        raise ValueError("target_unique_labels must be <= num_classes "
                         f"{num_classes}")


@dataclass
class LabeledBatch:
    inputs: np.ndarray
    labels: np.ndarray


@dataclass
class Dataset:
    """Splits over labels ``0..num_classes-1``; a class may have no rows in
    a split.  Streams, model and evaluation take the class count from here."""
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    def __post_init__(self):
        check_value("num_classes", self.num_classes, int, 1)
        check_value("input_dim", self.input_dim, int, 1)
        if not len(self.train_y):
            raise ValueError("dataset has no training rows")
        for split in ("train", "val", "test"):
            y = np.asarray(getattr(self, f"{split}_y"))
            bad = y[(y < 0) | (y >= self.num_classes)]
            if bad.size:
                raise ValueError(f"{split} label {bad[0]} outside "
                                 f"0..{self.num_classes - 1}")

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]

    def train_count_per_class(self) -> np.ndarray:
        return np.bincount(self.train_y, minlength=self.num_classes)

    def sha256(self) -> str:
        """Digest of the class count and each split, in the file format's
        dtypes: a dataset and its saved file digest alike."""
        h = hashlib.sha256(struct.pack("<I", self.num_classes))
        for split in ("train", "val", "test"):
            h.update(np.ascontiguousarray(getattr(self, f"{split}_x"), "<f4"))
            h.update(np.ascontiguousarray(getattr(self, f"{split}_y"), "<i4"))
        return h.hexdigest()


@dataclass
class Stream:
    """One pass over ``dataset``'s training rows: ``order[i]`` is the row
    of the i-th streamed sample and step k's batch is
    ``order[starts[k]:starts[k + 1]]``.  Each pass gathers fresh batches,
    so a yielded batch may be mutated without affecting the stream.
    ``task_ids[c]`` is class c's task."""
    dataset: Dataset
    order: np.ndarray
    starts: np.ndarray
    task_ids: np.ndarray
    boundaries: list       # step indices at which a new task begins (SPLIT)
    mode: StreamMode
    batch_size: int
    variance_scale: Optional[float] = None   # the schedule scale (BLURRY)

    def __iter__(self):
        x, y = self.dataset.train_x, self.dataset.train_y
        ends = [*self.starts[1:].tolist(), len(self.order)]
        for lo, hi in zip(self.starts.tolist(), ends):
            sel = self.order[lo:hi]
            yield LabeledBatch(x[sel], y[sel])

    def __len__(self):
        return len(self.starts)

    def metadata(self) -> dict:
        return {
            "mode": self.mode.value,
            "task_of_class": {str(c): t for c, t in
                              enumerate(self.task_ids.tolist())},
            "boundaries": list(self.boundaries),
            "num_steps": len(self),
            "batch_size": self.batch_size,
            "dataset_sha256": self.dataset.sha256(),
            "variance_scale": self.variance_scale,
        }


# the synthetic dataset's class-mean radius, and its validation and test
# counts per class as fractions of the training count
MEAN_RADIUS = 1.0
VAL_FRACTION = 0.05
TEST_FRACTION = 0.25


def random_class_means(num_classes: int, input_dim: int,
                       seed: int) -> np.ndarray:
    """Distinct random directions of norm ``MEAN_RADIUS``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1A55]))
    means = rng.normal(size=(num_classes, input_dim))
    means /= np.linalg.norm(means, axis=1, keepdims=True)
    return (means * MEAN_RADIUS).astype(np.float32)


# the config fields a synthetic dataset is made from
SYNTHETIC_KEYS = ("input_dim", "num_classes", "samples_per_class",
                  "noise_sigma")


def make_synthetic(cfg: ExperimentConfig, seed: int) -> Dataset:
    """Gaussian clusters around per-class means, deterministic per seed,
    from the ``SYNTHETIC_KEYS`` fields of ``cfg``.

    ``samples_per_class`` sets the training count; validation and test
    counts are ``VAL_FRACTION`` and ``TEST_FRACTION`` of it (at least one
    test sample per class so every task is evaluable).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDA7A]))
    means = random_class_means(cfg.num_classes, cfg.input_dim, seed)
    counts = (cfg.samples_per_class,
              max(1, round(VAL_FRACTION * cfg.samples_per_class)),
              max(1, round(TEST_FRACTION * cfg.samples_per_class)))
    # one draw of every class's rows equals one draw per class in turn
    x = rng.normal(scale=cfg.noise_sigma,
                   size=(cfg.num_classes, sum(counts), cfg.input_dim))
    x += means[:, None]
    labels = np.arange(cfg.num_classes, dtype=np.intp)
    splits = []
    for lo, n in zip(np.cumsum(counts) - counts, counts):
        part = x[:, lo:lo + n].astype(np.float32)   # C-contiguous (C, n, d)
        splits += [part.reshape(-1, cfg.input_dim), np.repeat(labels, n)]
    return Dataset(*splits, cfg.num_classes)


def split_stream(dataset: Dataset, cfg: ExperimentConfig, seed: int) -> Stream:
    """Disjoint tasks in ascending class order, one pass, shuffled within."""
    check_num_classes(cfg, dataset.num_classes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B117]))
    task_ids = np.arange(dataset.num_classes) // cfg.classes_per_task
    order, starts, boundaries = [], [], []
    n_streamed = 0
    for t in range(task_ids[-1] + 1):
        boundaries.append(len(starts))
        idx = np.flatnonzero(task_ids[dataset.train_y] == t)
        order.append(rng.permutation(idx))
        # each task is cut into its own batches; the last one may be short
        starts.extend(range(n_streamed, n_streamed + len(idx), cfg.batch_size))
        n_streamed += len(idx)
    return Stream(dataset, np.concatenate([np.zeros(0, np.intp), *order]),
                  np.array(starts, dtype=np.intp), task_ids, boundaries,
                  StreamMode.SPLIT, cfg.batch_size)


def _schedule_log_weights(per_class_samples: np.ndarray, t: float,
                          variance_scale: float) -> np.ndarray:
    """Unnormalized per-class log weights of the Gaussian schedule at sample
    counter t (class c peaks when roughly c classes' worth of data has
    streamed)."""
    n_c = np.asarray(per_class_samples, np.float64)
    mu = np.cumsum(n_c) - n_c / 2.0      # equals (2c-1)*N_c/2 for equal counts
    var = np.maximum(n_c / 4.0 * variance_scale, 1e-12)
    return -((mu - t) ** 2) / (2.0 * var)


def _draw_blurry_labels(per_class_samples: np.ndarray, batch_size: int,
                        variance_scale: float, rng: np.random.Generator):
    """One array of every pool's labels in stream order; step k's batch,
    ``labels[k * batch_size:][:batch_size]``, is weighted at its start.

    ``rng.choice(n, p=w)`` is ``cdf.searchsorted(rng.random(), "right")``
    and ``rng.random(k)`` yields k single calls' doubles, so with k at most
    the smallest pool, which then cannot empty before the last draw, one
    ``choice(n, size=k, p=w)`` equals k single draws.  The per-sample
    oracle in tests/reference.py catches a numpy change to this.
    """
    remaining = np.array(per_class_samples, np.int64)
    labels = np.empty(int(remaining.sum()), dtype=np.intp)
    i = 0
    while i < len(labels):
        lw = _schedule_log_weights(per_class_samples, i, variance_scale)
        end = min(i + batch_size, len(labels))
        while i < end:
            avail = np.flatnonzero(remaining)
            w = np.exp(lw[avail] - lw[avail].max())
            w /= w.sum()
            k = min(end - i, int(remaining[avail].min()))
            labels[i:i + k] = avail[rng.choice(avail.size, size=k, p=w)]
            remaining -= np.bincount(labels[i:i + k], minlength=remaining.size)
            i += k
    return labels


# the seeds whose label draws calibration fits
CALIBRATION_SEEDS = (0, 1, 2)


def _mean_unique_labels(per_class_samples, batch_size,
                        variance_scale) -> float:
    """Mean distinct labels per batch in the label draws ``blurry_stream``
    makes for ``CALIBRATION_SEEDS``."""
    vals = []
    for s in CALIBRATION_SEEDS:
        rng = np.random.default_rng(np.random.SeedSequence([s, 0xB1E5]))
        labels = _draw_blurry_labels(per_class_samples, batch_size,
                                     variance_scale, rng)
        vals.extend(np.count_nonzero(np.bincount(labels[i:i + batch_size]))
                    for i in range(0, len(labels), batch_size))
    return float(np.mean(vals))


def calibrate_variance_scale(per_class_samples, batch_size: int,
                             target: float) -> float:
    """Find the schedule-variance multiplier whose simulated streams average
    ``target`` unique labels per batch (bisection on the log scale).  A
    target further than the bisection's tolerance outside what the streams
    reach at the multipliers' ends is refused with that range."""
    return _calibrate(tuple(int(n) for n in per_class_samples), batch_size,
                      round(target, 3))


@functools.cache
def _calibrate(counts: tuple, batch_size: int, target: float) -> float:
    lo, hi = -6.0, 10.0  # log10 of the variance multiplier
    f_lo, f_hi = (_mean_unique_labels(counts, batch_size, 10.0 ** end)
                  for end in (lo, hi))
    if not f_lo - 0.05 <= target <= f_hi + 0.05:
        raise ValueError(f"unattainable blurriness level {target}: these "
                         f"streams reach {f_lo:.2f} to {f_hi:.2f} unique "
                         "labels per batch")
    if target <= f_lo:
        return 10.0 ** lo
    if target >= f_hi:
        return 10.0 ** hi
    for _ in range(24):
        mid = (lo + hi) / 2.0
        f_mid = _mean_unique_labels(counts, batch_size, 10.0 ** mid)
        if abs(f_mid - target) < 0.05:
            lo = hi = mid
            break
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    return 10.0 ** ((lo + hi) / 2.0)


def blurry_stream(dataset: Dataset, cfg: ExperimentConfig,
                  seed: int) -> Stream:
    """Classes phase in and out under per-class Gaussian schedules.

    Labels are drawn categorically from the normalized schedule weights;
    inputs are drawn without replacement from each class's remaining pool,
    with exhausted classes dropped and the weights renormalized.
    """
    per_class = dataset.train_count_per_class()
    scale = cfg.variance_scale
    if scale is None:
        scale = calibrate_variance_scale(per_class, cfg.batch_size,
                                         cfg.target_unique_labels)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB1E5]))
    labels = _draw_blurry_labels(per_class, cfg.batch_size, scale, rng)
    # each class's training rows are shuffled into a pool that is popped
    # from the end: the k-th draw of class c takes pool[-1 - k]
    order = np.empty(len(labels), dtype=np.intp)
    for c in range(dataset.num_classes):
        pool = rng.permutation(np.where(dataset.train_y == c)[0])
        order[labels == c] = pool[::-1]
    return Stream(dataset, order, np.arange(0, len(labels), cfg.batch_size),
                  np.arange(dataset.num_classes) // cfg.classes_per_task, [],
                  StreamMode.BLURRY, cfg.batch_size, scale)


def make_stream(dataset: Dataset, cfg: ExperimentConfig, seed: int) -> Stream:
    if cfg.stream_mode is StreamMode.SPLIT:
        return split_stream(dataset, cfg, seed)
    return blurry_stream(dataset, cfg, seed)


# dataset file format ----------------------------------------------------

def _row_dtype(dim: int) -> np.dtype:
    """One file row: ``dim`` little-endian float32 inputs, an int32 label."""
    return np.dtype([("x", "<f4", (dim,)), ("y", "<i4")])


def save_dataset(dataset: Dataset, path):
    """Little-endian binary: magic, version, input_dim, num_classes, three
    split counts, then the train, val and test rows back to back, each of
    input_dim float32 plus an int32 label."""
    ys = [dataset.train_y, dataset.val_y, dataset.test_y]
    rows = np.empty(sum(map(len, ys)), dtype=_row_dtype(dataset.input_dim))
    rows["x"] = np.concatenate([dataset.train_x, dataset.val_x, dataset.test_x])
    rows["y"] = np.concatenate(ys)
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<IIIIII", DATASET_VERSION, dataset.input_dim,
                             dataset.num_classes, *map(len, ys)))
        fh.write(rows.tobytes())


class DatasetParseError(ValueError):
    def __init__(self, message, offset):
        super().__init__(message, offset)   # what unpickling passes back
        self.offset = offset

    def __str__(self):
        return f"{self.args[0]} (at byte offset {self.offset})"


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != DATASET_MAGIC:
            raise DatasetParseError(f"bad dataset magic {magic!r}", 0)
        header = fh.read(24)
        if len(header) != 24:
            raise DatasetParseError("truncated header", fh.tell())
        version, dim, num_classes, n_train, n_val, n_test = struct.unpack(
            "<IIIIII", header)
        if version != DATASET_VERSION:
            raise DatasetParseError(f"unsupported version {version}", 4)
        if 4 * dim + 4 >= 2**31:   # numpy dtypes stay under 2 GiB
            raise DatasetParseError(f"input_dim {dim} too large", 8)
        row = _row_dtype(dim)
        n_rows = n_train + n_val + n_test
        # never ask for more than the file holds, whatever the header says
        raw = fh.read(min(n_rows * row.itemsize,
                          os.fstat(fh.fileno()).st_size - fh.tell()))
        rows = np.frombuffer(raw, dtype=row, count=len(raw) // row.itemsize)
        # a bad label in a complete row is reported before truncation
        bad = np.flatnonzero((rows["y"] < 0) | (rows["y"] >= num_classes))
        if len(bad):
            i = int(bad[0])
            raise DatasetParseError(f"label {rows['y'][i]} out of range",
                                    28 + i * row.itemsize + 4 * dim)
        if len(rows) != n_rows:
            raise DatasetParseError("truncated payload", fh.tell())
        if fh.read(1):
            raise DatasetParseError("trailing bytes after payload", fh.tell() - 1)
    x, y = rows["x"].astype(np.float32), rows["y"].astype(np.intp)
    val, test = n_train, n_train + n_val   # where each split's rows begin
    return Dataset(x[:val], y[:val], x[val:test], y[val:test], x[test:],
                   y[test:], num_classes)
