"""Experiment configs, multi-seed experiment reports, and comparisons.

A config is a flat key/value mapping (JSON on disk) that covers the
dataset, the stream, and the trainer; flags or override dicts win over
file values, and unknown keys are rejected by name.  A run writes one
file, a versioned JSON report holding every per-seed trace and the
stream's metadata, from which any plotter can redraw the figures.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import os
import typing
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .losses import Method, NegativePolicy
from .stream import (Dataset, StreamMode, check_num_classes, check_value,
                     load_dataset, make_synthetic, shown)
from .trainer import RunAbort, run

REPORT_SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or missing fields."""


class ComparisonError(ValueError):
    """Raised when reports are not comparable (different streams)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment; the dataset, stream, loss and trainer
    code read their settings off it by field name.  A field is declared
    once: its annotation is its config type, a numeric field's ``floor``
    metadata is the least value it takes (``strict``: the floor itself is
    refused), ``choices`` metadata is the enum an enum-valued field holds a
    member of (given the member or its value), and ``help`` metadata
    documents its CLI flag.  Construction checks every field from its
    declaration and stores a float field as a float and a list as a
    tuple."""

    # dataset: either a file path or a synthetic spec
    dataset_path: Optional[str] = None
    input_dim: int = field(default=16, metadata={"floor": 1})
    num_classes: int = field(default=10, metadata={"floor": 1})
    # training samples per class
    samples_per_class: int = field(default=1000, metadata={"floor": 1})
    noise_sigma: float = field(default=0.5, metadata={"floor": 0})
    mean_radius: float = field(default=1.0, metadata={"floor": 0})
    val_fraction: float = field(default=0.05, metadata={"floor": 0})
    test_fraction: float = field(default=0.25, metadata={"floor": 0})
    dataset_seed: int = field(default=0, metadata={"floor": 0})
    # stream
    classes_per_task: int = field(default=2, metadata={"floor": 1})
    batch_size: int = field(default=10, metadata={"floor": 1})
    stream_mode: str = field(default=StreamMode.SPLIT,
                             metadata={"choices": StreamMode})
    # blurry mode only: calibrate the schedule variance so batches average
    # this many distinct labels, unless variance_scale sets it (1.0 runs
    # the raw schedule)
    target_unique_labels: float = field(default=2.0, metadata={"floor": 1})
    variance_scale: Optional[float] = field(
        default=None, metadata={"floor": 0, "strict": True})
    # method / loss
    method: str = field(default=Method.ER_ACE, metadata={"choices": Method})
    gamma: float = field(default=1.0, metadata={"floor": 0})
    tau: float = field(default=0.1, metadata={"floor": 0, "strict": True})
    negative_policy: str = field(default=NegativePolicy.INCOMING_ONLY,
                                 metadata={"choices": NegativePolicy})
    triplet_margin: float = field(default=0.2,
                                  metadata={"floor": 0, "strict": True})
    # trainer
    lr: float = field(default=0.05, metadata={"floor": 0})
    rehearsal_batch_size: int = field(default=10, metadata={"floor": 0})
    eval_every: int = field(default=10, metadata={"floor": 1})
    buffer_capacity: int = field(default=20, metadata={"floor": 1})
    hidden_sizes: tuple[int, ...] = field(
        default=(128, 128, 64),
        metadata={"floor": 1, "help": "comma-separated layer widths"})
    # seeds
    seeds: tuple[int, ...] = field(
        default=(0,), metadata={"floor": 0, "help": "comma-separated seeds"})

    def __post_init__(self):
        try:
            for f in dataclasses.fields(self):
                kind, optional = FIELD_KINDS[f.name]
                value, meta = getattr(self, f.name), f.metadata
                if "choices" in meta:
                    try:
                        value = meta["choices"](value)
                    except ValueError:
                        raise ValueError(
                            f"config key {f.name!r} must be one of "
                            f"{', '.join(c.value for c in meta['choices'])}"
                            f", got {value!r}") from None
                else:   # every number declares a floor; a string has none
                    value = check_value(
                        f.name, value, kind,
                        None if kind is str else meta["floor"],
                        meta.get("strict", False), optional)
                object.__setattr__(self, f.name, value)
            if len(set(self.seeds)) < len(self.seeds):
                raise ValueError("seeds must be distinct, got "
                                 f"({', '.join(map(shown, self.seeds))})")
            # a dataset file brings its own class count (its synthetic keys
            # are checked all the same: the report records them)
            if self.dataset_path is None:
                check_num_classes(self, self.num_classes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        """The settings as JSON values: an enum's value, a tuple's list."""
        return {k: v.value if isinstance(v, enum.Enum)
                else list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    def dataset(self) -> Dataset:
        if self.dataset_path is not None:
            return load_dataset(self.dataset_path)
        return make_synthetic(self, self.dataset_seed)


def _kind(hint):
    """(type, optional) of a field annotation; the type is int, float, str
    or tuple (a tuple of integers)."""
    args = typing.get_args(hint)
    if type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return typing.get_origin(hint) or hint, False


# config key -> (type, optional), read off ExperimentConfig's annotations
FIELD_KINDS = {name: _kind(hint) for name, hint in
               typing.get_type_hints(ExperimentConfig).items()}


def parse_config(path: Optional[str] = None,
                 overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus overrides.

    Override values win over file values.  An unknown key is refused by
    name, and the config checks every value as it does one built in Python.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except ValueError as exc:   # also bad UTF-8 or a too-long integer
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(raw)
    merged.update(overrides or {})
    for key in merged:
        if key not in FIELD_KINDS:
            raise ConfigError(f"unknown config key: {key!r}")
    return ExperimentConfig(**merged)


_AGGREGATE_KEYS = ("final_accuracy", "aaa", "forgetting", "train_flops",
                   "eval_flops", "mean_memory_bytes")


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   now: Optional[str] = None) -> dict:
    """Run every seed, aggregate, and (optionally) write report files.

    ``now`` injects the report timestamp; leaving it None stamps wall-clock
    time, which breaks byte-identical reproduction of the report file.
    An aborted seed is recorded with its diagnostic and the rest continue.
    """
    if now is None:
        import datetime
        now = datetime.datetime.now(datetime.timezone.utc).isoformat()
    dataset = cfg.dataset()
    per_seed = []
    stream_meta = None
    for seed in cfg.seeds:
        entry: dict = {"seed": seed, "error": None}
        try:
            result = run(dataset, cfg, seed)
        except RunAbort as exc:
            entry["error"] = str(exc)
            per_seed.append(entry)
            continue
        if stream_meta is None:
            stream_meta = result.stream.metadata()
        log = result.log
        mat, tasks = log.accuracy_matrix()
        entry.update({
            "final_accuracy": _finite(result.final_accuracy),
            "aaa": _finite(result.aaa),
            "forgetting": _finite(result.forgetting),
            "eval_steps": list(log.eval_steps),
            "aa_trace": list(map(_finite, log.aa_trace)),
            "current_task_accuracy": list(map(_finite, log.current_task_accuracy)),
            "final_task_accuracy": {str(t): _finite(v)
                                    for t, v in zip(tasks, mat[-1])},
            "accuracy_matrix": [list(map(_finite, row)) for row in mat.tolist()],
            "tasks": tasks,
            "drift_trace": list(map(_finite, log.drift_trace)),
            "grad_norm_trace": list(log.grad_norm_trace),
            "skipped_anchors_total": log.skipped_anchors,
            "extra_forwards_total": log.extra_forwards,
            "train_flops": result.ledger.train_flops,
            "eval_flops": result.ledger.eval_flops,
            "mean_memory_bytes": result.ledger.mean_memory_bytes,
        })
        per_seed.append(entry)
    aggregates = {}
    for key in _AGGREGATE_KEYS:
        # per-seed values are finite or None; no finite value means null
        vals = [e[key] for e in per_seed if e.get(key) is not None]
        aggregates[key] = {
            "mean": float(np.mean(vals)) if vals else None,
            "stderr": (float(np.std(vals, ddof=1) / math.sqrt(len(vals)))
                       if len(vals) > 1 else 0.0)}
    report = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "library_version": __version__,
        "timestamp": now,
        "config": cfg.to_dict(),
        "stream_metadata": stream_meta,
        "seeds": per_seed,
        "aggregates": aggregates,
    }
    if out_dir is not None:
        write_report_files(report, out_dir)
    return report


def run_experiments(configs: Sequence[ExperimentConfig], out_dirs=None,
                    now: Optional[str] = None, workers: Optional[int] = None):
    """Each config's ``run_experiment`` report, or the exception that ended
    it, in input order, from ``workers`` spawned processes (default and cap:
    one per usable core and per job).  A worker imports the calling script
    first, so a script calls this under ``if __name__ == "__main__":``."""
    if out_dirs is not None and len(out_dirs) != len(configs):
        raise ValueError(f"{len(configs)} configs but {len(out_dirs)} "
                         "output directories")
    import concurrent.futures   # only a pool's callers pay for its imports
    import multiprocessing

    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    # the workers share the cores, so each one's BLAS gets one thread; a
    # spawned worker reads the variable when it loads numpy
    pin = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(workers or usable, usable, len(configs) or 1),
                mp_context=multiprocessing.get_context("spawn")) as ex:
            futures = [ex.submit(run_experiment, cfg, d, now) for cfg, d in
                       zip(configs, out_dirs or [None] * len(configs))]
            return [fut.exception() or fut.result() for fut in futures]
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]


def _finite(v):
    """``v`` as a float, or None (JSON null) when missing or not finite."""
    return None if (v is None or not math.isfinite(v)) else float(v)


def write_json(path: str, obj):
    """``obj`` as key-sorted JSON indented by one space, newline-ended.
    The text is built before the file is opened, so a failed dump leaves
    ``path`` as it was."""
    text = json.dumps(obj, sort_keys=True, indent=1, allow_nan=False) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def write_report_files(report: dict, out_dir: str):
    """``out_dir``/report.json, the run's one output file: it holds every
    per-seed trace (``eval_steps``, ``aa_trace``, ``current_task_accuracy``,
    ``drift_trace``, ``grad_norm_trace``, ``accuracy_matrix``, ``tasks``)
    and the stream's metadata."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report)


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def load_report(path: str) -> dict:
    """A report file, refused by name unless it holds stream metadata with
    a digest, the config keys ``compare`` reads, each of its config type,
    per-seed entries with an error, and aggregates with finite means and
    stderrs (forgetting's mean may be null); a NaN or Infinity is not
    JSON."""
    with open(path) as fh:   # the writer emits strict JSON: no NaN, Infinity
        report = json.load(fh, parse_constant=_not_json)
    version = report.get("schema_version") if isinstance(report, dict) else None
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version {version}")
    for key in ("config", "stream_metadata", "aggregates"):
        if not isinstance(report.get(key), dict):
            raise ValueError(f"report has no {key!r} object")
    if not isinstance(report["stream_metadata"].get("dataset_sha256"), str):
        raise ValueError("report stream_metadata has no 'dataset_sha256'")
    if not (isinstance(report.get("seeds"), list) and all(
            isinstance(e, dict) and "error" in e for e in report["seeds"])):
        raise ValueError("report has no 'seeds' list with an 'error' per seed")
    for key in ("method", "buffer_capacity"):
        if key not in report["config"]:
            raise ValueError(f"report config has no {key!r}")
        check_value(f"report config key {key!r}", report["config"][key],
                    FIELD_KINDS[key][0])
    for key in _AGGREGATE_KEYS:
        agg = report["aggregates"].get(key)
        if not (isinstance(agg, dict) and {"mean", "stderr"} <= agg.keys()):
            raise ValueError(f"report aggregate {key!r} lacks a mean or stderr")
        check_value(f"report aggregate {key!r} mean", agg["mean"], float,
                    optional=key == "forgetting")
        check_value(f"report aggregate {key!r} stderr", agg["stderr"], float)
    return report


def compare(reports: Sequence[dict]):
    """Method-by-metric table of reports over one stream; ``run`` and
    ``sweep`` print it as their summary.

    Returns (text_table, machine_rows).  AAA and final accuracy are mean
    ± stderr over the ``seeds`` that finished, starred when within one
    standard error of the best at its buffer size; FLOPs and memory are
    informational.
    Reports whose ``stream_metadata`` differs are refused.
    """
    for rep in reports[1:]:
        base, meta = reports[0]["stream_metadata"], rep["stream_metadata"]
        diffs = sorted(k for k in base.keys() | meta.keys()
                       if base.get(k) != meta.get(k))
        if diffs:
            raise ComparisonError(
                "reports use different streams (keys differ: "
                + ", ".join(diffs) + ")")
    rows = []
    for rep in reports:
        agg = rep["aggregates"]
        rows.append({
            "method": rep["config"]["method"],
            "buffer_capacity": rep["config"]["buffer_capacity"],
            "seeds": sum(e["error"] is None for e in rep["seeds"]),
            "aaa": agg["aaa"]["mean"], "aaa_stderr": agg["aaa"]["stderr"],
            "final_accuracy": agg["final_accuracy"]["mean"],
            "final_accuracy_stderr": agg["final_accuracy"]["stderr"],
            "train_flops": agg["train_flops"]["mean"],
            "mean_memory_bytes": agg["mean_memory_bytes"]["mean"],
        })
    for key in ("aaa", "final_accuracy"):
        for r in rows:
            # the best mean at r's buffer size, with the widest bar reaching it
            best, best_err = max((o[key], o[f"{key}_stderr"]) for o in rows
                                 if o["buffer_capacity"] == r["buffer_capacity"])
            r[f"{key}_best"] = bool(r[key] + r[f"{key}_stderr"] >= best - best_err)

    def cell(r, key):
        return (f"{r[key]:.4f}±{r[f'{key}_stderr']:.4f}"
                + ("*" if r[f"{key}_best"] else " "))

    header = f"{'method':<16} {'M':>5} {'seeds':>5} {'AAA':>15} " \
             f"{'final acc':>15} {'train FLOPs':>14} {'mem bytes':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(f"{r['method']:<16} {r['buffer_capacity']:>5} "
                     f"{r['seeds']:>5} {cell(r, 'aaa'):>15} "
                     f"{cell(r, 'final_accuracy'):>15} "
                     f"{r['train_flops']:>14.3e} "
                     f"{r['mean_memory_bytes']:>12.1f}")
    return "\n".join(lines) + "\n", rows
