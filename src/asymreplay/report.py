"""Experiment configs, multi-seed experiment reports, and comparisons.

A config is a flat key/value mapping (JSON on disk) that covers the
dataset, the stream, and the trainer; flags or override dicts win over
file values, and unknown keys are rejected by name.  Reports are JSON
with a versioned schema plus plain delimited plot-data files, so any
external plotter can redraw the figures.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .losses import LossConfig, Method, NegativePolicy
from .stream import (Dataset, StreamConfig, StreamMode, SyntheticDatasetSpec,
                     load_dataset, make_synthetic)
from .trainer import RunAbort, TrainerConfig, run

REPORT_SCHEMA_VERSION = 2


class ConfigError(ValueError):
    """Raised for unknown keys, type mismatches, or missing fields."""


class ComparisonError(ValueError):
    """Raised when reports are not comparable (different streams)."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Every setting of an experiment.  A field's annotation is its config
    type; ``choices`` metadata is the enum an enum-valued field is checked
    against and ``help`` metadata documents its CLI flag."""

    # dataset: either a file path or a synthetic spec
    dataset_path: Optional[str] = None
    input_dim: int = 16
    num_classes: int = 10
    samples_per_class: int = 1000
    noise_sigma: float = SyntheticDatasetSpec.noise_sigma
    mean_radius: float = SyntheticDatasetSpec.mean_radius
    val_fraction: float = SyntheticDatasetSpec.val_fraction
    test_fraction: float = SyntheticDatasetSpec.test_fraction
    dataset_seed: int = 0
    # stream
    classes_per_task: int = 2
    batch_size: int = StreamConfig.batch_size
    stream_mode: str = field(default=StreamConfig.mode.value,
                             metadata={"choices": StreamMode})
    target_unique_labels: Optional[float] = StreamConfig.target_unique_labels
    variance_scale: Optional[float] = StreamConfig.variance_scale
    # method / loss
    method: str = field(default=LossConfig.method.value,
                        metadata={"choices": Method})
    gamma: float = LossConfig.gamma
    tau: float = LossConfig.tau
    negative_policy: str = field(default=LossConfig.negative_policy.value,
                                 metadata={"choices": NegativePolicy})
    triplet_margin: float = LossConfig.triplet_margin
    # trainer
    lr: float = TrainerConfig.lr
    rehearsal_batch_size: int = TrainerConfig.rehearsal_batch_size
    eval_every: int = TrainerConfig.eval_every
    buffer_capacity: int = TrainerConfig.buffer_capacity
    hidden_sizes: tuple[int, ...] = field(
        default=TrainerConfig.hidden_sizes,
        metadata={"help": "comma-separated layer widths"})
    head_tau: Optional[float] = TrainerConfig.head_tau
    # seeds
    seeds: tuple[int, ...] = field(default=(0,),
                                   metadata={"help": "comma-separated seeds"})

    def __post_init__(self):
        for f in dataclasses.fields(self):
            choices = [c.value for c in f.metadata.get("choices", ())]
            if choices and getattr(self, f.name) not in choices:
                raise ConfigError(f"config key {f.name!r} must be one of "
                                  f"{', '.join(choices)}, "
                                  f"got {getattr(self, f.name)!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ConfigError("config key 'seeds' must be a nonempty list of "
                              "non-negative integers")
        if self.dataset_seed < 0:
            raise ConfigError("config key 'dataset_seed' must be >= 0")
        try:
            stream = self.stream_config()
            self.trainer_config(0)
            if self.dataset_path is None:
                stream.check_num_classes(self._synthetic_spec().num_classes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v
                for k, v in dataclasses.asdict(self).items()}

    def _build(self, cls, **explicit):
        """A ``cls`` whose fields besides ``explicit`` are copied by name."""
        return cls(**explicit, **{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(cls)
                                  if f.name not in explicit})

    def _synthetic_spec(self) -> SyntheticDatasetSpec:
        return self._build(SyntheticDatasetSpec)

    def dataset(self) -> Dataset:
        if self.dataset_path is not None:
            return load_dataset(self.dataset_path)
        return make_synthetic(self._synthetic_spec(), self.dataset_seed)

    def stream_config(self) -> StreamConfig:
        return self._build(StreamConfig, mode=StreamMode(self.stream_mode))

    def trainer_config(self, seed: int) -> TrainerConfig:
        loss = self._build(LossConfig, method=Method(self.method),
                           negative_policy=NegativePolicy(self.negative_policy))
        return self._build(TrainerConfig, loss=loss, seed=seed,
                           hidden_sizes=tuple(self.hidden_sizes))


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
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               tuple: "a list of integers"}


def _is_a(kind, value) -> bool:
    if isinstance(value, bool):
        return False
    if kind is tuple:
        return (isinstance(value, (list, tuple))
                and all(_is_a(int, v) for v in value))
    return isinstance(value, (int, float) if kind is float else kind)


def _coerce(key, value):
    if key not in FIELD_KINDS:
        raise ConfigError(f"unknown config key: {key!r}")
    kind, optional = FIELD_KINDS[key]
    if value is None and optional:
        return None
    if not _is_a(kind, value):
        raise ConfigError(f"config key {key!r} must be {_KIND_NAMES[kind]}"
                          f"{' or null' if optional else ''}, got {value!r}")
    if kind is float:
        return float(value)
    return tuple(value) if kind is tuple else value


def parse_config(path: Optional[str] = None,
                 overrides: Optional[dict] = None) -> ExperimentConfig:
    """Build a config from an optional JSON file plus overrides.

    Override values win over file values.  Unknown keys and type
    mismatches are rejected with the offending key named.
    """
    merged: dict = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        merged.update(raw)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**{k: _coerce(k, v) for k, v in merged.items()})


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
            result = run(dataset, cfg.stream_config(), cfg.trainer_config(seed))
        except RunAbort as exc:
            entry["error"] = str(exc)
            per_seed.append(entry)
            continue
        if stream_meta is None:
            stream_meta = result.stream_metadata
        log = result.log
        mat, tasks = log.accuracy_matrix()
        entry.update({
            "final_accuracy": _finite(result.final_accuracy),
            "aaa": _finite(result.aaa),
            "forgetting": _finite(result.forgetting),
            "eval_steps": list(log.eval_steps),
            "aa_trace": list(map(_finite, log.aa_trace)),
            "current_task_accuracy": list(map(_finite, log.current_task_accuracy)),
            "final_task_accuracy": {str(t): _finite(v) for t, v in
                                    sorted(result.final_task_accuracy.items())},
            "accuracy_matrix": [list(map(_finite, row)) for row in mat.tolist()],
            "tasks": [int(t) for t in tasks],
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


def _finite(v):
    """``v`` as a float, or None (JSON null) when missing or not finite."""
    return None if (v is None or not math.isfinite(v)) else float(v)


def write_json(path: str, obj):
    """``obj`` as key-sorted JSON indented by one space, newline-ended."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)
                 + "\n")


def write_report_files(report: dict, out_dir: str):
    """report.json plus delimited plot data: anytime-accuracy trace, drift
    trace, and the per-task accuracy matrix, one seed per column block."""
    os.makedirs(out_dir, exist_ok=True)
    write_json(os.path.join(out_dir, "report.json"), report)
    ok = [e for e in report["seeds"] if e["error"] is None]

    def tsv(name, header, rows):
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join("" if v is None else repr(v) for v in row)
                         + "\n")

    if ok:
        steps = ok[0]["eval_steps"]
        tsv("aa_trace.tsv",
            ["step"] + [f"seed{e['seed']}" for e in ok],
            [[steps[i]] + [e["aa_trace"][i] for e in ok]
             for i in range(len(steps))])
        n_steps = len(ok[0]["drift_trace"])
        tsv("drift_trace.tsv",
            ["step"] + [f"seed{e['seed']}" for e in ok],
            [[i] + [e["drift_trace"][i] for e in ok] for i in range(n_steps)])
        tasks = ok[0]["tasks"]
        rows = []
        for e in ok:
            for i, step in enumerate(e["eval_steps"]):
                rows.append([e["seed"], step] + e["accuracy_matrix"][i])
        tsv("accuracy_matrix.tsv",
            ["seed", "step"] + [f"task{t}" for t in tasks], rows)
    if report.get("stream_metadata") is not None:
        write_json(os.path.join(out_dir, "stream_metadata.json"),
                   report["stream_metadata"])


def load_report(path: str) -> dict:
    """A report file, refused by name unless it holds stream metadata with
    a digest, the config keys ``compare`` reads, each of its config type, and
    aggregates with numeric means and stderrs (forgetting's may be null)."""
    with open(path) as fh:
        report = json.load(fh)
    version = report.get("schema_version") if isinstance(report, dict) else None
    if version != REPORT_SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version {version}")
    for key in ("config", "stream_metadata", "aggregates"):
        if not isinstance(report.get(key), dict):
            raise ValueError(f"report has no {key!r} object")
    if not isinstance(report["stream_metadata"].get("dataset_sha256"), str):
        raise ValueError("report stream_metadata has no 'dataset_sha256'")
    for key in ("method", "buffer_capacity"):
        if key not in report["config"]:
            raise ValueError(f"report config has no {key!r}")
        _coerce(key, report["config"][key])
    for key in _AGGREGATE_KEYS:
        agg = report["aggregates"].get(key)
        if not (isinstance(agg, dict) and {"mean", "stderr"} <= agg.keys()
                and (_is_a(float, agg["mean"])
                     or (key == "forgetting" and agg["mean"] is None))
                and _is_a(float, agg["stderr"])):
            raise ValueError(f"report aggregate {key!r} lacks a numeric mean "
                             "or stderr")
    return report


def compare(reports: Sequence[dict]):
    """Method-by-metric comparison of ≥2 reports over one stream.

    Returns (text_table, machine_rows).  Accuracy cells within one
    standard error of the best are starred; FLOPs and memory are
    informational.  Reports whose ``stream_metadata`` differs are refused.
    """
    if len(reports) < 2:
        raise ComparisonError("need at least two reports to compare")
    base = reports[0]["stream_metadata"]
    for rep in reports[1:]:
        meta = rep["stream_metadata"]
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
            "aaa": agg["aaa"]["mean"], "aaa_stderr": agg["aaa"]["stderr"],
            "final_accuracy": agg["final_accuracy"]["mean"],
            "final_accuracy_stderr": agg["final_accuracy"]["stderr"],
            "train_flops": agg["train_flops"]["mean"],
            "mean_memory_bytes": agg["mean_memory_bytes"]["mean"],
        })
    for key in ("aaa", "final_accuracy"):
        best = max(r[key] for r in rows)
        best_err = max(r[f"{key}_stderr"] for r in rows if r[key] == best)
        for r in rows:
            r[f"{key}_best"] = bool(r[key] + r[f"{key}_stderr"] >= best - best_err)
    header = f"{'method':<16} {'M':>5} {'AAA':>12} {'final acc':>12} " \
             f"{'train FLOPs':>14} {'mem bytes':>12}"
    lines = [header, "-" * len(header)]
    for r in rows:
        aaa = f"{r['aaa']:.4f}" + ("*" if r["aaa_best"] else " ")
        fin = f"{r['final_accuracy']:.4f}" + ("*" if r["final_accuracy_best"] else " ")
        lines.append(f"{r['method']:<16} {r['buffer_capacity']:>5} {aaa:>12} "
                     f"{fin:>12} {r['train_flops']:>14.3e} "
                     f"{r['mean_memory_bytes']:>12.1f}")
    return "\n".join(lines) + "\n", rows
