"""Command-line front door: run experiments, sweep method/buffer grids,
compare reports, and generate dataset files.

Exit codes: 0 success, 1 bad config or compare input, 2 a run that failed
or an output that could not be written.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import os
import sys
import traceback

from .report import (FIELD_KINDS, ComparisonError, ConfigError,
                     ExperimentConfig, compare, load_report, parse_config,
                     run_experiment, run_experiments, write_json)
from .stream import SYNTHETIC_KEYS, save_dataset

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN = 2


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}")


_CONFIG_FIELDS = dataclasses.fields(ExperimentConfig)
# gen-dataset takes the synthetic dataset's fields plus its seed
_DATASET_FIELDS = [f for f in _CONFIG_FIELDS
                  if f.name in SYNTHETIC_KEYS or f.name == "dataset_seed"]
_FLAG_TYPES = {int: int, float: float, tuple: _int_list}


def _add_field_flag(group, f, **kwargs):
    """One flag for config field ``f``, typed from its annotation."""
    kind = FIELD_KINDS[f.name][0]
    group.add_argument("--" + f.name.replace("_", "-"),
                       type=_FLAG_TYPES.get(kind),
                       choices=([m.value for m in kind]
                                if isinstance(kind, enum.EnumMeta) else None),
                       help=f.metadata.get("help"), **kwargs)


def _add_config_flags(parser: argparse.ArgumentParser):
    """One flag per config key; unset flags defer to the config file."""
    g = parser.add_argument_group("config overrides")
    g.add_argument("--config", help="JSON config file")
    for f in _CONFIG_FIELDS:
        _add_field_flag(g, f)


def _overrides(args) -> dict:
    return {f.name: getattr(args, f.name) for f in _CONFIG_FIELDS
            if getattr(args, f.name, None) is not None}


def _cmd_run(args) -> int:
    cfg = parse_config(args.config, _overrides(args))
    made = args.out is not None and not os.path.isdir(args.out)
    if made:   # an unwritable output is refused before the dataset is built
        try:
            os.makedirs(args.out)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    try:
        report = run_experiment(cfg, out_dir=args.out, now=args.timestamp)
    except Exception as exc:   # the config was checked whole before the run
        if made and not os.listdir(args.out):
            os.rmdir(args.out)   # a failed run leaves no output directory
        if not isinstance(exc, (OSError, ValueError)):
            traceback.print_exc()   # an unexpected kind of fault: show where
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    _name_aborted_seeds(report)
    print(compare([report])[0], end="")
    if args.out:
        print(f"report written to {os.path.join(args.out, 'report.json')}")
    return EXIT_OK


def _name_aborted_seeds(report: dict, prefix: str = ""):
    for e in report["seeds"]:
        if e["error"] is not None:
            print(f"{prefix}seed {e['seed']} aborted: {e['error']}",
                  file=sys.stderr)


def _cannot_write(path, exc) -> int:
    print(f"cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_RUN


def _cmd_sweep(args) -> int:
    base = parse_config(args.config, _overrides(args))
    jobs = {}   # output directory -> config, in grid order
    for method in args.methods or [base.method.value]:
        for cap in args.buffer_capacities or [base.buffer_capacity]:
            out_dir = os.path.join(args.out, f"{method}-M{cap}")
            if out_dir in jobs:   # two workers would write one directory
                raise ConfigError(f"sweep job {out_dir} is listed twice")
            jobs[out_dir] = dataclasses.replace(base, method=method,
                                                buffer_capacity=cap)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    done = {}   # output directory -> report of each finished job
    for d, result in zip(jobs, run_experiments(
            list(jobs.values()), list(jobs), args.timestamp)):
        if isinstance(result, Exception):
            print(f"sweep job {d} failed: {result}", file=sys.stderr)
        else:
            _name_aborted_seeds(result, f"sweep job {d} ")
            done[d] = result
    table, rows = compare(list(done.values()))
    for d, row in zip(done, rows):
        row["report_dir"] = d
    print(table, end="")
    summary = os.path.join(args.out, "sweep_summary.json")
    try:
        write_json(summary, rows)
    except OSError as exc:
        return _cannot_write(summary, exc)
    return EXIT_RUN if len(done) < len(jobs) else EXIT_OK


def _cmd_compare(args) -> int:
    reports = []
    for path in args.reports:
        try:
            reports.append(load_report(path))
        except (OSError, ValueError) as exc:
            print(f"cannot read report {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    try:
        table, rows = compare(reports)
    except ComparisonError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(table, end="")
    if args.out:
        try:
            write_json(args.out, rows)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    return EXIT_OK


def _cmd_gen_dataset(args) -> int:
    # no stream is built, and tasks of one class fit any class count
    dataset = ExperimentConfig(classes_per_task=1, **{
        f.name: getattr(args, f.name) for f in _DATASET_FIELDS}).dataset()
    try:
        save_dataset(dataset, args.out)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    print(f"wrote {args.out}: {len(dataset.train_y)} train / "
          f"{len(dataset.val_y)} val / {len(dataset.test_y)} test samples, "
          f"dim {dataset.input_dim}, {dataset.num_classes} classes")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a bad flag is a config error, as in a file
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="asymreplay",
        description="Online continual learning with asymmetric replay losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment over its seeds")
    _add_config_flags(p_run)
    p_run.add_argument("--out", help="directory for report.json")
    p_run.add_argument("--timestamp",
                       help="fix the report timestamp (reproducible output)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="grid of (method x buffer size), parallel")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--methods", type=lambda s: s.split(","),
                         help="comma-separated method names")
    p_sweep.add_argument("--buffer-capacities", type=_int_list,
                         help="comma-separated buffer sizes")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--timestamp")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="tabulate reports side by side")
    p_cmp.add_argument("reports", nargs="+", help="report.json paths")
    p_cmp.add_argument("--out", help="write machine-readable rows (JSON)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_gen = sub.add_parser("gen-dataset", help="write a synthetic dataset file")
    for f in _DATASET_FIELDS:
        _add_field_flag(p_gen, f, default=f.default)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen_dataset)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
