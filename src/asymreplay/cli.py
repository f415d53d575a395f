"""Command-line front door: run experiments, sweep method/buffer grids,
compare reports, and generate dataset files.

Exit codes: 0 success, 1 bad config or compare input, 2 a run that failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

from .report import (FIELD_KINDS, ComparisonError, ConfigError,
                     ExperimentConfig, compare, load_report, parse_config,
                     run_experiment, write_json)
from .stream import SyntheticDatasetSpec, save_dataset

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUN = 2


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}")


_CONFIG_FIELDS = dataclasses.fields(ExperimentConfig)
# gen-dataset takes the synthetic dataset's fields plus its seed
_SPEC_NAMES = {f.name for f in dataclasses.fields(SyntheticDatasetSpec)}
_DATASET_FIELDS = [f for f in _CONFIG_FIELDS
                  if f.name in _SPEC_NAMES or f.name == "dataset_seed"]
_FLAG_TYPES = {int: int, float: float, str: None, tuple: _int_list}


def _add_field_flag(group, f, **kwargs):
    """One flag for config field ``f``, typed from its annotation."""
    choices = f.metadata.get("choices")
    group.add_argument("--" + f.name.replace("_", "-"),
                       type=_FLAG_TYPES[FIELD_KINDS[f.name][0]],
                       choices=[c.value for c in choices] if choices else None,
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
    try:
        report = run_experiment(cfg, out_dir=args.out, now=args.timestamp)
    except Exception as exc:   # the config was checked whole before the run
        if not isinstance(exc, (OSError, ValueError)):
            traceback.print_exc()   # an unexpected kind of fault: show where
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    failed = [e for e in report["seeds"] if e["error"] is not None]
    for e in failed:
        print(f"seed {e['seed']} aborted: {e['error']}", file=sys.stderr)
    if len(failed) == len(report["seeds"]):
        print("all seeds failed", file=sys.stderr)
        return EXIT_RUN
    agg = report["aggregates"]
    print(f"method={cfg.method} M={cfg.buffer_capacity} "
          f"seeds={len(cfg.seeds)} "
          f"final_acc={agg['final_accuracy']['mean']:.4f}"
          f"±{agg['final_accuracy']['stderr']:.4f} "
          f"AAA={agg['aaa']['mean']:.4f}±{agg['aaa']['stderr']:.4f}")
    if args.out:
        print(f"report written to {os.path.join(args.out, 'report.json')}")
    return EXIT_OK


def _sweep_worker(payload):
    cfg_dict, out_dir, timestamp = payload
    cfg = parse_config(overrides=cfg_dict)
    report = run_experiment(cfg, out_dir=out_dir, now=timestamp)
    return cfg.method, cfg.buffer_capacity, out_dir, report["aggregates"]


def _cmd_sweep(args) -> int:
    import concurrent.futures   # only sweep pays for the pool's imports

    base = parse_config(args.config, _overrides(args))
    methods = args.methods or [base.method]
    capacities = args.buffer_capacities or [base.buffer_capacity]
    jobs = []
    for method in methods:
        for cap in capacities:
            d = base.to_dict()
            d["method"] = method
            d["buffer_capacity"] = cap
            parse_config(overrides=d)  # validate before scheduling
            out_dir = os.path.join(args.out, f"{method}-M{cap}")
            jobs.append((d, out_dir, args.timestamp))
    failures = 0
    rows = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as ex:
        futures = {ex.submit(_sweep_worker, job): job for job in jobs}
        for fut in concurrent.futures.as_completed(futures):
            d, out_dir, _ = futures[fut]
            try:
                method, cap, out_dir, agg = fut.result()
            except Exception as exc:
                print(f"sweep job {out_dir} failed: {exc}", file=sys.stderr)
                failures += 1
                continue
            rows.append({"method": method, "buffer_capacity": cap,
                         "report_dir": out_dir,
                         "final_accuracy": agg["final_accuracy"]["mean"],
                         "final_accuracy_stderr": agg["final_accuracy"]["stderr"],
                         "aaa": agg["aaa"]["mean"]})
    rows.sort(key=lambda r: (r["method"], r["buffer_capacity"]))
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "sweep_summary.json"), rows)
    for r in rows:
        print(f"{r['method']:<16} M={r['buffer_capacity']:<5} "
              f"final_acc={r['final_accuracy']:.4f}"
              f"±{r['final_accuracy_stderr']:.4f} AAA={r['aaa']:.4f}")
    return EXIT_RUN if failures else EXIT_OK


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
        write_json(args.out, rows)
    return EXIT_OK


def _cmd_gen_dataset(args) -> int:
    # no stream is built, and tasks of one class fit any class count
    dataset = ExperimentConfig(classes_per_task=1, **{
        f.name: getattr(args, f.name) for f in _DATASET_FIELDS}).dataset()
    try:
        save_dataset(dataset, args.out)
    except OSError as exc:
        print(f"cannot write dataset: {exc}", file=sys.stderr)
        return EXIT_RUN
    print(f"wrote {args.out}: {len(dataset.train_y)} train / "
          f"{len(dataset.val_y)} val / {len(dataset.test_y)} test samples, "
          f"dim {dataset.input_dim}, {dataset.num_classes} classes")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymreplay",
        description="Online continual learning with asymmetric replay losses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment over its seeds")
    _add_config_flags(p_run)
    p_run.add_argument("--out", help="directory for report and plot data")
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
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="worker pool size (default: cpu count)")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
