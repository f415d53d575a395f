"""Workload definitions and the closed-loop driver of the asymreplay benchmark.

A workload is a list of experiment configs over one stream.  One *round*
runs every config once as ``asymreplay run`` (``cli.main`` in this
process, which calls ``report.run_experiment``), writing its report, one
experiment at a time, each waiting for the previous one.  A
timed run repeats the identical round, so rounds of one run must agree to
the bit (the determinism check), and every seed's learning results are
checked against ``reference.json``.

Program seeds come from a recorded pool: ``--seed n`` picks a fixed slice
of the pool, so the same ``n`` always gives the same inputs and every seed
the program sees has an exact reference.  Learning results are gated per
seed rather than reported as bounded end-to-end medians: they vary too much
from seed to seed (on split-ce the AAA of one seed ranges 0.14-0.68).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# Report timestamp: fixed so that report bytes are reproducible.
TIMESTAMP = "2021-04-11T00:00:00+00:00"
RESULT_KEYS = ("final_accuracy", "aaa", "forgetting")

# The acceptance stream: 10 classes x 1000 samples, 5 tasks of 2 classes.
SPLIT_STREAM = {
    "num_classes": 10, "samples_per_class": 1000, "classes_per_task": 2,
    "batch_size": 10, "rehearsal_batch_size": 10, "eval_every": 10,
    "hidden_sizes": [64, 32],
}


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json."""

    name: str
    configs: tuple          # per-experiment overrides on top of ``stream``
    seeds_per_experiment: int
    seed_pool: int
    stream: dict

    def program_seeds(self, seed: int) -> list:
        base = (seed * self.seeds_per_experiment) % self.seed_pool
        return [(base + i) % self.seed_pool
                for i in range(self.seeds_per_experiment)]

    def experiment_overrides(self, config: dict, seeds) -> dict:
        return {**self.stream, **config, "seeds": list(seeds)}


def cli_flags(overrides: dict) -> list:
    """The ``asymreplay run`` flags that give the same config."""
    flags = []
    for key, value in overrides.items():
        if isinstance(value, (list, tuple)):
            value = ",".join(str(v) for v in value)
        flags += ["--" + key.replace("_", "-"), str(value)]
    return flags


def config_key(config: dict) -> str:
    """Stable name of one experiment config, used in reference.json."""
    parts = [config["method"]]
    if "negative_policy" in config:
        parts.append(config["negative_policy"])
    parts.append(f"M{config['buffer_capacity']}")
    return "/".join(parts)


# split-ce runs two seeds per experiment: split streams give every seed the
# same step count, the case a seed-batched trainer targets.  split-aml runs
# one, because an ER-AML seed costs about 5.5 s on a 2-core machine.
WORKLOADS = {
    "split-ce": Workload(
        name="split-ce",
        configs=(
            {"method": "er", "buffer_capacity": 500},
            {"method": "er-ace", "buffer_capacity": 500},
            {"method": "ssil-nodistill", "buffer_capacity": 500},
        ),
        seeds_per_experiment=2, seed_pool=20, stream=SPLIT_STREAM),
    "split-aml": Workload(
        name="split-aml",
        configs=(
            {"method": "er-aml", "negative_policy": "incoming-only",
             "buffer_capacity": 20},
            {"method": "er-aml", "negative_policy": "all-classes",
             "buffer_capacity": 20},
            {"method": "er-aml-triplet", "buffer_capacity": 20},
        ),
        seeds_per_experiment=1, seed_pool=10, stream=SPLIT_STREAM),
}

# Reduced size for the smoke mode; its numbers are not comparable.
SMOKE_STREAM = {**SPLIT_STREAM, "samples_per_class": 100}


def workload(name: str, smoke: bool = False) -> Workload:
    wl = WORKLOADS[name]
    if smoke:
        wl = replace(wl, stream=SMOKE_STREAM, seeds_per_experiment=1)
    return wl


def import_program():
    """Import asymreplay from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "asymreplay" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC}; "
                         "run from a full checkout")
    sys.path.insert(0, str(SRC))
    import asymreplay
    # every module is loaded before a tracer rebinds names: a module
    # imported while wrappers are installed would keep one
    from asymreplay import cli, report  # noqa: F401
    if Path(asymreplay.__file__).resolve().parent != (SRC / "asymreplay"):
        raise SystemExit("benchmark: asymreplay imported from "
                         f"{asymreplay.__file__}, not from {SRC}")
    return report


class GateFailure(Exception):
    """One run failed the correctness gate."""


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def seed_results(report_dict: dict) -> dict:
    """{seed: {final_accuracy, aaa, forgetting} or None for an aborted seed}."""
    out = {}
    for entry in report_dict["seeds"]:
        if entry["error"] is not None:
            out[entry["seed"]] = None
        else:
            out[entry["seed"]] = {k: entry[k] for k in RESULT_KEYS}
    return out


def timed_experiment(report, overrides: dict, out_dir: Path) -> tuple:
    """Run one experiment as ``asymreplay run`` in this process, to its
    written report; return (seconds, results).

    The CLI's summary line is dropped.  A nonzero exit fails the run, and the
    report is read back from disk, so a missing or unloadable
    ``report.json`` fails it too.
    """
    from asymreplay import cli
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", *cli_flags(overrides), "--out", str(out_dir),
                         "--timestamp", TIMESTAMP])
    seconds = time.perf_counter() - t0
    if code:
        raise GateFailure(f"asymreplay run exited {code}")
    try:
        loaded = report.load_report(str(out_dir / "report.json"))
    except (OSError, ValueError) as exc:
        raise GateFailure(f"report not loadable: {exc}") from None
    return seconds, seed_results(loaded)


def check_results(key: str, results: dict, reference, tolerance: float) -> list:
    """Names of the seeds of one experiment that fail the gate."""
    failed = []
    for seed, values in results.items():
        if values is None:
            failed.append(f"{key} seed {seed}: run aborted")
            continue
        if not all(v is not None and math.isfinite(v) for v in values.values()):
            failed.append(f"{key} seed {seed}: non-finite result {values}")
            continue
        if reference is None:
            continue
        ref = reference[key].get(str(seed))
        if ref is None:
            failed.append(f"{key} seed {seed}: no recorded reference")
            continue
        off = {k: values[k] - ref[k] for k in RESULT_KEYS
               if abs(values[k] - ref[k]) > tolerance}
        if off:
            failed.append(f"{key} seed {seed}: off reference by {off}")
    return failed


@dataclass
class RoundResult:
    seconds: dict           # config key -> experiment wall seconds
    results: dict           # config key -> seed results
    failures: list
    attempted: int


def run_round(report, workload: Workload, seeds, out_dir: Path, reference,
              tolerance: float) -> RoundResult:
    seconds, results, failures = {}, {}, []
    attempted = 0
    for config in workload.configs:
        key = config_key(config)
        attempted += len(seeds)
        overrides = workload.experiment_overrides(config, seeds)
        try:
            seconds[key], results[key] = timed_experiment(
                report, overrides, out_dir / key.replace("/", "_"))
        except GateFailure as exc:
            failures.extend(f"{key} seed {s}: {exc}" for s in seeds)
            continue
        except Exception:  # a crash in the program fails the run, not the benchmark
            traceback.print_exc()
            failures.extend(f"{key} seed {s}: raised" for s in seeds)
            continue
        failures.extend(check_results(key, results[key], reference, tolerance))
    return RoundResult(seconds, results, failures, attempted)


def mean_results(results: dict) -> dict:
    """Mean of each learning metric over every seed run of a round."""
    values = [v for per_seed in results.values() for v in per_seed.values()
              if v is not None]
    return {k: sum(v[k] for v in values) / len(values) for k in RESULT_KEYS}
