"""asymreplay benchmark: online continual-learning runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --smoke

``--trace 0`` is the timed run.  It measures set-up in fresh interpreters
(``probe.py``), then runs the workload's round of experiments in a closed
loop in this process, one experiment at a time, until ``--seconds`` are
used (at least two rounds, which must agree to the bit); each timing
metric keeps the best round of each experiment (``timing_metrics``).
Every seed's learning results are checked against ``reference.json``.  The
last line of stdout is one JSON object with the end-to-end metrics of
BENCHMARK.json.  The lines above it also give wall_s, train_samples_per_s,
the step percentiles (step_ms_p10, _p50, _p99) and the learning results,
which are not bounded: on a host whose speed swings for minutes at a time
their run-to-run spread exceeds any bound BENCHMARK.json may set.

``--trace 1`` is the traced run: an untraced round, the same round with
every public function of the program's layers wrapped in spans
(``tracing.py``) and another untraced round.  It prints the full per-layer
breakdown, writes the spans to ``.perfbench_out/<workload>/spans.npz`` and
ends with the per-layer metrics of BENCHMARK.json.  Tracing must change no
result.

Either run also writes every metric it measured, its notes and the
environment to ``.perfbench_out/<workload>/result.json``.

``--smoke`` runs each workload once at reduced size (under a minute) to
check the harness; its numbers are not comparable with any other run.

The benchmark never sets BLAS or OpenMP thread variables; the environment
manifest printed with every result records them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import tracing
import workloads as W

SETUP_REPEATS = 9
MIN_ROUNDS = 2
PROBE_TIMEOUT_S = 120


def benchmark_spec() -> dict:
    with open(W.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def environment() -> dict:
    """Python, numpy, BLAS, thread variables, CPUs and source revision."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((W.SRC / "asymreplay").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def probe_setup(name: str, seed: int, smoke: bool) -> float | None:
    """Seconds from spawning a fresh interpreter to its first train_step,
    or None if the probe failed (nonzero exit or no training step)."""
    cmd = [sys.executable, str(W.BENCH_DIR / "probe.py"), name, str(seed)]
    if smoke:
        cmd.append("smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=W.ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "first-step" or proc.returncode != 0:
        print(f"set-up probe failed (exit {proc.returncode})", file=sys.stderr)
        return None
    return seconds


def determinism_failures(rounds) -> list:
    first = rounds[0].results
    return [f"round {i} results differ from round 0"
            for i, r in enumerate(rounds[1:], 1) if r.results != first]


def timing_metrics(spans, rounds, configs) -> dict:
    """Timing metrics of a timed run.

    Each figure is taken per experiment (config) and round, the best round
    of each config is kept, and the configs are then combined: on a shared
    host noise only adds time and its speed swings up to 1.6x for seconds
    to minutes, so the best of each experiment is the steadiest figure.  Step
    percentiles are per config, then averaged: methods with different step
    costs would make a pooled percentile jump between them.
    """
    n = len(configs)
    steps = spans.mask("trainer.train_step")
    runs = spans.mask("trainer.run")
    step_ms = spans.duration[steps] * 1e3

    def best(values_of):
        """Best value over rounds of each config, as a list over configs."""
        return [min(values_of(i, c) for i in range(len(rounds)))
                for c in range(n)]

    def step_pct(q, i, c):
        x = step_ms[spans.run[steps] == i * n + c]
        return float(np.percentile(x, q)) if x.size else math.inf

    keys = [W.config_key(c) for c in configs]
    wall = best(lambda i, c: rounds[i].seconds.get(keys[c], math.inf))
    train = best(lambda i, c: float(
        spans.duration[runs & (spans.run == i * n + c)].sum()) or math.inf)
    samples = float(spans.count_a[steps].sum()) / len(rounds)
    return {
        "wall_s": sum(wall),
        "train_samples_per_s": samples / sum(train),
        **{f"step_ms_p{q}": float(np.mean(best(lambda i, c: step_pct(q, i, c))))
           for q in (10, 50, 99)},
    }


def timed_run(report, wl, seed, seconds, reference, tolerance, smoke) -> dict:
    setups = [probe_setup(wl.name, seed, smoke) for _ in range(SETUP_REPEATS)]
    seeds = wl.program_seeds(seed)
    out_dir = W.OUT / wl.name
    # the single timer at the step boundary, plus run and experiment bounds
    timer = tracing.Tracer()
    timer.install([("trainer", "train_step"), ("trainer", "run"),
                   ("report", "run_experiment")])
    rounds = []
    t0 = time.perf_counter()
    try:
        while True:
            rounds.append(W.run_round(report, wl, seeds, out_dir, reference,
                                      tolerance))
            elapsed = time.perf_counter() - t0
            if (len(rounds) >= MIN_ROUNDS
                    and elapsed * (len(rounds) + 1) / len(rounds) > seconds):
                break
    finally:
        timer.uninstall()
    spans = tracing.Spans(timer)
    failures = [f for r in rounds for f in r.failures]
    failures += determinism_failures(rounds)
    failures += ["set-up probe failed"] * sum(s is None for s in setups)
    ok_setups = [s for s in setups if s is not None]
    metrics = {
        "setup_s": statistics.median(ok_setups) if ok_setups else float("nan"),
        **timing_metrics(spans, rounds, wl.configs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **W.mean_results(rounds[0].results),
    }
    steps = spans.mask("trainer.train_step")
    notes = {"rounds": len(rounds),
             "step_samples_per_round": int(steps.sum()) // len(rounds),
             "setup_samples": len(ok_setups), "program_seeds": seeds}
    attempted = sum(r.attempted for r in rounds) + len(setups)
    return _result(metrics, attempted, failures, notes)


def traced_run(report, wl, seed, reference, tolerance) -> dict:
    """An untraced round, a traced one and an untraced one again.

    The tracing overhead is the traced round's time over the faster
    untraced one, so neither a cold first round nor a slow spell of the
    host counts as overhead.
    """
    seeds = wl.program_seeds(seed)
    out_dir = W.OUT / wl.name
    tracer = tracing.Tracer()
    rounds, seconds = [], []
    for traced in (False, True, False):
        t0 = time.perf_counter()
        with tracer if traced else contextlib.nullcontext():
            rounds.append(W.run_round(report, wl, seeds, out_dir, reference,
                                      tolerance))
        seconds.append(time.perf_counter() - t0)
    failures = [f for r in rounds for f in r.failures]
    failures += determinism_failures(rounds[::2])
    if rounds[1].results != rounds[0].results:
        failures.append("traced results differ from untraced results")
    if tracing.installed_wrappers():
        failures.append("tracing wrappers left installed")
    tracer.write(out_dir / "spans.npz")
    metrics = tracing.layer_metrics(tracing.Spans(tracer))
    untraced_s, traced_s = min(seconds[0], seconds[2]), seconds[1]
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    notes = {"untraced_s": untraced_s, "traced_s": traced_s,
             "spans": len(tracer.name), "program_seeds": seeds}
    return _result(metrics, sum(r.attempted for r in rounds), failures, notes)


def _result(metrics, attempted, failures, notes) -> dict:
    for f in failures:
        print(f"FAILED: {f}", file=sys.stderr)
    # an undefined ratio (no anchors attempted, say) is written as null
    metrics = {k: v if math.isfinite(v) else None for k, v in metrics.items()}
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(failures), "notes": notes}


def emit(name, result, units, wanted, comparable=True):
    """Print every measured metric by name and unit; return the JSON result."""
    print(f"# workload {name}" + ("" if comparable else
                                  " (smoke: numbers NOT comparable)"))
    for key, value in result["notes"].items():
        print(f"#   {key}: {value}")
    for metric, value in result["metrics"].items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<10} {metric:<42} {shown:>14} {units.get(metric, '')}")
    out = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": result["metrics"][m], "unit": units[m]}
                    for m in wanted},
    }
    return out


def run_all(args) -> int:
    combined = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        proc = subprocess.run(cmd, cwd=W.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at reduced size")
    args = parser.parse_args()
    report = W.import_program()
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(tracing.UNITS)
    units.update({k: "ratio" for k in W.RESULT_KEYS}, wall_s="s",
                 train_samples_per_s="1/s", step_ms_p10="ms", step_ms_p50="ms",
                 step_ms_p99="ms")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    if args.smoke:
        return smoke(report, units, spec)
    if args.workload is None:
        parser.error("--workload or --smoke is required")
    if args.workload == "all":
        return run_all(args)
    reference = W.load_reference()
    tolerance = reference["tolerance"]
    wl = W.workload(args.workload)
    shutil.rmtree(W.OUT / wl.name, ignore_errors=True)
    (W.OUT / wl.name).mkdir(parents=True)
    ref = reference["workloads"][wl.name]
    if args.trace:
        result = traced_run(report, wl, args.seed, ref, tolerance)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        result = timed_run(report, wl, args.seed, args.seconds, ref, tolerance,
                           smoke=False)
        wanted = [m["name"] for m in spec["end_to_end"]]
    line = emit(wl.name, result, units, wanted)
    with open(W.OUT / wl.name / "result.json", "w") as fh:
        json.dump({"environment": env, "trace": args.trace, **result}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(line))
    return 0


def smoke(report, units, spec) -> int:
    out = {"smoke": True, "comparable": False, "workloads": {}}
    for name in W.WORKLOADS:
        wl = W.workload(name, smoke=True)
        timed = timed_run(report, wl, 0, 0, None, None, smoke=True)
        traced = traced_run(report, wl, 0, None, None)
        out["workloads"][name] = {
            "timed": emit(name, timed, units,
                          [m["name"] for m in spec["end_to_end"]], False),
            "traced": emit(name, traced, units,
                           [m["name"] for m in spec["per_layer"]], False),
        }
    print(json.dumps(out))
    return 0 if all(r[k]["correct"] for r in out["workloads"].values()
                    for k in r) else 1


if __name__ == "__main__":
    sys.exit(main())
