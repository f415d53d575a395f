"""Re-record the benchmark's reference results or its baseline.

    python3 perfbench/record.py reference
        Runs every config of each workload on every seed of its pool and
        writes the learning results to perfbench/reference.json.

    python3 perfbench/record.py baseline
        Runs the benchmark 10 times per workload (seeds 0-9, untraced, for
        BENCHMARK.json's run_seconds) plus one traced run, and writes the
        medians, quartiles and spreads with the per-layer breakdown to
        perfbench/baseline.json.

Recording replaces the file; only do it at a commit whose results are
known good, and say so in the change that records it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import workloads as W

TOLERANCE = 0.03   # absolute, on final_accuracy / aaa / forgetting
RUNS = 10
BASELINE_PATH = W.BENCH_DIR / "baseline.json"


def record_reference():
    report = W.import_program()
    ref = {"tolerance": TOLERANCE, "workloads": {}}
    for name, wl in W.WORKLOADS.items():
        per_config = {}
        for config in wl.configs:
            cfg = report.parse_config(overrides=wl.experiment_overrides(
                config, range(wl.seed_pool)))
            results = W.seed_results(report.run_experiment(cfg, now=W.TIMESTAMP))
            per_config[W.config_key(config)] = {str(s): v for s, v in results.items()}
            print(f"{name} {W.config_key(config)} recorded", flush=True)
        ref["workloads"][name] = per_config
    with open(W.REFERENCE_PATH, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _bench(name: str, seed: int, trace: int) -> dict:
    """Every metric, note and the environment of one benchmark run."""
    subprocess.run([sys.executable, str(W.BENCH_DIR / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--trace", str(trace)],
                   cwd=W.ROOT, check=True, stdout=subprocess.DEVNULL)
    with open(W.OUT / name / "result.json") as fh:
        return json.load(fh)


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None,
            "values": values}


def record_baseline():
    with open(W.ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    baseline = {"runs": RUNS, "seconds": seconds, "workloads": {}}
    for name in W.WORKLOADS:
        results = [_bench(name, s, 0) for s in range(RUNS)]
        traced = _bench(name, 0, 1)
        baseline["environment"] = traced["environment"]
        baseline["workloads"][name] = {
            "end_to_end": {m: summarize([r["metrics"][m] for r in results])
                           for m in results[0]["metrics"]},
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "per_layer": traced["metrics"],
            "traced_notes": traced["notes"],
        }
        print(f"{name} recorded", flush=True)
    with open(BASELINE_PATH, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("reference", "baseline"))
    if parser.parse_args().what == "reference":
        record_reference()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
