"""Self-tests of the benchmark's tracing and gate.

    python3 -m pytest -q perfbench
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

W.import_program()


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_of_nested_spans_sum_to_parent_duration():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", lambda: _busy(0.002))

    def middle():
        _busy(0.001)
        leaf()
        leaf()

    middle = tracer.wrap("middle", middle)

    def root():
        middle()
        _busy(0.001)
        leaf()

    tracer.wrap("root", root)()
    spans = tracing.Spans(tracer)
    root_id = spans.names.index("root")
    (root_span,) = [i for i, n in enumerate(spans.name) if n == root_id]
    assert spans.parent[root_span] == -1
    assert spans.self_time.sum() == pytest.approx(spans.duration[root_span],
                                                  rel=1e-9)
    # each parent's self time excludes exactly its direct children
    for i in range(len(spans.name)):
        children = spans.duration[spans.parent == i].sum()
        assert spans.self_time[i] == pytest.approx(spans.duration[i] - children,
                                                   abs=1e-12)
        assert spans.self_time[i] >= 0
    assert spans.count("leaf") == 3


def _bindings():
    """Identity of every module attribute and class attribute of the program."""
    out = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = id(member)
    return out


def _tiny_round(report, tmp_path):
    wl = W.workload("split-aml", smoke=True)
    wl = replace(wl, configs=wl.configs[:1],
                 stream={**wl.stream, "samples_per_class": 30})
    return W.run_round(report, wl, [0], tmp_path, None, None)


def test_traced_run_restores_every_binding_and_changes_no_result(tmp_path):
    report = W.import_program()
    before = _bindings()
    plain = _tiny_round(report, tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.installed_wrappers()
        traced = _tiny_round(report, tmp_path)
    assert tracing.installed_wrappers() == []
    assert _bindings() == before
    assert not plain.failures and not traced.failures
    assert traced.results == plain.results
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.main", "trainer.train_step", "tensor.Tensor.backward",
            "losses.supcon_loss", "buffer.ReplayBuffer.fetch_pos_neg"} <= names


def test_layer_metrics_match_the_benchmark_spec(tmp_path):
    report = W.import_program()
    tracer = tracing.Tracer()
    with tracer:
        _tiny_round(report, tmp_path)
    metrics = tracing.layer_metrics(tracing.Spans(tracer))
    assert set(metrics) <= set(tracing.UNITS)
    with open(W.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for m in spec["per_layer"]:
        assert tracing.UNITS[m["name"]] == m["unit"]
        assert m["name"] in metrics or m["name"].startswith("trace.")


def test_reference_covers_every_seed_a_run_can_use():
    reference = W.load_reference()["workloads"]
    for wl in W.WORKLOADS.values():
        for seed in range(2 * wl.seed_pool):
            seeds = wl.program_seeds(seed)
            assert seeds == wl.program_seeds(seed)
            for config in wl.configs:
                key = W.config_key(config)
                assert all(str(s) in reference[wl.name][key] for s in seeds)


def test_gate_counts_aborted_nonfinite_and_off_reference_runs():
    ref = {"er/M500": {"0": {"final_accuracy": 0.5, "aaa": 0.5, "forgetting": 0.1}}}
    ok = {"final_accuracy": 0.51, "aaa": 0.49, "forgetting": 0.1}
    assert W.check_results("er/M500", {0: ok}, ref, 0.03) == []
    assert len(W.check_results("er/M500", {0: None}, ref, 0.03)) == 1
    bad = dict(ok, aaa=float("nan"))
    assert len(W.check_results("er/M500", {0: bad}, ref, 0.03)) == 1
    off = dict(ok, final_accuracy=0.6)
    assert len(W.check_results("er/M500", {0: off}, ref, 0.03)) == 1
    assert len(W.check_results("er/M500", {1: ok}, ref, 0.03)) == 1


def _span(tracer, name, run_id, start, end, count_a=0.0, parent=-1):
    tracer.name.append(tracer._name_id(name))
    for column, value in ((tracer.parent, parent), (tracer.run, run_id),
                          (tracer.start, start), (tracer.end, end),
                          (tracer.count_a, count_a), (tracer.count_b, 0.0)):
        column.append(value)
    return len(tracer.name) - 1


def test_timing_metrics_keep_the_best_round_of_each_config():
    configs = W.WORKLOADS["split-aml"].configs[:2]
    keys = [W.config_key(c) for c in configs]
    # (round, config) -> seconds; each config is fastest in another round
    seconds = {(0, 0): 4.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 5.0}
    tracer = tracing.Tracer()
    t = 0.0
    for (i, c), s in seconds.items():
        run_id = 2 * i + c
        parent = _span(tracer, "trainer.run", run_id, t, t + s)
        for k in range(10):     # ten steps of 10 samples, 1 to 10 ms each
            _span(tracer, "trainer.train_step", run_id, t,
                  t + (k + 1) * 1e-3 * (1 + c), 10.0, parent)
        t += s
    rounds = [W.RoundResult({keys[c]: seconds[i, c] + 0.5 for c in (0, 1)},
                            {}, [], 1) for i in (0, 1)]
    m = run.timing_metrics(tracing.Spans(tracer), rounds, configs)
    assert m["wall_s"] == pytest.approx(3.5 + 2.5)
    assert m["train_samples_per_s"] == pytest.approx(200 / (3.0 + 2.0))
    assert m["step_ms_p50"] == pytest.approx((5.5 + 11.0) / 2)
