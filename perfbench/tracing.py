"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces public functions and methods of the program's modules with
timing wrappers and ``Tracer.uninstall`` puts every original back.  A
function is rebound in every module of the package that holds it (for
example ``trainer.make_stream`` and ``report.run`` are imported names), so
the wrappers do not depend on how the program imports its own layers.

Each span records name, start, end, parent span and run id; the run id
numbers the top-level calls, so all spans under one experiment share it.
Spans stay in memory (flat arrays) and are written once, at the end.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (module, attribute path) of every function wrapped in the traced run.
TENSOR_OPS = ("matmul", "add", "sub", "mul", "scale", "relu", "tsum", "tmean",
              "l2_normalize", "log_sum_exp", "take_per_row", "take_rows",
              "take_columns", "transpose", "concat_rows", "row_dot")
TARGETS = (
    *(("tensor", op) for op in TENSOR_OPS),
    ("tensor", "Tensor.backward"),
    ("network", "features"), ("network", "cosine_logits"),
    ("losses", "masked_ce"), ("losses", "supcon_loss"),
    ("losses", "triplet_loss"), ("losses", "er_loss"),
    ("losses", "er_ace_loss"), ("losses", "ssil_nodistill_loss"),
    ("losses", "er_aml_loss"),
    ("buffer", "ReplayBuffer.reservoir_update"),
    ("buffer", "ReplayBuffer.sample"), ("buffer", "ReplayBuffer.fetch_pos_neg"),
    ("stream", "make_synthetic"), ("stream", "make_stream"),
    ("trainer", "run"), ("trainer", "train_step"), ("trainer", "sgd_update"),
    ("metrics", "accuracy"), ("metrics", "old_feature_grad_norm"),
    ("report", "run_experiment"), ("report", "write_report_files"),
    ("cli", "main"),
)
PACKAGE = "asymreplay"


def _rows(x) -> int:
    data = getattr(x, "data", x)
    return int(np.shape(data)[0])


def _features_counts(args, out):
    from asymreplay import network
    rows = _rows(args[1])
    return rows, rows * network.forward_flops_per_sample(args[0], with_head=False)


def _cosine_counts(args, out):
    head, f = args[0], args[1]
    rows, d, c = _rows(f), head.W.data.shape[1], head.num_classes
    return rows, rows * (3 * d + 1 + 2 * d * c + c)


def _fetch_counts(args, out):
    # attempted anchors, anchors given a (positive, negative) pair
    return len(out.pairs), sum(1 for p in out.pairs if p is not None)


def _aml_counts(args, out):
    return out.extra_buffer_forwards, 0


def _run_counts(args, out):
    return len(out.log.eval_steps), out.ledger.train_flops


def _step_counts(args, out):
    return len(args[1].labels), 0


# Per-span counts recorded at the boundary: (a, b) numbers from args/result.
COUNTERS = {
    "network.features": _features_counts,
    "network.cosine_logits": _cosine_counts,
    "buffer.ReplayBuffer.fetch_pos_neg": _fetch_counts,
    "losses.er_aml_loss": _aml_counts,
    "trainer.run": _run_counts,
    "trainer.train_step": _step_counts,
}


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def installed_wrappers() -> list:
    """Names of span wrappers still bound anywhere in the program."""
    found = []
    for m in _package_modules():
        for value in list(vars(m).values()):
            holders = [value] + (list(vars(value).values())
                                 if isinstance(value, type) else [])
            found += [h.span_name for h in holders if hasattr(h, "span_name")]
    return sorted(set(found))


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count_a = array("d")
        self.count_b = array("d")
        self.run_id = -1
        self._stack = [-1]
        self._patches: list = []   # (owner, attribute, original)

    # recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so that every call records one span."""
        nid = self._name_id(name)
        stack, perf = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(self.name)
            if len(stack) == 1:     # a top-level call starts a new run id
                self.run_id += 1
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.run.append(self.run_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.count_a.append(0.0)
            self.count_b.append(0.0)
            stack.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if counter is not None:
                self.count_a[sid], self.count_b[sid] = counter(args, out)
            return out

        traced.__wrapped__ = fn
        traced.span_name = name
        return traced

    # installing ----------------------------------------------------------
    def install(self, targets=TARGETS):
        """Wrap every target; each original is rebound wherever it is held."""
        resolved = []
        for module_name, path in targets:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            resolved.append((f"{module_name}.{path}", owner, attr))
        modules = _package_modules()
        for name, owner, attr in resolved:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, COUNTERS.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # analysis ------------------------------------------------------------
    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count_a": np.frombuffer(self.count_a, dtype=np.float64).copy(),
            "count_b": np.frombuffer(self.count_b, dtype=np.float64).copy(),
        }

    def write(self, path):
        """Write every span (and the name table) as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class Spans:
    """Read-only view of a tracer's spans with self times and ancestry."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = list(tracer.names)
        self.name, self.parent, self.run = a["name"], a["parent"], a["run"]
        self.count_a, self.count_b = a["count_a"], a["count_b"]
        self.duration = a["end"] - a["start"]
        n = len(self.name)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent],
                                 weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child_time
        # a parent is always recorded before its children
        step_id = tracer._name_ids.get("trainer.train_step", -2)
        in_step = np.zeros(n, dtype=bool)
        parent_name = np.full(n, -1, dtype=np.int64)
        parent_name[has_parent] = self.name[self.parent[has_parent]]
        direct = parent_name == step_id
        for i in np.flatnonzero(has_parent):
            in_step[i] = direct[i] or in_step[self.parent[i]]
        self.in_step = in_step
        self.parent_name = parent_name

    def mask(self, *names, in_step=None, parent=None) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        m = np.isin(self.name, ids)
        if in_step is not None:
            m &= self.in_step == in_step
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            m &= self.parent_name == pid
        return m

    def count(self, *names, **kw) -> int:
        return int(self.mask(*names, **kw).sum())

    def total(self, *names, **kw) -> float:
        return float(self.duration[self.mask(*names, **kw)].sum())

    def total_self(self, *names, **kw) -> float:
        return float(self.self_time[self.mask(*names, **kw)].sum())


TAKE_OPS = ("tensor.take_per_row", "tensor.take_rows", "tensor.take_columns")
LOSS_FNS = ("losses.er_loss", "losses.er_ace_loss", "losses.ssil_nodistill_loss",
            "losses.er_aml_loss")

UNITS = {
    "tensor.op_calls_per_step": "count",
    "tensor.backward_ms_per_step": "ms",
    "tensor.matmul_ms_per_step": "ms",
    "tensor.l2_normalize_ms_per_step": "ms",
    "tensor.log_sum_exp_ms_per_step": "ms",
    "tensor.take_ms_per_step": "ms",
    "network.rows_forwarded_per_step": "count",
    "network.features_ms_per_step": "ms",
    "network.cosine_logits_ms_per_step": "ms",
    "network.forward_gflops_per_s": "GFLOP/s",
    "losses.loss_ms_per_step": "ms",
    "losses.masked_ce_calls_per_step": "count",
    "losses.supcon_ms_per_step": "ms",
    "losses.triplet_ms_per_step": "ms",
    "losses.paired_anchor_share": "ratio",
    "buffer.reservoir_update_ms_per_step": "ms",
    "buffer.sample_ms_per_step": "ms",
    "buffer.fetch_pos_neg_ms_per_step": "ms",
    "buffer.extra_forwards_per_step": "count",
    "stream.make_synthetic_ms": "ms",
    "stream.make_stream_ms": "ms",
    "stream.make_stream_calls_per_seed": "count",
    "trainer.step_ms_mean": "ms",
    "trainer.step_self_ms": "ms",
    "trainer.drift_probe_ms_per_step": "ms",
    "trainer.sgd_update_ms_per_step": "ms",
    "trainer.train_gflops_per_s": "GFLOP/s",
    "metrics.accuracy_ms_per_eval": "ms",
    "metrics.eval_share": "ratio",
    "metrics.old_feature_grad_norm_ms_per_step": "ms",
    "report.run_experiment_overhead_ms": "ms",
    "report.write_report_files_ms": "ms",
    "cli.run_overhead_ms": "ms",
    "losses.supcon_fetch_backward_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def layer_metrics(sp: Spans) -> dict:
    """Every per-layer metric, from the spans of one traced round.

    ``*_per_step`` values count only spans inside ``trainer.train_step``;
    times of tensor ops are self times, all other times are inclusive.
    """
    steps = sp.count("trainer.train_step")
    runs = sp.count("trainer.run")

    def per_step_ms(*names, **kw):
        return 1e3 * sp.total(*names, in_step=True, **kw) / steps

    def per_step_self_ms(*names):
        return 1e3 * sp.total_self(*names, in_step=True) / steps

    fwd = sp.mask("network.features", "network.cosine_logits")
    fetch = sp.mask("buffer.ReplayBuffer.fetch_pos_neg")
    run = sp.mask("trainer.run")
    step_ms = 1e3 * sp.total("trainer.train_step") / steps
    aml_ms = (per_step_ms("losses.supcon_loss")
              + per_step_ms("buffer.ReplayBuffer.fetch_pos_neg")
              + per_step_ms("tensor.Tensor.backward"))
    n_exp = sp.count("report.run_experiment")
    n_write = sp.count("report.write_report_files")
    n_cli = sp.count("cli.main")
    return {
        "tensor.op_calls_per_step":
            sp.count(*(f"tensor.{op}" for op in TENSOR_OPS), in_step=True) / steps,
        "tensor.backward_ms_per_step": per_step_ms("tensor.Tensor.backward"),
        "tensor.matmul_ms_per_step": per_step_self_ms("tensor.matmul"),
        "tensor.l2_normalize_ms_per_step": per_step_self_ms("tensor.l2_normalize"),
        "tensor.log_sum_exp_ms_per_step": per_step_self_ms("tensor.log_sum_exp"),
        "tensor.take_ms_per_step": per_step_self_ms(*TAKE_OPS),
        "network.rows_forwarded_per_step": float(
            sp.count_a[sp.mask("network.features", in_step=True)].sum()) / steps,
        "network.features_ms_per_step": per_step_ms("network.features"),
        "network.cosine_logits_ms_per_step": per_step_ms("network.cosine_logits"),
        "network.forward_gflops_per_s":
            _ratio(float(sp.count_b[fwd].sum()), float(sp.duration[fwd].sum())) / 1e9,
        "losses.loss_ms_per_step": per_step_ms(*LOSS_FNS),
        "losses.masked_ce_calls_per_step":
            sp.count("losses.masked_ce", in_step=True) / steps,
        "losses.supcon_ms_per_step": per_step_ms("losses.supcon_loss"),
        "losses.triplet_ms_per_step": per_step_ms("losses.triplet_loss"),
        # 0 on a workload that attempts no anchor
        "losses.paired_anchor_share":
            _ratio(float(sp.count_b[fetch].sum()), float(sp.count_a[fetch].sum()))
            if sp.count_a[fetch].sum() else 0.0,
        "buffer.reservoir_update_ms_per_step":
            per_step_ms("buffer.ReplayBuffer.reservoir_update"),
        "buffer.sample_ms_per_step": per_step_ms("buffer.ReplayBuffer.sample"),
        "buffer.fetch_pos_neg_ms_per_step":
            per_step_ms("buffer.ReplayBuffer.fetch_pos_neg"),
        "buffer.extra_forwards_per_step": float(
            sp.count_a[sp.mask("losses.er_aml_loss", in_step=True)].sum()) / steps,
        "stream.make_synthetic_ms":
            1e3 * _ratio(sp.total("stream.make_synthetic"),
                         sp.count("stream.make_synthetic")),
        "stream.make_stream_ms":
            1e3 * _ratio(sp.total("stream.make_stream"), sp.count("stream.make_stream")),
        "stream.make_stream_calls_per_seed":
            _ratio(sp.count("stream.make_stream"), runs),
        "trainer.step_ms_mean": step_ms,
        "trainer.step_self_ms": 1e3 * sp.total_self("trainer.train_step") / steps,
        "trainer.drift_probe_ms_per_step":
            per_step_ms("network.features", parent="trainer.train_step"),
        "trainer.sgd_update_ms_per_step": per_step_ms("trainer.sgd_update"),
        "trainer.train_gflops_per_s":
            float(sp.count_b[run].sum()) / sp.total("trainer.train_step") / 1e9,
        "metrics.accuracy_ms_per_eval":
            1e3 * _ratio(sp.total("metrics.accuracy"), float(sp.count_a[run].sum())),
        "metrics.eval_share":
            _ratio(sp.total("metrics.accuracy"), sp.total("trainer.run")),
        "metrics.old_feature_grad_norm_ms_per_step":
            per_step_ms("metrics.old_feature_grad_norm"),
        "report.run_experiment_overhead_ms": 1e3 * _ratio(
            sp.total("report.run_experiment")
            - sp.total("trainer.run", parent="report.run_experiment"), n_exp),
        "report.write_report_files_ms":
            1e3 * _ratio(sp.total("report.write_report_files"), n_write),
        "cli.run_overhead_ms": 1e3 * _ratio(
            sp.total("cli.main")
            - sp.total("report.run_experiment", parent="cli.main"), n_cli),
        "losses.supcon_fetch_backward_share": aml_ms / step_ms,
    }
