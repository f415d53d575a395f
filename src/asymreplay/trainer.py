"""Online training loop: one pass over the stream, method-dispatched loss,
plain SGD, reservoir update, and scheduled evaluation.

The data path is method-independent: stream order, buffer contents, and
rehearsal draws depend only on the seed, never on the loss being
optimized (the positive/negative fetch has its own RNG so that methods
which skip it leave the shared state untouched).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import losses as L
from . import metrics as M
from . import network as net
from .buffer import ReplayBuffer
from .stream import Dataset, LabeledBatch, Stream, make_stream

if TYPE_CHECKING:
    from .report import ExperimentConfig


class RunAbort(RuntimeError):
    def __init__(self, step: int, method: L.Method, value: float):
        super().__init__(
            f"non-finite loss {value} at step {step} for method {method.value}")
        self.step = step
        self.method = method
        self.value = value


class RunState:
    """One seed's run on ``stream``: the model, the buffer and the
    positive/negative fetch RNG, each derived from ``seed``, and its logs."""

    def __init__(self, stream: Stream, cfg: ExperimentConfig, seed: int):
        dataset = stream.dataset
        self.model = net.ModelParams([dataset.input_dim, *cfg.hidden_sizes],
                                     dataset.num_classes, cfg.tau, seed)
        self.buffer = ReplayBuffer(
            cfg.buffer_capacity, dataset.input_dim,
            np.random.default_rng(np.random.SeedSequence([seed, 0xB0FF])))
        self.fetch_rng = np.random.default_rng(
            np.random.SeedSequence([seed, 0xFE7C]))
        self.stream = stream
        self.seen = np.zeros(len(stream.task_ids), dtype=bool)   # classes trained on
        self.step = 0
        self.ledger = M.ResourceLedger()
        self.log = M.MetricsLog()

    @property
    def final_accuracy(self) -> float:
        return self.log.aa_trace[-1]

    @property
    def aaa(self) -> float:
        return M.averaged_anytime_accuracy(self.log.aa_trace)

    @property
    def forgetting(self) -> float:
        mat, _ = self.log.accuracy_matrix()
        return M.forgetting(mat)


def sgd_update(model: net.ModelParams, lr: float):
    """theta <- theta - lr * grad; no momentum, no weight decay."""
    for p in model.parameters():
        if p.grad is not None:
            p.data -= np.float32(lr) * p.grad


def _dispatch_loss(state: RunState, batch: LabeledBatch, x_bf, y_bf,
                   cfg: ExperimentConfig, curr, old) -> L.LossOutput:
    method = cfg.method
    if method is L.Method.ER:
        return L.er_loss(state.model, batch.inputs, batch.labels, x_bf, y_bf)
    if method is L.Method.ER_ACE:
        return L.er_ace_loss(state.model, batch.inputs, batch.labels,
                             x_bf, y_bf, curr, old)
    if method is L.Method.SSIL_NODISTILL:
        return L.ssil_nodistill_loss(state.model, batch.inputs, batch.labels,
                                     x_bf, y_bf, curr, state.stream.task_ids)
    pos_neg = state.buffer.fetch_pos_neg(batch.labels, cfg.negative_policy,
                                         state.fetch_rng)
    return L.er_aml_loss(state.model, batch.inputs, x_bf, y_bf, pos_neg, cfg,
                         state.buffer)


def train_step(state: RunState, batch: LabeledBatch, cfg: ExperimentConfig):
    """One update; appends the step's traces to ``state.log``."""
    curr, old = L.class_masks(batch.labels, state.seen)
    x_bf, y_bf = state.buffer.sample(cfg.rehearsal_batch_size)

    # drift probe: buffered samples of seen classes outside the incoming batch
    n = len(state.buffer)
    probe_x = state.buffer.x[:n][old[state.buffer.y[:n]]]
    feats_before = M.probe_features(state.model, probe_x)

    out = _dispatch_loss(state, batch, x_bf, y_bf, cfg, curr, old)
    loss_value = float(out.loss.data)
    if not np.isfinite(loss_value):
        raise RunAbort(state.step, cfg.method, loss_value)

    state.model.zero_grad()
    out.loss.backward()
    grad_norm = M.old_feature_grad_norm(out.feature_records, old)
    sgd_update(state.model, cfg.lr)

    drift = M.one_step_drift(feats_before,
                             M.probe_features(state.model, probe_x))

    # new data enters the buffer only after being learned
    state.buffer.reservoir_update(batch.inputs, batch.labels)
    state.seen |= curr

    per_sample = net.forward_flops_per_sample(state.model)
    n_samples = len(batch.labels) + len(y_bf) + out.extra_buffer_forwards
    state.ledger.charge_train(n_samples, per_sample)
    state.ledger.note_memory(state.model.num_params(), len(state.buffer),
                             batch.inputs.shape[1])
    state.step += 1
    state.log.drift_trace.append(drift)
    state.log.grad_norm_trace.append(grad_norm)
    state.log.skipped_anchors += out.skipped_anchors
    state.log.extra_forwards += out.extra_buffer_forwards


def _evaluate(state: RunState, row_task, current_task: int):
    """One ``predict`` pass over the test rows of every task with a seen
    class; ``row_task[i]`` is test row i's task."""
    seen_tasks = np.bincount(state.stream.task_ids, weights=state.seen) > 0
    rows = seen_tasks[row_task]
    dataset = state.stream.dataset
    row = M.accuracy(state.model, dataset.test_x[rows], dataset.test_y[rows],
                     row_task[rows], len(seen_tasks))
    state.ledger.charge_eval(int(rows.sum()),
                             net.forward_flops_per_sample(state.model))
    state.log.record_eval(state.step, row, current_task)


def run(dataset: Dataset, cfg: ExperimentConfig, seed: int) -> RunState:
    """Single-pass online run; evaluates every ``eval_every`` updates on the
    test sets of every distribution seen so far.  Returns the trained state.

    ``seed`` pins the whole run (stream order, init, buffer, rehearsal
    draws).
    """
    stream = make_stream(dataset, cfg, seed)
    state = RunState(stream, cfg, seed)
    row_task = stream.task_ids[dataset.test_y]
    n_rows = np.bincount(row_task, minlength=stream.task_ids.max() + 1)
    if n_rows.min() == 0:   # an empty test split has no accuracy
        raise ValueError(f"task {n_rows.argmin()} has no test rows")
    # a diverging run overflows on its way to the RunAbort that names it
    with np.errstate(over="ignore", invalid="ignore"):
        for batch in stream:
            train_step(state, batch, cfg)
            if state.step % cfg.eval_every == 0 or state.step == len(stream):
                # the most frequent label's task; ties go to the lowest label
                task = int(stream.task_ids[np.bincount(batch.labels).argmax()])
                _evaluate(state, row_task, task)
    return state
