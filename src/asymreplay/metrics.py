"""Measurement machinery: anytime accuracy, forgetting, representation
drift, old-feature gradient norms, and the FLOPs/memory ledgers.

FLOPs are analytic, counted from layer shapes (see
``network.forward_flops_per_sample``), never measured: a training step
charges one forward plus a backward at twice the forward cost; evaluation
forwards are charged to a separate inference-overhead ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network as net
from . import tensor as T

BYTES_PER_FLOAT = 4
BYTES_PER_LABEL = 4


@dataclass
class ResourceLedger:
    train_flops: int = 0
    eval_flops: int = 0
    mem_byte_steps: int = 0   # running sum of |theta|+|buffer| bytes per step
    steps: int = 0

    def charge_train(self, n_samples: int, per_sample_forward: int):
        # forward + backward, backward at 2x forward
        self.train_flops += 3 * n_samples * per_sample_forward

    def charge_eval(self, n_samples: int, per_sample_forward: int):
        self.eval_flops += n_samples * per_sample_forward

    def note_memory(self, param_count: int, buffer_len: int, input_dim: int):
        per_slot = input_dim * BYTES_PER_FLOAT + BYTES_PER_LABEL
        self.mem_byte_steps += param_count * BYTES_PER_FLOAT + buffer_len * per_slot
        self.steps += 1

    @property
    def mean_memory_bytes(self) -> float:
        return self.mem_byte_steps / self.steps if self.steps else 0.0


@dataclass
class MetricsLog:
    eval_steps: list = field(default_factory=list)
    # per eval: a float64 row of accuracies indexed by task, NaN for a task
    # none of whose classes has been trained yet
    accuracy: list = field(default_factory=list)
    aa_trace: list = field(default_factory=list)
    current_task_accuracy: list = field(default_factory=list)
    drift_trace: list = field(default_factory=list)       # per training step
    grad_norm_trace: list = field(default_factory=list)   # per training step
    skipped_anchors: int = 0   # running totals over training steps
    extra_forwards: int = 0

    def record_eval(self, step: int, row: np.ndarray, current_task: int):
        self.eval_steps.append(step)
        self.accuracy.append(row)
        self.aa_trace.append(anytime_accuracy(row))
        self.current_task_accuracy.append(float(row[current_task]))

    def accuracy_matrix(self):
        """(evals x tasks) matrix over the tasks the last evaluation saw
        (the seen set only grows), NaN before a task is first seen."""
        mat = np.array(self.accuracy)
        tasks = np.flatnonzero(~np.isnan(mat[-1]))
        return mat[:, tasks], tasks.tolist()


def accuracy(model, inputs, labels, groups, num_groups: int) -> np.ndarray:
    """Each group's accuracy from one ``net.predict`` over all ``inputs``:
    a float64 row indexed by group, where ``groups[i]`` is row i's group;
    NaN for a group with no rows."""
    hits = net.predict(model, inputs) == np.asarray(labels)
    n_rows = np.bincount(groups, minlength=num_groups)
    # an empty group keeps the NaN it starts with: no 0/0 is computed
    return np.divide(np.bincount(groups, weights=hits, minlength=num_groups),
                     n_rows, out=np.full(num_groups, np.nan), where=n_rows > 0)


def anytime_accuracy(row: np.ndarray) -> float:
    """Unweighted mean over the seen distributions' test accuracies: the
    row's non-NaN entries, in task order."""
    seen = row[~np.isnan(row)]
    if not seen.size:
        raise ValueError("anytime accuracy needs at least one seen distribution")
    return float(np.mean(seen))


def averaged_anytime_accuracy(aa_trace) -> float:
    if not len(aa_trace):
        raise ValueError("AAA needs at least one recorded AA value")
    return float(np.mean(aa_trace))


def forgetting(matrix: np.ndarray) -> float:
    """Mean over non-final tasks of (best earlier accuracy - final accuracy).

    ``matrix`` is evals x tasks with NaN before a task is first seen.
    Returns NaN when fewer than two tasks completed.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] < 2:
        return float("nan")
    drops = []
    final = matrix[-1]
    for j in range(matrix.shape[1] - 1):
        col = matrix[:-1, j]
        col = col[~np.isnan(col)]
        if col.size == 0 or np.isnan(final[j]):
            continue
        drops.append(float(col.max() - final[j]))
    return float(np.mean(drops)) if drops else float("nan")


def probe_features(model, inputs) -> np.ndarray:
    """l2-normalized features of ``inputs``, computed without a graph; an
    empty probe is not forwarded."""
    if not len(inputs):
        return np.zeros((0, 0), dtype=np.float32)
    with T.no_grad():
        return T.l2_normalize(net.features(model, inputs)).data


def one_step_drift(feats_before, feats_after) -> float:
    """Mean distance between matching rows of two ``probe_features``
    arrays taken across one update; NaN for an empty probe."""
    if not len(feats_before):
        return float("nan")
    return float(np.mean(np.linalg.norm(feats_after - feats_before, axis=1)))


def old_feature_grad_norm(feature_records, old: np.ndarray) -> float:
    """Mean l2 norm of the loss gradient w.r.t. features of the samples in
    the step's loss graph whose class the ``old`` mask admits (a feature
    without a gradient counts as zero); 0 when no such sample appears."""
    norms = []
    for feats, labels in feature_records:
        g = feats.grad if feats.grad is not None else np.zeros_like(feats.data)
        norms += [float(np.linalg.norm(g[i])) for i in np.flatnonzero(old[labels])]
    return float(np.mean(norms)) if norms else 0.0
