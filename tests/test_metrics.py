"""Metric arithmetic on hand-computed fixtures; resource ledgers."""

import numpy as np
import pytest

from asymreplay import metrics as M
from asymreplay import network as net


def test_anytime_accuracy_unweighted_mean():
    assert M.anytime_accuracy(np.array([1.0, 0.5, np.nan])) == \
        pytest.approx(0.75)
    assert M.anytime_accuracy(np.array([np.nan, np.nan, 0.3])) == 0.3
    with pytest.raises(ValueError):
        M.anytime_accuracy(np.array([np.nan, np.nan]))


def test_averaged_anytime_accuracy_fixture():
    assert M.averaged_anytime_accuracy([0.8, 0.6, 0.4]) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        M.averaged_anytime_accuracy([])


def test_forgetting_hand_fixture():
    # task 0: best earlier 0.9, final 0.5 -> drop 0.4
    # task 1: best earlier 0.8, final 0.6 -> drop 0.2
    mat = np.array([
        [0.9, np.nan, np.nan],
        [0.7, 0.8, np.nan],
        [0.5, 0.6, 0.75],
    ])
    assert M.forgetting(mat) == pytest.approx(0.3)


def test_forgetting_zero_when_no_drop():
    mat = np.array([[0.5, np.nan], [0.5, 0.9]])
    assert M.forgetting(mat) == pytest.approx(0.0)


def test_forgetting_nan_for_single_task():
    assert np.isnan(M.forgetting(np.array([[0.5], [0.6]])))


def test_accuracy_matrix_nan_before_first_seen():
    log = M.MetricsLog()
    log.record_eval(0, np.array([0.9, np.nan]), current_task=0)
    log.record_eval(10, np.array([0.7, 0.8]), current_task=1)
    mat, tasks = log.accuracy_matrix()
    assert tasks == [0, 1]
    assert np.isnan(mat[0, 1]) and mat[1, 0] == pytest.approx(0.7)
    assert log.aa_trace == pytest.approx([0.9, 0.75])
    assert log.current_task_accuracy == pytest.approx([0.9, 0.8])


def test_accuracy_function():
    model = net.init_params([2, 2], 2, 0.1, seed=0)
    model.weights[0].data[...] = np.eye(2, dtype=np.float32)
    model.W.data[...] = np.eye(2, dtype=np.float32)
    x = np.array([[1, 0], [0, 1], [1, 0]], dtype=np.float32)
    assert M.accuracy(model, x, [0, 1, 1]) == pytest.approx(2 / 3)
    assert np.isnan(M.accuracy(model, np.zeros((0, 2), dtype=np.float32), []))


def test_one_step_drift_orthogonal_features_sqrt2():
    """Unit features rotated to an orthogonal direction drift by sqrt(2)."""
    before = net.init_params([2, 2], 2, 0.1, seed=0)
    after = net.init_params([2, 2], 2, 0.1, seed=0)
    before.weights[0].data[...] = np.eye(2, dtype=np.float32)
    after.weights[0].data[...] = np.array([[0, 1], [-1, 0]],
                                          dtype=np.float32)
    probe = np.array([[3.0, 0.0]], dtype=np.float32)
    assert M.one_step_drift(M.probe_features(before, probe),
                            M.probe_features(after, probe)) == pytest.approx(
        np.sqrt(2.0), rel=1e-6)
    empty = np.zeros((0, 2), dtype=np.float32)
    assert np.isnan(M.one_step_drift(M.probe_features(before, empty),
                                     M.probe_features(after, empty)))


def test_old_feature_grad_norm_fixture():
    class Rec:
        pass
    feats = Rec()
    feats.data = np.zeros((3, 2), dtype=np.float32)
    feats.grad = np.array([[3, 4], [0, 0], [1, 0]], dtype=np.float32)
    records = [(feats, np.array([7, 7, 1]))]
    old_7, old_9 = np.arange(10) == 7, np.arange(10) == 9
    # old class 7 -> rows 0 and 1, norms 5 and 0
    assert M.old_feature_grad_norm(records, old_7) == pytest.approx(2.5)
    assert M.old_feature_grad_norm(records, old_9) == 0.0
    assert M.old_feature_grad_norm([], old_7) == 0.0


def test_old_feature_grad_norm_missing_grad_counts_as_zero():
    class Rec:
        pass
    feats = Rec()
    feats.data = np.ones((2, 2), dtype=np.float32)
    feats.grad = None
    assert M.old_feature_grad_norm([(feats, np.array([4, 4]))],
                                   np.arange(5) == 4) == 0.0


# ledgers --------------------------------------------------------------

def test_train_charge_closed_form():
    led = M.ResourceLedger()
    led.charge_train(10, 100)
    led.charge_train(3, 100)
    assert led.train_flops == 3 * 13 * 100
    assert led.eval_flops == 0


def test_eval_charge_separate():
    led = M.ResourceLedger()
    led.charge_eval(50, 7)
    assert led.eval_flops == 350 and led.train_flops == 0


def test_memory_ledger_mean():
    led = M.ResourceLedger()
    led.note_memory(param_count=10, buffer_len=2, input_dim=3)
    led.note_memory(param_count=10, buffer_len=4, input_dim=3)
    per_slot = 3 * M.BYTES_PER_FLOAT + M.BYTES_PER_LABEL
    want = (10 * M.BYTES_PER_FLOAT * 2 + (2 + 4) * per_slot) / 2
    assert led.mean_memory_bytes == pytest.approx(want)
    assert M.ResourceLedger().mean_memory_bytes == 0.0
