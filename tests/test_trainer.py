"""Training loop: update rule, scheduling, determinism, shared data path."""

from dataclasses import replace

import numpy as np
import pytest

from asymreplay import losses as L
from asymreplay import network as net
from asymreplay import trainer as TR
from asymreplay.stream import (StreamConfig, StreamMode, SyntheticDatasetSpec,
                               make_stream, make_synthetic)
from asymreplay.tensor import Tensor


def tiny_setup(method=L.Method.ER_ACE, seed=0, **trainer_kw):
    ds = make_synthetic(SyntheticDatasetSpec(input_dim=4, num_classes=4,
                                             samples_per_class=20,
                                             noise_sigma=0.3), seed=0)
    scfg = StreamConfig(classes_per_task=2, batch_size=5,
                        mode=StreamMode.SPLIT, seed=seed)
    kw = dict(loss=L.LossConfig(method=method), lr=0.05,
              rehearsal_batch_size=5, eval_every=4, buffer_capacity=8,
              hidden_sizes=(8, 4), seed=seed)
    kw.update(trainer_kw)
    return ds, scfg, TR.TrainerConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        TR.TrainerConfig(lr=-0.1)
    with pytest.raises(ValueError):
        TR.TrainerConfig(eval_every=0)


def test_sgd_update_reference():
    model = net.init_params([3, 2], 2, 0.1, seed=0)
    before = [p.data.copy() for p in model.parameters()]
    grads = []
    for p in model.parameters():
        g = np.random.default_rng(1).standard_normal(p.data.shape)
        p.grad = g.astype(np.float32)
        grads.append(p.grad.copy())
    TR.sgd_update(model, lr=0.2)
    for p, b, g in zip(model.parameters(), before, grads):
        assert np.allclose(p.data, b - np.float32(0.2) * g, atol=1e-7)


def test_sgd_update_skips_missing_grads():
    model = net.init_params([3, 2], 2, 0.1, seed=0)
    before = [p.data.copy() for p in model.parameters()]
    TR.sgd_update(model, lr=0.5)
    for p, b in zip(model.parameters(), before):
        assert np.array_equal(p.data, b)


def test_single_pass_step_count_and_eval_schedule():
    ds, scfg, tcfg = tiny_setup()
    result = TR.run(ds, scfg, tcfg)
    n_steps = (4 * 20) // 5
    assert len(result.log.drift_trace) == n_steps
    want_evals = sorted(set(list(range(4, n_steps + 1, 4)) + [n_steps]))
    assert result.log.eval_steps == want_evals
    assert result.ledger.steps == n_steps


def test_run_deterministic_per_seed():
    ds, scfg, tcfg = tiny_setup(seed=3)
    a = TR.run(ds, scfg, tcfg)
    b = TR.run(ds, scfg, tcfg)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert a.log.aa_trace == b.log.aa_trace
    assert np.array_equal(a.log.drift_trace, b.log.drift_trace,
                          equal_nan=True)
    assert a.final_task_accuracy == b.final_task_accuracy


def test_different_seeds_differ():
    ds, scfg, tcfg = tiny_setup(seed=1)
    _, _, tcfg2 = tiny_setup(seed=2)
    a = TR.run(ds, scfg, tcfg)
    b = TR.run(ds, scfg, tcfg2)
    assert any(pa.data.tobytes() != pb.data.tobytes()
               for pa, pb in zip(a.model.parameters(), b.model.parameters()))


@pytest.mark.parametrize("method", list(L.Method))
def test_buffer_contents_method_independent(method):
    """Stream order, reservoir state, and rehearsal draws depend only on
    the seed, never on which loss is being optimized."""
    ds, scfg, ref_cfg = tiny_setup(method=L.Method.ER, seed=5)
    ref = TR.run(ds, scfg, ref_cfg)
    _, _, cfg = tiny_setup(method=method, seed=5)
    out = TR.run(ds, scfg, cfg)
    assert ref_slots_of(ref) == ref_slots_of(out)


def ref_slots_of(result):
    # rebuild the buffer by replaying the data path with a throwaway model
    ds, scfg, cfg = tiny_setup(method=result.trainer_config.loss.method,
                               seed=result.trainer_config.seed)
    stream = make_stream(ds, replace(scfg, seed=cfg.seed))
    state = TR.build_state(ds, stream, cfg)
    for batch in stream:
        state.buffer.sample(cfg.rehearsal_batch_size)
        state.buffer.reservoir_update(batch.inputs, batch.labels)
    n = len(state.buffer)
    return [(int(y), x.tobytes())
            for x, y in zip(state.buffer.x[:n], state.buffer.y[:n])]


def test_buffer_update_happens_after_learning():
    """The very first step rehearses from an empty buffer: the incoming
    batch must not be able to rehearse itself."""
    ds, scfg, tcfg = tiny_setup()
    stream = make_stream(ds, replace(scfg, seed=tcfg.seed))
    state = TR.build_state(ds, stream, tcfg)
    x_bf, _ = state.buffer.sample(tcfg.rehearsal_batch_size)
    assert x_bf.shape[0] == 0
    first = next(iter(stream))
    TR.train_step(state, first, tcfg)
    assert len(state.buffer) == len(first.labels)


def test_observed_classes_and_first_seen_tasks():
    ds, scfg, tcfg = tiny_setup()
    stream = make_stream(ds, replace(scfg, seed=tcfg.seed))
    state = TR.build_state(ds, stream, tcfg)
    batches = list(stream)
    for batch in batches[:4]:
        TR.train_step(state, batch, tcfg)
    assert state.observed == {0, 1}
    for batch in batches[4:]:
        TR.train_step(state, batch, tcfg)
    assert state.observed == {0, 1, 2, 3}


def test_drift_nan_before_old_classes_exist():
    ds, scfg, tcfg = tiny_setup()
    result = TR.run(ds, scfg, tcfg)
    n_task0 = (2 * 20) // 5
    assert all(np.isnan(d) for d in result.log.drift_trace[:n_task0])
    tail = result.log.drift_trace[n_task0:]
    assert any(np.isfinite(d) for d in tail)


def test_run_abort_on_non_finite_loss():
    ds, scfg, tcfg = tiny_setup()
    stream = make_stream(ds, replace(scfg, seed=tcfg.seed))
    state = TR.build_state(ds, stream, tcfg)
    state.model.extractor.weights[0].data[...] = np.nan
    with pytest.raises(TR.RunAbort) as exc:
        TR.train_step(state, next(iter(stream)), tcfg)
    assert exc.value.step == 0
    assert exc.value.method is L.Method.ER_ACE


def test_train_flops_match_closed_form():
    ds, scfg, tcfg = tiny_setup(method=L.Method.ER)
    result = TR.run(ds, scfg, tcfg)
    per_sample = net.forward_flops_per_sample(result.model)
    total = 0
    # replay the data path: batch + rehearsal sizes are seed-determined
    stream = make_stream(ds, replace(scfg, seed=tcfg.seed))
    state = TR.build_state(ds, stream, tcfg)
    for batch in stream:
        _, y_bf = state.buffer.sample(tcfg.rehearsal_batch_size)
        total += len(batch.labels) + len(y_bf)
        state.buffer.reservoir_update(batch.inputs, batch.labels)
    assert result.ledger.train_flops == 3 * total * per_sample


def test_er_and_er_ace_ledgers_bit_equal():
    ds, scfg, er_cfg = tiny_setup(method=L.Method.ER, seed=9)
    _, _, ace_cfg = tiny_setup(method=L.Method.ER_ACE, seed=9)
    a = TR.run(ds, scfg, er_cfg)
    b = TR.run(ds, scfg, ace_cfg)
    assert a.ledger.train_flops == b.ledger.train_flops
    assert a.ledger.eval_flops == b.ledger.eval_flops
    assert a.ledger.mem_byte_steps == b.ledger.mem_byte_steps


def test_aml_charges_extra_buffer_forwards():
    ds, scfg, aml_cfg = tiny_setup(method=L.Method.ER_AML_SUPCON, seed=9)
    _, _, er_cfg = tiny_setup(method=L.Method.ER, seed=9)
    a = TR.run(ds, scfg, aml_cfg)
    b = TR.run(ds, scfg, er_cfg)
    extra = sum(a.log.extra_forward_trace)
    per_sample = net.forward_flops_per_sample(a.model)
    assert a.ledger.train_flops == b.ledger.train_flops + 3 * extra * per_sample


def test_result_metric_properties():
    ds, scfg, tcfg = tiny_setup()
    result = TR.run(ds, scfg, tcfg)
    assert 0.0 <= result.final_accuracy <= 1.0
    assert 0.0 <= result.aaa <= 1.0
    assert np.isfinite(result.forgetting)
    mat, tasks = result.log.accuracy_matrix()
    assert mat.shape == (len(result.log.eval_steps), len(tasks))


def test_run_learns_separable_data():
    """Sanity: on a well-separated 2-task problem with enough steps after
    the switch, the final model is far above the 25% chance level."""
    ds = make_synthetic(SyntheticDatasetSpec(input_dim=4, num_classes=4,
                                             samples_per_class=200,
                                             noise_sigma=0.3), seed=0)
    scfg = StreamConfig(classes_per_task=2, batch_size=5,
                        mode=StreamMode.SPLIT, seed=0)
    tcfg = TR.TrainerConfig(loss=L.LossConfig(method=L.Method.ER_ACE),
                            lr=0.05, rehearsal_batch_size=5, eval_every=20,
                            buffer_capacity=8, hidden_sizes=(8, 4), seed=0)
    result = TR.run(ds, scfg, tcfg)
    assert result.final_accuracy > 0.8
