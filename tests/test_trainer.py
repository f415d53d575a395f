"""Training loop: update rule, scheduling, determinism, shared data path."""

import numpy as np
import pytest

from asymreplay import losses as L
from asymreplay import network as net
from asymreplay import trainer as TR
from asymreplay.report import ConfigError, ExperimentConfig
from asymreplay.stream import StreamMode, make_stream
from asymreplay.tensor import Tensor


def tiny_setup(method=L.Method.ER_ACE, **kw):
    """A 4-class, 2-task split stream's dataset and config."""
    cfg = ExperimentConfig(**{
        **dict(input_dim=4, num_classes=4, samples_per_class=20,
               noise_sigma=0.3, classes_per_task=2, batch_size=5,
               method=method, lr=0.05, rehearsal_batch_size=5, eval_every=4,
               buffer_capacity=8, hidden_sizes=(8, 4)), **kw})
    return cfg.dataset(), cfg


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(lr=-0.1)
    with pytest.raises(ValueError):
        ExperimentConfig(eval_every=0)


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
    ds, cfg = tiny_setup()
    result = TR.run(ds, cfg, 0)
    n_steps = (4 * 20) // 5
    assert len(result.log.drift_trace) == n_steps
    want_evals = sorted(set(list(range(4, n_steps + 1, 4)) + [n_steps]))
    assert result.log.eval_steps == want_evals
    assert result.ledger.steps == n_steps


def test_run_deterministic_per_seed():
    ds, cfg = tiny_setup()
    a = TR.run(ds, cfg, 3)
    b = TR.run(ds, cfg, 3)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert a.log.aa_trace == b.log.aa_trace
    assert np.array_equal(a.log.drift_trace, b.log.drift_trace,
                          equal_nan=True)
    assert np.array_equal(a.log.accuracy, b.log.accuracy, equal_nan=True)


def test_different_seeds_differ():
    ds, cfg = tiny_setup()
    a = TR.run(ds, cfg, 1)
    b = TR.run(ds, cfg, 2)
    assert any(pa.data.tobytes() != pb.data.tobytes()
               for pa, pb in zip(a.model.parameters(), b.model.parameters()))


@pytest.mark.parametrize("method", list(L.Method))
def test_buffer_contents_method_independent(method):
    """Stream order, reservoir state, and rehearsal draws depend only on
    the seed, never on which loss is being optimized."""
    ds, ref_cfg = tiny_setup(method=L.Method.ER)
    ref = TR.run(ds, ref_cfg, 5)
    _, cfg = tiny_setup(method=method)
    out = TR.run(ds, cfg, 5)
    n = len(ref.buffer)
    assert len(out.buffer) == n > 0
    assert np.array_equal(ref.buffer.x[:n], out.buffer.x[:n])
    assert np.array_equal(ref.buffer.y[:n], out.buffer.y[:n])


def test_buffer_update_happens_after_learning():
    """The very first step rehearses from an empty buffer: the incoming
    batch must not be able to rehearse itself."""
    ds, cfg = tiny_setup()
    stream = make_stream(ds, cfg, 0)
    state = TR.build_state(ds, stream, cfg, 0)
    x_bf, _ = state.buffer.sample(cfg.rehearsal_batch_size)
    assert x_bf.shape[0] == 0
    first = next(iter(stream))
    TR.train_step(state, first, cfg)
    assert len(state.buffer) == len(first.labels)


def test_observed_classes_and_first_seen_tasks():
    ds, cfg = tiny_setup()
    stream = make_stream(ds, cfg, 0)
    state = TR.build_state(ds, stream, cfg, 0)
    batches = list(stream)
    for batch in batches[:4]:
        TR.train_step(state, batch, cfg)
    assert state.seen.tolist() == [True, True, False, False]
    for batch in batches[4:]:
        TR.train_step(state, batch, cfg)
    assert state.seen.tolist() == [True, True, True, True]


def test_drift_nan_before_old_classes_exist():
    ds, cfg = tiny_setup()
    result = TR.run(ds, cfg, 0)
    n_task0 = (2 * 20) // 5
    assert all(np.isnan(d) for d in result.log.drift_trace[:n_task0])
    tail = result.log.drift_trace[n_task0:]
    assert any(np.isfinite(d) for d in tail)


def test_run_abort_on_non_finite_loss():
    ds, cfg = tiny_setup()
    stream = make_stream(ds, cfg, 0)
    state = TR.build_state(ds, stream, cfg, 0)
    state.model.weights[0].data[...] = np.nan
    with pytest.raises(TR.RunAbort) as exc:
        TR.train_step(state, next(iter(stream)), cfg)
    assert exc.value.step == 0
    assert exc.value.method is L.Method.ER_ACE


def test_train_flops_match_closed_form():
    ds, cfg = tiny_setup(method=L.Method.ER)
    result = TR.run(ds, cfg, 0)
    per_sample = net.forward_flops_per_sample(result.model)
    total = 0
    # replay the data path: batch + rehearsal sizes are seed-determined
    stream = make_stream(ds, cfg, 0)
    state = TR.build_state(ds, stream, cfg, 0)
    for batch in stream:
        _, y_bf = state.buffer.sample(cfg.rehearsal_batch_size)
        total += len(batch.labels) + len(y_bf)
        state.buffer.reservoir_update(batch.inputs, batch.labels)
    assert result.ledger.train_flops == 3 * total * per_sample


def test_er_and_er_ace_ledgers_bit_equal():
    ds, er_cfg = tiny_setup(method=L.Method.ER)
    _, ace_cfg = tiny_setup(method=L.Method.ER_ACE)
    a = TR.run(ds, er_cfg, 9)
    b = TR.run(ds, ace_cfg, 9)
    assert a.ledger.train_flops == b.ledger.train_flops
    assert a.ledger.eval_flops == b.ledger.eval_flops
    assert a.ledger.mem_byte_steps == b.ledger.mem_byte_steps


def test_aml_charges_extra_buffer_forwards():
    ds, aml_cfg = tiny_setup(method=L.Method.ER_AML_SUPCON)
    _, er_cfg = tiny_setup(method=L.Method.ER)
    a = TR.run(ds, aml_cfg, 9)
    b = TR.run(ds, er_cfg, 9)
    extra = a.log.extra_forwards
    per_sample = net.forward_flops_per_sample(a.model)
    assert a.ledger.train_flops == b.ledger.train_flops + 3 * extra * per_sample


@pytest.mark.parametrize("method,policy", [("er", "incoming-only"),
                                           ("er-aml", "incoming-only"),
                                           ("er-aml", "all-classes")])
def test_configs_take_an_enum_member_or_its_value(method, policy):
    """A config given an enum's value holds its member, so it compares equal
    to the member's config and trains to the same result."""
    ds, by_member = tiny_setup(method=L.Method(method),
                               negative_policy=L.NegativePolicy(policy),
                               stream_mode=StreamMode.SPLIT)
    _, by_value = tiny_setup(method=method, negative_policy=policy,
                             stream_mode="split")
    assert by_value.method is L.Method(method)
    assert by_value.negative_policy is L.NegativePolicy(policy)
    assert by_value.stream_mode is StreamMode.SPLIT
    assert by_value == by_member
    a = TR.run(ds, by_member, 1)
    b = TR.run(ds, by_value, 1)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert pa.data.tobytes() == pb.data.tobytes()
    assert a.log.extra_forwards == b.log.extra_forwards
    assert a.final_accuracy == b.final_accuracy


@pytest.mark.parametrize("key,value", [
    ("method", "bogus"), ("negative_policy", "bogus"),
    ("stream_mode", "bogus"),
    # a member of another setting's enum
    ("method", L.NegativePolicy.ALL_CLASSES),
])
def test_configs_refuse_an_unknown_enum_value(key, value):
    with pytest.raises(ConfigError,
                       match=f"^config key '{key}' must be one of .*, got "):
        ExperimentConfig(**{key: value})


def test_result_metric_properties():
    ds, cfg = tiny_setup()
    result = TR.run(ds, cfg, 0)
    assert 0.0 <= result.final_accuracy <= 1.0
    assert 0.0 <= result.aaa <= 1.0
    assert np.isfinite(result.forgetting)
    mat, tasks = result.log.accuracy_matrix()
    assert mat.shape == (len(result.log.eval_steps), len(tasks))


def test_run_learns_separable_data():
    """Sanity: on a well-separated 2-task problem with enough steps after
    the switch, the final model is far above the 25% chance level."""
    ds, cfg = tiny_setup(samples_per_class=200, eval_every=20)
    result = TR.run(ds, cfg, 0)
    assert result.final_accuracy > 0.8
