"""Autodiff core: values, gradients vs finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymreplay import tensor as T
from asymreplay.tensor import Tensor

from reference import assert_grads_close, central_diff


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


def rand(rng, *shape):
    return rng.standard_normal(shape).astype(np.float32)


# values ---------------------------------------------------------------

def test_relu_values():
    assert np.array_equal(T.relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    x = np.array([0.5, 1.0, 3.0], dtype=np.float32)
    assert np.array_equal(T.relu(Tensor(x)).data, x)


def test_forward_determinism():
    rng = np.random.default_rng(0)
    a, b = rand(rng, 4, 5), rand(rng, 5, 3)
    out1 = T.matmul(Tensor(a), Tensor(b)).data
    out2 = T.matmul(Tensor(a), Tensor(b)).data
    assert out1.tobytes() == out2.tobytes()


def test_l2_normalize_unit_rows():
    rng = np.random.default_rng(1)
    x = rand(rng, 6, 4) + 0.5
    out = T.l2_normalize(Tensor(x))
    assert np.allclose(np.linalg.norm(out.data, axis=1), 1.0, atol=1e-6)


def test_l2_normalize_zero_row_maps_to_itself():
    out = T.l2_normalize(Tensor(np.zeros((1, 3), dtype=np.float32)))
    assert np.array_equal(out.data, np.zeros((1, 3), dtype=np.float32))


def test_log_sum_exp_empty_mask_rejected():
    """A reduction over no columns, or over a non-matrix, is refused."""
    for bad in (np.zeros((2, 0)), np.zeros(3), np.zeros((2, 3, 1))):
        with pytest.raises(ValueError, match="log_sum_exp expects"):
            T.log_sum_exp(Tensor(bad))


def test_backward_requires_scalar():
    x = leaf(np.ones((2, 2)))
    with pytest.raises(ValueError):
        x.backward()


def test_backward_accumulates_on_repeat():
    x = leaf([1.0, 2.0])
    loss = T.tsum(x)
    loss.backward()
    g1 = x.grad.copy()
    loss.backward()
    assert np.array_equal(x.grad, 2 * g1)


def test_no_grad_blocks_graph():
    x = leaf([1.0, 2.0])
    with T.no_grad():
        out = T.tsum(T.relu(x))
    assert not out.requires_grad
    out.backward()
    assert x.grad is None


def test_stored_gradients_never_share_memory():
    """transpose and concat_rows pass views of their output's gradient on,
    and tsum a read-only broadcast: every stored gradient is its own
    writable float32 array all the same."""
    rng = np.random.default_rng(3)
    x, y = leaf(rand(rng, 3, 4)), leaf(rand(rng, 2, 4))
    both = T.concat_rows([x, y, x])
    flipped = T.transpose(both)
    loss = T.tsum(flipped)
    loss.backward()
    grads = [t.grad for t in (loss, flipped, both, x, y)]
    for g in grads:
        assert g.dtype == np.float32 and g.flags.writeable
    for i, a in enumerate(grads):
        for b in grads[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(x.grad, np.full((3, 4), 2.0, dtype=np.float32))


@pytest.mark.parametrize("const", [0, 1], ids=["first-const", "second-const"])
@pytest.mark.parametrize("op", [T.matmul, T.add, T.sub, T.mul,
                                lambda a, b: T.concat_rows([a, b])],
                         ids=["matmul", "add", "sub", "mul", "concat_rows"])
def test_constant_input_gets_no_gradient(op, const):
    """An input without requires_grad gets no gradient, and the other input
    gets the one it gets when both require it."""
    rng = np.random.default_rng(2)
    data = [rand(rng, 3, 3), rand(rng, 3, 3)]
    both = [leaf(d) for d in data]
    T.tsum(op(*both)).backward()
    mixed = [Tensor(d) if i == const else leaf(d) for i, d in enumerate(data)]
    T.tsum(op(*mixed)).backward()
    assert mixed[const].grad is None
    assert mixed[1 - const].grad.tobytes() == both[1 - const].grad.tobytes()


# gradient checks vs float64 finite differences ------------------------

def check_grad(build, ref, arrays, context):
    """build(tensor_leaves) -> loss Tensor; ref(arrays) -> float."""
    leaves = [leaf(a) for a in arrays]
    loss = build(leaves)
    loss.backward()
    numeric = central_diff(ref, arrays)
    for lf, num in zip(leaves, numeric):
        grad = lf.grad if lf.grad is not None else np.zeros_like(lf.data)
        assert_grads_close(grad, num, context=context)


@pytest.mark.parametrize("trial", range(10))
def test_grad_matmul_add_bias(trial):
    rng = np.random.default_rng(100 + trial)
    x, w, b = rand(rng, 3, 4), rand(rng, 4, 2), rand(rng, 2)
    r = rand(rng, 3, 2)
    check_grad(
        lambda ls: T.tsum(T.mul(T.add(T.matmul(ls[0], ls[1]), ls[2]), Tensor(r))),
        lambda ar: float((((ar[0] @ ar[1]) + ar[2]) * r).sum()),
        [x, w, b], "matmul+bias")


@pytest.mark.parametrize("trial", range(10))
def test_grad_relu(trial):
    rng = np.random.default_rng(200 + trial)
    x = rand(rng, 4, 5)
    x[np.abs(x) < 1e-3] = 0.1  # keep away from the kink
    r = rand(rng, 4, 5)
    check_grad(lambda ls: T.tsum(T.mul(T.relu(ls[0]), Tensor(r))),
               lambda ar: float((np.maximum(ar[0], 0) * r).sum()),
               [x], "relu")


@pytest.mark.parametrize("trial", range(10))
def test_grad_l2_normalize(trial):
    rng = np.random.default_rng(300 + trial)
    x = rand(rng, 4, 3)
    x += np.sign(x.sum(axis=1, keepdims=True)) * 0.5  # rows well above eps
    r = rand(rng, 4, 3)

    def ref(ar):
        a = ar[0]
        n = np.linalg.norm(a, axis=1, keepdims=True)
        return float((a / np.maximum(n, 1e-8) * r).sum())

    check_grad(lambda ls: T.tsum(T.mul(T.l2_normalize(ls[0]), Tensor(r))),
               ref, [x], "l2_normalize")


@pytest.mark.parametrize("trial", range(10))
def test_grad_log_sum_exp_masked(trial):
    """The reduction masked_ce runs over the columns it kept."""
    rng = np.random.default_rng(400 + trial)
    x = rand(rng, 3, 6)
    r = rand(rng, 3)

    def ref(ar):
        m = ar[0].max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(ar[0] - m).sum(axis=1))
        return float((lse * r).sum())

    check_grad(lambda ls: T.tsum(T.mul(T.log_sum_exp(ls[0]), Tensor(r))),
               ref, [x], "log_sum_exp")


@pytest.mark.parametrize("trial", range(5))
def test_grad_gather_ops(trial):
    rng = np.random.default_rng(500 + trial)
    x = rand(rng, 5, 4)
    rows = rng.integers(0, 5, size=7)
    cols = rng.choice(4, size=2, replace=False)
    per_row = rng.integers(0, 4, size=5)
    r1, r2, r3 = rand(rng, 7, 4), rand(rng, 5, 2), rand(rng, 5)

    def ref(ar):
        a = ar[0]
        return float((a[rows] * r1).sum() + (a[:, cols] * r2).sum()
                     + (a[np.arange(5), per_row] * r3).sum())

    def build(ls):
        return T.add(
            T.add(T.tsum(T.mul(T.take_rows(ls[0], rows), Tensor(r1))),
                  T.tsum(T.mul(T.take_columns(ls[0], cols), Tensor(r2)))),
            T.tsum(T.mul(T.take_per_row(ls[0], per_row), Tensor(r3))))

    check_grad(build, ref, [x], "gather ops")


@pytest.mark.parametrize("trial", range(5))
def test_grad_take_per_row_k_columns(trial):
    """[n, k] indices gather k columns per row; a column taken twice in a
    row gets both gradients."""
    rng = np.random.default_rng(550 + trial)
    x = rand(rng, 5, 4)
    idx = rng.integers(0, 4, size=(5, 3))
    idx[0] = [2, 2, 1]
    r = rand(rng, 5, 3)
    got = T.take_per_row(Tensor(x), idx).data
    assert np.array_equal(got, x[np.arange(5)[:, None], idx])
    check_grad(lambda ls: T.tsum(T.mul(T.take_per_row(ls[0], idx), Tensor(r))),
               lambda ar: float((ar[0][np.arange(5)[:, None], idx] * r).sum()),
               [x], "take_per_row [n, k]")


@pytest.mark.parametrize("trial", range(5))
def test_grad_concat_transpose_rowdot_scale(trial):
    rng = np.random.default_rng(600 + trial)
    a, b = rand(rng, 2, 3), rand(rng, 4, 3)
    r = rand(rng, 3, 6)

    def ref(ar):
        cat = np.concatenate([ar[0], ar[1]])
        return float((cat.T * r).sum() * 0.7 + (ar[0] * ar[0]).sum())

    def build(ls):
        cat = T.concat_rows([ls[0], ls[1]])
        return T.add(T.scale(T.tsum(T.mul(T.transpose(cat), Tensor(r))), 0.7),
                     T.tsum(T.row_dot(ls[0], ls[0])))

    check_grad(build, ref, [a, b], "concat/transpose/row_dot/scale")


@pytest.mark.parametrize("trial", range(5))
def test_grad_sub_mul_mean(trial):
    rng = np.random.default_rng(700 + trial)
    a, b = rand(rng, 3, 3), rand(rng, 3, 3)
    check_grad(lambda ls: T.tmean(T.mul(T.sub(ls[0], ls[1]), ls[0])),
               lambda ar: float(((ar[0] - ar[1]) * ar[0]).mean()),
               [a, b], "sub/mul/mean")


# properties -----------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=1, max_size=8))
def test_relu_idempotent(values):
    once = T.relu(Tensor(values))
    twice = T.relu(once)
    assert np.array_equal(once.data, twice.data)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_bias_gradient_is_column_sum(n, d, seed):
    rng = np.random.default_rng(seed)
    x = rand(rng, n, d)
    b = leaf(np.zeros(d))
    out = T.tsum(T.add(Tensor(x), b))
    out.backward()
    assert np.allclose(b.grad, np.full(d, n), atol=1e-5)
