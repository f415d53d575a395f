"""Minimal dense tensor with reverse-mode automatic differentiation.

Storage is float32; reductions accumulate in float64 before casting back.
The graph is built eagerly: every op declares one gradient function per
input and ``_make`` records them on the output; ``Tensor.backward`` walks
the graph in reverse topological order and applies them.
"""

from __future__ import annotations

import contextlib
from typing import Sequence

import numpy as np

NORM_EPS = 1e-8

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grads")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._grads: tuple = ()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = g.astype(np.float32)    # a copy: ``g`` may be a view
        else:
            self.grad += g.astype(np.float32)

    def backward(self):
        """Populate ``grad`` on every reachable requires_grad tensor: each
        interior node, in reverse topological order, passes its gradient
        through the gradient functions ``_make`` recorded for its parents.

        Repeated calls without zeroing accumulate, matching the usual
        deep-learning convention.
        """
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar, got shape {self.data.shape}"
            )
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        # leaf grads accumulate across calls; interior grads are re-derived
        # each time so a repeated backward never double-counts
        for node in topo:
            if node._parents:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            for p, grad in zip(node._parents, node._grads):
                if p.requires_grad:
                    p._accumulate(grad(node.grad))


def _make(data, parents, grads):
    """Record ``data`` as the output of an op on ``parents``: ``grads[i]``
    maps the output's gradient to ``parents[i]``'s.  Only recorded;
    ``Tensor.backward`` runs ``grads[i]`` when that parent requires one."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents, out._grads = tuple(parents), tuple(grads)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    return _make(a.data @ b.data, (a, b),
                 (lambda g: g @ b.data.T, lambda g: a.data.T @ g))


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also supports adding a 1-d bias to each row."""
    return _make(a.data + b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(g, b.data.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data - b.data, (a, b),
                 (lambda g: _unbroadcast(g, a.data.shape),
                  lambda g: _unbroadcast(-g, b.data.shape)))


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    # bias-style broadcast: reduce leading axes added by numpy; any other
    # shape mismatch makes the reshape raise
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
    return g.reshape(shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _make(a.data * b.data, (a, b),
                 (lambda g: _unbroadcast(g * b.data, a.data.shape),
                  lambda g: _unbroadcast(g * a.data, b.data.shape)))


def scale(a: Tensor, k: float) -> Tensor:
    return _make(a.data * np.float32(k), (a,), (lambda g: g * np.float32(k),))


def relu(a: Tensor) -> Tensor:
    return _make(np.maximum(a.data, 0), (a,), (lambda g: g * (a.data > 0),))


def tsum(a: Tensor, axis=None) -> Tensor:
    out_data = np.sum(a.data, axis=axis, dtype=np.float64).astype(np.float32)
    return _make(out_data, (a,), (lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), a.data.shape),))


# No caller in the package: it stays while perfbench's TENSOR_OPS wraps it by name.
def tmean(a: Tensor) -> Tensor:
    return scale(tsum(a), 1.0 / a.data.size)


def l2_normalize(x: Tensor) -> Tensor:
    """Divide each row of ``x[n, d]`` by max(||row||, NORM_EPS).

    The guard makes the zero vector map to itself and keeps the op
    differentiable everywhere we evaluate it.
    """
    arr = x.data
    norms = np.sqrt(np.sum(arr.astype(np.float64) ** 2, axis=1))
    denom = np.maximum(norms, NORM_EPS).astype(np.float32)[:, None]
    out_data = arr / denom

    def grad(g):
        clipped = norms < NORM_EPS
        inv = 1.0 / denom
        # d(x/||x||)/dx = (I - y y^T) / ||x||;  a clipped row's denominator
        # is constant so its jacobian is just 1/NORM_EPS on the diagonal.
        dot = np.sum(g * out_data, axis=1, dtype=np.float64)[:, None].astype(np.float32)
        gx = (g - out_data * dot) * inv
        gx[clipped] = g[clipped] * inv[clipped]
        return gx

    return _make(out_data, (x,), (grad,))


def log_sum_exp(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp over all columns of ``x[n, c]``.

    Callers exclude classes by slicing columns away before this reduction
    (``losses.masked_ce``), so an excluded column never reaches it.
    """
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ValueError(
            f"log_sum_exp expects x[n, c] with c >= 1, got shape {x.data.shape}"
        )
    x64 = x.data.astype(np.float64)
    m = np.max(x64, axis=1, keepdims=True)
    ex = np.exp(x64 - m)
    out_data = (m[:, 0] + np.log(np.sum(ex, axis=1))).astype(np.float32)
    return _make(out_data, (x,), (
        lambda g: ex / np.sum(ex, axis=1, keepdims=True) * g[:, None],))


def _take(x: Tensor, key) -> Tensor:
    """``x.data[key]``; the backward scatters back through ``key``, summing
    the gradients of repeated indices."""
    def grad(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        return gx

    return _make(x.data[key], (x,), (grad,))


def take_per_row(x: Tensor, idx) -> Tensor:
    """Row i of the output is ``x[i, idx[i]]``: ``idx`` is ``[n]`` (one
    column per row, output ``[n]``) or ``[n, k]`` (k columns, ``[n, k]``)."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.data.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
    return _take(x, (rows, idx))


def take_rows(x: Tensor, idx) -> Tensor:
    return _take(x, np.asarray(idx, dtype=np.intp))


def take_columns(x: Tensor, cols) -> Tensor:
    return _take(x, (slice(None), np.asarray(cols, dtype=np.intp)))


def transpose(x: Tensor) -> Tensor:
    return _make(x.data.T, (x,), (lambda g: g.T,))


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])
    return _make(out_data, tensors,
                 [lambda g, lo=lo, hi=hi: g[lo:hi]
                  for lo, hi in zip(offsets[:-1], offsets[1:])])


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two [n,d] tensors -> [n]."""
    return tsum(mul(a, b), axis=1)
