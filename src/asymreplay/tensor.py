"""Minimal dense tensor with reverse-mode automatic differentiation.

Storage is float32; reductions accumulate in float64 before casting back.
The graph is built eagerly: every op records a backward closure on its
output, and ``backward`` walks the graph in reverse topological order.
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
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g.astype(np.float32)

    def backward(self):
        """Populate ``grad`` on every reachable requires_grad tensor.

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
            if node._backward is not None:
                node.grad = None
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _make(data, parents, backward):
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise add; also supports adding a 1-d bias to each row."""
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    # bias-style broadcast: reduce leading axes added by numpy
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True, dtype=np.float64)
    return g.reshape(shape)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def scale(a: Tensor, k: float) -> Tensor:
    out_data = a.data * np.float32(k)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * np.float32(k))

    return _make(out_data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return _make(out_data, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out_data = np.sum(a.data, axis=axis, dtype=np.float64).astype(np.float32)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                a._accumulate(np.broadcast_to(g, a.data.shape))
            else:
                a._accumulate(np.broadcast_to(np.expand_dims(g, axis), a.data.shape))

    return _make(out_data, (a,), backward)


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

    def backward(g):
        if not x.requires_grad:
            return
        clipped = norms < NORM_EPS
        inv = 1.0 / denom
        # d(x/||x||)/dx = (I - y y^T) / ||x||;  a clipped row's denominator
        # is constant so its jacobian is just 1/NORM_EPS on the diagonal.
        dot = np.sum(g * out_data, axis=1, dtype=np.float64)[:, None].astype(np.float32)
        gx = (g - out_data * dot) * inv
        gx[clipped] = g[clipped] * inv[clipped]
        x._accumulate(gx)

    return _make(out_data, (x,), backward)


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

    def backward(g):
        if x.requires_grad:
            soft = ex / np.sum(ex, axis=1, keepdims=True)
            x._accumulate(soft * g[:, None])

    return _make(out_data, (x,), backward)


def take_per_row(x: Tensor, idx) -> Tensor:
    """Row i of the output is ``x[i, idx[i]]``: ``idx`` is ``[n]`` (one
    column per row, output ``[n]``) or ``[n, k]`` (k columns, ``[n, k]``)."""
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(x.data.shape[0]).reshape((-1,) + (1,) * (idx.ndim - 1))
    out_data = x.data[rows, idx]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, (rows, idx), g)
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def take_rows(x: Tensor, idx) -> Tensor:
    idx = np.asarray(idx, dtype=np.intp)
    out_data = x.data[idx]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx, idx, g)
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def take_columns(x: Tensor, cols) -> Tensor:
    cols = np.asarray(cols, dtype=np.intp)
    out_data = x.data[:, cols]

    def backward(g):
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            np.add.at(gx.T, cols, g.T)
            x._accumulate(gx)

    return _make(out_data, (x,), backward)


def transpose(x: Tensor) -> Tensor:
    def backward(g):
        if x.requires_grad:
            x._accumulate(g.T)

    return _make(x.data.T, (x,), backward)


def concat_rows(tensors: Sequence[Tensor]) -> Tensor:
    tensors = list(tensors)
    out_data = np.concatenate([t.data for t in tensors], axis=0)
    offsets = np.cumsum([0] + [t.data.shape[0] for t in tensors])

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                t._accumulate(g[lo:hi])

    return _make(out_data, tuple(tensors), backward)


def row_dot(a: Tensor, b: Tensor) -> Tensor:
    """Per-row dot product of two [n,d] tensors -> [n]."""
    return tsum(mul(a, b), axis=1)
