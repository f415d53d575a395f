"""The model: an MLP feature extractor plus a cosine-prototype head.

Classification logits are cosine similarities between the (normalized)
feature vector and one prototype row per class, divided by a temperature.
The class universe is declared up front; prototypes for classes that have
not yet appeared in the stream exist from step 0 with random init.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .stream import check_value
from .tensor import Tensor


class ModelParams:
    """An MLP feature extractor (relu between layers, none after the last)
    plus one prototype row per class; logit = cos(feature, prototype) / tau.

    ``sizes`` runs from the input width to the feature width.
    Glorot-uniform weights, zero biases, deterministic per seed: the layer
    weights are drawn first, then the prototypes ``W``.
    """

    def __init__(self, sizes: Sequence[int], num_classes: int, tau: float,
                 seed: int):
        self.sizes = list(check_value("sizes", sizes, tuple, 1))
        if len(sizes) < 2:
            raise ValueError(f"sizes must hold at least 2 widths, got {len(sizes)}")
        self.tau = check_value("tau", tau, float, 0, strict=True)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
        limit = np.sqrt(6.0 / (num_classes + sizes[-1]))
        self.W = Tensor(rng.uniform(-limit, limit, size=(num_classes, sizes[-1])),
                        requires_grad=True)

    @property
    def num_classes(self) -> int:
        return self.W.data.shape[0]

    def parameters(self) -> list[Tensor]:
        return [*self.weights, *self.biases, self.W]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters())


def features(model: ModelParams, x) -> Tensor:
    h = Tensor(x)
    if h.data.ndim != 2 or h.data.shape[1] != model.sizes[0]:
        raise ValueError(f"input width {h.data.shape} does not match "
                         f"input_dim {model.sizes[0]}")
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = T.add(T.matmul(h, w), b)
        if i != last:
            h = T.relu(h)
    return h


def cosine_logits(model: ModelParams, f: Tensor) -> Tensor:
    fn = T.l2_normalize(f)
    wn = T.l2_normalize(model.W)
    return T.scale(T.matmul(fn, T.transpose(wn)), 1.0 / model.tau)


def forward(model: ModelParams, x) -> tuple[Tensor, Tensor]:
    """(features, logits) of ``x``."""
    f = features(model, x)
    return f, cosine_logits(model, f)


PREDICT_ROWS = 256   # rows per forward in ``predict``


def predict(model: ModelParams, x) -> np.ndarray:
    """Argmax over all class logits, ``PREDICT_ROWS`` rows per forward so a
    call holds one block's activations; ties break toward the lowest index."""
    with T.no_grad():
        blocks = [np.argmax(forward(model, x[lo:lo + PREDICT_ROWS])[1].data, 1)
                  for lo in range(0, len(x), PREDICT_ROWS)]
    return np.concatenate([np.zeros(0, np.intp), *blocks])


def forward_flops_per_sample(model: ModelParams, with_head: bool = True) -> int:
    """Analytic per-sample forward cost under the documented convention.

    Dense layer in->out: 2*in*out multiply-adds plus out bias adds.
    relu: one FLOP per unit.  Row l2-normalization of dim d: 3d+1.
    Head: 2*d*C for the prototype matmul plus C for the temperature
    scaling; prototype-row normalization is amortized and not charged.
    """
    total = 0
    sizes = model.sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        total += 2 * fan_in * fan_out + fan_out
    for fan_out in sizes[1:-1]:
        total += fan_out  # relu
    if with_head:
        d = sizes[-1]
        c = model.num_classes
        total += 3 * d + 1          # feature normalization
        total += 2 * d * c + c      # prototype matmul + temperature scale
    return total
