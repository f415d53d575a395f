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
from .tensor import Tensor

class FeatureExtractor:
    """Fully connected net with relu between layers, none after the last."""

    def __init__(self, sizes: Sequence[int], rng: np.random.Generator):
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"invalid layer sizes {sizes}")
        self.sizes = list(sizes)
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
            self.weights.append(Tensor(w, requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    def forward(self, x: Tensor) -> Tensor:
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = T.relu(h)
        return h

    def parameters(self) -> list[Tensor]:
        return [*self.weights, *self.biases]


class PrototypeHead:
    """One prototype row per class; logit = cos(feature, prototype) / tau."""

    def __init__(self, num_classes: int, feature_dim: int, tau: float,
                 rng: np.random.Generator):
        if tau <= 0:
            raise ValueError("tau must be positive")
        limit = np.sqrt(6.0 / (num_classes + feature_dim))
        self.W = Tensor(rng.uniform(-limit, limit, size=(num_classes, feature_dim)),
                        requires_grad=True)
        self.tau = float(tau)

    @property
    def num_classes(self) -> int:
        return self.W.data.shape[0]

    def parameters(self) -> list[Tensor]:
        return [self.W]


class ModelParams:
    def __init__(self, extractor: FeatureExtractor, head: PrototypeHead):
        self.extractor = extractor
        self.head = head

    def parameters(self) -> list[Tensor]:
        return self.extractor.parameters() + self.head.parameters()

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def num_params(self) -> int:
        return sum(p.data.size for p in self.parameters())


def init_params(sizes: Sequence[int], num_classes: int, tau: float,
                seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    extractor = FeatureExtractor(sizes, rng)
    head = PrototypeHead(num_classes, sizes[-1], tau, rng)
    return ModelParams(extractor, head)


def features(model: ModelParams, x) -> Tensor:
    x = Tensor(x)
    if x.data.ndim != 2 or x.data.shape[1] != model.extractor.input_dim:
        raise ValueError(
            f"input width {x.data.shape} does not match "
            f"input_dim {model.extractor.input_dim}"
        )
    return model.extractor.forward(x)


def cosine_logits(head: PrototypeHead, f: Tensor) -> Tensor:
    fn = T.l2_normalize(f)
    wn = T.l2_normalize(head.W)
    return T.scale(T.matmul(fn, T.transpose(wn)), 1.0 / head.tau)


def logits(model: ModelParams, x) -> Tensor:
    return cosine_logits(model.head, features(model, x))


def predict(model: ModelParams, x) -> np.ndarray:
    """Argmax over all class logits; ties break toward the lowest index."""
    with T.no_grad():
        lg = logits(model, x)
    return np.argmax(lg.data, axis=1)


def forward_flops_per_sample(model: ModelParams, with_head: bool = True) -> int:
    """Analytic per-sample forward cost under the documented convention.

    Dense layer in->out: 2*in*out multiply-adds plus out bias adds.
    relu: one FLOP per unit.  Row l2-normalization of dim d: 3d+1.
    Head: 2*d*C for the prototype matmul plus C for the temperature
    scaling; prototype-row normalization is amortized and not charged.
    """
    total = 0
    sizes = model.extractor.sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        total += 2 * fan_in * fan_out + fan_out
    for fan_out in sizes[1:-1]:
        total += fan_out  # relu
    if with_head:
        d = sizes[-1]
        c = model.head.num_classes
        total += 3 * d + 1          # feature normalization
        total += 2 * d * c + c      # prototype matmul + temperature scale
    return total
