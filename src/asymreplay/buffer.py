"""Fixed-capacity reservoir replay memory.

Management is method-agnostic: given the same seed and stream, every
training method ends up with an identical buffer.  The positive/negative
fetch used by the metric-learning loss draws from a separate RNG so that
methods which never call it do not perturb the reservoir state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import NegativePolicy
from .stream import check_value


@dataclass
class FetchResult:
    """Per-anchor (positive, negative) rows.

    ``buffer_slots`` lists the unique buffer slots that must be forwarded,
    in first-use order.  Each entry of ``pairs`` is either None (anchor
    skipped) or a ``(positive_row, negative_row)`` pair of rows into the
    incoming batch followed by ``buffer_slots``: row r < n is batch row r,
    row n + k is slot ``buffer_slots[k]``.
    """

    pairs: list
    buffer_slots: list


class ReplayBuffer:
    """Slot i holds input ``x[i]`` and label ``y[i]``; the first
    ``len(self)`` slots are filled.  Both arrays are allocated at full
    capacity by the constructor."""

    def __init__(self, capacity: int, input_dim: int,
                 rng: np.random.Generator):
        self.capacity = check_value("capacity", capacity, int, 1)
        input_dim = check_value("input_dim", input_dim, int, 1)
        self.x = np.zeros((self.capacity, input_dim), dtype=np.float32)
        self.y = np.zeros(self.capacity, dtype=np.intp)
        self.n_seen = 0
        self.rng = rng

    def __len__(self):
        return min(self.n_seen, self.capacity)

    def reservoir_update(self, inputs, labels):
        """Vitter's Algorithm R, applied per example."""
        for x, y in zip(inputs, labels):
            if self.n_seen < self.capacity:
                j = self.n_seen
            else:
                j = self.rng.integers(0, self.n_seen + 1)
            if j < self.capacity:
                self.x[j] = x
                self.y[j] = y
            self.n_seen += 1

    def sample(self, k: int):
        """k examples: with replacement while underfilled, without otherwise.

        An empty buffer yields an empty (0, input_dim) batch.
        """
        n = len(self)
        if not n:
            return self.x[:0], self.y[:0]
        if n < k:
            idx = self.rng.integers(0, n, size=k)
        else:
            idx = self.rng.choice(n, size=k, replace=False)
        return self.x[idx], self.y[idx]

    def fetch_pos_neg(self, y_in, policy: NegativePolicy,
                      rng: np.random.Generator) -> FetchResult:
        """One (positive, negative) row pair per incoming anchor.

        Positives prefer an in-batch same-class partner and fall back to the
        buffer; anchors with no positive or no admissible negative are
        skipped.  Under INCOMING_ONLY, negatives are restricted to classes
        present in the incoming batch.
        """
        y_in = np.asarray(y_in)
        n = len(y_in)
        buf_labels = self.y[:len(self)]
        # row i: anchor i's same-class partners in the batch and in the
        # buffer, and its negative candidates (in-batch rows, then slots)
        pos_in = y_in[:, None] == y_in[None, :]
        np.fill_diagonal(pos_in, False)
        pos_buf = y_in[:, None] == buf_labels[None, :]
        neg_buf = ~pos_buf
        if policy is NegativePolicy.INCOMING_ONLY:
            neg_buf &= pos_buf.any(axis=0)   # slots of a class in the batch
        neg = np.concatenate([y_in[:, None] != y_in[None, :], neg_buf], axis=1)
        pairs: list = []
        first_use: dict = {}   # slot -> its place among the forwarded slots
        for i in range(n):
            # positive: in-batch first, buffer fallback; like the negative,
            # it indexes the batch rows, then the buffer slots
            if pos_in[i].any():
                pos = int(rng.choice(np.flatnonzero(pos_in[i])))
            elif pos_buf[i].any():
                pos = n + int(rng.choice(np.flatnonzero(pos_buf[i])))
            else:
                pairs.append(None)
                continue
            cands = np.flatnonzero(neg[i])
            if not cands.size:
                pairs.append(None)
                continue
            j = int(cands[rng.integers(0, cands.size)])
            pairs.append(tuple(r if r < n else
                               n + first_use.setdefault(r - n, len(first_use))
                               for r in (pos, j)))
        return FetchResult(pairs=pairs, buffer_slots=list(first_use))
