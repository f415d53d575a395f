"""Loss regimes for replay training.

The shared primitive is a class-masked cross-entropy whose denominator is
restricted to an admissible class set by exact exclusion (masked-out
classes are sliced away before the log-sum-exp, so they can never leak
value or gradient).  On top of it sit the method compositions: plain
replay (ER), asymmetric cross-entropy (ER-ACE), asymmetric metric
learning with a contrastive or triplet incoming loss (ER-AML), and a
doubly-masked ablation in the style of SS-IL without distillation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import network as net
from . import tensor as T
from .tensor import Tensor


class Method(enum.Enum):
    ER = "er"
    ER_ACE = "er-ace"
    ER_AML_SUPCON = "er-aml"
    ER_AML_TRIPLET = "er-aml-triplet"
    SSIL_NODISTILL = "ssil-nodistill"


class NegativePolicy(enum.Enum):
    INCOMING_ONLY = "incoming-only"
    ALL_CLASSES = "all-classes"


@dataclass(frozen=True)
class LossConfig:
    method: Method = Method.ER_ACE
    gamma: float = 1.0
    tau: float = 0.1
    negative_policy: NegativePolicy = NegativePolicy.INCOMING_ONLY
    triplet_margin: float = 0.2

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError("gamma must be finite and >= 0")
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise ValueError("tau must be finite and positive")
        if not (np.isfinite(self.triplet_margin) and self.triplet_margin > 0):
            raise ValueError("triplet_margin must be finite and positive")


@dataclass(frozen=True)
class ClassIndexSets:
    """Admissible class sets derived from the batch, never a task oracle."""

    c_all: frozenset
    c_curr: frozenset
    c_old: frozenset

    @classmethod
    def derive(cls, batch_labels, observed: Sequence[int], num_classes: int):
        c_curr = frozenset(int(c) for c in np.unique(batch_labels))
        c_old = frozenset(int(c) for c in observed) - c_curr
        return cls(c_all=frozenset(range(num_classes)), c_curr=c_curr, c_old=c_old)


@dataclass
class LossOutput:
    """A loss value plus the bookkeeping the trainer's metrics need."""

    loss: Tensor
    # (feature tensor, labels) for every batch forwarded with gradient
    feature_records: list = field(default_factory=list)
    extra_buffer_forwards: int = 0
    skipped_anchors: int = 0


def masked_ce(logits: Tensor, labels, class_set) -> Tensor:
    """Cross-entropy whose softmax runs over ``class_set`` only.

    Summed over samples.  Gradient w.r.t. logits of classes outside the
    set is exactly zero, by construction.
    """
    cols = np.array(sorted(class_set), dtype=np.intp)
    if cols.size == 0:
        raise ValueError("masked_ce needs a nonempty class set")
    labels = np.asarray(labels, dtype=np.intp)
    col_of = {int(c): i for i, c in enumerate(cols)}
    try:
        mapped = np.array([col_of[int(c)] for c in labels], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"target class {exc} outside admissible set") from None
    sub = T.take_columns(logits, cols)
    lse = T.log_sum_exp(sub)
    tgt = T.take_per_row(sub, mapped)
    return T.sub(T.tsum(lse), T.tsum(tgt))


def supcon_loss(anchors: Tensor, positives: Tensor, negatives: Tensor,
                tau: float) -> Tensor:
    """Temperature-scaled contrastive loss on cosine similarities.

    Row i of ``positives`` and ``negatives`` ([n, d] each, like
    ``anchors``) is anchor i's one positive and one negative.  With
    s = cos/tau, the loss is the sum over anchors of
    lse(s_p, s_n) - s_p.  The anchor itself never enters its own
    denominator.  The graph has the same ops for any number of anchors.
    """
    n = anchors.data.shape[0]
    if n == 0:
        return Tensor(0.0)
    if positives.data.shape != anchors.data.shape \
            or negatives.data.shape != anchors.data.shape:
        raise ValueError("need one positive row and one negative row per anchor")
    an = T.l2_normalize(anchors)
    cand = T.l2_normalize(T.concat_rows([positives, negatives]))  # (2n, d)
    sims = T.scale(T.matmul(an, T.transpose(cand)), 1.0 / tau)  # (n, 2n)
    rows = np.arange(n)
    pair = T.take_per_row(sims, np.stack([rows, n + rows], axis=1))  # (n, 2)
    lse = T.log_sum_exp(pair)
    s_p = T.take_per_row(pair, np.zeros(n, dtype=np.intp))
    return T.sub(T.tsum(lse), T.tsum(s_p))


def triplet_loss(anchors: Tensor, positives: Tensor, negatives: Tensor,
                 margin: float) -> Tensor:
    """Margin loss on squared distances between l2-normalized features."""
    if anchors.data.shape[0] == 0:
        return Tensor(0.0)
    an = T.l2_normalize(anchors)
    pn = T.l2_normalize(positives)
    nn = T.l2_normalize(negatives)
    dp = T.row_dot(T.sub(an, pn), T.sub(an, pn))
    dn = T.row_dot(T.sub(an, nn), T.sub(an, nn))
    hinge = T.relu(T.add(T.sub(dp, dn), Tensor(np.full(dp.data.shape, margin))))
    return T.tsum(hinge)


def _forward_with_logits(model, inputs):
    f = net.features(model, inputs)
    return f, net.cosine_logits(model.head, f)


def er_loss(model, x_in, y_in, x_bf, y_bf) -> LossOutput:
    """Plain replay: cross-entropy over the union, all classes admissible.

    The incoming and rehearsal batches are forwarded separately (the summed
    loss is identical either way) so that on a first task the computation
    coincides float-for-float with the asymmetric variant.
    """
    c_all = range(model.head.num_classes)
    f_in, lg_in = _forward_with_logits(model, x_in)
    loss = masked_ce(lg_in, y_in, c_all)
    records = [(f_in, np.asarray(y_in))]
    if len(y_bf):
        f_bf, lg_bf = _forward_with_logits(model, x_bf)
        loss = T.add(loss, masked_ce(lg_bf, y_bf, c_all))
        records.append((f_bf, np.asarray(y_bf)))
    return LossOutput(loss, feature_records=records)


def er_ace_loss(model, x_in, y_in, x_bf, y_bf, sets: ClassIndexSets) -> LossOutput:
    f_in, lg_in = _forward_with_logits(model, x_in)
    loss = masked_ce(lg_in, y_in, sets.c_curr)
    records = [(f_in, np.asarray(y_in))]
    if len(y_bf):
        f_bf, lg_bf = _forward_with_logits(model, x_bf)
        loss = T.add(loss, masked_ce(lg_bf, y_bf, sets.c_old | sets.c_curr))
        records.append((f_bf, np.asarray(y_bf)))
    return LossOutput(loss, feature_records=records)


def ssil_nodistill_loss(model, x_in, y_in, x_bf, y_bf, sets: ClassIndexSets,
                        task_of_class: Mapping[int, int],
                        classes_of_task: Mapping[int, Sequence[int]]) -> LossOutput:
    """Both sides masked: incoming to its own classes, rehearsal per task.

    No loss term ever compares classes across tasks, which is the defining
    pathology of this ablation in the single-head setting.
    """
    f_in, lg_in = _forward_with_logits(model, x_in)
    loss = masked_ce(lg_in, y_in, sets.c_curr)
    records = [(f_in, np.asarray(y_in))]
    if len(y_bf):
        f_bf, lg_bf = _forward_with_logits(model, x_bf)
        records.append((f_bf, np.asarray(y_bf)))
        tasks = np.array([task_of_class[int(c)] for c in y_bf])
        for t in np.unique(tasks):
            rows = np.where(tasks == t)[0]
            loss = T.add(loss, masked_ce(T.take_rows(lg_bf, rows),
                                         np.asarray(y_bf)[rows],
                                         classes_of_task[int(t)]))
    return LossOutput(loss, feature_records=records)


def er_aml_loss(model, x_in, y_in, x_bf, y_bf, pos_neg,
                cfg: LossConfig, buffer) -> LossOutput:
    """Contrastive (or triplet) incoming loss plus prototype CE on replay.

    ``pos_neg`` comes from ``buffer.fetch_pos_neg``; buffered positives and
    negatives are forwarded once as a single extra batch.
    """
    f_in = net.features(model, x_in)
    records = [(f_in, np.asarray(y_in))]
    extra = 0

    buf_slots = pos_neg.buffer_slots
    if buf_slots:
        f_extra = net.features(model, buffer.x[buf_slots])
        records.append((f_extra, buffer.y[buf_slots]))
        extra = len(buf_slots)
        slot_row = {s: i for i, s in enumerate(buf_slots)}
    else:
        f_extra = None
        slot_row = {}

    n_in = f_in.data.shape[0]
    combined = f_in if f_extra is None else T.concat_rows([f_in, f_extra])

    def feat_rows(refs):
        """Gather one feature row per (source, index) reference, in order."""
        rows = [idx if src == "in" else n_in + slot_row[idx] for src, idx in refs]
        return T.take_rows(combined, rows)

    active = [i for i, pair in enumerate(pos_neg.pairs) if pair is not None]
    skipped = len(pos_neg.pairs) - len(active)
    if active:
        anchors = T.take_rows(f_in, active)
        positives = feat_rows([pos_neg.pairs[i][0] for i in active])
        negatives = feat_rows([pos_neg.pairs[i][1] for i in active])
        if cfg.method is Method.ER_AML_TRIPLET:
            l1 = triplet_loss(anchors, positives, negatives, cfg.triplet_margin)
        else:
            l1 = supcon_loss(anchors, positives, negatives, cfg.tau)
        loss = T.scale(l1, cfg.gamma)
    else:
        loss = Tensor(0.0)

    if len(y_bf):
        f_bf, lg_bf = _forward_with_logits(model, x_bf)
        loss = T.add(loss, masked_ce(lg_bf, y_bf, range(model.head.num_classes)))
        records.append((f_bf, np.asarray(y_bf)))

    return LossOutput(loss, feature_records=records,
                      extra_buffer_forwards=extra, skipped_anchors=skipped)
