"""Loss regimes for replay training.

Every class set is a ``bool[num_classes]`` mask indexed by label.  The
shared primitive is a class-masked cross-entropy whose denominator runs
over the classes its mask admits, by exact exclusion (masked-out columns
are sliced away before the log-sum-exp, so they can never leak value or
gradient).  ``rehearse`` adds one such term per group of rehearsed rows,
and ``replay_ce`` puts one over the incoming batch in front of it; plain
replay (ER), asymmetric cross-entropy (ER-ACE) and a doubly-masked
ablation in the style of SS-IL without distillation only choose its
masks.  Asymmetric metric learning (ER-AML) keeps ER's rehearsal and
replaces the incoming term with a contrastive or triplet loss."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import network as net
from . import tensor as T
from .tensor import Tensor

if TYPE_CHECKING:
    from .report import ExperimentConfig


class Method(enum.Enum):
    ER = "er"
    ER_ACE = "er-ace"
    ER_AML_SUPCON = "er-aml"
    ER_AML_TRIPLET = "er-aml-triplet"
    SSIL_NODISTILL = "ssil-nodistill"


# ER-AML's triplet variant's margin on squared feature distances
TRIPLET_MARGIN = 0.2


class NegativePolicy(enum.Enum):
    INCOMING_ONLY = "incoming-only"
    ALL_CLASSES = "all-classes"


def class_masks(batch_labels, seen: np.ndarray):
    """(curr, old) masks derived from the batch, never a task oracle:
    the batch's classes, and the ``seen`` classes outside the batch."""
    curr = np.bincount(batch_labels, minlength=seen.size) > 0
    return curr, seen & ~curr


@dataclass
class LossOutput:
    """A loss value plus the bookkeeping the trainer's metrics need."""

    loss: Tensor
    # (feature tensor, labels) for every batch of buffered rows forwarded
    # with gradient; incoming rows are all current, so never old
    feature_records: list = field(default_factory=list)
    extra_buffer_forwards: int = 0
    skipped_anchors: int = 0


def masked_ce(logits: Tensor, labels, mask) -> Tensor:
    """Cross-entropy whose softmax runs over the classes ``mask`` admits.

    ``mask`` is ``bool[num_classes]``, one entry per logit column.  Summed
    over samples.  Gradient w.r.t. logits of classes outside the mask is
    exactly zero, by construction.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != logits.data.shape[1:]:
        raise ValueError("masked_ce needs one mask entry per logit column")
    cols = np.flatnonzero(mask)
    if cols.size == 0:
        raise ValueError("masked_ce needs a nonempty class mask")
    labels = np.asarray(labels, dtype=np.intp)
    in_range = (labels >= 0) & (labels < mask.size)
    admitted = in_range & mask[np.where(in_range, labels, 0)]
    if not admitted.all():
        raise ValueError(f"target class {labels[~admitted][0]} "
                         "outside admissible set")
    sub = T.take_columns(logits, cols)
    lse = T.log_sum_exp(sub)
    # label -> its column in ``sub``
    tgt = T.take_per_row(sub, (np.cumsum(mask) - 1)[labels])
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


def rehearse(model, out: LossOutput, x_bf, y_bf, groups) -> LossOutput:
    """Add to ``out.loss`` the CE over ``mask`` of each ``(rows, mask)``
    group's rehearsed rows (None: every row); record the rehearsed features."""
    if len(y_bf):
        f_bf, lg_bf = net.forward(model, x_bf)
        y_bf = np.asarray(y_bf)
        out.feature_records.append((f_bf, y_bf))
        for rows, mask in groups:
            lg, y = ((lg_bf, y_bf) if rows is None
                     else (T.take_rows(lg_bf, rows), y_bf[rows]))
            out.loss = T.add(out.loss, masked_ce(lg, y, mask))
    return out


def replay_ce(model, x_in, y_in, x_bf, y_bf, incoming,
              rehearsal) -> LossOutput:
    """Incoming CE over the ``incoming`` mask plus ``rehearse`` with the
    ``rehearsal`` groups.

    The incoming and rehearsal batches are forwarded separately (the summed
    loss is identical either way), so wherever two methods' masks agree,
    as ER's and ER-ACE's do on a first task, they agree float for float.
    """
    lg_in = net.forward(model, x_in)[1]
    return rehearse(model, LossOutput(masked_ce(lg_in, y_in, incoming)),
                    x_bf, y_bf, rehearsal)


def er_loss(model, x_in, y_in, x_bf, y_bf) -> LossOutput:
    """Plain replay: every class admissible on both sides."""
    c_all = np.ones(model.num_classes, dtype=bool)
    return replay_ce(model, x_in, y_in, x_bf, y_bf, c_all, [(None, c_all)])


def er_ace_loss(model, x_in, y_in, x_bf, y_bf, curr: np.ndarray,
                old: np.ndarray) -> LossOutput:
    """Incoming CE over ``curr``; rehearsal CE over ``curr | old``."""
    return replay_ce(model, x_in, y_in, x_bf, y_bf, curr,
                     [(None, curr | old)])


def ssil_nodistill_loss(model, x_in, y_in, x_bf, y_bf, curr: np.ndarray,
                        task_ids: np.ndarray) -> LossOutput:
    """Both sides masked: incoming to ``curr``, each rehearsed row to its
    own task, where ``task_ids`` holds each class's task, indexed by label.

    No loss term ever compares classes across tasks, which is the defining
    pathology of this ablation in the single-head setting.
    """
    tasks = task_ids[np.asarray(y_bf, dtype=np.intp)]
    groups = [(np.flatnonzero(tasks == t), task_ids == t)   # ascending task
              for t in np.flatnonzero(np.bincount(tasks))]
    return replay_ce(model, x_in, y_in, x_bf, y_bf, curr, groups)


def er_aml_loss(model, x_in, y_in, x_bf, y_bf, pos_neg,
                cfg: ExperimentConfig, buffer) -> LossOutput:
    """Contrastive (or triplet) incoming loss plus ER's rehearsal CE.

    ``pos_neg`` comes from ``buffer.fetch_pos_neg``; its rows index the
    incoming features followed by those of its buffer slots, which are
    forwarded once as a single extra batch.
    """
    f_in = net.features(model, x_in)
    records = []
    buf_slots = pos_neg.buffer_slots
    f_all = f_in
    if buf_slots:
        f_extra = net.features(model, buffer.x[buf_slots])
        records.append((f_extra, buffer.y[buf_slots]))
        f_all = T.concat_rows([f_in, f_extra])

    active = [i for i, pair in enumerate(pos_neg.pairs) if pair is not None]
    loss = Tensor(0.0)
    if active:
        anchors = T.take_rows(f_in, active)
        rows = np.array([pos_neg.pairs[i] for i in active])
        positives = T.take_rows(f_all, rows[:, 0])
        negatives = T.take_rows(f_all, rows[:, 1])
        if cfg.method is Method.ER_AML_TRIPLET:
            l1 = triplet_loss(anchors, positives, negatives, TRIPLET_MARGIN)
        else:
            l1 = supcon_loss(anchors, positives, negatives, cfg.tau)
        loss = T.scale(l1, cfg.gamma)
    out = LossOutput(loss, feature_records=records,
                     extra_buffer_forwards=len(buf_slots),
                     skipped_anchors=len(pos_neg.pairs) - len(active))
    return rehearse(model, out, x_bf, y_bf,
                    [(None, np.ones(model.num_classes, dtype=bool))])
