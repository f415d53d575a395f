"""Independent float64 reference implementations used as test oracles.

Everything here is written directly from the mathematical definitions with
plain numpy in double precision, never calling the library's autodiff ops.
Gradients of library code are checked against central finite differences
of these references; loss values are checked by transcription.  The stream
builders near the end are the copy-per-batch versions the library's
index-array streams are checked against, and ``RefReservoir`` is the
list-of-slots reservoir the array-backed ``ReplayBuffer`` is checked
against.  ``ref_evaluate`` is the per-task evaluation the trainer's
one-pass ``_evaluate`` is checked against: it forwards each seen task's test
split on its own, with the library's forward, since the two must agree bit
for bit.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-8


def ref_l2n(x, eps=EPS):
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norms, eps)


def ref_forward(weights, biases, x):
    """MLP forward: relu between layers, none after the last."""
    h = np.asarray(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = h @ np.asarray(w, dtype=np.float64) + np.asarray(b, dtype=np.float64)
        if i != len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def ref_logits(features, w_head, tau):
    return ref_l2n(features) @ ref_l2n(w_head).T / tau


def ref_masked_ce(logits, labels, class_set):
    """Sum over samples of -log softmax restricted to class_set."""
    cols = np.array(sorted(class_set))
    sub = np.asarray(logits, dtype=np.float64)[:, cols]
    col_of = {int(c): i for i, c in enumerate(cols)}
    m = sub.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(sub - m).sum(axis=1))
    tgt = sub[np.arange(len(labels)), [col_of[int(c)] for c in labels]]
    return float((lse - tgt).sum())


def ref_supcon(anchors, positives, negatives, tau):
    """Per anchor: lse over its positives-and-negatives minus the mean
    positive similarity; summed over anchors.  Similarities are cosines
    over tau; the anchor never enters its own denominator."""
    total = 0.0
    for a, pos, neg in zip(anchors, positives, negatives):
        an = ref_l2n(a[None, :])[0]
        sims = []
        pos_sims = []
        for p in pos:
            s = float(an @ ref_l2n(p[None, :])[0]) / tau
            sims.append(s)
            pos_sims.append(s)
        for q in neg:
            sims.append(float(an @ ref_l2n(q[None, :])[0]) / tau)
        sims = np.array(sims)
        m = sims.max()
        lse = m + np.log(np.exp(sims - m).sum())
        total += lse - float(np.mean(pos_sims))
    return float(total)


def ref_triplet(anchors, positives, negatives, margin):
    an, pn, nn = ref_l2n(anchors), ref_l2n(positives), ref_l2n(negatives)
    dp = ((an - pn) ** 2).sum(axis=1)
    dn = ((an - nn) ** 2).sum(axis=1)
    return float(np.maximum(dp - dn + margin, 0.0).sum())


def ref_er(weights, biases, w_head, tau, x_in, y_in, x_bf, y_bf, num_classes):
    if len(y_bf):
        x = np.concatenate([x_in, x_bf])
        y = np.concatenate([y_in, y_bf])
    else:
        x, y = x_in, y_in
    lg = ref_logits(ref_forward(weights, biases, x), w_head, tau)
    return ref_masked_ce(lg, y, range(num_classes))


def ref_er_ace(weights, biases, w_head, tau, x_in, y_in, x_bf, y_bf,
               c_curr, c_old):
    lg_in = ref_logits(ref_forward(weights, biases, x_in), w_head, tau)
    total = ref_masked_ce(lg_in, y_in, c_curr)
    if len(y_bf):
        lg_bf = ref_logits(ref_forward(weights, biases, x_bf), w_head, tau)
        total += ref_masked_ce(lg_bf, y_bf, set(c_old) | set(c_curr))
    return total


def ref_ssil(weights, biases, w_head, tau, x_in, y_in, x_bf, y_bf,
             c_curr, task_of_class, classes_of_task):
    lg_in = ref_logits(ref_forward(weights, biases, x_in), w_head, tau)
    total = ref_masked_ce(lg_in, y_in, c_curr)
    if len(y_bf):
        lg_bf = ref_logits(ref_forward(weights, biases, x_bf), w_head, tau)
        tasks = np.array([task_of_class[int(c)] for c in y_bf])
        for t in np.unique(tasks):
            rows = np.where(tasks == t)[0]
            total += ref_masked_ce(lg_bf[rows], np.asarray(y_bf)[rows],
                                   classes_of_task[int(t)])
    return total


def ref_er_aml(weights, biases, w_head, tau_head, x_in, y_in, x_bf, y_bf,
               pairs, buffer_x, gamma, tau_supcon, num_classes,
               triplet_margin=None):
    """pairs: per anchor None or (positive_row, negative_row), rows into
    ``x_in`` followed by ``buffer_x``."""
    feats = ref_forward(weights, biases,
                        np.concatenate([x_in, buffer_x]) if len(buffer_x)
                        else x_in)
    anchors, pos, neg = [], [], []
    for i, pair in enumerate(pairs):
        if pair is None:
            continue
        anchors.append(feats[i])
        pos.append(feats[pair[0]])
        neg.append(feats[pair[1]])
    total = 0.0
    if anchors:
        if triplet_margin is not None:
            total = gamma * ref_triplet(np.array(anchors), np.array(pos),
                                        np.array(neg), triplet_margin)
        else:
            total = gamma * ref_supcon(anchors, [[p] for p in pos],
                                       [[q] for q in neg], tau_supcon)
    if len(y_bf):
        lg_bf = ref_logits(ref_forward(weights, biases, x_bf), w_head, tau_head)
        total += ref_masked_ce(lg_bf, y_bf, range(num_classes))
    return float(total)


def central_diff(fn, arrays, h=1e-4):
    """Central finite-difference gradients of scalar fn w.r.t. each array.

    ``fn`` receives the list of arrays and returns a float; everything is
    evaluated in float64.
    """
    grads = []
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    for k, a in enumerate(arrays):
        g = np.zeros_like(a)
        it = np.nditer(a, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = a[ix]
            a[ix] = orig + h
            fp = fn(arrays)
            a[ix] = orig - h
            fm = fn(arrays)
            a[ix] = orig
            g[ix] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4, context=""):
    """Elementwise relative comparison at tolerance ``rtol``.

    Entries small compared to the gradient's own largest entry are held to
    an absolute tolerance instead (floor scaled by the infinity norm), the
    usual mixed rtol/atol scheme: single-precision rounding noise is
    proportional to the array's scale, not to each entry.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(1.0, float(np.abs(numeric).max()) if numeric.size else 0.0)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)),
                       0.25 * scale)
    err = np.abs(analytic - numeric) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rtol, (
        f"gradient mismatch{' in ' + context if context else ''}: "
        f"max relative error {worst:.3e} > {rtol}")


def ref_split_batches(dataset, cfg, seed):
    """(inputs, labels) per step of a split stream, each batch copied
    out of the dataset up front: tasks in ascending class order, one
    permutation of each task's training rows, cut into batches."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B117]))
    classes_of_task = {}
    for c in range(dataset.num_classes):
        classes_of_task.setdefault(c // cfg.classes_per_task, []).append(c)
    batches = []
    for t in sorted(classes_of_task):
        idx = np.where(np.isin(dataset.train_y, classes_of_task[t]))[0]
        idx = rng.permutation(idx)
        for lo in range(0, len(idx), cfg.batch_size):
            sel = idx[lo:lo + cfg.batch_size]
            batches.append((dataset.train_x[sel].copy(),
                            dataset.train_y[sel].copy()))
    return batches


def ref_draw_blurry_labels(per_class_samples, batch_size, variance_scale,
                           rng):
    """Per-step label arrays of a blurry schedule, one ``rng.choice`` per
    sample over the classes whose pool is not yet empty."""
    from asymreplay.stream import _schedule_log_weights
    remaining = np.array(per_class_samples, np.int64)
    t = 0
    step_labels = []
    while remaining.sum() > 0:
        n_draw = min(batch_size, int(remaining.sum()))
        lw = _schedule_log_weights(per_class_samples, t, variance_scale)
        labels = np.empty(n_draw, dtype=np.intp)
        for i in range(n_draw):
            avail = remaining > 0
            w = np.exp(lw[avail] - lw[avail].max())
            w /= w.sum()
            c = int(np.flatnonzero(avail)[rng.choice(avail.sum(), p=w)])
            remaining[c] -= 1
            labels[i] = c
        step_labels.append(labels)
        t += n_draw
    return step_labels


def ref_blurry_batches(dataset, cfg, seed, variance_scale):
    """(inputs, labels) per step of a blurry stream at a given
    schedule variance: labels drawn one by one, inputs popped one by one
    from per-class shuffled pools."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB1E5]))
    step_labels = ref_draw_blurry_labels(dataset.train_count_per_class(),
                                         cfg.batch_size, variance_scale, rng)
    pools = {c: list(rng.permutation(np.where(dataset.train_y == c)[0]))
             for c in range(dataset.num_classes)}
    batches = []
    for labels in step_labels:
        idx = np.array([pools[int(c)].pop() for c in labels], dtype=np.intp)
        batches.append((dataset.train_x[idx].copy(),
                        dataset.train_y[idx].copy()))
    return batches


class RefReservoir:
    """Reservoir replay memory kept as a list of (input, label) slots, one
    copied row per slot; the same RNG draws as ``ReplayBuffer``."""

    def __init__(self, capacity, seed=0, rng=None):
        self.capacity = capacity
        self.slots = []            # [(x, y)]
        self.n_seen = 0
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def __len__(self):
        return len(self.slots)

    def reservoir_update(self, inputs, labels):
        """Vitter's Algorithm R, applied per example."""
        inputs = np.asarray(inputs, dtype=np.float32)
        for x, y in zip(inputs, labels):
            if self.n_seen < self.capacity:
                self.slots.append((x.copy(), int(y)))
            else:
                j = self.rng.integers(0, self.n_seen + 1)
                if j < self.capacity:
                    self.slots[j] = (x.copy(), int(y))
            self.n_seen += 1

    def sample(self, k):
        if not self.slots:
            return np.zeros((0, 0), dtype=np.float32), np.zeros(0, dtype=np.intp)
        n = len(self.slots)
        if n < k:
            idx = self.rng.integers(0, n, size=k)
        else:
            idx = self.rng.choice(n, size=k, replace=False)
        return (np.stack([self.slots[i][0] for i in idx]),
                np.array([self.slots[i][1] for i in idx], dtype=np.intp))

    def fetch_pos_neg(self, y_in, policy, rng):
        """(pairs, buffer_slots) with the library's draw order: per anchor,
        a positive (in-batch first, buffer fallback), then a negative drawn
        from the in-batch candidates followed by the buffer candidates."""
        from asymreplay.losses import NegativePolicy
        y_in = np.asarray(y_in)
        n = len(y_in)
        c_curr = set(int(c) for c in np.unique(y_in))
        buf_labels = np.array([y for _, y in self.slots], dtype=np.intp)
        pairs, used = [], []
        for i in range(n):
            ci = int(y_in[i])
            in_pos = [j for j in range(n) if j != i and int(y_in[j]) == ci]
            if in_pos:
                pos = ("in", int(rng.choice(in_pos)))
            else:
                buf_pos = np.where(buf_labels == ci)[0]
                if not buf_pos.size:
                    pairs.append(None)
                    continue
                pos = ("buf", int(rng.choice(buf_pos)))
            if policy is NegativePolicy.INCOMING_ONLY:
                ok = lambda c: c != ci and c in c_curr
            else:
                ok = lambda c: c != ci
            cands = ([("in", j) for j in range(n) if ok(int(y_in[j]))]
                     + [("buf", s) for s, c in enumerate(buf_labels.tolist())
                        if ok(c)])
            if not cands:
                pairs.append(None)
                continue
            neg = cands[int(rng.integers(0, len(cands)))]
            for src, idx in (pos, neg):
                if src == "buf" and idx not in used:
                    used.append(idx)
            pairs.append((pos, neg))
        return pairs, used


def tagged_to_rows(pairs, slots, n):
    """``RefReservoir.fetch_pos_neg``'s tagged pairs as the library's row
    pairs: ("in", i) is row i, ("buf", s) is row n + its place in
    ``slots``."""
    def row(src, idx):
        return idx if src == "in" else n + slots.index(idx)

    return [None if p is None else tuple(row(*ref) for ref in p)
            for p in pairs]


def ref_evaluate(state, row_task, current_task):
    """``trainer._evaluate`` one task at a time: each task with a seen class
    has its own test split (rows picked by the task of their label, not by
    ``row_task``), one whole forward and one accuracy, charged one by one."""
    from asymreplay import network as net
    from asymreplay import tensor as T
    per_sample = net.forward_flops_per_sample(state.model)
    task_ids, dataset = state.stream.task_ids, state.stream.dataset
    num_tasks = int(task_ids.max()) + 1
    row = np.full(num_tasks, np.nan)
    for t in range(num_tasks):
        if not state.seen[task_ids == t].any():
            continue
        mine = task_ids[dataset.test_y] == t
        tx, ty = dataset.test_x[mine], dataset.test_y[mine]
        with T.no_grad():
            logits = net.forward(state.model, tx)[1].data
        row[t] = float(np.mean(np.argmax(logits, axis=1) == ty))
        state.ledger.charge_eval(len(ty), per_sample)
    state.log.record_eval(state.step, row, current_task)
