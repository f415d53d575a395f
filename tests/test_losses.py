"""Loss regimes: transcription oracles, masking soundness, gradients."""

import numpy as np
import pytest

from asymreplay import losses as L
from asymreplay import network as net
from asymreplay import tensor as T
from asymreplay.buffer import ReplayBuffer
from asymreplay.losses import Method, NegativePolicy
from asymreplay.report import ExperimentConfig

import reference as R


def leaf(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


def make_model(input_dim=4, hidden=(5, 3), num_classes=4, tau=0.1, seed=0):
    return net.ModelParams([input_dim, *hidden], num_classes, tau, seed)


def mask_of(classes, num_classes):
    """bool[num_classes], true at each of ``classes``."""
    mask = np.zeros(num_classes, dtype=bool)
    mask[list(classes)] = True
    return mask


def classes_of(mask):
    """The class set a mask admits, for the set-based reference oracles."""
    return set(np.flatnonzero(mask).tolist())


def masks(y_in, seen, num_classes):
    """A step's (curr, old) masks, derived as the trainer derives them."""
    return L.class_masks(y_in, mask_of(seen, num_classes))


SSIL_TASK_IDS = np.array([0, 0, 1, 1])          # library: task of each class
SSIL_TOC = {0: 0, 1: 0, 2: 1, 3: 1}             # reference: the same maps
SSIL_COT = {0: [0, 1], 1: [2, 3]}


def model_arrays(model):
    return ([w.data for w in model.weights],
            [b.data for b in model.biases],
            model.W.data)


# masked cross-entropy -------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_masked_ce_value_transcription(trial):
    rng = np.random.default_rng(trial)
    logits = rng.standard_normal((6, 8)).astype(np.float32)
    # trial 0 admits a single class, trial 1 all eight, the rest four
    size = {0: 1, 1: 8}.get(trial, 4)
    mask = mask_of(rng.choice(8, size=size, replace=False), 8)
    labels = rng.choice(np.flatnonzero(mask), size=6)
    got = float(L.masked_ce(T.Tensor(logits), labels, mask).data)
    want = R.ref_masked_ce(logits, labels, classes_of(mask))
    assert got == pytest.approx(want, rel=1e-5)


def test_masked_ce_gradient_is_softmax_minus_onehot():
    """With the full class set, d loss / d logits = p - y per sample."""
    rng = np.random.default_rng(5)
    logits = leaf(rng.standard_normal((5, 4)))
    labels = rng.integers(0, 4, size=5)
    loss = L.masked_ce(logits, labels, np.ones(4, dtype=bool))
    loss.backward()
    lg = logits.data.astype(np.float64)
    p = np.exp(lg - lg.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    y = np.eye(4)[labels]
    assert np.allclose(logits.grad, p - y, atol=1e-6)


def test_masked_ce_out_of_set_bits_frozen():
    rng = np.random.default_rng(6)
    base = rng.standard_normal((4, 6)).astype(np.float32)
    mask = mask_of([0, 2, 5], 6)
    labels = [0, 2, 5, 0]

    def run(arr):
        x = leaf(arr)
        loss = L.masked_ce(x, labels, mask)
        loss.backward()
        return loss.data.tobytes(), x.grad

    v1, g1 = run(base)
    poked = base.copy()
    poked[:, [1, 3, 4]] = 1e9
    v2, g2 = run(poked)
    assert v1 == v2
    assert g1.tobytes() == g2.tobytes()
    assert np.array_equal(g2[:, [1, 3, 4]], np.zeros((4, 3)))


def test_masked_ce_rejects_label_outside_set():
    """An excluded, a negative and a past-the-end label are each refused
    by name, not wrapped around or left to an IndexError."""
    for label in (3, -1, 4):
        with pytest.raises(ValueError, match=f"target class {label} "
                                             "outside admissible set"):
            L.masked_ce(T.Tensor(np.zeros((2, 4))), [0, label],
                        mask_of([0, 1], 4))


def test_masked_ce_rejects_empty_set():
    with pytest.raises(ValueError, match="nonempty"):
        L.masked_ce(T.Tensor(np.zeros((1, 4))), [0], np.zeros(4, dtype=bool))


@pytest.mark.parametrize("size", [3, 5])
def test_masked_ce_rejects_mask_of_wrong_length(size):
    with pytest.raises(ValueError, match="one mask entry per logit column"):
        L.masked_ce(T.Tensor(np.zeros((1, 4))), [0], np.ones(size, dtype=bool))


# SupCon / triplet -----------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_supcon_value_transcription(trial):
    rng = np.random.default_rng(20 + trial)
    n, d = 1 + trial % 5, 3
    anchors, pos, neg = (rng.standard_normal((n, d)).astype(np.float32)
                         for _ in range(3))
    tau = 0.2
    got = float(L.supcon_loss(T.Tensor(anchors), T.Tensor(pos),
                              T.Tensor(neg), tau).data)
    want = R.ref_supcon(anchors, [[p] for p in pos], [[q] for q in neg], tau)
    assert got == pytest.approx(want, rel=1e-4)


def test_supcon_denominator_monotone_in_negatives():
    """A negative nearer the anchor (higher cosine) strictly raises the
    loss: the loss is lse(s_p, s_n) - s_p, increasing in s_n."""
    rng = np.random.default_rng(30)
    anchor = rng.standard_normal((1, 4)).astype(np.float32)
    pos = T.Tensor(rng.standard_normal((1, 4)).astype(np.float32))
    negs = rng.standard_normal((6, 4)).astype(np.float32)
    negs[0] = -anchor[0]
    negs[-1] = anchor[0] + 0.01 * negs[-1]
    cos = R.ref_l2n(negs) @ R.ref_l2n(anchor)[0]
    losses = [float(L.supcon_loss(T.Tensor(anchor), pos,
                                  T.Tensor(negs[[k]]), 0.1).data)
              for k in np.argsort(cos)]
    assert all(lo < hi for lo, hi in zip(losses, losses[1:]))


def graph_nodes(out):
    """Number of tensors reachable from ``out`` through recorded parents."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_supcon_graph_size_independent_of_anchor_count():
    """The batched form builds the same graph for 2 anchors as for 10: no
    per-anchor subgraphs."""
    rng = np.random.default_rng(31)
    sizes = [graph_nodes(L.supcon_loss(*(leaf(rng.standard_normal((n, 4)))
                                         for _ in range(3)), 0.1))
             for n in (2, 10)]
    assert sizes[0] == sizes[1]


def test_supcon_rejects_misaligned_rows():
    a = T.Tensor(np.ones((3, 4)))
    with pytest.raises(ValueError, match="one positive row"):
        L.supcon_loss(a, T.Tensor(np.ones((2, 4))), a, 0.1)


@pytest.mark.parametrize("trial", range(5))
def test_triplet_value_transcription(trial):
    rng = np.random.default_rng(40 + trial)
    a = rng.standard_normal((5, 3)).astype(np.float32)
    p = rng.standard_normal((5, 3)).astype(np.float32)
    n = rng.standard_normal((5, 3)).astype(np.float32)
    got = float(L.triplet_loss(T.Tensor(a), T.Tensor(p), T.Tensor(n), 0.3).data)
    assert got == pytest.approx(R.ref_triplet(a, p, n, 0.3), rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("loss", [L.supcon_loss, L.triplet_loss])
def test_metric_loss_of_zero_rows_is_float32_zero(loss):
    rows = [T.Tensor(np.zeros((0, 3))) for _ in range(3)]
    out = loss(*rows, 0.2).data
    assert out.dtype == np.float32 and out == 0.0


def test_triplet_zero_when_negative_far():
    a = np.array([[1.0, 0.0]], dtype=np.float32)
    p = np.array([[1.0, 0.0]], dtype=np.float32)
    n = np.array([[-1.0, 0.0]], dtype=np.float32)
    assert float(L.triplet_loss(T.Tensor(a), T.Tensor(p), T.Tensor(n),
                                0.2).data) == 0.0


# composites: values ---------------------------------------------------

def feature_norms_ok(model, xs, floor=1e-2):
    """Reject states where a feature row sits near the normalization eps
    guard: the loss is not differentiable there, so finite differences
    are meaningless."""
    with T.no_grad():
        for x in xs:
            if len(x) == 0:
                continue
            f = net.features(model, x).data
            if np.linalg.norm(f, axis=1).min() < floor:
                return False
    return True


def random_state(rng, num_classes=4, n_in=5, n_bf=4):
    while True:
        model = make_model(num_classes=num_classes,
                           seed=int(rng.integers(0, 2 ** 16)))
        x_in = rng.standard_normal((n_in, 4)).astype(np.float32)
        y_in = rng.integers(0, num_classes // 2, size=n_in)
        x_bf = rng.standard_normal((n_bf, 4)).astype(np.float32)
        y_bf = rng.integers(0, num_classes, size=n_bf)
        if feature_norms_ok(model, [x_in, x_bf]):
            return model, x_in, y_in, x_bf, y_bf


@pytest.mark.parametrize("trial", range(5))
def test_er_value_transcription(trial):
    rng = np.random.default_rng(50 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    ws, bs, wh = model_arrays(model)
    got = float(L.er_loss(model, x_in, y_in, x_bf, y_bf).loss.data)
    want = R.ref_er(ws, bs, wh, model.tau, x_in, y_in, x_bf, y_bf, 4)
    assert got == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("trial", range(5))
def test_er_ace_value_transcription(trial):
    rng = np.random.default_rng(60 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    curr, old = masks(y_in, range(4), 4)
    ws, bs, wh = model_arrays(model)
    got = float(L.er_ace_loss(model, x_in, y_in, x_bf, y_bf,
                              curr, old).loss.data)
    want = R.ref_er_ace(ws, bs, wh, model.tau, x_in, y_in, x_bf, y_bf,
                        classes_of(curr), classes_of(old))
    assert got == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("trial", range(5))
def test_ssil_value_transcription(trial):
    rng = np.random.default_rng(70 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    curr, _ = masks(y_in, range(4), 4)
    ws, bs, wh = model_arrays(model)
    got = float(L.ssil_nodistill_loss(model, x_in, y_in, x_bf, y_bf, curr,
                                      SSIL_TASK_IDS).loss.data)
    want = R.ref_ssil(ws, bs, wh, model.tau, x_in, y_in, x_bf, y_bf,
                      classes_of(curr), SSIL_TOC, SSIL_COT)
    assert got == pytest.approx(want, rel=1e-4)


def aml_state(rng, policy=NegativePolicy.INCOMING_ONLY, num_classes=4):
    while True:
        model, x_in, y_in, x_bf, y_bf = random_state(rng,
                                                     num_classes=num_classes)
        buffer = ReplayBuffer(8, 4,
                              rng=np.random.default_rng(rng.integers(1 << 16)))
        bx = rng.standard_normal((8, 4)).astype(np.float32)
        buffer.reservoir_update(bx, rng.integers(0, num_classes, size=8))
        if feature_norms_ok(model, [bx]):
            break
    pos_neg = buffer.fetch_pos_neg(y_in, policy,
                                   np.random.default_rng(rng.integers(1 << 16)))
    return model, x_in, y_in, x_bf, y_bf, buffer, pos_neg


@pytest.mark.parametrize("policy", list(NegativePolicy))
@pytest.mark.parametrize("trial", range(3))
def test_er_aml_value_transcription(trial, policy):
    rng = np.random.default_rng(80 + trial)
    model, x_in, y_in, x_bf, y_bf, buffer, pos_neg = aml_state(rng, policy)
    cfg = ExperimentConfig(method=Method.ER_AML_SUPCON, gamma=1.3, tau=0.2,
                           negative_policy=policy)
    out = L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg, buffer)
    ws, bs, wh = model_arrays(model)
    bx = buffer.x[pos_neg.buffer_slots]
    want = R.ref_er_aml(ws, bs, wh, model.tau, x_in, y_in, x_bf, y_bf,
                        pos_neg.pairs, bx, cfg.gamma, cfg.tau, 4)
    assert float(out.loss.data) == pytest.approx(want, rel=1e-4)


def test_er_aml_triplet_value_transcription(monkeypatch):
    monkeypatch.setattr(L, "TRIPLET_MARGIN", 0.4)
    rng = np.random.default_rng(90)
    model, x_in, y_in, x_bf, y_bf, buffer, pos_neg = aml_state(rng)
    cfg = ExperimentConfig(method=Method.ER_AML_TRIPLET, gamma=0.7)
    out = L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg, buffer)
    ws, bs, wh = model_arrays(model)
    bx = buffer.x[pos_neg.buffer_slots]
    want = R.ref_er_aml(ws, bs, wh, model.tau, x_in, y_in, x_bf, y_bf,
                        pos_neg.pairs, bx, cfg.gamma, None, 4,
                        triplet_margin=L.TRIPLET_MARGIN)
    assert float(out.loss.data) == pytest.approx(want, rel=1e-4)


# composites: structure ------------------------------------------------

def test_ssil_equals_er_ace_with_single_task():
    rng = np.random.default_rng(101)
    model, x_in, y_in, x_bf, y_bf = random_state(rng, num_classes=2, n_bf=3)
    y_in = rng.integers(0, 2, size=len(y_in))
    y_bf = rng.integers(0, 2, size=len(y_bf))
    curr, old = masks(y_in, [0, 1], 2)
    ace = float(L.er_ace_loss(model, x_in, y_in, x_bf, y_bf,
                              curr, old).loss.data)
    ssil = float(L.ssil_nodistill_loss(
        model, x_in, y_in, x_bf, y_bf, curr, np.array([0, 0])).loss.data)
    assert ssil == pytest.approx(ace, rel=1e-6)


def test_er_ace_prototype_grad_masked_outside_curr():
    """Prototypes of classes outside C_curr get no gradient from X_in."""
    rng = np.random.default_rng(102)
    model, x_in, y_in, _, _ = random_state(rng)
    curr, old = masks(y_in, range(4), 4)
    out = L.er_ace_loss(model, x_in, y_in,
                        np.zeros((0, 4), dtype=np.float32), [], curr, old)
    model.zero_grad()
    out.loss.backward()
    outside = np.flatnonzero(~curr)
    assert outside.size, "state must have classes outside C_curr"
    grad = model.W.grad
    assert np.array_equal(grad[outside], np.zeros((len(outside), 3)))


def test_incoming_only_gives_old_features_zero_l1_gradient():
    """No feature of a class outside C_curr is touched by the metric term."""
    rng = np.random.default_rng(103)
    for trial in range(10):
        model, x_in, y_in, _, _, buffer, _ = aml_state(
            np.random.default_rng(200 + trial))
        pos_neg = buffer.fetch_pos_neg(y_in, NegativePolicy.INCOMING_ONLY,
                                       np.random.default_rng(trial))
        cfg = ExperimentConfig(method=Method.ER_AML_SUPCON, gamma=1.0,
                               tau=0.1,
                               negative_policy=NegativePolicy.INCOMING_ONLY)
        out = L.er_aml_loss(model, x_in, np.zeros((0, 4), dtype=np.float32),
                            [], pos_neg, cfg, buffer)
        if not out.loss.requires_grad:
            continue
        model.zero_grad()
        out.loss.backward()
        c_curr = set(int(c) for c in np.unique(y_in))
        for feats, labels in out.feature_records:
            if feats.grad is None:
                continue
            for i, y in enumerate(labels):
                if int(y) not in c_curr:
                    assert np.array_equal(feats.grad[i],
                                          np.zeros_like(feats.grad[i]))


def test_composites_permutation_invariant():
    rng = np.random.default_rng(104)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    sets = masks(y_in, range(4), 4)
    perm_in = rng.permutation(len(y_in))
    perm_bf = rng.permutation(len(y_bf))
    sets_p = masks(y_in[perm_in], range(4), 4)
    for fn in (
        lambda xi, yi, xb, yb, s: L.er_loss(model, xi, yi, xb, yb),
        lambda xi, yi, xb, yb, s: L.er_ace_loss(model, xi, yi, xb, yb, *s),
        lambda xi, yi, xb, yb, s: L.ssil_nodistill_loss(
            model, xi, yi, xb, yb, s[0], SSIL_TASK_IDS),
    ):
        a = float(fn(x_in, y_in, x_bf, y_bf, sets).loss.data)
        b = float(fn(x_in[perm_in], y_in[perm_in], x_bf[perm_bf],
                     y_bf[perm_bf], sets_p).loss.data)
        assert a == pytest.approx(b, rel=1e-5)


def test_er_aml_gamma_zero_reduces_to_buffer_ce():
    rng = np.random.default_rng(105)
    model, x_in, y_in, x_bf, y_bf, buffer, pos_neg = aml_state(rng)
    cfg = ExperimentConfig(method=Method.ER_AML_SUPCON, gamma=0.0, tau=0.1)
    out = L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg, buffer)
    lg = net.forward(model, x_bf)[1]
    want = float(L.masked_ce(lg, y_bf, np.ones(4, dtype=bool)).data)
    assert float(out.loss.data) == want


@pytest.mark.parametrize("method", [Method.ER_AML_SUPCON, Method.ER_AML_TRIPLET])
def test_er_aml_incoming_term_never_reaches_the_prototypes(method):
    """At gamma 2 the prototypes' gradient is the rehearsal CE's, bit for
    bit: the metric term touches features only."""
    rng = np.random.default_rng(107)
    model, x_in, y_in, x_bf, y_bf, buffer, pos_neg = aml_state(rng)
    cfg = ExperimentConfig(method=method, gamma=2.0, tau=0.1)
    out = L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg, buffer)
    assert out.skipped_anchors < len(y_in)   # the metric term is present
    model.zero_grad()
    out.loss.backward()
    got = model.W.grad.copy()
    model.zero_grad()
    L.masked_ce(net.forward(model, x_bf)[1], y_bf,
                np.ones(4, dtype=bool)).backward()
    assert got.tobytes() == model.W.grad.tobytes()


def test_er_aml_empty_buffer_batch_is_pure_supcon():
    rng = np.random.default_rng(106)
    model, x_in, y_in, _, _, buffer, pos_neg = aml_state(rng)
    cfg = ExperimentConfig(method=Method.ER_AML_SUPCON, gamma=1.0, tau=0.1)
    out = L.er_aml_loss(model, x_in, np.zeros((0, 4), dtype=np.float32), [],
                        pos_neg, cfg, buffer)
    assert out.extra_buffer_forwards == len(pos_neg.buffer_slots)
    # the zero-row CE term is in the graph but moves no prototype
    model.zero_grad()
    out.loss.backward()
    assert np.all(model.W.grad == 0)


@pytest.mark.parametrize("method", [Method.ER_AML_SUPCON, Method.ER_AML_TRIPLET])
def test_er_aml_step_skipping_every_anchor_is_zero(method):
    """A batch of three classes against an empty buffer: no anchor has a
    positive and nothing is rehearsed, so the loss and every parameter's
    gradient are exactly zero."""
    model = make_model()
    buffer = ReplayBuffer(8, 4, rng=np.random.default_rng(0))
    y_in = np.array([0, 1, 2])
    pos_neg = buffer.fetch_pos_neg(y_in, NegativePolicy.INCOMING_ONLY,
                                   np.random.default_rng(0))
    assert pos_neg.pairs == [None] * 3
    x_bf, y_bf = buffer.sample(10)
    assert x_bf.shape == (0, 4)
    x_in = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
    cfg = ExperimentConfig(method=method, gamma=1.0, tau=0.1)
    out = L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg, buffer)
    assert float(out.loss.data) == 0.0 and out.skipped_anchors == 3
    model.zero_grad()
    out.loss.backward()
    for p in model.parameters():
        assert np.all(p.grad == 0)


def test_loss_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(gamma=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(tau=0.0)


def test_class_index_sets_invariants():
    """curr is the batch's classes, old the seen classes outside it: the
    two masks are disjoint and span the class universe."""
    curr, old = masks(np.array([2, 3, 2]), [0, 1, 2], 6)
    assert curr.shape == old.shape == (6,)
    assert classes_of(curr) == {2, 3}
    assert classes_of(old) == {0, 1}
    assert not (curr & old).any()


# composites: gradients vs finite differences --------------------------

def composite_grad_check(build, ref_fn, model, extra_arrays, context):
    """Check model-parameter gradients of a composite loss against central
    finite differences of its float64 reference."""
    params = model.parameters()
    arrays = [p.data.copy() for p in params] + list(extra_arrays)
    n_params = len(params)

    def ref(arrs):
        ws = arrs[:len(model.weights)]
        bs = arrs[len(model.weights):n_params - 1]
        wh = arrs[n_params - 1]
        return ref_fn(ws, bs, wh, arrs[n_params:])

    model.zero_grad()
    loss = build()
    if loss.requires_grad:
        loss.backward()
    numeric = R.central_diff(ref, arrays)
    for p, num in zip(params, numeric[:n_params]):
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        R.assert_grads_close(grad, num, context=context)


@pytest.mark.parametrize("trial", range(3))
def test_grad_er(trial):
    rng = np.random.default_rng(300 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    composite_grad_check(
        lambda: L.er_loss(model, x_in, y_in, x_bf, y_bf).loss,
        lambda ws, bs, wh, _: R.ref_er(ws, bs, wh, model.tau,
                                       x_in, y_in, x_bf, y_bf, 4),
        model, [], "er_loss")


@pytest.mark.parametrize("trial", range(3))
def test_grad_er_ace(trial):
    rng = np.random.default_rng(310 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    curr, old = masks(y_in, range(4), 4)
    composite_grad_check(
        lambda: L.er_ace_loss(model, x_in, y_in, x_bf, y_bf, curr, old).loss,
        lambda ws, bs, wh, _: R.ref_er_ace(ws, bs, wh, model.tau,
                                           x_in, y_in, x_bf, y_bf,
                                           classes_of(curr), classes_of(old)),
        model, [], "er_ace_loss")


@pytest.mark.parametrize("trial", range(3))
def test_grad_ssil(trial):
    rng = np.random.default_rng(320 + trial)
    model, x_in, y_in, x_bf, y_bf = random_state(rng)
    curr, _ = masks(y_in, range(4), 4)
    composite_grad_check(
        lambda: L.ssil_nodistill_loss(model, x_in, y_in, x_bf, y_bf,
                                      curr, SSIL_TASK_IDS).loss,
        lambda ws, bs, wh, _: R.ref_ssil(ws, bs, wh, model.tau,
                                         x_in, y_in, x_bf, y_bf,
                                         classes_of(curr), SSIL_TOC, SSIL_COT),
        model, [], "ssil_nodistill_loss")


@pytest.mark.parametrize("rehearsal", ["all", "seen"])
@pytest.mark.parametrize("incoming", ["all", "batch"])
@pytest.mark.parametrize("trial", range(2))
def test_replay_ce_mask_grid(trial, incoming, rehearsal):
    """Each cell of the grid incoming {all, batch} x rehearsal {all, seen}
    is the sum of two reference masked CEs, in value and in gradient."""
    rng = np.random.default_rng(350 + trial)
    model, x_in, y_in, x_bf, _ = random_state(rng, num_classes=6)
    y_bf = rng.integers(0, 4, size=len(x_bf))
    curr, old = masks(y_in, range(4), 6)
    rules = {"all": np.ones(6, dtype=bool), "batch": curr, "seen": curr | old}
    assert len({m.tobytes() for m in rules.values()}) == 3, "distinct masks"
    inc, reh = rules[incoming], rules[rehearsal]

    def ref(ws, bs, wh, _):
        lg_in = R.ref_logits(R.ref_forward(ws, bs, x_in), wh, model.tau)
        lg_bf = R.ref_logits(R.ref_forward(ws, bs, x_bf), wh, model.tau)
        return (R.ref_masked_ce(lg_in, y_in, classes_of(inc))
                + R.ref_masked_ce(lg_bf, y_bf, classes_of(reh)))

    def build():
        return L.replay_ce(model, x_in, y_in, x_bf, y_bf, inc,
                           [(None, reh)]).loss

    assert float(build().data) == pytest.approx(
        ref(*model_arrays(model), None), rel=1e-4)
    composite_grad_check(build, ref, model, [],
                         f"replay_ce[{incoming}:{rehearsal}]")


@pytest.mark.parametrize("method", [Method.ER_AML_SUPCON, Method.ER_AML_TRIPLET])
@pytest.mark.parametrize("trial", range(3))
def test_grad_er_aml(trial, method):
    rng = np.random.default_rng(330 + trial)
    model, x_in, y_in, x_bf, y_bf, buffer, pos_neg = aml_state(rng)
    cfg = ExperimentConfig(method=method, gamma=1.1, tau=0.2)
    bx = buffer.x[pos_neg.buffer_slots]
    margin = L.TRIPLET_MARGIN if method is Method.ER_AML_TRIPLET else None
    composite_grad_check(
        lambda: L.er_aml_loss(model, x_in, x_bf, y_bf, pos_neg, cfg,
                              buffer).loss,
        lambda ws, bs, wh, _: R.ref_er_aml(ws, bs, wh, model.tau,
                                           x_in, y_in, x_bf, y_bf,
                                           pos_neg.pairs, bx,
                                           cfg.gamma, cfg.tau, 4,
                                           triplet_margin=margin),
        model, [], f"er_aml_loss[{method.value}]")


@pytest.mark.parametrize("trial", range(3))
def test_grad_supcon_standalone(trial):
    rng = np.random.default_rng(340 + trial)
    anchors = rng.standard_normal((3, 4)).astype(np.float32)
    pos = rng.standard_normal((3, 4)).astype(np.float32)
    neg = rng.standard_normal((3, 4)).astype(np.float32)
    a, p, n = leaf(anchors), leaf(pos), leaf(neg)
    loss = L.supcon_loss(a, p, n, 0.2)
    loss.backward()
    numeric = R.central_diff(
        lambda ar: R.ref_supcon(ar[0], [[x] for x in ar[1]],
                                [[x] for x in ar[2]], 0.2),
        [anchors, pos, neg])
    for lf, num in zip((a, p, n), numeric):
        R.assert_grads_close(lf.grad, num, context="supcon")
