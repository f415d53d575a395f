"""Reservoir memory: retention statistics, sampling, pair fetching."""

import numpy as np
import pytest

from asymreplay.buffer import ReplayBuffer
from asymreplay.losses import NegativePolicy

from reference import RefReservoir, tagged_to_rows


def filled_buffer(capacity, n, seed=0):
    buf = ReplayBuffer(capacity, rng=np.random.default_rng(seed))
    xs = np.arange(n, dtype=np.float32)[:, None]
    buf.reservoir_update(xs, np.arange(n))
    return buf


def test_capacity_validation():
    with pytest.raises(ValueError, match="capacity must be finite"):
        ReplayBuffer(0, rng=np.random.default_rng(0))
    for capacity in (float("nan"), float("inf"), 2.5, True):
        with pytest.raises(ValueError,
                           match=f"capacity must be an integer, got {capacity}"):
            ReplayBuffer(capacity, rng=np.random.default_rng(0))


def test_fills_then_caps():
    buf = filled_buffer(5, 3)
    assert len(buf) == 3 and buf.n_seen == 3
    buf.reservoir_update(np.zeros((10, 1), dtype=np.float32), np.zeros(10))
    assert len(buf) == 5 and buf.n_seen == 13


def test_buffer_stores_copies():
    buf = ReplayBuffer(4, rng=np.random.default_rng(0))
    xs = np.ones((2, 3), dtype=np.float32)
    buf.reservoir_update(xs, [0, 1])
    xs[...] = -1.0
    assert np.array_equal(buf.x[0], np.ones(3, dtype=np.float32))


@pytest.mark.parametrize("capacity,n", [(5, 100), (20, 200), (1, 2)])
def test_reservoir_retention_probability(capacity, n):
    """Monte-Carlo: each of the n items survives with probability
    capacity/n, within 3 sigma of the binomial count."""
    trials = 10_000
    counts = np.zeros(n)
    xs = np.arange(n, dtype=np.float32)[:, None]
    master = np.random.SeedSequence(42)
    for child in master.spawn(trials):
        buf = ReplayBuffer(capacity, rng=np.random.default_rng(child))
        buf.reservoir_update(xs, np.arange(n))
        for y in buf.y[:len(buf)]:
            counts[int(y)] += 1
    p = capacity / n
    sigma = np.sqrt(trials * p * (1 - p))
    expected = trials * p
    assert np.all(np.abs(counts - expected) <= max(3 * sigma, 1e-9)), (
        f"worst deviation {np.abs(counts - expected).max():.1f} "
        f"vs 3 sigma {3 * sigma:.1f}")


def test_sample_with_replacement_while_underfilled():
    buf = filled_buffer(10, 3, seed=1)
    xs, ys = buf.sample(8)
    assert xs.shape[0] == 8 and set(ys) <= {0, 1, 2}


def test_sample_without_replacement_when_full_enough():
    buf = filled_buffer(10, 10, seed=2)
    for _ in range(20):
        _, ys = buf.sample(6)
        assert len(set(ys.tolist())) == 6  # labels unique by construction


def test_sample_empty_buffer_yields_empty_batch():
    buf = ReplayBuffer(5, rng=np.random.default_rng(0))
    xs, ys = buf.sample(4)
    assert xs.shape[0] == 0 and ys.shape[0] == 0


def test_sample_near_uniform():
    """Chi-square-free check: every slot frequency within 3 sigma of
    uniform over many draws without replacement."""
    buf = filled_buffer(10, 10, seed=3)
    trials, k = 20_000, 3
    counts = np.zeros(10)
    for _ in range(trials):
        _, ys = buf.sample(k)
        for y in ys:
            counts[int(y)] += 1
    p = k / 10
    sigma = np.sqrt(trials * p * (1 - p))
    assert np.all(np.abs(counts - trials * p) <= 3 * sigma)


# fetch_pos_neg --------------------------------------------------------

def fetch(buf, y_in, policy, seed=0, x_in=None):
    y_in = np.asarray(y_in)
    if x_in is None:
        x_in = np.zeros((len(y_in), 1), dtype=np.float32)
    return buf.fetch_pos_neg(x_in, y_in, policy, np.random.default_rng(seed))


def row_labels(buf, y_in, res):
    """The label of each row a fetch's pairs index: the batch's rows, then
    its buffer slots."""
    return np.concatenate([y_in, buf.y[res.buffer_slots]])


def test_fetch_prefers_in_batch_positive():
    buf = ReplayBuffer(4, rng=np.random.default_rng(0))
    buf.reservoir_update(np.zeros((2, 1), dtype=np.float32), [0, 1])
    res = fetch(buf, [0, 0, 1], NegativePolicy.INCOMING_ONLY)
    labels = row_labels(buf, [0, 0, 1], res)
    for i, pair in enumerate(res.pairs):
        assert pair is not None
        pos, _ = pair
        if i in (0, 1):  # class 0 has an in-batch partner
            assert pos in (0, 1) and pos != i
        else:            # class 1 is alone in-batch, falls back to buffer
            assert pos >= 3 and labels[pos] == 1


def test_fetch_skips_anchor_without_positive():
    # empty: no buffer fallback
    buf = ReplayBuffer(4, rng=np.random.default_rng(0))
    res = fetch(buf, [0, 1], NegativePolicy.INCOMING_ONLY)
    assert res.pairs == [None, None]


def test_fetch_incoming_only_restricts_negative_classes():
    buf = ReplayBuffer(8, rng=np.random.default_rng(0))
    buf.reservoir_update(np.zeros((6, 1), dtype=np.float32),
                         [0, 0, 1, 1, 5, 5])
    for seed in range(30):
        res = fetch(buf, [0, 0, 1, 1], NegativePolicy.INCOMING_ONLY,
                    seed=seed)
        y_in = [0, 0, 1, 1]
        labels = row_labels(buf, y_in, res)
        for i, pair in enumerate(res.pairs):
            assert pair is not None
            c = labels[pair[1]]
            assert c in (0, 1) and c != y_in[i]


def test_fetch_all_classes_reaches_old_negatives():
    buf = ReplayBuffer(8, rng=np.random.default_rng(0))
    buf.reservoir_update(np.zeros((4, 1), dtype=np.float32), [5, 5, 5, 5])
    hit_old = False
    for seed in range(50):
        res = fetch(buf, [0, 0], NegativePolicy.ALL_CLASSES, seed=seed)
        labels = row_labels(buf, [0, 0], res)
        for _, neg in res.pairs:
            if neg >= 2 and labels[neg] == 5:
                hit_old = True
    assert hit_old


def test_fetch_single_class_batch_all_classes_negative_from_buffer():
    buf = ReplayBuffer(4, rng=np.random.default_rng(0))
    buf.reservoir_update(np.zeros((2, 1), dtype=np.float32), [3, 3])
    res = fetch(buf, [0, 0], NegativePolicy.ALL_CLASSES)
    labels = row_labels(buf, [0, 0], res)
    for pair in res.pairs:
        assert pair is not None
        pos, neg = pair
        assert pos < 2
        assert neg >= 2 and labels[neg] == 3
    # under INCOMING_ONLY the same batch has no admissible negative
    res2 = fetch(buf, [0, 0], NegativePolicy.INCOMING_ONLY)
    assert sum(p is None for p in res2.pairs) == 2


def test_fetch_buffer_slots_unique_first_use_order():
    buf = ReplayBuffer(8, rng=np.random.default_rng(0))
    buf.reservoir_update(np.zeros((6, 1), dtype=np.float32),
                         [2, 2, 3, 3, 4, 4])
    res = fetch(buf, [2, 3, 4], NegativePolicy.ALL_CLASSES, seed=7)
    assert len(res.buffer_slots) == len(set(res.buffer_slots))
    # buffer rows follow the 3 batch rows, numbered by first use
    first_use = []
    for r in (r for pair in res.pairs if pair for r in pair):
        if r >= 3 and r not in first_use:
            first_use.append(r)
    assert first_use == list(range(3, 3 + len(res.buffer_slots)))


@pytest.mark.parametrize("policy", list(NegativePolicy))
def test_fetch_rows_hold_positive_and_negative_classes(policy):
    """Over random batches and buffers: a positive row has the anchor's
    class and is not the anchor, a negative row has another class (under
    INCOMING_ONLY one in the batch), and an anchor is skipped exactly when
    it has no positive or no admissible negative."""
    rng = np.random.default_rng(17)
    for trial in range(40):
        buf = ReplayBuffer(8, rng=np.random.default_rng(trial))
        n_old = rng.integers(0, 12)
        buf.reservoir_update(np.zeros((n_old, 1), dtype=np.float32),
                             rng.integers(0, 6, size=n_old))
        y_in = rng.choice(rng.choice(6, size=rng.integers(1, 4)),
                          size=rng.integers(1, 8))
        res = fetch(buf, y_in, policy, seed=trial)
        labels = row_labels(buf, y_in, res)
        everyone = np.concatenate([y_in, buf.y[:len(buf)]])
        for i, pair in enumerate(res.pairs):
            c = y_in[i]
            admissible = everyone != c
            if policy is NegativePolicy.INCOMING_ONLY:
                admissible &= np.isin(everyone, y_in)
            has_pos = np.count_nonzero(everyone == c) > 1
            assert (pair is None) == (not has_pos or not admissible.any())
            if pair is None:
                continue
            pos, neg = pair
            assert pos != i and labels[pos] == c
            assert labels[neg] != c
            if policy is NegativePolicy.INCOMING_ONLY:
                assert labels[neg] in y_in


def test_fetch_does_not_touch_reservoir_rng():
    a = filled_buffer(5, 20, seed=11)
    b = filled_buffer(5, 20, seed=11)
    fetch(a, [0, 0, 1], NegativePolicy.ALL_CLASSES, seed=3)
    more = np.full((10, 1), 7.0, dtype=np.float32)
    a.reservoir_update(more, np.full(10, 9))
    b.reservoir_update(more, np.full(10, 9))
    assert a.y[:len(a)].tolist() == b.y[:len(b)].tolist()
    assert all(np.array_equal(xa, xb)
               for xa, xb in zip(a.x[:len(a)], b.x[:len(b)]))


# equivalence with the list-of-slots reservoir ---------------------------

def contents(buf):
    return buf.x[:len(buf)].tobytes(), buf.y[:len(buf)].tolist()


def ref_contents(ref):
    return (b"".join(x.tobytes() for x, _ in ref.slots),
            [y for _, y in ref.slots])


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("longer", [False, True])
@pytest.mark.parametrize("capacity", [1, 5, 20, 500])
def test_matches_list_of_slots_oracle(capacity, longer, seed):
    """Contents, n_seen, sample draws and pos/neg fetches equal the oracle's, bit for bit, after every batch of a stream shorter or
    longer than the capacity."""
    rng = np.random.default_rng(seed)
    n = 3 * capacity + 7 if longer else capacity // 2
    xs = rng.standard_normal((n, 3)).astype(np.float32)
    # each batch of 10 draws from 1 to 3 classes of 8
    steps = range(0, max(n, 1), 10)
    ys = np.concatenate([rng.choice(rng.choice(8, size=rng.integers(1, 4)), 10)
                         for _ in steps])[:n]
    buf = ReplayBuffer(capacity, rng=np.random.default_rng(seed))
    ref = RefReservoir(capacity, seed=seed)
    for lo in steps:
        x_in, y_in = xs[lo:lo + 10], ys[lo:lo + 10]
        for k in (4, 10):
            got, want = buf.sample(k), ref.sample(k)
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tolist() == want[1].tolist()
        for policy in NegativePolicy:
            got = buf.fetch_pos_neg(x_in, y_in, policy,
                                    np.random.default_rng(lo))
            pairs, slots = ref.fetch_pos_neg(x_in, y_in, policy,
                                             np.random.default_rng(lo))
            assert got.pairs == tagged_to_rows(pairs, slots, len(y_in))
            assert got.buffer_slots == slots
        buf.reservoir_update(x_in, y_in)
        ref.reservoir_update(x_in, y_in)
        assert (len(buf), buf.n_seen) == (len(ref), ref.n_seen)
        assert contents(buf) == ref_contents(ref)
