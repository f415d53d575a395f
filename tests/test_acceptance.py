"""Acceptance gate: eleven primary checks, one pass/fail line each.

Heavy multi-seed benchmark runs are shared across checks through
session-scoped fixtures.  Run with ``pytest -v tests/test_acceptance.py``
(add ``-s`` to see the per-criterion lines as they print).
"""

from dataclasses import replace

import numpy as np
import pytest

from asymreplay import losses as L
from asymreplay import metrics as M
from asymreplay import network as net
from asymreplay import stream as S
from asymreplay import tensor as T
from asymreplay import trainer as TR
from asymreplay.buffer import ReplayBuffer
from asymreplay.report import (ExperimentConfig, parse_config,
                               run_experiment, run_experiments)

import reference as R

SEEDS = tuple(range(1, 11))
NPC = 1000


def report(num: int, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line, flush=True)
    assert ok, line


# shared benchmark runs ------------------------------------------------

BENCH = {"input_dim": 16, "num_classes": 10, "samples_per_class": NPC,
         "noise_sigma": 0.5, "mean_radius": 1.0, "classes_per_task": 2,
         "batch_size": 10, "tau": 0.2, "gamma": 2.0, "lr": 0.05,
         "buffer_capacity": 20, "hidden_sizes": (64, 32)}


def _bench_runs(groups, **common):
    """Seed entries of each group's 10-seed run, by tag: ``groups`` maps a
    tag to its config fields, and ``common`` overrides ``BENCH`` for all.
    Each seed is one job of the shared runner."""
    jobs = [(tag, ExperimentConfig(**{**BENCH, **common, **fields,
                                      "seeds": (s,)}))
            for tag, fields in groups.items() for s in SEEDS]
    reports = run_experiments([cfg for _, cfg in jobs])
    out = {tag: [] for tag in groups}
    for (tag, _), rep in zip(jobs, reports):
        if isinstance(rep, Exception):
            raise rep
        entry, = rep["seeds"]
        assert entry["error"] is None, entry["error"]
        out[tag].append(entry)
    return out


def _trace(entry, key):
    """A per-seed report trace as floats (the report stores NaN as null)."""
    return np.array(entry[key], dtype=float)


def _boundary_drift(entry, n_tasks=5, window=20):
    """Mean one-step drift over `window` steps after each task boundary."""
    d = _trace(entry, "drift_trace")
    n = len(d) // n_tasks
    return float(np.nanmean([np.nanmean(d[b * n:b * n + window])
                             for b in range(1, n_tasks)]))


@pytest.fixture(scope="session")
def five_task_runs():
    """10-seed runs on the 5-task stream: ER and ER-ACE at three buffer
    sizes, plus both negative policies of the metric-learning loss."""
    groups = {}
    for cap in (20, 100, 500):
        groups[("er", cap)] = {"method": "er", "buffer_capacity": cap}
        groups[("er-ace", cap)] = {"method": "er-ace", "buffer_capacity": cap}
    for tag, pol in (("aml-in", "incoming-only"),
                     ("aml-all", "all-classes")):
        groups[(tag, 20)] = {"method": "er-aml", "negative_policy": pol}
    return _bench_runs(groups)


def _final(runs):
    return np.array([e["final_accuracy"] for e in runs], dtype=float)


# 1. gradient correctness ---------------------------------------------

def _fd_instance(rng):
    """One random small instance of every composite loss, checked against
    central finite differences of the float64 references."""
    num_classes = 4
    while True:
        model = net.init_params([3, 4, 3], num_classes, 0.1,
                                int(rng.integers(1 << 16)))
        x_in = rng.standard_normal((4, 3)).astype(np.float32)
        y_in = rng.integers(0, 2, size=4)
        x_bf = rng.standard_normal((3, 3)).astype(np.float32)
        y_bf = rng.integers(0, num_classes, size=3)
        buffer = ReplayBuffer(6, rng=np.random.default_rng(
            rng.integers(1 << 16)))
        bx = rng.standard_normal((6, 3)).astype(np.float32)
        buffer.reservoir_update(bx, rng.integers(0, num_classes, size=6))
        ok = True
        with T.no_grad():
            for arr in (x_in, x_bf, bx):
                f = net.features(model, arr).data
                if np.linalg.norm(f, axis=1).min() < 1e-2:
                    ok = False
        if ok:
            break
    curr, old = L.class_masks(y_in, np.ones(num_classes, dtype=bool))
    c_curr, c_old = (set(np.flatnonzero(m).tolist()) for m in (curr, old))
    task_ids = np.array([0, 0, 1, 1])
    toc = {0: 0, 1: 0, 2: 1, 3: 1}
    cot = {0: [0, 1], 1: [2, 3]}
    pos_neg = buffer.fetch_pos_neg(x_in, y_in, L.NegativePolicy.INCOMING_ONLY,
                                   np.random.default_rng(rng.integers(1 << 16)))
    bsel = buffer.x[pos_neg.buffer_slots]
    aml_cfg = ExperimentConfig(method=L.Method.ER_AML_SUPCON, gamma=1.2,
                               tau=0.2)
    tri_cfg = ExperimentConfig(method=L.Method.ER_AML_TRIPLET, gamma=1.2,
                               triplet_margin=0.3)
    tau = model.tau
    cases = [
        ("er",
         lambda: L.er_loss(model, x_in, y_in, x_bf, y_bf).loss,
         lambda ws, bs, wh: R.ref_er(ws, bs, wh, tau, x_in, y_in, x_bf,
                                     y_bf, num_classes)),
        ("er-ace",
         lambda: L.er_ace_loss(model, x_in, y_in, x_bf, y_bf,
                               curr, old).loss,
         lambda ws, bs, wh: R.ref_er_ace(ws, bs, wh, tau, x_in, y_in, x_bf,
                                         y_bf, c_curr, c_old)),
        ("ssil",
         lambda: L.ssil_nodistill_loss(model, x_in, y_in, x_bf, y_bf, curr,
                                       task_ids).loss,
         lambda ws, bs, wh: R.ref_ssil(ws, bs, wh, tau, x_in, y_in, x_bf,
                                       y_bf, c_curr, toc, cot)),
        ("aml-supcon",
         lambda: L.er_aml_loss(model, x_in, y_in, x_bf, y_bf, pos_neg,
                               aml_cfg, buffer).loss,
         lambda ws, bs, wh: R.ref_er_aml(ws, bs, wh, tau, x_in, y_in, x_bf,
                                         y_bf, pos_neg.pairs, bsel,
                                         aml_cfg.gamma, aml_cfg.tau,
                                         num_classes)),
        ("aml-triplet",
         lambda: L.er_aml_loss(model, x_in, y_in, x_bf, y_bf, pos_neg,
                               tri_cfg, buffer).loss,
         lambda ws, bs, wh: R.ref_er_aml(ws, bs, wh, tau, x_in, y_in, x_bf,
                                         y_bf, pos_neg.pairs, bsel,
                                         tri_cfg.gamma, None, num_classes,
                                         triplet_margin=tri_cfg.triplet_margin)),
    ]
    params = model.parameters()
    nw = len(model.weights)
    for name, build, ref in cases:
        model.zero_grad()
        loss = build()
        if loss.requires_grad:
            loss.backward()
        numeric = R.central_diff(
            lambda arrs: ref(arrs[:nw], arrs[nw:-1], arrs[-1]),
            [p.data.copy() for p in params])
        for p, num in zip(params, numeric):
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            R.assert_grads_close(grad, num, context=name)


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(20260825)
    n_instances = 20   # x 5 composite losses = 100 checked instances
    for _ in range(n_instances):
        _fd_instance(rng)
    report(1, True, f"{5 * n_instances} finite-difference instances across "
                    "all composite losses at rtol 1e-4")


# 2. masking soundness -------------------------------------------------

def test_criterion_02_masking_soundness():
    rng = np.random.default_rng(2)
    worst = 0
    for _ in range(25):
        model = net.init_params([4, 5, 3], 6, 0.1, int(rng.integers(1 << 16)))
        x_in = rng.standard_normal((5, 4)).astype(np.float32)
        y_in = rng.integers(0, 2, size=5)
        seen = np.arange(6) < 4
        curr, old = L.class_masks(y_in, seen)
        outside = np.flatnonzero(~curr)

        def step(poke):
            if poke:
                model.W.data[outside] += rng.standard_normal(
                    (len(outside), 3)).astype(np.float32) * 100
            model.zero_grad()
            out = L.er_ace_loss(model, x_in, y_in,
                                np.zeros((0, 4), dtype=np.float32), [],
                                curr, old)
            out.loss.backward()
            grads = tuple(p.grad.tobytes() if p.grad is not None else b""
                          for p in (*model.weights, *model.biases))
            w_grad = model.W.grad
            in_rows = np.flatnonzero(curr)
            return (out.loss.data.tobytes(), grads,
                    w_grad[in_rows].tobytes(),
                    w_grad[outside].tobytes())

        base = step(poke=False)
        poked = step(poke=True)
        # value, extractor grads, in-set prototype grads all bit-identical
        assert base[:3] == poked[:3]
        # out-of-set prototypes receive exactly zero gradient
        assert poked[3] == bytes(len(poked[3]))
        worst += 1
    report(2, True, "out-of-set logits and prototypes are bit-exactly inert "
                    f"({worst} random states)")


# 3. first-task degenerate equivalence ---------------------------------

def test_criterion_03_er_equals_er_ace_on_first_task():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        num_classes = int(rng.integers(2, 5))
        model = net.init_params([4, 6, 3], num_classes, 0.1,
                                int(rng.integers(1 << 16)))
        x_in = rng.standard_normal((6, 4)).astype(np.float32)
        y_in = rng.integers(0, num_classes, size=6)
        while len(np.unique(y_in)) < num_classes:
            y_in = rng.integers(0, num_classes, size=6)  # universe == C_curr
        x_bf = rng.standard_normal((4, 4)).astype(np.float32)
        y_bf = rng.integers(0, num_classes, size=4)
        curr, old = L.class_masks(y_in, np.zeros(num_classes, dtype=bool))
        er = float(L.er_loss(model, x_in, y_in, x_bf, y_bf).loss.data)
        ace = float(L.er_ace_loss(model, x_in, y_in, x_bf, y_bf,
                                  curr, old).loss.data)
        worst = max(worst, abs(er - ace))
    report(3, worst <= 1e-7,
           f"max |ER - ER-ACE| over 50 first-task states = {worst:.2e} "
           "(tolerance 1e-7)")


# 4. reservoir correctness ---------------------------------------------

def test_criterion_04_reservoir_retention():
    trials = 10_000
    worst_sigma = 0.0
    for capacity, n in ((5, 100), (20, 200), (1, 2)):
        counts = np.zeros(n)
        xs = np.arange(n, dtype=np.float32)[:, None]
        for child in np.random.SeedSequence(42).spawn(trials):
            buf = ReplayBuffer(capacity, rng=np.random.default_rng(child))
            buf.reservoir_update(xs, np.arange(n))
            for y in buf.y[:len(buf)]:
                counts[int(y)] += 1
        p = capacity / n
        sigma = np.sqrt(trials * p * (1 - p))
        dev = np.abs(counts - trials * p).max() / max(sigma, 1e-9)
        worst_sigma = max(worst_sigma, dev)
    report(4, worst_sigma <= 3.0,
           f"retention within {worst_sigma:.2f} sigma of M/N over "
           f"{trials} trials (bound 3 sigma)")


# 5. drift ordering ----------------------------------------------------

def test_criterion_05_drift_ordering(five_task_runs):
    er_d = np.array([_boundary_drift(r) for r in five_task_runs[("er", 20)]])
    ace_d = np.array([_boundary_drift(r)
                      for r in five_task_runs[("er-ace", 20)]])
    in_d = np.array([_boundary_drift(r)
                     for r in five_task_runs[("aml-in", 20)]])
    all_d = np.array([_boundary_drift(r)
                      for r in five_task_runs[("aml-all", 20)]])
    ace_wins = int((ace_d < er_d).sum())
    aml_wins = int((in_d < all_d).sum())
    ok = (ace_d.mean() < er_d.mean() and in_d.mean() < all_d.mean()
          and ace_wins >= 8 and aml_wins >= 8)
    report(5, ok,
           f"post-boundary drift ER-ACE {ace_d.mean():.4f} < ER "
           f"{er_d.mean():.4f} ({ace_wins}/10 wins); AML incoming-only "
           f"{in_d.mean():.4f} < all-classes {all_d.mean():.4f} "
           f"({aml_wins}/10 wins)")


# 6. accuracy ordering and buffer-size trend ---------------------------

def test_criterion_06_accuracy_ordering(five_task_runs):
    gaps = {}
    for cap in (20, 100, 500):
        gaps[cap] = (_final(five_task_runs[("er-ace", cap)]).mean()
                     - _final(five_task_runs[("er", cap)]).mean())
    aml_gap = (_final(five_task_runs[("aml-in", 20)]).mean()
               - _final(five_task_runs[("aml-all", 20)]).mean())
    ok = (gaps[20] >= 0.05 and aml_gap >= 0.05
          and gaps[20] > gaps[100] > gaps[500])
    report(6, ok,
           f"final-accuracy gaps at M=20: ER-ACE - ER = {gaps[20]:+.3f}, "
           f"AML(in) - AML(all) = {aml_gap:+.3f} (both >= 0.05); gap over "
           f"M grid {gaps[20]:+.3f} > {gaps[100]:+.3f} > {gaps[500]:+.3f}")


# 7. doubly-masked ablation pathology ----------------------------------

def test_criterion_07_current_task_ordering():
    runs = _bench_runs({"er": {"method": "er"}, "er-ace": {"method": "er-ace"},
                        "ssil": {"method": "ssil-nodistill"}},
                       hidden_sizes=(128, 128, 64), lr=0.07, gamma=1.0)
    cur = {tag: np.array([np.nanmean(_trace(e, "current_task_accuracy"))
                          for e in entries])
           for tag, entries in runs.items()}
    gap_a = cur["er"].mean() - cur["er-ace"].mean()
    gap_b = cur["er-ace"].mean() - cur["ssil"].mean()
    ok = gap_a >= 0.05 and gap_b >= 0.05
    report(7, ok,
           f"run-averaged current-task accuracy ER {cur['er'].mean():.3f} > "
           f"ER-ACE {cur['er-ace'].mean():.3f} > doubly-masked "
           f"{cur['ssil'].mean():.3f} (gaps {gap_a:+.3f}, {gap_b:+.3f}, "
           "both >= 0.05)")


# 8. gradient-norm spike at the boundary -------------------------------

def test_criterion_08_boundary_gradient_spike():
    runs = _bench_runs({"er": {"method": "er"}, "er-ace": {"method": "er-ace"}},
                       num_classes=4)

    def window_norm(entry):
        g = _trace(entry, "grad_norm_trace")
        b = len(g) // 2   # the single task boundary
        return float(np.mean(g[b:b + 20]))

    ratios = np.array([window_norm(er) / window_norm(ace)
                       for er, ace in zip(runs["er"], runs["er-ace"])])
    geomean = float(np.exp(np.mean(np.log(ratios))))
    report(8, geomean >= 2.0,
           f"old-feature gradient norm in the 20 steps after the boundary: "
           f"ER / ER-ACE geometric mean {geomean:.2f}x (threshold 2x, "
           f"min seed {ratios.min():.2f}x)")


# 9. blurry stream calibration -----------------------------------------

def test_criterion_09_blurry_calibration():
    """Calibration simulates the streams of seeds 0-2, so seeds 3-5 check
    it out of sample."""
    cfg = ExperimentConfig(input_dim=8, num_classes=10, samples_per_class=500,
                           noise_sigma=0.5, classes_per_task=2, batch_size=10,
                           stream_mode=S.StreamMode.BLURRY)
    ds = cfg.dataset()

    def measured(level, seeds):
        vals = []
        for seed in seeds:
            st = S.make_stream(ds, replace(cfg, target_unique_labels=level),
                               seed)
            vals.extend(len(np.unique(b.labels)) for b in st)
        return float(np.mean(vals))

    sweeps = {seeds: [measured(level, seeds) for level in (1, 2, 3, 4, 5)]
              for seeds in ((0, 1, 2), (3, 4, 5))}
    default = sweeps[0, 1, 2][1]
    ok = all(abs(m - level) <= 0.3 for sweep in sweeps.values()
             for level, m in enumerate(sweep, 1))
    report(9, ok,
           f"default blurry stream averages {default:.3f} unique labels "
           "per batch of 10 (target 2.0 +/- 0.3); sweep levels 1-5 measure "
           + "; ".join(f"seeds {s[0]}-{s[-1]}: "
                       + ", ".join(f"{m:.2f}" for m in sweep)
                       for s, sweep in sweeps.items())
           + " (each +/- 0.3)")


# 10. metric arithmetic and cost ledgers -------------------------------

def test_criterion_10_metric_arithmetic():
    # hand fixtures
    aaa_ok = M.averaged_anytime_accuracy([0.8, 0.6, 0.4]) == 0.6
    aa_ok = M.anytime_accuracy(np.array([1.0, 0.5, 0.0, np.nan])) == 0.5
    mat = np.array([[0.9, np.nan], [0.7, 0.8], [0.5, 0.6]])
    forget_ok = abs(M.forgetting(mat) - 0.4) < 1e-15

    # analytic FLOPs equal the closed-form total for a plain replay run
    cfg = ExperimentConfig(input_dim=4, num_classes=4, samples_per_class=50,
                           noise_sigma=0.3, classes_per_task=2, batch_size=5,
                           method=L.Method.ER, lr=0.05,
                           rehearsal_batch_size=5, eval_every=10,
                           buffer_capacity=8, hidden_sizes=(8, 4))
    ds = cfg.dataset()
    er = TR.run(ds, cfg, 0)
    per_sample = net.forward_flops_per_sample(er.model)
    stream = S.make_stream(ds, cfg, 0)
    state = TR.build_state(ds, stream, cfg, 0)
    total = 0
    for batch in stream:
        _, y_bf = state.buffer.sample(cfg.rehearsal_batch_size)
        total += len(batch.labels) + len(y_bf)
        state.buffer.reservoir_update(batch.inputs, batch.labels)
    flops_ok = er.ledger.train_flops == 3 * total * per_sample

    # the asymmetric loss adds no computational overhead: ledgers bit-equal
    ace = TR.run(ds, replace(cfg, method=L.Method.ER_ACE), 0)
    ledger_ok = (er.ledger.train_flops == ace.ledger.train_flops
                 and er.ledger.eval_flops == ace.ledger.eval_flops
                 and er.ledger.mem_byte_steps == ace.ledger.mem_byte_steps)

    ok = aaa_ok and aa_ok and forget_ok and flops_ok and ledger_ok
    report(10, ok,
           "AAA/AA/forgetting fixtures exact; ER train FLOPs equal the "
           f"closed form ({er.ledger.train_flops:,}); ER and ER-ACE "
           "ledgers bit-equal")


# 11. determinism ------------------------------------------------------

def test_criterion_11_byte_identical_reports(tmp_path):
    cfg = parse_config(overrides={
        "input_dim": 4, "num_classes": 4, "samples_per_class": 30,
        "noise_sigma": 0.3, "classes_per_task": 2, "batch_size": 5,
        "rehearsal_batch_size": 5, "eval_every": 6, "buffer_capacity": 8,
        "hidden_sizes": [8, 4], "seeds": [0, 1]})
    run_experiment(cfg, out_dir=str(tmp_path / "a"), now="T0")
    run_experiment(cfg, out_dir=str(tmp_path / "b"), now="T0")
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    report(11, a == b,
           f"two identically configured runs wrote byte-identical "
           f"reports ({len(a)} bytes)")
