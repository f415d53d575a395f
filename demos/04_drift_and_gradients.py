"""Where forgetting comes from: watch old-class features move.

At a task boundary, plain replay's full-softmax incoming loss sends a
gradient through every class's prototype and through the features of any
rehearsed old-class sample.  Two per-step diagnostics make this visible:

  * one-step drift: mean distance between l2-normalized features of
    buffered old-class samples, before vs after each update;
  * old-feature gradient norm: mean loss-gradient norm on the features of
    old-class samples present in the step's loss graph.

The run uses a 2-task stream so there is a single, clean boundary.

Run:  python3 demos/04_drift_and_gradients.py          (~0.7 s)
"""

import numpy as np

from dataclasses import replace

from asymreplay.losses import Method
from asymreplay.report import ExperimentConfig
from asymreplay.stream import make_synthetic
from asymreplay.trainer import run

NPC = 500
base = ExperimentConfig(input_dim=16, num_classes=4, samples_per_class=NPC,
                        noise_sigma=0.5, classes_per_task=2, batch_size=10,
                        gamma=2.0, tau=0.2, lr=0.05, buffer_capacity=20,
                        hidden_sizes=(64, 32))
dataset = make_synthetic(base, seed=0)

traces = {}
for name, method in (("er", Method.ER), ("er-ace", Method.ER_ACE)):
    r = run(dataset, replace(base, method=method), seed=1)
    traces[name] = (np.array(r.log.drift_trace), np.array(r.log.grad_norm_trace))

boundary = r.stream.boundaries[1]   # step where task 1 begins
window = 20

print(f"task boundary at step {boundary}; averages over the {window} steps after it:")
print(f"{'method':<8} {'old-feature drift':>18} {'old-feature grad norm':>22}")
for name, (drift, gnorm) in traces.items():
    d = np.nanmean(drift[boundary:boundary + window])
    g = np.mean(gnorm[boundary:boundary + window])
    print(f"{name:<8} {d:>18.4f} {g:>22.4f}")

er_g = np.mean(traces["er"][1][boundary:boundary + window])
ace_g = np.mean(traces["er-ace"][1][boundary:boundary + window])
print()
print(f"gradient-norm ratio er / er-ace over that window: {er_g / ace_g:.2f}x")
print()
print("drift around the boundary (20-step bins, er vs er-ace):")
lo = max(0, boundary - 100)
hi = min(len(traces["er"][0]), boundary + 200)
for start in range(lo, hi, 20):
    cells = []
    for name in ("er", "er-ace"):
        seg = traces[name][0][start:start + 20]
        finite = seg[np.isfinite(seg)]
        # steps without any buffered old-class sample record no drift
        cells.append(f"{finite.mean():.4f}" if finite.size else "   --  ")
    marker = "  <- boundary" if start <= boundary < start + 20 else ""
    print(f"  steps {start:4d}-{start + 19:<4d}  er={cells[0]}  "
          f"er-ace={cells[1]}{marker}")
