"""Why asymmetry helps: compare replay losses on one sharp stream.

Plain replay (ER) mixes new and rehearsed samples in a single softmax over
all classes, so every incoming batch of a new task pushes old-class
prototypes and features around.  The asymmetric variants restrict what the
incoming batch is allowed to touch:

  er             one cross-entropy over the union, all classes admissible
  er-ace         incoming batch masked to the classes it contains;
                 rehearsal keeps the full softmax
  er-aml         incoming batch trains features only (contrastive pull to a
                 same-class partner, push from a current-task negative);
                 rehearsal keeps the full softmax
  ssil-nodistill both sides masked: rehearsal is split per task, so no loss
                 term ever compares classes across tasks

All methods share the same stream order, buffer contents, and rehearsal
draws per seed, so differences come from the loss alone.

Run:  python3 demos/02_method_comparison.py          (~9 s)
"""

import numpy as np

from asymreplay.losses import LossConfig, Method, NegativePolicy
from asymreplay.stream import StreamConfig, SyntheticDatasetSpec, make_synthetic
from asymreplay.trainer import TrainerConfig, run

SEEDS = (1, 2, 3)
NPC = 500  # samples per class; long streams are where asymmetry pays off

dataset = make_synthetic(
    SyntheticDatasetSpec(input_dim=16, num_classes=10, samples_per_class=NPC,
                         noise_sigma=0.5),
    seed=0)
stream_cfg = StreamConfig(classes_per_task=2, batch_size=10)

METHODS = [
    ("er", Method.ER, NegativePolicy.INCOMING_ONLY),
    ("er-ace", Method.ER_ACE, NegativePolicy.INCOMING_ONLY),
    ("er-aml", Method.ER_AML_SUPCON, NegativePolicy.INCOMING_ONLY),
    ("ssil-nodistill", Method.SSIL_NODISTILL, NegativePolicy.INCOMING_ONLY),
]

print(f"{'method':<16} {'final acc':>10} {'AAA':>8} {'forgetting':>11} "
      f"{'current-task':>13}")
for name, method, policy in METHODS:
    finals, aaas, forgets, curs = [], [], [], []
    for seed in SEEDS:
        cfg = TrainerConfig(
            loss=LossConfig(method=method, gamma=2.0, tau=0.2,
                            negative_policy=policy),
            lr=0.05, buffer_capacity=20, hidden_sizes=(64, 32), seed=seed)
        r = run(dataset, stream_cfg, cfg)
        finals.append(r.final_accuracy)
        aaas.append(r.aaa)
        forgets.append(r.forgetting)
        curs.append(np.nanmean(r.log.current_task_accuracy))
    print(f"{name:<16} {np.mean(finals):>10.3f} {np.mean(aaas):>8.3f} "
          f"{np.mean(forgets):>11.3f} {np.mean(curs):>13.3f}")

print()
print("Reading the table: the masked incoming loss (er-ace) trades")
print("current-task accuracy for far lower forgetting, and wins overall at")
print("this small buffer size.  Masking the rehearsal side too (the ssil")
print("ablation) gives up the only term that calibrates classes across")
print("tasks, which caps its final accuracy.")
