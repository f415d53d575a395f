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

Run:  python3 demos/02_method_comparison.py          (~5 s)
"""

import numpy as np

from asymreplay.report import ExperimentConfig, run_experiments

METHODS = ["er", "er-ace", "er-aml", "ssil-nodistill"]
# 500 samples per class: long streams are where asymmetry pays off
SETTINGS = dict(input_dim=16, num_classes=10, samples_per_class=500,
                noise_sigma=0.5, classes_per_task=2, batch_size=10, gamma=2.0,
                tau=0.2, lr=0.05, buffer_capacity=20, hidden_sizes=(64, 32),
                seeds=(1, 2, 3))


def demo():
    reports = run_experiments([ExperimentConfig(method=m, **SETTINGS)
                               for m in METHODS])
    print(f"{'method':<16} {'final acc':>10} {'AAA':>8} {'forgetting':>11} "
          f"{'current-task':>13}")
    for name, rep in zip(METHODS, reports):
        if isinstance(rep, Exception):
            raise rep
        agg = rep["aggregates"]
        cur = np.mean([np.nanmean(np.array(e["current_task_accuracy"],
                                           dtype=float))
                       for e in rep["seeds"]])
        print(f"{name:<16} {agg['final_accuracy']['mean']:>10.3f} "
              f"{agg['aaa']['mean']:>8.3f} {agg['forgetting']['mean']:>11.3f} "
              f"{cur:>13.3f}")

    print()
    print("Reading the table: the masked incoming loss (er-ace) trades")
    print("current-task accuracy for far lower forgetting, and wins overall at")
    print("this small buffer size.  Masking the rehearsal side too (the ssil")
    print("ablation) gives up the only term that calibrates classes across")
    print("tasks, which caps its final accuracy.")


# the runner's workers are spawned and import this file first, so the demo
# runs only when the file is executed as a script
if __name__ == "__main__":
    demo()
