"""Quickstart: train one online learner on a two-task stream.

Builds a small synthetic class-cluster dataset, streams it as two sharp
tasks, trains with asymmetric cross-entropy replay (masked incoming loss
plus full-softmax rehearsal), and prints the anytime-accuracy trace.

Run:  python3 demos/01_quickstart.py
"""

from asymreplay.losses import Method
from asymreplay.report import ExperimentConfig
from asymreplay.stream import make_synthetic
from asymreplay.trainer import run

cfg = ExperimentConfig(
    input_dim=8, num_classes=4, samples_per_class=200, noise_sigma=0.3,
    classes_per_task=2, batch_size=10,
    method=Method.ER_ACE, tau=0.1,
    lr=0.05, rehearsal_batch_size=10, eval_every=10,
    buffer_capacity=20, hidden_sizes=(32, 16))

dataset = make_synthetic(cfg, seed=0)
result = run(dataset, cfg, seed=0)

print("anytime accuracy over the run (mean over tasks seen so far):")
for step, aa in zip(result.log.eval_steps, result.log.aa_trace):
    bar = "#" * int(aa * 40)
    print(f"  step {step:4d}  {aa:.3f}  {bar}")

print()
print(f"final accuracy:       {result.final_accuracy:.3f}")
print(f"averaged anytime acc: {result.aaa:.3f}")
print(f"forgetting:           {result.forgetting:.3f}")
print(f"train FLOPs charged:  {result.ledger.train_flops:,}")
print(f"mean memory bytes:    {result.ledger.mean_memory_bytes:,.0f} "
      f"(parameters + replay buffer)")
