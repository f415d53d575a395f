"""Blurry task boundaries: classes phase in and out gradually.

A sharp split stream shows each class in exactly one contiguous segment.
The blurry stream instead draws each batch's labels from per-class
Gaussian schedules over the sample counter, so neighbouring classes
overlap.  The schedule variance is calibrated by bisection so batches
average a requested number of distinct labels ("blurriness level").

Run:  python3 demos/03_blurry_stream.py
"""

import numpy as np

from asymreplay.report import ExperimentConfig
from asymreplay.stream import (StreamMode, blurriness_sweep, make_stream,
                               make_synthetic)

cfg = ExperimentConfig(input_dim=8, num_classes=10, samples_per_class=100,
                       noise_sigma=0.3, classes_per_task=2, batch_size=10,
                       stream_mode=StreamMode.BLURRY, target_unique_labels=2.0)

dataset = make_synthetic(cfg, seed=0)

batches = list(make_stream(dataset, cfg, seed=0))
uniques = [len(np.unique(b.labels)) for b in batches]
print(f"default blurry stream: {len(batches)} steps, "
      f"mean unique labels/batch = {np.mean(uniques):.3f} (target 2.0)")

print()
print("class presence over time (rows = classes, columns = 20-step bins):")
n_bins = 20
bins = np.array_split(np.arange(len(batches)), n_bins)
for c in range(10):
    row = ""
    for b in bins:
        count = sum(np.sum(batches[i].labels == c) for i in b)
        row += " .:-=+*#@"[min(8, int(count / 15))]
    print(f"  class {c}: {row}")

print()
print("sweeping the blurriness level:")
for level in (1.0, 2.0, 3.0, 4.0, 5.0):
    st = blurriness_sweep(dataset, cfg, level, seed=0)
    measured = np.mean([len(np.unique(b.labels)) for b in st])
    print(f"  requested {level:.0f}  measured {measured:.3f}")
