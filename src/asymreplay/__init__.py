"""Online continual learning with asymmetric replay losses.

A small numpy-backed laboratory: a minimal reverse-mode autodiff tensor
core, an MLP feature extractor with a cosine-prototype head, replay
methods (ER, ER-ACE, ER-AML with contrastive or triplet incoming loss,
and a doubly-masked ablation), reservoir memory, sharp and blurry task
streams, and a full metric suite with analytic FLOPs/memory ledgers.
"""

__version__ = "0.1.0"
