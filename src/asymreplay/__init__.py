"""Online continual learning with asymmetric replay losses.

A small numpy-backed laboratory: a minimal reverse-mode autodiff tensor
core, an MLP feature extractor with a cosine-prototype head, replay
methods (ER, ER-ACE, ER-AML with contrastive or triplet incoming loss,
and a doubly-masked ablation), reservoir memory, sharp and blurry task
streams, and a full metric suite with analytic FLOPs/memory ledgers.
"""

__version__ = "0.1.0"

from .buffer import ReplayBuffer
from .losses import Method, NegativePolicy
from .network import ModelParams, init_params, predict
from .stream import (Dataset, LabeledBatch, Stream, StreamMode,
                     blurriness_sweep, blurry_stream, load_dataset,
                     make_stream, make_synthetic, save_dataset, split_stream)
from .tensor import Tensor, no_grad
from .trainer import RunState, run, train_step
from .report import (ComparisonError, ConfigError, ExperimentConfig, compare,
                     load_report, parse_config, run_experiment,
                     run_experiments)
