"""Learned unreferenced relatedness scorer: model, training, persistence.

Other names, such as the tensor classes, come from their own modules.
"""

from .checkpoint import load_checkpoint, save_checkpoint, vocab_content_hash
from .config import TrainConfig
from .gradients import compute_gradients, margin_loss
from .scorer import (
    ScorerParams,
    init_scorer_params,
    sigmoid,
    unreferenced_score,
    zero_scorer_params,
)
from .training import AdamState, adam_step, sample_negative, train

__all__ = [
    "AdamState",
    "ScorerParams",
    "TrainConfig",
    "adam_step",
    "compute_gradients",
    "init_scorer_params",
    "load_checkpoint",
    "margin_loss",
    "sample_negative",
    "save_checkpoint",
    "sigmoid",
    "train",
    "unreferenced_score",
    "vocab_content_hash",
    "zero_scorer_params",
]
