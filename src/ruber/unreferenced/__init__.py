"""Learned unreferenced relatedness scorer: model, training, persistence.

The package exports the names that the rest of ruber and its benchmark
import through it.  Every other name, such as the tensor classes, Adam
and the loss, is imported from the module that defines it.
"""

from .checkpoint import load_checkpoint, save_checkpoint, vocab_content_hash
from .config import TrainConfig
from .scorer import ScorerParams, init_scorer_params, unreferenced_score
from .training import train

__all__ = [
    "ScorerParams",
    "TrainConfig",
    "init_scorer_params",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "unreferenced_score",
    "vocab_content_hash",
]
