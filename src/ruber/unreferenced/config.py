"""Training hyper-parameters for the relatedness scorer."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


@dataclass
class TrainConfig:
    """Everything that fixes a training run besides data and embeddings.

    With the seed included, a (dataset, embeddings, config) triple fully
    determines the trained parameters.
    """

    hidden: int = 64          # GRU state size per direction
    mlp_hidden: int = 128     # width of the tanh hidden layer
    margin: float = 0.5       # ranking margin
    lr: float = 1e-3
    epochs: int = 5
    batch_size: int = 64
    max_len: int = 50         # utterances are truncated to this many tokens
    seed: int = 1
    fine_tune_embeddings: bool = False
    beta1: float = 0.9        # Adam first-moment decay
    beta2: float = 0.999      # Adam second-moment decay
    eps: float = 1e-8         # Adam denominator guard

    def validate(self) -> None:
        """Raise :class:`~ruber.errors.ConfigError` on unusable values."""
        if self.hidden < 1 or self.mlp_hidden < 1:
            raise ConfigError("hidden and mlp_hidden must be >= 1")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_len < 1:
            raise ConfigError(f"max_len must be >= 1, got {self.max_len}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
