"""Negative sampling, Adam, and the training loop for the scorer.

Supervision is free: each (query, reply) pair in the corpus acts as a
positive sample, and a reply stolen from a different pair acts as the
negative.  10% of the pairs are held out (seeded split) and never
trained on; after each epoch the fraction of held-out pairs whose true
reply outscores a sampled negative is logged as ranking accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..corpus import Utterance
from ..errors import NumericalError, ValidationError, allocating
from ..vocabulary import Vocabulary
from .checkpoint import quantize
from .config import TrainConfig
from .gradients import Gradients, compute_gradients
from .scorer import ScorerParams, init_scorer_params, unreferenced_score

NEGATIVE_RETRY_CAP = 100
HOLDOUT_FRACTION = 0.1
_ADAM_BLOCK = 2 ** 14  # elements per chunk of an Adam update (128 KiB of float64)


def sample_negative(pairs, positive_index: int, rng: np.random.Generator) -> Utterance:
    """Reply of a uniformly drawn pair other than ``positive_index``.

    Draws are rejected while the sampled reply is token-for-token equal
    to the positive reply; after ``NEGATIVE_RETRY_CAP`` rejections a
    :class:`~ruber.errors.ValidationError` is raised (the corpus is then
    too repetitive to supply negatives for this pair).
    """
    n = len(pairs)
    if n < 2:
        raise ValueError(f"need at least 2 pairs to sample a negative, have {n}")
    if not 0 <= positive_index < n:
        raise ValueError(f"positive_index {positive_index} out of range for {n} pairs")
    positive_reply = pairs[positive_index].reply
    for _ in range(NEGATIVE_RETRY_CAP):
        j = int(rng.integers(0, n - 1))
        if j >= positive_index:
            j += 1
        candidate = pairs[j].reply
        if candidate != positive_reply:
            return candidate
    raise ValidationError(
        f"no distinct negative reply found in {NEGATIVE_RETRY_CAP} draws "
        f"for pair {positive_index}"
    )


@dataclass
class EpochStats:
    epoch: int               # 1-based
    mean_loss: float         # mean margin loss over the epoch's samples
    holdout_accuracy: float  # NaN when the holdout split is too small


@dataclass
class TrainingLog:
    epochs: list[EpochStats] = field(default_factory=list)
    train_size: int = 0
    holdout_size: int = 0


class AdamState:
    """The tensors one Adam optimizer steps, each with its two moments, and the step count."""

    def __init__(self, tensors: list[np.ndarray]):
        self.tensors = tensors
        self.m = [np.zeros_like(arr) for arr in tensors]
        self.v = [np.zeros_like(arr) for arr in tensors]
        self.t = 0


def adam_step(state: AdamState, grads: Gradients, config: TrainConfig) -> None:
    """One bias-corrected Adam update of ``state.tensors``, in place.

    ``grads.tensors()`` must list one gradient per tensor, in the same
    order; otherwise ``ValueError`` is raised before any tensor moves.
    Each tensor is walked in memory order by one buffered ``np.nditer``
    over the tensor, its gradient and its two moments, in chunks of at
    most :data:`_ADAM_BLOCK` elements.  Each chunk runs the one-expression
    update, so every temporary holds at most one chunk, none the size of
    the embedding matrix, and every float is the same to the bit.
    """
    flat = [grad for _, grad in grads.tensors()]
    if len(flat) != len(state.tensors):
        raise ValueError(f"{len(flat)} gradients for {len(state.tensors)} Adam tensors")
    state.t += 1
    c1 = 1.0 - config.beta1 ** state.t
    c2 = 1.0 - config.beta2 ** state.t
    for arr, grad, m, v in zip(state.tensors, flat, state.m, state.v):
        # leaving the context writes any buffered chunk back to the tensor
        with np.nditer([arr, grad, m, v], ["external_loop", "buffered", "zerosize_ok"],
                       [["readwrite"], ["readonly"], ["readwrite"], ["readwrite"]],
                       buffersize=_ADAM_BLOCK) as chunks:
            for a, g, mb, vb in chunks:
                mb *= config.beta1
                mb += (1.0 - config.beta1) * g
                vb *= config.beta2
                vb += (1.0 - config.beta2) * g * g
                a -= (mb / c1) * config.lr / (np.sqrt(vb / c2) + config.eps)


def train(
    dataset,
    vocab: Vocabulary,
    matrix: np.ndarray,
    config: TrainConfig,
) -> tuple[ScorerParams, TrainingLog]:
    """Train a scorer on a query-reply corpus.

    Deterministic for fixed inputs: the seed drives initialization, the
    holdout split, per-epoch shuffling and all negative draws.  With
    ``config.epochs == 0`` the freshly initialized parameters come back
    untouched with an empty log.

    When ``config.fine_tune_embeddings`` is set, ``matrix`` must be a
    writeable float64 ndarray (else ``ValueError``), and it is updated
    in place alongside the scorer parameters.  An epoch whose updates
    leave any of these tensors non-finite, or a scorer tensor beyond the
    float32 range of the checkpoint, raises
    :class:`~ruber.errors.NumericalError`; numpy's overflow warnings are
    silenced on the way.  Sizes too large to allocate raise
    :class:`~ruber.errors.ConfigError`.
    """
    config.validate()
    if config.fine_tune_embeddings and not (
            isinstance(matrix, np.ndarray) and matrix.dtype == float and matrix.flags.writeable):
        raise ValueError("fine-tuning updates matrix in place: pass a writeable float64 ndarray")
    matrix = np.asarray(matrix, dtype=float)
    rng = np.random.default_rng(config.seed)
    with allocating(f"hidden={config.hidden} mlp_hidden={config.mlp_hidden}"):
        params = init_scorer_params(matrix.shape[1], config.hidden, config.mlp_hidden, rng)

    n = len(dataset)
    perm = rng.permutation(n)
    n_holdout = int(n * HOLDOUT_FRACTION)
    holdout = [dataset[int(i)] for i in perm[:n_holdout]]
    trainset = [dataset[int(i)] for i in perm[n_holdout:]]
    log = TrainingLog(train_size=len(trainset), holdout_size=len(holdout))
    if config.epochs == 0:
        return params, log
    if len(trainset) < 2:
        raise ValidationError(
            f"{len(trainset)} training pair(s) after the holdout split; need at least 2"
        )

    tuned = [matrix] if config.fine_tune_embeddings else []
    state = AdamState([arr for _, arr in params.tensors()] + tuned)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(trainset))
        loss_sum = 0.0
        # non-finite scores (in compute_gradients) and tensors (below) raise,
        # so numpy need not warn on the way
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), config.batch_size):
                chunk = order[start:start + config.batch_size]
                batch = []
                for i in chunk:
                    pair = trainset[int(i)]
                    negative = sample_negative(trainset, int(i), rng)
                    batch.append((pair.query, pair.reply, negative))
                grads, mean_loss = compute_gradients(batch, params, vocab, matrix, config)
                loss_sum += mean_loss * len(chunk)
                adam_step(state, grads, config)
                del grads  # not alive while the next batch computes its own
            # a diverged model would otherwise score its holdout and be saved;
            # the scorer is saved as float32, so check the values it will store
            stored = [(f"{name} (as float32)", quantize(arr)) for name, arr in params.tensors()]
            for name, arr in stored + [("fine-tuned embeddings", t) for t in tuned]:
                if not np.all(np.isfinite(arr)):
                    raise NumericalError(f"epoch {epoch}: {name} is non-finite after the updates")
        accuracy = _holdout_accuracy(
            holdout, params, vocab, matrix, config,
            np.random.default_rng([config.seed, epoch]),
        )
        log.epochs.append(EpochStats(epoch, loss_sum / len(trainset), accuracy))
    return params, log


def _holdout_accuracy(holdout, params, vocab, matrix, config, rng) -> float:
    """Fraction of held-out pairs whose reply outscores a sampled negative."""
    if len(holdout) < 2:
        return float("nan")
    wins = 0
    for i, pair in enumerate(holdout):
        try:
            negative = sample_negative(holdout, i, rng)
        except ValidationError:
            return float("nan")
        s_pos = unreferenced_score(pair.query, pair.reply, params, vocab, matrix, config.max_len)
        s_neg = unreferenced_score(pair.query, negative, params, vocab, matrix, config.max_len)
        wins += s_pos > s_neg
    return wins / len(holdout)
