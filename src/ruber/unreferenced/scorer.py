"""Learned query-reply relatedness scorer.

Architecture: the query and the reply are each read by their own
bidirectional GRU; the two final states (one per direction) concatenate
into a sentence vector.  A bilinear form between the two sentence vectors
supplies a scalar match feature, everything is concatenated and pushed
through one tanh hidden layer, and a logistic output squeezes the result
into (0, 1).

All arithmetic is float64; checkpoints quantize to float32 on disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from ..corpus import Utterance
from ..vocabulary import Vocabulary
from .config import TrainConfig

# Open-interval guards: the logistic saturates in float64 for |z| > ~37,
# but callers may rely on scores never being exactly 0 or 1.
_SCORE_MIN = 1e-300
_SCORE_MAX = float(np.nextafter(1.0, 0.0))


def sigmoid(x, tanh=np.tanh):
    """Logistic function, stable for any magnitude (tanh form).

    ``x`` is an array, or a float with ``tanh=math.tanh``.  The two
    tanh implementations can round differently in the last bit; the
    scorer's output logistic uses ``math.tanh``, whose bits the scores
    have always had.
    """
    return 0.5 * (1.0 + tanh(0.5 * x))


class TensorTree:
    """Base of the dataclasses whose fields are tensors or nested trees."""

    def tensors(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Every leaf as ``(dotted name, tensor)``, in field declaration order.

        The checkpoint layout and the optimizer state both follow that
        order.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, TensorTree):
                yield from value.tensors(f"{prefix}{f.name}.")
            else:
                yield f"{prefix}{f.name}", value


@dataclass
class GruParams(TensorTree):
    """One GRU direction.

    ``w_gates``/``u_gates``/``b_gates`` produce the stacked reset and
    update gates (reset first); ``w_cand``/``u_cand``/``b_cand`` produce
    the candidate state.
    """

    w_gates: np.ndarray  # (2H, d)
    u_gates: np.ndarray  # (2H, H)
    b_gates: np.ndarray  # (2H,)
    w_cand: np.ndarray   # (H, d)
    u_cand: np.ndarray   # (H, H)
    b_cand: np.ndarray   # (H,)

    @property
    def hidden_size(self) -> int:
        return self.w_cand.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_cand.shape[1]


@dataclass
class BiGruEncoder(TensorTree):
    forward: GruParams
    backward: GruParams

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size


@dataclass
class ScorerParams(TensorTree):
    """Every trainable tensor of the scorer, in one container."""

    query_encoder: BiGruEncoder
    reply_encoder: BiGruEncoder
    bilinear: np.ndarray       # (2H, 2H) query-reply match form
    mlp_hidden_w: np.ndarray   # (m, 4H+1)
    mlp_hidden_b: np.ndarray   # (m,)
    mlp_out_w: np.ndarray      # (m,)
    mlp_out_b: np.ndarray      # () scalar

    @property
    def hidden_size(self) -> int:
        return self.query_encoder.hidden_size

    @property
    def embed_dim(self) -> int:
        return self.query_encoder.forward.input_dim

    @property
    def mlp_size(self) -> int:
        return self.mlp_hidden_w.shape[0]


def zero_scorer_params(embed_dim: int, hidden: int, mlp_hidden: int) -> ScorerParams:
    """All-zero parameter container (also used for gradient accumulators)."""
    return _scorer_layout(embed_dim, hidden, mlp_hidden, lambda shape, weight: np.zeros(shape))


def scorer_shapes(embed_dim: int, hidden: int, mlp_hidden: int) -> list[tuple[int, ...]]:
    """Shape of every scorer tensor in declaration order, allocating nothing."""
    layout = _scorer_layout(embed_dim, hidden, mlp_hidden, lambda shape, weight: shape)
    return [shape for _, shape in layout.tensors()]


def _scorer_layout(embed_dim: int, hidden: int, mlp_hidden: int, leaf) -> ScorerParams:
    """The tensor tree, with ``leaf(shape, weight)`` supplying each tensor.

    ``weight`` is False for the biases and the bilinear form.  Leaves are
    requested in declaration order.
    """

    def gru() -> GruParams:
        return GruParams(
            w_gates=leaf((2 * hidden, embed_dim), True),
            u_gates=leaf((2 * hidden, hidden), True),
            b_gates=leaf((2 * hidden,), False),
            w_cand=leaf((hidden, embed_dim), True),
            u_cand=leaf((hidden, hidden), True),
            b_cand=leaf((hidden,), False),
        )

    return ScorerParams(
        query_encoder=BiGruEncoder(gru(), gru()),
        reply_encoder=BiGruEncoder(gru(), gru()),
        bilinear=leaf((2 * hidden, 2 * hidden), False),
        mlp_hidden_w=leaf((mlp_hidden, 4 * hidden + 1), True),
        mlp_hidden_b=leaf((mlp_hidden,), False),
        mlp_out_w=leaf((mlp_hidden,), True),
        mlp_out_b=leaf((), False),
    )


def init_scorer_params(
    embed_dim: int, hidden: int, mlp_hidden: int, rng: np.random.Generator
) -> ScorerParams:
    """Fresh scorer parameters.

    Weights draw uniformly from +-sqrt(6 / (fan_in + fan_out)), with
    ``(fan_out, fan_in)`` read off the shape (a vector ``(m,)`` counts as
    ``(1, m)``); biases and the bilinear form start at zero.  Tensors are
    drawn in declaration order, so a fixed rng state fixes the result.
    """
    if embed_dim < 1 or hidden < 1 or mlp_hidden < 1:
        raise ValueError("embed_dim, hidden and mlp_hidden must be >= 1")

    def leaf(shape, weight):
        if not weight:
            return np.zeros(shape)
        fan_out, fan_in = shape if len(shape) == 2 else (1, shape[0])
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    return _scorer_layout(embed_dim, hidden, mlp_hidden, leaf)


def gru_step(x_t: np.ndarray, h_prev: np.ndarray, params: GruParams) -> np.ndarray:
    """One GRU state update.

    Stacked reset/update gates from the input and previous state, a
    candidate state computed against the reset-scaled previous state,
    and a convex blend of old state and candidate driven by the update
    gate.  This is a one-step call into :func:`_run_rows`.
    """
    h, _ = _run_rows(np.reshape(x_t, (1, -1)), params, h_prev)
    return h


@dataclass
class DirectionCache:
    """Per-step values of one GRU direction, stacked along the time axis.

    Row ``t`` of every array belongs to step ``t`` in consumption order
    (reversed for the backward direction), so backprop can form each
    weight gradient as one matrix product over all steps.
    """

    xs: np.ndarray      # (T, d) inputs as consumed
    h_prev: np.ndarray  # (T, H) state entering each step
    reset: np.ndarray   # (T, H) reset gate
    update: np.ndarray  # (T, H) update gate
    cand: np.ndarray    # (T, H) candidate state


@dataclass
class EncodeCache:
    ids: list[int]
    fwd: DirectionCache
    bwd: DirectionCache
    vec: np.ndarray  # (2H,)


@dataclass
class ScoreCache:
    query: EncodeCache
    reply: EncodeCache
    feats: np.ndarray
    hidden: np.ndarray
    score: float


def _run_rows(xs: np.ndarray, params: GruParams, h: np.ndarray, pad=None, collect=False):
    """Run one GRU direction over time-major inputs from state ``h``.

    ``xs`` is (T, d) for one row or (T, B, d) for B rows, and ``h`` is
    (H,) or (B, H) to match.  The input projections of all steps are one
    product each; the recurrence is a per-step loop.  ``pad`` (T, B)
    marks the steps that lie outside a row: their update-gate
    pre-activation is -inf, so the update gate is exactly 0 and the
    state passes through unchanged.  Returns the final state and, when
    ``collect`` is set (one row only), the :class:`DirectionCache` of
    every step (else None).
    """
    hidden = params.hidden_size
    gate_in = xs @ params.w_gates.T + params.b_gates
    cand_in = xs @ params.w_cand.T + params.b_cand
    if pad is not None:
        gate_in[pad, hidden:] = -np.inf
    u_gates, u_cand = params.u_gates.T, params.u_cand.T
    cache = None
    if collect:
        stacked = (len(xs), hidden)
        cache = DirectionCache(xs, np.empty(stacked), np.empty(stacked),
                               np.empty(stacked), np.empty(stacked))
    for t in range(len(xs)):
        gates = sigmoid(gate_in[t] + h @ u_gates)
        reset, update = gates[..., :hidden], gates[..., hidden:]
        cand = np.tanh(cand_in[t] + (reset * h) @ u_cand)
        if collect:
            cache.h_prev[t] = h
            cache.reset[t] = reset
            cache.update[t] = update
            cache.cand[t] = cand
        h = (1.0 - update) * h + update * cand
    return h, cache


def _token_ids(utterance: Utterance, vocab: Vocabulary, max_len: int) -> list[int]:
    """Ids of the first ``max_len`` tokens of a non-empty utterance."""
    if not utterance:
        raise ValueError("cannot encode an empty utterance")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    return [vocab.id_of(tok) for tok in utterance[:max_len]]


def _encode_ids(ids, encoder: BiGruEncoder, matrix: np.ndarray, pad=None, collect=False):
    """Sentence vectors of token-id rows.

    ``ids`` is a list of T ids for one row, giving a (2H,) vector, or a
    time-major (T, B) array with its ``pad`` mask, giving (B, 2H).  Both
    directions start from a zero state; the backward one takes the steps
    in reverse.  Returns the vectors and, when ``collect`` is set (one
    row only), the :class:`EncodeCache` (else None).
    """
    xs = matrix[ids]
    h0 = np.zeros(xs.shape[1:-1] + (encoder.hidden_size,))
    h_fwd, fwd = _run_rows(xs, encoder.forward, h0, pad, collect)
    back_pad = None if pad is None else pad[::-1]
    h_bwd, bwd = _run_rows(xs[::-1], encoder.backward, h0, back_pad, collect)
    vec = np.concatenate([h_fwd, h_bwd], axis=-1)
    if not collect:
        return vec, None
    return vec, EncodeCache(ids=ids, fwd=fwd, bwd=bwd, vec=vec)


def _encode_batch(utterances, encoder: BiGruEncoder, vocab: Vocabulary,
                  matrix: np.ndarray, max_len: int) -> np.ndarray:
    """Sentence vectors (B, 2H) of ``utterances``, encoded together.

    Shorter rows are left-padded to the longest, so every row ends at
    the last step: the forward direction holds a padded row at the zero
    state until the row starts, and the backward direction carries the
    row's final state through the padding.
    """
    rows = [_token_ids(utt, vocab, max_len) for utt in utterances]
    steps = max(map(len, rows))
    ids = np.zeros((steps, len(rows)), dtype=np.intp)
    for b, row in enumerate(rows):
        ids[steps - len(row):, b] = row
    pad = np.arange(steps)[:, None] < [steps - len(row) for row in rows]
    vecs, _ = _encode_ids(ids, encoder, matrix, pad)
    return vecs


def encode(
    utterance: Utterance,
    encoder: BiGruEncoder,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = TrainConfig.max_len,
) -> np.ndarray:
    """Sentence vector: final forward state followed by final backward state.

    The utterance is truncated to its first ``max_len`` tokens; both
    directions start from a zero state.
    """
    vec, _ = _encode_ids(_token_ids(utterance, vocab, max_len), encoder, matrix)
    return vec


def _head(qvecs: np.ndarray, rvecs: np.ndarray, params: ScorerParams):
    """Scores of query and reply sentence vectors, strictly inside (0, 1).

    The vectors are (2H,) for one pair or (B, 2H) for B pairs.  Returns
    ``(scores, feats, hidden)``: a list of floats, then the MLP input
    features (..., 4H+1) and tanh activations (..., m) backprop needs.
    """
    quad = (qvecs @ params.bilinear)[..., None, :] @ rvecs[..., :, None]
    feats = np.concatenate([qvecs, rvecs, quad[..., 0]], axis=-1)
    hidden = np.tanh(feats @ params.mlp_hidden_w.T + params.mlp_hidden_b)
    z = hidden @ params.mlp_out_w + params.mlp_out_b
    scores = [min(max(sigmoid(v, math.tanh), _SCORE_MIN), _SCORE_MAX)
              for v in z.ravel().tolist()]
    return scores, feats, hidden


def _score_internal(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int,
    collect: bool,
):
    qids, rids = _token_ids(query, vocab, max_len), _token_ids(reply, vocab, max_len)
    qvec, qcache = _encode_ids(qids, params.query_encoder, matrix, collect=collect)
    rvec, rcache = _encode_ids(rids, params.reply_encoder, matrix, collect=collect)
    (score,), feats, hidden = _head(qvec, rvec, params)
    if not collect:
        return score, None
    return score, ScoreCache(qcache, rcache, feats, hidden, score)


def unreferenced_score(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = TrainConfig.max_len,
) -> float:
    """Relatedness of ``reply`` to ``query``, strictly inside (0, 1).

    Not symmetric: query and reply run through different encoders and
    enter the bilinear form on different sides.
    """
    score, _ = _score_internal(query, reply, params, vocab, matrix, max_len, collect=False)
    return score


def score_with_cache(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = TrainConfig.max_len,
) -> tuple[float, ScoreCache]:
    """Like :func:`unreferenced_score` but keeps everything backprop needs."""
    return _score_internal(query, reply, params, vocab, matrix, max_len, collect=True)
