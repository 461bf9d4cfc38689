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
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..corpus import Utterance
from ..vocabulary import Vocabulary

# Open-interval guards: the logistic saturates in float64 for |z| > ~37,
# but callers may rely on scores never being exactly 0 or 1.
_SCORE_MIN = 1e-300
_SCORE_MAX = float(np.nextafter(1.0, 0.0))


def sigmoid(x):
    """Logistic function, stable for any magnitude (tanh form)."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=float)))


@dataclass
class GruParams:
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

    def tensors(self, prefix: str) -> Iterator[tuple[str, np.ndarray]]:
        yield f"{prefix}.w_gates", self.w_gates
        yield f"{prefix}.u_gates", self.u_gates
        yield f"{prefix}.b_gates", self.b_gates
        yield f"{prefix}.w_cand", self.w_cand
        yield f"{prefix}.u_cand", self.u_cand
        yield f"{prefix}.b_cand", self.b_cand


@dataclass
class BiGruEncoder:
    forward: GruParams
    backward: GruParams

    @property
    def hidden_size(self) -> int:
        return self.forward.hidden_size

    def tensors(self, prefix: str) -> Iterator[tuple[str, np.ndarray]]:
        yield from self.forward.tensors(f"{prefix}.forward")
        yield from self.backward.tensors(f"{prefix}.backward")


@dataclass
class ScorerParams:
    """Every trainable tensor of the scorer, in one container.

    ``tensors()`` yields them in a fixed declaration order; the
    checkpoint layout and the optimizer state both follow that order.
    """

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

    def tensors(self) -> Iterator[tuple[str, np.ndarray]]:
        yield from self.query_encoder.tensors("query_encoder")
        yield from self.reply_encoder.tensors("reply_encoder")
        yield "bilinear", self.bilinear
        yield "mlp_hidden_w", self.mlp_hidden_w
        yield "mlp_hidden_b", self.mlp_hidden_b
        yield "mlp_out_w", self.mlp_out_w
        yield "mlp_out_b", self.mlp_out_b

    def copy(self) -> "ScorerParams":
        out = zero_scorer_params(self.embed_dim, self.hidden_size, self.mlp_size)
        for (_, dst), (_, src) in zip(out.tensors(), self.tensors()):
            dst[...] = src
        return out


def zero_scorer_params(embed_dim: int, hidden: int, mlp_hidden: int) -> ScorerParams:
    """All-zero parameter container (also used for gradient accumulators)."""
    return _scorer_layout(embed_dim, hidden, mlp_hidden, np.zeros)


def scorer_shapes(embed_dim: int, hidden: int, mlp_hidden: int) -> list[tuple[int, ...]]:
    """Shape of every scorer tensor in declaration order, allocating nothing."""
    layout = _scorer_layout(embed_dim, hidden, mlp_hidden, lambda shape: shape)
    return [shape for _, shape in layout.tensors()]


def _scorer_layout(embed_dim: int, hidden: int, mlp_hidden: int, leaf) -> ScorerParams:
    """The tensor tree, with ``leaf(shape_tuple)`` supplying each tensor."""

    def gru() -> GruParams:
        return GruParams(
            w_gates=leaf((2 * hidden, embed_dim)),
            u_gates=leaf((2 * hidden, hidden)),
            b_gates=leaf((2 * hidden,)),
            w_cand=leaf((hidden, embed_dim)),
            u_cand=leaf((hidden, hidden)),
            b_cand=leaf((hidden,)),
        )

    return ScorerParams(
        query_encoder=BiGruEncoder(gru(), gru()),
        reply_encoder=BiGruEncoder(gru(), gru()),
        bilinear=leaf((2 * hidden, 2 * hidden)),
        mlp_hidden_w=leaf((mlp_hidden, 4 * hidden + 1)),
        mlp_hidden_b=leaf((mlp_hidden,)),
        mlp_out_w=leaf((mlp_hidden,)),
        mlp_out_b=leaf(()),
    )


def init_scorer_params(
    embed_dim: int, hidden: int, mlp_hidden: int, rng: np.random.Generator
) -> ScorerParams:
    """Fresh scorer parameters.

    Weight matrices draw uniformly from +-sqrt(6 / (fan_in + fan_out)),
    biases and the bilinear form start at zero.  Tensors are drawn in
    declaration order, so a fixed rng state fixes the result.
    """
    if embed_dim < 1 or hidden < 1 or mlp_hidden < 1:
        raise ValueError("embed_dim, hidden and mlp_hidden must be >= 1")

    def xavier(shape, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    def gru() -> GruParams:
        return GruParams(
            w_gates=xavier((2 * hidden, embed_dim), embed_dim, 2 * hidden),
            u_gates=xavier((2 * hidden, hidden), hidden, 2 * hidden),
            b_gates=np.zeros(2 * hidden),
            w_cand=xavier((hidden, embed_dim), embed_dim, hidden),
            u_cand=xavier((hidden, hidden), hidden, hidden),
            b_cand=np.zeros(hidden),
        )

    return ScorerParams(
        query_encoder=BiGruEncoder(gru(), gru()),
        reply_encoder=BiGruEncoder(gru(), gru()),
        bilinear=np.zeros((2 * hidden, 2 * hidden)),
        mlp_hidden_w=xavier((mlp_hidden, 4 * hidden + 1), 4 * hidden + 1, mlp_hidden),
        mlp_hidden_b=np.zeros(mlp_hidden),
        mlp_out_w=xavier(mlp_hidden, mlp_hidden, 1),
        mlp_out_b=np.zeros(()),
    )


def gru_step(x_t: np.ndarray, h_prev: np.ndarray, params: GruParams) -> np.ndarray:
    """One GRU state update.

    Stacked reset/update gates from the input and previous state, a
    candidate state computed against the reset-scaled previous state,
    and a convex blend of old state and candidate driven by the update
    gate.
    """
    hidden = params.hidden_size
    pre = params.w_gates @ x_t + params.b_gates + params.u_gates @ h_prev
    gates = sigmoid(pre)
    reset, update = gates[:hidden], gates[hidden:]
    cand = np.tanh(params.w_cand @ x_t + params.b_cand + params.u_cand @ (reset * h_prev))
    return (1.0 - update) * h_prev + update * cand


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


def _run_direction(xs: np.ndarray, params: GruParams, collect: bool):
    """Consume ``xs`` row by row from a zero state.

    Returns the final state and, when ``collect`` is set, the
    :class:`DirectionCache` of every step (else None).  Input projections
    for the whole sequence are batched up front; the recurrent part
    stays a plain per-step loop.
    """
    hidden = params.hidden_size
    gate_in = xs @ params.w_gates.T + params.b_gates
    cand_in = xs @ params.w_cand.T + params.b_cand
    h = np.zeros(hidden)
    cache = None
    if collect:
        stacked = (len(xs), hidden)
        cache = DirectionCache(xs, np.empty(stacked), np.empty(stacked),
                               np.empty(stacked), np.empty(stacked))
    for t in range(xs.shape[0]):
        gates = 0.5 * (1.0 + np.tanh(0.5 * (gate_in[t] + params.u_gates @ h)))
        reset, update = gates[:hidden], gates[hidden:]
        cand = np.tanh(cand_in[t] + params.u_cand @ (reset * h))
        if collect:
            cache.h_prev[t] = h
            cache.reset[t] = reset
            cache.update[t] = update
            cache.cand[t] = cand
        h = (1.0 - update) * h + update * cand
    return h, cache


def _encode_internal(
    utterance: Utterance,
    encoder: BiGruEncoder,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int,
    collect: bool,
):
    if not utterance:
        raise ValueError("cannot encode an empty utterance")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.id_of(tok) for tok in utterance[:max_len]]
    xs = matrix[ids]
    h_fwd, fwd = _run_direction(xs, encoder.forward, collect)
    h_bwd, bwd = _run_direction(xs[::-1], encoder.backward, collect)
    vec = np.concatenate([h_fwd, h_bwd])
    if not collect:
        return vec, None
    return vec, EncodeCache(ids=ids, fwd=fwd, bwd=bwd, vec=vec)


def encode(
    utterance: Utterance,
    encoder: BiGruEncoder,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = 50,
) -> np.ndarray:
    """Sentence vector: final forward state followed by final backward state.

    The utterance is truncated to its first ``max_len`` tokens; both
    directions start from a zero state.
    """
    vec, _ = _encode_internal(utterance, encoder, vocab, matrix, max_len, collect=False)
    return vec


def _score_internal(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int,
    collect: bool,
):
    qvec, qcache = _encode_internal(query, params.query_encoder, vocab, matrix, max_len, collect)
    rvec, rcache = _encode_internal(reply, params.reply_encoder, vocab, matrix, max_len, collect)
    quad = float(qvec @ params.bilinear @ rvec)
    feats = np.concatenate([qvec, rvec, [quad]])
    hidden = np.tanh(params.mlp_hidden_w @ feats + params.mlp_hidden_b)
    z = float(params.mlp_out_w @ hidden) + float(params.mlp_out_b)
    score = 0.5 * (1.0 + math.tanh(0.5 * z))
    score = min(max(score, _SCORE_MIN), _SCORE_MAX)
    if not collect:
        return score, None
    return score, ScoreCache(qcache, rcache, feats, hidden, score)


def unreferenced_score(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = 50,
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
    max_len: int = 50,
) -> tuple[float, ScoreCache]:
    """Like :func:`unreferenced_score` but keeps everything backprop needs."""
    return _score_internal(query, reply, params, vocab, matrix, max_len, collect=True)
