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
    """Base of the dataclasses whose fields are tensors, nested trees or None."""

    def tensors(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Every leaf as ``(dotted name, tensor)``, in field declaration order.

        A None field has no leaf.  The checkpoint layout, the optimizer
        state and the gradients all follow that order.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, TensorTree):
                yield from value.tensors(f"{prefix}{f.name}.")
            elif value is not None:
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


@dataclass
class EncodeCache:
    """One row's token ids and the step record of each GRU direction.

    ``fwd`` and ``bwd`` are (T, 4H).  Row ``t`` belongs to step ``t`` in
    consumption order (reversed for the backward direction) and holds,
    H columns each, the state entering the step, the reset gate, the
    update gate and the candidate state.  Backprop reads the inputs back
    from the embedding matrix by ``ids``.
    """

    ids: list[int]
    fwd: np.ndarray
    bwd: np.ndarray


@dataclass
class ScoreCache:
    query: EncodeCache | None  # None when the query vector was encoded elsewhere
    reply: EncodeCache
    feats: np.ndarray   # (4H+1,) query vector, reply vector, bilinear match
    hidden: np.ndarray  # (m,) tanh activations
    score: float


def _run_rows(xs: np.ndarray, params: GruParams, h: np.ndarray, collect=False):
    """Run one GRU direction over one row's inputs ``xs`` (T, d) from state ``h`` (H,).

    The GRU cell: stacked reset and update gates from the input and the
    previous state, a candidate against the reset-scaled previous state,
    and a convex blend of old state and candidate driven by the update
    gate.  The input projections of all steps are one product each; the
    recurrence is a per-step loop.  Returns the final state and, when
    ``collect`` is set, the (T, 4H) step record laid out as in
    :class:`EncodeCache` (else None).
    """
    hidden = params.hidden_size
    gate_in = xs @ params.w_gates.T + params.b_gates
    cand_in = xs @ params.w_cand.T + params.b_cand
    u_gates, u_cand = params.u_gates.T, params.u_cand.T
    steps = np.empty((len(xs), 4 * hidden)) if collect else None
    for t in range(len(xs)):
        gates = sigmoid(gate_in[t] + h @ u_gates)
        reset, update = gates[:hidden], gates[hidden:]
        cand = np.tanh(cand_in[t] + (reset * h) @ u_cand)
        if collect:
            step = steps[t]
            step[:hidden], step[hidden:3 * hidden], step[3 * hidden:] = h, gates, cand
        h = (1.0 - update) * h + update * cand
    return h, steps


def _encode(utterance: Utterance, encoder: BiGruEncoder, vocab: Vocabulary,
            matrix: np.ndarray, max_len: int, collect=False):
    """Sentence vector (2H,) of the first ``max_len`` tokens of a non-empty utterance.

    Both directions start from a zero state; the backward one takes the
    steps in reverse.  Returns the vector and, when ``collect`` is set,
    the :class:`EncodeCache` (else None).
    """
    if not utterance:
        raise ValueError("cannot encode an empty utterance")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [vocab.id_of(tok) for tok in utterance[:max_len]]
    xs = matrix[ids]
    h0 = np.zeros(encoder.hidden_size)
    h_fwd, fwd = _run_rows(xs, encoder.forward, h0, collect)
    h_bwd, bwd = _run_rows(xs[::-1], encoder.backward, h0, collect)
    return np.concatenate([h_fwd, h_bwd]), (EncodeCache(ids, fwd, bwd) if collect else None)


def _score_reply(qvec: np.ndarray, reply: Utterance, params: ScorerParams,
                 vocab: Vocabulary, matrix: np.ndarray, max_len: int, collect: bool):
    """Score of ``reply`` against the (2H,) query vector ``qvec``, strictly inside (0, 1).

    When ``collect`` is set, also returns a :class:`ScoreCache` with no
    query cache, holding the (4H+1,) MLP input features and (m,) tanh
    activations backprop needs (else None).
    """
    rvec, rcache = _encode(reply, params.reply_encoder, vocab, matrix, max_len, collect)
    quad = (qvec @ params.bilinear)[None, :] @ rvec[:, None]
    feats = np.concatenate([qvec, rvec, quad[0]])
    hidden = np.tanh(feats @ params.mlp_hidden_w.T + params.mlp_hidden_b)
    z = float(hidden @ params.mlp_out_w + params.mlp_out_b)
    score = min(max(sigmoid(z, math.tanh), _SCORE_MIN), _SCORE_MAX)
    return score, (ScoreCache(None, rcache, feats, hidden, score) if collect else None)


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
    qvec, _ = _encode(query, params.query_encoder, vocab, matrix, max_len)
    return _score_reply(qvec, reply, params, vocab, matrix, max_len, collect=False)[0]


def score_with_cache(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = TrainConfig.max_len,
) -> tuple[float, ScoreCache]:
    """Like :func:`unreferenced_score` but keeps everything backprop needs."""
    qvec, qcache = _encode(query, params.query_encoder, vocab, matrix, max_len, collect=True)
    score, cache = _score_reply(qvec, reply, params, vocab, matrix, max_len, collect=True)
    cache.query = qcache
    return score, cache
