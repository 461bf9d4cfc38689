"""Learned query-reply relatedness scorer.

Architecture: the query and the reply are each read by their own
bidirectional GRU; the two final states (one per direction) concatenate
into a sentence vector.  A bilinear form between the two sentence vectors
supplies a scalar match feature, everything is concatenated and pushed
through one tanh hidden layer, and a logistic output squeezes the result
into (0, 1).

The GRU forward, :func:`_run_rows`, steps every row of a call in
lockstep, and each row keeps the bits it has when run alone.  A score is
one call of four rows: both directions of the query and of the reply.

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


def _run_rows(rows, collect=False):
    """Run GRU rows in lockstep; each row is ``(xs, params, h)``.

    Row ``i`` reads its inputs ``xs`` (T_i, d) with its own
    :class:`GruParams` from its start state ``h`` (H,).  The GRU cell:
    stacked reset and update gates from the input and the previous state,
    a candidate against the reset-scaled previous state, and a convex
    blend of old state and candidate driven by the update gate.

    Each row's input projections are one product per weight, and each of
    its recurrent products is its own vector-matrix product, so every
    value has the bits the row run alone gives.  The rows are sorted
    longest first (ties keep their order) and aligned to end at the last
    step, so the rows alive at a step are the first ``k`` of them, and
    the gate arithmetic runs once per step over all of them.  Returns
    the (rows, H) final states in row order and, when ``collect`` is set,
    each row's (T_i, 4H) step record laid out as in :class:`EncodeCache`
    (else None).
    """
    order = sorted(range(len(rows)), key=lambda i: len(rows[i][0]), reverse=True)
    xs, params, h = zip(*(rows[i] for i in order))
    lengths = np.array([len(x) for x in xs])
    steps = lengths[0]
    t = np.arange(steps)[:, None]
    alive = t >= steps - lengths                             # (T, rows)
    counts = alive.sum(axis=1)
    # the rows alive at step t are packed rows offsets[t] to offsets[t] + counts[t]
    offsets = np.cumsum(counts) - counts
    # packed row j is row gather[j] of the rows' steps laid end to end
    gather = (np.cumsum(lengths) - steps + t)[alive]
    hidden = params[0].hidden_size
    # the records outlive the call, so they are made before its temporaries:
    # made after, they sat above the freed temporaries, and peak RSS in
    # ragged training read about 0.3 MiB higher
    records = np.empty((len(gather), 4 * hidden)) if collect else None
    gate_in = np.concatenate([x @ p.w_gates.T + p.b_gates for x, p in zip(xs, params)])[gather]
    cand_in = np.concatenate([x @ p.w_cand.T + p.b_cand for x, p in zip(xs, params)])[gather]
    h = np.array(h, dtype=float)
    # the recurrent terms h @ U_gates.T and (reset * h) @ U_cand.T of each row, as
    # np.dot(U, h): the BLAS call the ``@`` makes, with less dispatch
    gate_u, cand_u = np.empty((len(rows), 2 * hidden)), np.empty((len(rows), hidden))
    reset_h = np.empty((len(rows), hidden))
    gate_products = [(p.u_gates, h[i], gate_u[i]) for i, p in enumerate(params)]
    cand_products = [(p.u_cand, reset_h[i], cand_u[i]) for i, p in enumerate(params)]
    counts, offsets = counts.tolist(), offsets.tolist()
    # the first k rows of each of those, for every count k of alive rows
    views = {k: (h[:k], gate_u[:k], reset_h[:k], cand_u[:k], gate_products[:k],
                 cand_products[:k]) for k in set(counts)}
    for k, start in zip(counts, offsets):
        h_k, gate_u_k, reset_h_k, cand_u_k, gate_products_k, cand_products_k = views[k]
        block = slice(start, start + k)
        for weight, x, out in gate_products_k:
            np.dot(weight, x, out)
        gates = sigmoid(gate_in[block] + gate_u_k)
        update = gates[:, hidden:]
        np.multiply(gates[:, :hidden], h_k, out=reset_h_k)
        for weight, x, out in cand_products_k:
            np.dot(weight, x, out)
        cand = np.tanh(cand_in[block] + cand_u_k)
        if collect:
            records[gather[block]] = np.concatenate([h_k, gates, cand], axis=1)
        np.add((1.0 - update) * h_k, update * cand, out=h_k)
    states = np.empty_like(h)
    states[order] = h
    if not collect:
        return states, None
    bounds = np.cumsum(lengths).tolist()
    row_records = [None] * len(rows)
    for i, lo, hi in zip(order, [0] + bounds, bounds):
        row_records[i] = records[lo:hi]
    return states, row_records


def _encode(utterances, encoders, vocab: Vocabulary, matrix: np.ndarray, max_len: int,
            collect=False):
    """Sentence vectors (n, 2H) of the first ``max_len`` tokens of non-empty utterances.

    Utterance ``i`` is read by ``encoders[i]``; every direction of every
    utterance is one row of one :func:`_run_rows` call.  Both directions
    start from a zero state; the backward one takes the steps in reverse.
    Returns the vectors and, when ``collect`` is set, one
    :class:`EncodeCache` per utterance (else None).
    """
    if not all(utterances):
        raise ValueError("cannot encode an empty utterance")
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    ids = [[vocab.id_of(tok) for tok in utterance[:max_len]] for utterance in utterances]
    rows = []
    for row_ids, encoder in zip(ids, encoders):
        xs = matrix[row_ids]
        h0 = np.zeros(encoder.hidden_size)
        rows += [(xs, encoder.forward, h0), (xs[::-1], encoder.backward, h0)]
    states, records = _run_rows(rows, collect)
    # each utterance's forward and backward final states, side by side
    vecs = states.reshape(len(utterances), -1)
    if not collect:
        return vecs, None
    return vecs, [EncodeCache(row_ids, records[2 * i], records[2 * i + 1])
                  for i, row_ids in enumerate(ids)]


def _head(qvec: np.ndarray, rvec: np.ndarray, params: ScorerParams):
    """Score of the sentence vectors ``qvec`` and ``rvec``, strictly inside (0, 1).

    Also returns the (4H+1,) MLP input features and the (m,) tanh
    activations backprop needs.
    """
    quad = (qvec @ params.bilinear)[None, :] @ rvec[:, None]
    feats = np.concatenate([qvec, rvec, quad[0]])
    hidden = np.tanh(feats @ params.mlp_hidden_w.T + params.mlp_hidden_b)
    z = float(hidden @ params.mlp_out_w + params.mlp_out_b)
    return min(max(sigmoid(z, math.tanh), _SCORE_MIN), _SCORE_MAX), feats, hidden


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
    (qvec, rvec), _ = _encode([query, reply], [params.query_encoder, params.reply_encoder],
                              vocab, matrix, max_len)
    return _head(qvec, rvec, params)[0]


def score_with_cache(
    query: Utterance,
    reply: Utterance,
    params: ScorerParams,
    vocab: Vocabulary,
    matrix: np.ndarray,
    max_len: int = TrainConfig.max_len,
) -> tuple[float, ScoreCache]:
    """Like :func:`unreferenced_score` but keeps everything backprop needs."""
    (qvec, rvec), (qcache, rcache) = _encode(
        [query, reply], [params.query_encoder, params.reply_encoder], vocab, matrix, max_len,
        collect=True)
    score, feats, hidden = _head(qvec, rvec, params)
    return score, ScoreCache(qcache, rcache, feats, hidden, score)


def _score_replies(qvecs, replies, params: ScorerParams, vocab: Vocabulary,
                   matrix: np.ndarray, max_len: int) -> list[tuple[float, ScoreCache]]:
    """``score_with_cache`` of each reply against its (2H,) query vector in ``qvecs``.

    The replies are encoded in one call; their caches hold no query cache.
    """
    rvecs, rcaches = _encode(replies, [params.reply_encoder] * len(replies), vocab, matrix,
                             max_len, collect=True)
    scored = []
    for qvec, rvec, rcache in zip(qvecs, rvecs, rcaches):
        score, feats, hidden = _head(qvec, rvec, params)
        scored.append((score, ScoreCache(None, rcache, feats, hidden, score)))
    return scored
