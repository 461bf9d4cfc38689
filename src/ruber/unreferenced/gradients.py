"""Margin ranking objective and hand-derived backpropagation.

The loss for one (query, good reply, bad reply) triple is
``max(0, margin - s(q, r_good) + s(q, r_bad))``.  Gradients are
accumulated analytically: logistic and tanh derivatives through the MLP
head, product rules through the bilinear match feature, and
back-propagation through time through both directions of both GRU
encoders.  Samples whose loss clamps to zero contribute exactly nothing.

Both scores of a triple encode the same query with the same weights, so
the query encoder runs its backward pass once per triple, on the sum of
the two heads' query gradients.  Back-propagation through time walks the
stacked per-step caches of :class:`~.scorer.DirectionCache`: the loop
carries only the state gradient and records the gate and candidate
pre-activation gradients of every step, after which each weight gradient
is one matrix product over all steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from .config import TrainConfig
from .scorer import (
    BiGruEncoder,
    DirectionCache,
    EncodeCache,
    GruParams,
    ScoreCache,
    ScorerParams,
    _encode_batch,
    _head,
    score_with_cache,
    zero_scorer_params,
)

# A training sample: (query, positive_reply, negative_reply), each a token list.
Triple = tuple[list, list, list]


def margin_loss(s_pos: float, s_neg: float, margin: float) -> float:
    """Hinge on the score gap: zero once s_pos beats s_neg by ``margin``."""
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    return max(0.0, margin - s_pos + s_neg)


@dataclass
class Gradients:
    """d(mean loss)/d(tensor) for every scorer tensor.

    ``embeddings`` is a (V, d) matrix of input-vector gradients when
    fine-tuning is on, else None.
    """

    scorer: ScorerParams
    embeddings: np.ndarray | None = None


def batch_loss(
    batch: list[Triple],
    params: ScorerParams,
    vocab,
    matrix: np.ndarray,
    config: TrainConfig,
) -> float:
    """Mean margin loss over ``batch`` (forward passes only).

    Each query is encoded once and all replies together, so a batch
    costs one recurrence per direction per encoder and one head call.
    """
    if not batch:
        raise ValueError("batch must not be empty")
    queries, positives, negatives = zip(*batch)
    qvecs = _encode_batch(queries, params.query_encoder, vocab, matrix, config.max_len)
    rvecs = _encode_batch(positives + negatives, params.reply_encoder, vocab, matrix,
                          config.max_len)
    scores, _, _ = _head(np.concatenate([qvecs, qvecs]), rvecs, params)
    n = len(batch)
    total = sum(margin_loss(s_pos, s_neg, config.margin)
                for s_pos, s_neg in zip(scores[:n], scores[n:]))
    return total / n


def compute_gradients(
    batch: list[Triple],
    params: ScorerParams,
    vocab,
    matrix: np.ndarray,
    config: TrainConfig,
) -> tuple[Gradients, float]:
    """Analytic gradients of the mean margin loss over ``batch``.

    Returns ``(gradients, mean_loss)``; embedding gradients are included
    only when ``config.fine_tune_embeddings`` is set.  Raises
    :class:`~ruber.errors.NumericalError` if the loss goes non-finite.
    """
    if not batch:
        raise ValueError("batch must not be empty")
    grads = zero_scorer_params(params.embed_dim, params.hidden_size, params.mlp_size)
    emb_grad = np.zeros_like(matrix) if config.fine_tune_embeddings else None

    total = 0.0
    for index, (query, pos, neg) in enumerate(batch):
        s_pos, cache_pos = score_with_cache(query, pos, params, vocab, matrix, config.max_len)
        s_neg, cache_neg = score_with_cache(query, neg, params, vocab, matrix, config.max_len)
        if not (math.isfinite(s_pos) and math.isfinite(s_neg)):
            raise NumericalError(
                f"non-finite score at batch index {index}: "
                f"s_pos={s_pos!r} s_neg={s_neg!r}"
            )
        loss = margin_loss(s_pos, s_neg, config.margin)
        total += loss
        if loss > 0.0:
            dq_pos, dr_pos = _backward_head(cache_pos, -1.0, params, grads)
            dq_neg, dr_neg = _backward_head(cache_neg, +1.0, params, grads)
            _backward_encode(cache_pos.query, dq_pos + dq_neg, params.query_encoder,
                             grads.query_encoder, emb_grad)
            _backward_encode(cache_pos.reply, dr_pos, params.reply_encoder,
                             grads.reply_encoder, emb_grad)
            _backward_encode(cache_neg.reply, dr_neg, params.reply_encoder,
                             grads.reply_encoder, emb_grad)

    if not math.isfinite(total):
        raise NumericalError(f"margin loss went non-finite over a batch of {len(batch)}")

    scale = 1.0 / len(batch)
    for _, arr in grads.tensors():
        arr *= scale
    if emb_grad is not None:
        emb_grad *= scale
    return Gradients(scorer=grads, embeddings=emb_grad), total * scale


def _backward_head(
    cache: ScoreCache,
    upstream: float,
    params: ScorerParams,
    grads: ScorerParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate d(upstream * score)/d(head params) into ``grads``.

    Returns the gradients with respect to the query and reply sentence
    vectors, for the encoders' backward passes.
    """
    s = cache.score
    dz = upstream * s * (1.0 - s)          # logistic derivative
    grads.mlp_out_b += dz
    grads.mlp_out_w += dz * cache.hidden
    dhidden = dz * params.mlp_out_w
    dpre = dhidden * (1.0 - cache.hidden ** 2)  # tanh derivative
    grads.mlp_hidden_b += dpre
    grads.mlp_hidden_w += np.outer(dpre, cache.feats)
    dfeats = params.mlp_hidden_w.T @ dpre

    two_h = cache.query.vec.shape[0]
    qvec, rvec = cache.query.vec, cache.reply.vec
    dquad = dfeats[-1]
    dq = dfeats[:two_h] + dquad * (params.bilinear @ rvec)
    dr = dfeats[two_h:2 * two_h] + dquad * (params.bilinear.T @ qvec)
    grads.bilinear += dquad * np.outer(qvec, rvec)
    return dq, dr


def _backward_encode(
    ecache: EncodeCache,
    dvec: np.ndarray,
    encoder: BiGruEncoder,
    gencoder: BiGruEncoder,
    emb_grad: np.ndarray | None,
) -> None:
    hidden = encoder.hidden_size
    needs_dx = emb_grad is not None
    dx_fwd = _backward_direction(ecache.fwd, dvec[:hidden], encoder.forward,
                                 gencoder.forward, needs_dx)
    dx_bwd = _backward_direction(ecache.bwd, dvec[hidden:], encoder.backward,
                                 gencoder.backward, needs_dx)
    if needs_dx:
        # the backward direction consumed the reversed sequence, so its
        # input gradients come back in reversed row order; np.add.at so
        # repeated token ids accumulate instead of overwrite
        np.add.at(emb_grad, ecache.ids, dx_fwd + dx_bwd[::-1])


def _backward_direction(
    dcache: DirectionCache,
    dh_last: np.ndarray,
    p: GruParams,
    gp: GruParams,
    needs_dx: bool,
) -> np.ndarray | None:
    """BPTT through one direction; returns the (T, d) input gradients if asked.

    With ``a`` the stacked reset/update gate pre-activations and ``c``
    the candidate pre-activation, the loop records ``d_a`` (T, 2H) and
    ``d_c`` (T, H) per step; the six weight gradients then follow from
    one product or row sum each.
    """
    h_prev, reset, update = dcache.h_prev, dcache.reset, dcache.update
    steps, hidden = h_prev.shape
    # per-step factors that do not depend on the incoming gradient
    keep = 1.0 - update                                   # dh_prev / dh, direct path
    cand_gain = update * (1.0 - dcache.cand ** 2)         # dc / dh
    update_gain = (dcache.cand - h_prev) * update * keep  # d(update pre-act) / dh
    reset_gain = h_prev * reset * (1.0 - reset)           # d(reset pre-act) / d(reset*h)
    d_a = np.empty((steps, 2 * hidden))
    d_c = np.empty((steps, hidden))
    dh = dh_last
    for t in range(steps - 1, -1, -1):
        dc = d_c[t]
        da = d_a[t]
        np.multiply(dh, cand_gain[t], out=dc)
        drh = p.u_cand.T @ dc
        np.multiply(drh, reset_gain[t], out=da[:hidden])
        np.multiply(dh, update_gain[t], out=da[hidden:])
        dh = dh * keep[t] + drh * reset[t] + p.u_gates.T @ da
    # the gradient w.r.t. the initial zero state is discarded

    gp.w_gates += d_a.T @ dcache.xs
    gp.u_gates += d_a.T @ h_prev
    gp.b_gates += d_a.sum(axis=0)
    gp.w_cand += d_c.T @ dcache.xs
    gp.u_cand += d_c.T @ (reset * h_prev)
    gp.b_cand += d_c.sum(axis=0)
    if not needs_dx:
        return None
    return d_a @ p.w_gates + d_c @ p.w_cand
