"""Margin ranking objective and hand-derived backpropagation.

The loss for one (query, good reply, bad reply) triple is
``max(0, margin - s(q, r_good) + s(q, r_bad))``.  Gradients are
accumulated analytically: logistic and tanh derivatives through the MLP
head, product rules through the bilinear match feature, and
back-propagation through time through both directions of both GRU
encoders.  Samples whose loss clamps to zero contribute exactly nothing.
:func:`compute_gradients` is the one place the loss of a batch is
computed; it returns the mean loss with the gradients.

Each sub-batch of ``_SUB_BATCH`` triples runs forward in one
``score_with_cache`` call per positive pair and one encoder call for
all its negative replies, each negative scored against the query vector
that its positive call encoded.  Within a call every GRU row
steps in lockstep (see :func:`~.scorer._run_rows`), with the bits a row
run alone gives.  The backward pass runs once per sub-batch, over the
triples whose hinge is active.  Each triple's positive and negative pair
are two rows of the head, which forms each head gradient as one product
over the rows and reads the sentence vectors back from the MLP input
features.  The query encoder takes one row per triple (both scores read
its one encoding, so its two heads' gradients are summed) and the reply
encoder two.

One function, ``_backward_encoder``, packs an encoder's rows, runs
back-propagation through time over both GRU directions and forms their
weight gradients.  The rows are sorted longest first and aligned to end
at the last step, so the rows alive at step ``t`` are a prefix of
``k[t]`` rows.  Each direction's step records (:class:`~.scorer.EncodeCache`)
and token ids are packed step by step into a (sum of k[t], 4H) array and
its ids, with no padding and no mask; the inputs are read back from the
embedding matrix by those ids.  One ``(k[t], H)`` state gradient walks
the steps from the last to the first, dropping the rows that start at
each step.  Weight and embedding gradients come from products over
blocks of at most ``_BLOCK_ROWS`` packed rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError
from .config import TrainConfig
from .scorer import (
    BiGruEncoder,
    EncodeCache,
    GruParams,
    ScoreCache,
    ScorerParams,
    TensorTree,
    _score_replies,
    score_with_cache,
    zero_scorer_params,
)

# A training sample: (query, positive_reply, negative_reply), each a token list.
Triple = tuple[list, list, list]

# Triples whose encoder backward passes run together.  Their encode
# caches stay alive until then, so this bounds the memory training adds:
# about 0.2 MiB per triple at H=64 and max_len=30 (0.18 MiB median and
# 0.22 MiB largest over 80 sub-batches of lengths with median 12).  8
# already amortizes most of the per-step cost of the backward loop.
_SUB_BATCH = 8
# Rows per weight-gradient product.  At H=64 and d=50 the largest product
# of 96 rows, ``d_a.T @ h_prev``, is 786,432 multiply-adds.  Measured on a
# 2-core machine with OpenBLAS 0.3.31, these products stayed on one thread
# (cpu/wall 0.84-1.00), while forward-layout products (``x @ W.T``) woke a
# second, spinning thread from 524,288: whether a product wakes it depends
# on its layout as well as its size.
_BLOCK_ROWS = 96


def margin_loss(s_pos: float, s_neg: float, margin: float) -> float:
    """Hinge on the score gap: zero once s_pos beats s_neg by ``margin``."""
    if not 0 < margin < math.inf:  # chained so that NaN and infinity fail too
        raise ValueError(f"margin must be positive and finite, got {margin}")
    return max(0.0, margin - s_pos + s_neg)


@dataclass
class Gradients(TensorTree):
    """d(mean loss)/d(tensor) for every scorer tensor.

    ``embeddings`` is a (V, d) matrix of input-vector gradients when
    fine-tuning is on, else None, and then ``tensors()`` leaves it out.
    """

    scorer: ScorerParams
    embeddings: np.ndarray | None = None


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
    for start in range(0, len(batch), _SUB_BATCH):
        # summed triple by triple, in batch order
        total = sum(_sub_batch(batch, start, params, vocab, matrix, config, grads, emb_grad),
                    total)

    gradients = Gradients(scorer=grads, embeddings=emb_grad)
    scale = 1.0 / len(batch)
    for _, arr in gradients.tensors():
        arr *= scale
    return gradients, total * scale


def _sub_batch(batch: list[Triple], start: int, params: ScorerParams, vocab,
               matrix: np.ndarray, config: TrainConfig, grads: ScorerParams,
               emb_grad: np.ndarray | None) -> list[float]:
    """Loss of each of the ``_SUB_BATCH`` triples from ``start``; adds their gradients.

    Each positive pair is one ``score_with_cache`` call; the negative
    replies are encoded in one call and scored against the query vectors
    the positive calls encoded.  The caches die on return, before the
    next sub-batch is encoded.
    """
    triples = batch[start:start + _SUB_BATCH]
    positives = [score_with_cache(query, pos, params, vocab, matrix, config.max_len)
                 for query, pos, _ in triples]
    negatives = _score_replies([cache.feats[:2 * params.hidden_size] for _, cache in positives],
                               [neg for _, _, neg in triples], params, vocab, matrix,
                               config.max_len)
    losses = []
    rows = []  # score caches of the hinge-active triples: positive, then negative
    for index, ((s_pos, cache_pos), (s_neg, cache_neg)) in enumerate(
            zip(positives, negatives), start):
        if not (math.isfinite(s_pos) and math.isfinite(s_neg)):
            raise NumericalError(
                f"non-finite score at batch index {index}: "
                f"s_pos={s_pos!r} s_neg={s_neg!r}"
            )
        losses.append(margin_loss(s_pos, s_neg, config.margin))
        if losses[-1] > 0.0:
            rows += [cache_pos, cache_neg]
    if rows:
        dq, dr = _backward_head(rows, params, grads)
        _backward_encoder([cache.query for cache in rows[::2]], dq[::2] + dq[1::2],
                          params.query_encoder, grads.query_encoder, matrix, emb_grad)
        _backward_encoder([cache.reply for cache in rows], dr,
                          params.reply_encoder, grads.reply_encoder, matrix, emb_grad)
    return losses


def _backward_head(
    rows: list[ScoreCache],
    params: ScorerParams,
    grads: ScorerParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate the head gradients of ``rows`` into ``grads``.

    ``rows`` alternates the positive and the negative pair of each
    active triple, whose scores have upstream gradients -1 and +1.
    Returns the (rows, 2H) gradients with respect to the query and
    reply sentence vectors.
    """
    feats = np.array([cache.feats for cache in rows])     # (rows, 4H+1)
    hidden = np.array([cache.hidden for cache in rows])   # (rows, m)
    scores = np.array([cache.score for cache in rows])
    dz = np.tile([-1.0, 1.0], len(rows) // 2) * scores * (1.0 - scores)  # logistic derivative
    grads.mlp_out_b += dz.sum()
    grads.mlp_out_w += dz @ hidden
    dpre = dz[:, None] * params.mlp_out_w * (1.0 - hidden ** 2)  # tanh derivative
    grads.mlp_hidden_b += dpre.sum(axis=0)
    grads.mlp_hidden_w += dpre.T @ feats
    dfeats = dpre @ params.mlp_hidden_w

    two_h = 2 * params.hidden_size
    qvecs, rvecs = feats[:, :two_h], feats[:, two_h:2 * two_h]
    dquad = dfeats[:, -1:]
    dq = dfeats[:, :two_h] + dquad * (rvecs @ params.bilinear.T)
    dr = dfeats[:, two_h:2 * two_h] + dquad * (qvecs @ params.bilinear)
    grads.bilinear += (dquad * qvecs).T @ rvecs
    return dq, dr


def _backward_encoder(
    caches: list[EncodeCache],
    dvecs: np.ndarray,
    encoder: BiGruEncoder,
    gencoder: BiGruEncoder,
    matrix: np.ndarray,
    emb_grad: np.ndarray | None,
) -> None:
    """BPTT through both directions of one encoder for every row at once.

    ``caches`` holds each row's forward cache and ``dvecs`` the (rows, 2H)
    gradients with respect to their sentence vectors.  The rows are
    sorted longest first (ties keep their order) and aligned to end at
    the last step, so the rows alive at step ``t`` are the first
    ``counts[t]`` of them; packed row ``i`` holds entry ``gather[i]`` of
    the row-major concatenation of a direction's step records and of its
    token ids, in the order that direction consumed them.  Each
    direction's six weight gradients follow from row blocks of its
    recorded pre-activation gradients; with ``emb_grad`` given, the input
    gradients of the packed rows are added to it.  ``matrix`` is the
    embedding matrix the forward pass read.
    """
    order = sorted(range(len(caches)), key=lambda i: len(caches[i].ids), reverse=True)
    caches = [caches[i] for i in order]
    dvecs = dvecs[order]
    lengths = np.array([len(cache.ids) for cache in caches])
    steps = lengths[0]
    t = np.arange(steps)[:, None]
    alive = t >= steps - lengths                             # (T, rows)
    gather = (np.cumsum(lengths) - steps + t)[alive]
    counts = alive.sum(axis=1)
    blocks = [slice(lo, lo + _BLOCK_ROWS) for lo in range(0, len(gather), _BLOCK_ROWS)]
    hidden = encoder.hidden_size
    ids = [cache.ids for cache in caches]
    for records, consumed, dh_last, p, gp in (
        ([c.fwd for c in caches], ids, dvecs[:, :hidden], encoder.forward, gencoder.forward),
        # the backward direction consumed each row reversed
        ([c.bwd for c in caches], [row[::-1] for row in ids], dvecs[:, hidden:],
         encoder.backward, gencoder.backward),
    ):
        tokens = np.concatenate(consumed)[gather]
        h_prev, reset, update, cand = np.split(np.concatenate(records)[gather], 4, axis=1)
        d_a, d_c = _packed_bptt(h_prev, reset, update, cand, counts, dh_last, p)
        xs = matrix[tokens]
        for rows in blocks:
            gp.w_gates += d_a[rows].T @ xs[rows]
            gp.u_gates += d_a[rows].T @ h_prev[rows]
            gp.w_cand += d_c[rows].T @ xs[rows]
            gp.u_cand += d_c[rows].T @ (reset[rows] * h_prev[rows])
        gp.b_gates += d_a.sum(axis=0)
        gp.b_cand += d_c.sum(axis=0)
        if emb_grad is not None:
            # np.add.at so repeated token ids accumulate instead of overwrite
            np.add.at(emb_grad, tokens, np.concatenate(
                [d_a[rows] @ p.w_gates + d_c[rows] @ p.w_cand for rows in blocks]))
        # free this direction's packed arrays before the next one packs its own
        del h_prev, reset, update, cand, d_a, d_c, xs


def _packed_bptt(h_prev, reset, update, cand, counts: np.ndarray, dh: np.ndarray,
                 p: GruParams):
    """Pre-activation gradients ``(d_a, d_c)`` of every packed row.

    ``h_prev``, ``reset``, ``update`` and ``cand`` are the (N, H) packed
    step values; ``a`` stacks the reset/update gate pre-activations
    (N, 2H) and ``c`` is the candidate pre-activation (N, H).  The steps
    run last to first; ``dh`` starts as the (rows, H) gradient of the
    final states and keeps its first ``counts[t]`` rows at step ``t``.
    The per-step gains live only in this frame and are freed on return,
    before the caller forms the weight gradients; the step values are
    views of the caller's packed array.
    """
    hidden = p.hidden_size
    # per-step factors that do not depend on the incoming gradient
    keep = 1.0 - update                                   # dh_prev / dh, direct path
    cand_gain = update * (1.0 - cand ** 2)                # dc / dh
    update_gain = (cand - h_prev) * update * keep         # d(update pre-act) / dh
    reset_gain = h_prev * reset * (1.0 - reset)           # d(reset pre-act) / d(reset*h)
    d_a = np.empty((len(keep), 2 * hidden))
    d_c = np.empty((len(keep), hidden))
    end = len(keep)
    for count in counts[::-1]:
        rows = slice(end - count, end)
        end -= count
        dh = dh[:count]  # rows that began one step later drop out
        dc = d_c[rows]
        da = d_a[rows]
        np.multiply(dh, cand_gain[rows], out=dc)
        drh = dc @ p.u_cand
        np.multiply(drh, reset_gain[rows], out=da[:, :hidden])
        np.multiply(dh, update_gain[rows], out=da[:, hidden:])
        dh = dh * keep[rows] + drh * reset[rows] + da @ p.u_gates
    # the gradient w.r.t. the initial zero state is discarded
    return d_a, d_c
