"""Independent re-implementations used as test oracles.

Everything here is deliberately written in a different style from the
library: pure-Python scalar loops over lists, ``math.exp`` based
logistic, dict-based n-gram counting, brute-force subsequence search,
and mpmath extended precision for the statistics.  Agreement between
these and the vectorized library code is what the oracle tests assert.
The exceptions are :func:`loop_compute_gradients`, a frozen copy of an
earlier numpy implementation of the scorer's backward pass,
:func:`padded_batch_loss`, the scorer's batched forward as it was
written with left-padded rows, :func:`listed_scorer_init`, the
scorer's initializer as it was written out tensor by tensor, and
:func:`per_field_save_checkpoint`, the checkpoint writer as it packed
each header field with its own ``struct.pack``.
"""

from __future__ import annotations

import bisect
import math

import mpmath as mp
import numpy as np


# ---------------------------------------------------------------------------
# scalar-loop recurrent scorer


def _sig(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _matvec(mat, vec):
    return [sum(row[j] * vec[j] for j in range(len(vec))) for row in mat]


def scalar_gru_step(x, h_prev, w_gates, u_gates, b_gates, w_cand, u_cand, b_cand):
    """One GRU step on plain lists; gate rows are reset-first."""
    hidden = len(h_prev)
    pre = _matvec(w_gates, x)
    rec = _matvec(u_gates, h_prev)
    gates = [_sig(pre[i] + b_gates[i] + rec[i]) for i in range(2 * hidden)]
    reset = gates[:hidden]
    update = gates[hidden:]
    masked = [reset[i] * h_prev[i] for i in range(hidden)]
    cand_pre = _matvec(w_cand, x)
    cand_rec = _matvec(u_cand, masked)
    cand = [math.tanh(cand_pre[i] + b_cand[i] + cand_rec[i]) for i in range(hidden)]
    return [
        (1.0 - update[i]) * h_prev[i] + update[i] * cand[i] for i in range(hidden)
    ]


def _gru_params_as_lists(params):
    return (
        params.w_gates.tolist(),
        params.u_gates.tolist(),
        params.b_gates.tolist(),
        params.w_cand.tolist(),
        params.u_cand.tolist(),
        params.b_cand.tolist(),
    )


def scalar_run_direction(xs, params):
    """Final hidden state after consuming ``xs`` (list of vectors) in order."""
    h = [0.0] * params.hidden_size
    mats = _gru_params_as_lists(params)
    for x in xs:
        h = scalar_gru_step(x, h, *mats)
    return h


def scalar_encode(utterance, encoder, vocab, matrix, max_len=50):
    rows = [matrix[vocab.id_of(tok)].tolist() for tok in utterance[:max_len]]
    fwd = scalar_run_direction(rows, encoder.forward)
    bwd = scalar_run_direction(list(reversed(rows)), encoder.backward)
    return fwd + bwd


def scalar_unreferenced_score(query, reply, params, vocab, matrix, max_len=50):
    q = scalar_encode(query, params.query_encoder, vocab, matrix, max_len)
    r = scalar_encode(reply, params.reply_encoder, vocab, matrix, max_len)
    bil = params.bilinear.tolist()
    quad = sum(q[i] * sum(bil[i][j] * r[j] for j in range(len(r))) for i in range(len(q)))
    feats = q + r + [quad]
    w_h = params.mlp_hidden_w.tolist()
    b_h = params.mlp_hidden_b.tolist()
    hidden = [
        math.tanh(sum(w_h[i][j] * feats[j] for j in range(len(feats))) + b_h[i])
        for i in range(len(b_h))
    ]
    w_o = params.mlp_out_w.tolist()
    z = sum(w_o[i] * hidden[i] for i in range(len(hidden))) + float(params.mlp_out_b)
    return _sig(z)


# ---------------------------------------------------------------------------
# scalar Adam


def scalar_adam_update(value, grad, m, v, t, lr, beta1, beta2, eps):
    """One elementwise Adam step; returns (new_value, new_m, new_v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return value - lr * m_hat / (math.sqrt(v_hat) + eps), m, v


# ---------------------------------------------------------------------------
# skip-gram with negative sampling


def scalar_train_sgns(dataset, dim, window, negatives, epochs, lr, min_count, seed):
    """Skip-gram trainer in scalar loops; returns ``(vocab, rows, stats)``.

    Makes the library's RNG calls with the same shapes in the same order,
    maps each noise draw with ``bisect_right`` on the same cumulative
    unigram^0.75 table, and updates one centre word per block: every
    gradient is taken from the rows as they were before the block, then
    the centre row and the targets' context rows are updated.  ``rows``
    is the input-vector matrix as lists; ``stats`` counts noise draws
    dropped for equalling their context word (``dropped``) and blocks in
    which some target occurs more than once (``repeated``).  The
    vocabulary and the sentence streams come from the library's
    ``build_vocab``; only the training itself is re-implemented.
    """
    from ruber.corpus import build_vocab, utterances_of

    vocab = build_vocab(dataset, min_count=min_count)
    sentences = []
    counts = [0.0] * len(vocab)
    for pair in dataset:
        for utt in utterances_of(pair):
            ids = [i for i in (vocab.id_of(t) for t in utt) if i != 0]
            if ids:
                sentences.append(ids)
                for i in ids:
                    counts[i] += 1.0

    rng = np.random.default_rng(seed)
    vectors = [[(x - 0.5) / dim for x in row]
               for row in rng.random((len(vocab), dim)).tolist()]
    context = [[0.0] * dim for _ in range(len(vocab))]
    noise = np.array(counts[1:]) ** 0.75
    cdf = np.cumsum(noise / noise.sum()).tolist()

    stats = dict(dropped=0, repeated=0)
    total = sum(len(s) for s in sentences) * epochs
    processed = 0
    for _ in range(epochs):
        for sent in sentences:
            alpha = max(lr * (1.0 - processed / total), lr * 1e-4)
            processed += len(sent)
            n = len(sent)
            radii = rng.integers(1, window + 1, size=n).tolist()
            windows = [[j for j in range(max(0, p - r), min(n, p + r + 1)) if j != p]
                       for p, r in enumerate(radii)]
            draws = rng.random((sum(map(len, windows)), negatives)).tolist()
            slot = 0
            for center, ctx_positions in zip(sent, windows):
                block = []
                for j in ctx_positions:
                    block.append((sent[j], 1.0))
                    for u in draws[slot]:
                        target = bisect.bisect_right(cdf, u) + 1
                        if target == sent[j]:
                            stats["dropped"] += 1
                        else:
                            block.append((target, 0.0))
                    slot += 1
                if len({t for t, _ in block}) < len(block):
                    stats["repeated"] += 1
                vec = vectors[center]
                gs = [alpha * (label - _sig(sum(o * v for o, v in zip(context[t], vec))))
                      for t, label in block]
                delta = [0.0] * dim
                for (t, _), g in zip(block, gs):
                    delta = [acc + g * o for acc, o in zip(delta, context[t])]
                for (t, _), g in zip(block, gs):
                    context[t] = [c + g * v for c, v in zip(context[t], vec)]
                vectors[center] = [v + dv for v, dv in zip(vec, delta)]

    vectors[0] = [sum(col) / (len(vocab) - 1) for col in zip(*vectors[1:])]
    return vocab, vectors, stats


# ---------------------------------------------------------------------------
# brute-force sequence metrics


def _is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(any(tok == h for h in it) for tok in needle)


def brute_force_lcs(a, b):
    """Longest common subsequence length by enumerating subsequences.

    Walks every subsequence of the shorter side (2^len masks) and keeps
    the longest one that also occurs in the other side.  Exponential,
    only for short inputs.
    """
    if len(a) > len(b):
        a, b = b, a
    best = 0
    for mask in range(1 << len(a)):
        picked = [a[i] for i in range(len(a)) if (mask >> i) & 1]
        if len(picked) > best and _is_subsequence(picked, b):
            best = len(picked)
    return best


def dict_bleu(candidate, reference, n):
    """Clipped-precision sentence BLEU with dict counting and a log sum."""
    if len(candidate) < n:
        return float("nan")
    log_sum = 0.0
    for k in range(1, n + 1):
        cand_counts: dict = {}
        for i in range(len(candidate) - k + 1):
            gram = tuple(candidate[i:i + k])
            cand_counts[gram] = cand_counts.get(gram, 0) + 1
        ref_counts: dict = {}
        for i in range(len(reference) - k + 1):
            gram = tuple(reference[i:i + k])
            ref_counts[gram] = ref_counts.get(gram, 0) + 1
        clipped = sum(min(c, ref_counts.get(g, 0)) for g, c in cand_counts.items())
        total = sum(cand_counts.values())
        if clipped == 0:
            return 0.0
        log_sum += math.log(clipped / total)
    brevity = min(1.0, math.exp(1.0 - len(reference) / len(candidate)))
    return brevity * math.exp(log_sum / n)


def brute_force_rouge_l(candidate, reference):
    if not candidate:
        return 0.0
    lcs = brute_force_lcs(candidate, reference)
    if lcs == 0:
        return 0.0
    precision = lcs / len(candidate)
    recall = lcs / len(reference)
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# scorer parameter layout


def listed_scorer_init(embed_dim, hidden, mlp_hidden, rng):
    """``[(dotted name, tensor)]`` of fresh scorer parameters, listed by hand.

    This is the checkpoint layout: every tensor in declaration order,
    weights drawn Xavier-uniform with their fans spelled out, biases and
    the bilinear form at zero.
    """
    def xavier(shape, fan_in, fan_out):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    d, h, m = embed_dim, hidden, mlp_hidden
    listed = []
    for prefix in ("query_encoder.forward.", "query_encoder.backward.",
                   "reply_encoder.forward.", "reply_encoder.backward."):
        listed += [
            (prefix + "w_gates", xavier((2 * h, d), d, 2 * h)),
            (prefix + "u_gates", xavier((2 * h, h), h, 2 * h)),
            (prefix + "b_gates", np.zeros(2 * h)),
            (prefix + "w_cand", xavier((h, d), d, h)),
            (prefix + "u_cand", xavier((h, h), h, h)),
            (prefix + "b_cand", np.zeros(h)),
        ]
    return listed + [
        ("bilinear", np.zeros((2 * h, 2 * h))),
        ("mlp_hidden_w", xavier((m, 4 * h + 1), 4 * h + 1, m)),
        ("mlp_hidden_b", np.zeros(m)),
        ("mlp_out_w", xavier(m, m, 1)),
        ("mlp_out_b", np.zeros(())),
    ]


# ---------------------------------------------------------------------------
# scalar blends


def scalar_blend(x, y, strategy):
    """One blend of two normalized scores with builtin ``min``/``max``/``math.sqrt``.

    ``strategy`` is the string value; inputs outside [0, 1] by more than
    1e-9 raise ``ValueError``, inputs within that slack are clipped.
    """
    for value in (x, y):
        if not (-1e-9 <= value <= 1.0 + 1e-9):
            raise ValueError(f"blend input {value!r} lies outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    y = min(max(y, 0.0), 1.0)
    if strategy == "min":
        return min(x, y)
    if strategy == "max":
        return max(x, y)
    if strategy == "arithmetic":
        return 0.5 * (x + y)
    if x == y:
        return x
    lo, hi = (x, y) if x < y else (y, x)
    product = x * y
    value = math.sqrt(product) if product > 0.0 else math.sqrt(x) * math.sqrt(y)
    return min(max(value, lo), hi)


# ---------------------------------------------------------------------------
# extended-precision statistics


def mp_pearson_r(x, y, dps=50):
    """Pearson r at ``dps`` decimal digits, returned as a float."""
    with mp.workdps(dps):
        xs = [mp.mpf(repr(float(v))) for v in x]
        ys = [mp.mpf(repr(float(v))) for v in y]
        n = len(xs)
        mx = mp.fsum(xs) / n
        my = mp.fsum(ys) / n
        cov = mp.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
        vx = mp.fsum((a - mx) ** 2 for a in xs)
        vy = mp.fsum((b - my) ** 2 for b in ys)
        return float(cov / mp.sqrt(vx * vy))


def mp_t_two_tailed_p(r, n, dps=50):
    """Two-tailed p for Pearson r by integrating the t density numerically."""
    with mp.workdps(dps):
        rr = mp.mpf(repr(float(r)))
        df = mp.mpf(n - 2)
        denom = 1 - rr * rr
        if denom <= 0:
            return 0.0
        t = abs(rr * mp.sqrt(df / denom))
        const = mp.gamma((df + 1) / 2) / (mp.sqrt(df * mp.pi) * mp.gamma(df / 2))

        def density(u):
            return const * (1 + u * u / df) ** (-(df + 1) / 2)

        tail = mp.quad(density, [t, mp.inf])
        return float(2 * tail)


def average_ranks(values):
    """1-based average ranks with ties sharing the mean rank."""
    order = sorted(range(len(values)), key=lambda i: (values[i], i))
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        shared = (i + j + 2) / 2.0  # mean of 1-based positions i+1 .. j+1
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def mp_spearman_rho(x, y, dps=50):
    return mp_pearson_r(average_ranks(list(x)), average_ranks(list(y)), dps)


def mp_regularized_incomplete_beta(a, b, x, dps=50):
    with mp.workdps(dps):
        return float(mp.betainc(a, b, 0, x, regularized=True))


# ---------------------------------------------------------------------------
# byte-level FNV-1a (independent of the library's vectorized-ish loop)


def fnv1a_64(payload: bytes) -> int:
    value = 14695981039346656037  # 0xCBF29CE484222325
    for byte in payload:
        value = ((value ^ byte) * 1099511628211) % (1 << 64)
    return value


# ---------------------------------------------------------------------------
# per-step BPTT over a list-of-tuples cache
#
# A frozen copy of the scorer forward pass and hand-derived backward pass
# as they stood before the stacked caches: one tuple per step, one
# np.outer per weight tensor per step, and one query backward pass per
# score.  The library's product-per-tensor backward pass must agree with it.


def _loop_run_direction(xs, params):
    hidden = params.hidden_size
    gate_in = xs @ params.w_gates.T + params.b_gates
    cand_in = xs @ params.w_cand.T + params.b_cand
    h = np.zeros(hidden)
    steps = []
    for t in range(xs.shape[0]):
        gates = 0.5 * (1.0 + np.tanh(0.5 * (gate_in[t] + params.u_gates @ h)))
        reset, update = gates[:hidden], gates[hidden:]
        cand = np.tanh(cand_in[t] + params.u_cand @ (reset * h))
        h_new = (1.0 - update) * h + update * cand
        steps.append((h, reset, update, cand))
        h = h_new
    return h, steps


def _loop_encode(utterance, encoder, vocab, matrix, max_len):
    ids = [vocab.id_of(tok) for tok in utterance[:max_len]]
    xs = matrix[ids]
    xs_rev = xs[::-1]
    h_fwd, steps_fwd = _loop_run_direction(xs, encoder.forward)
    h_bwd, steps_bwd = _loop_run_direction(xs_rev, encoder.backward)
    vec = np.concatenate([h_fwd, h_bwd])
    return dict(ids=ids, fwd=(xs, steps_fwd), bwd=(xs_rev, steps_bwd), vec=vec)


def _loop_score(query, reply, params, vocab, matrix, max_len):
    qcache = _loop_encode(query, params.query_encoder, vocab, matrix, max_len)
    rcache = _loop_encode(reply, params.reply_encoder, vocab, matrix, max_len)
    qvec, rvec = qcache["vec"], rcache["vec"]
    quad = float(qvec @ params.bilinear @ rvec)
    feats = np.concatenate([qvec, rvec, [quad]])
    hidden = np.tanh(params.mlp_hidden_w @ feats + params.mlp_hidden_b)
    z = float(params.mlp_out_w @ hidden) + float(params.mlp_out_b)
    score = 0.5 * (1.0 + math.tanh(0.5 * z))
    score = min(max(score, 1e-300), float(np.nextafter(1.0, 0.0)))
    return score, dict(query=qcache, reply=rcache, feats=feats, hidden=hidden, score=score)


def _loop_backward_direction(xs, steps, dh_last, p, gp, dxs):
    dh = np.array(dh_last)
    for t in range(len(steps) - 1, -1, -1):
        h_prev, reset, update, cand = steps[t]
        x_t = xs[t]

        dcand = dh * update
        dupdate = dh * (cand - h_prev)
        dh_prev = dh * (1.0 - update)

        dc = dcand * (1.0 - cand ** 2)
        gp.w_cand += np.outer(dc, x_t)
        gp.b_cand += dc
        gp.u_cand += np.outer(dc, reset * h_prev)
        drh = p.u_cand.T @ dc
        dreset = drh * h_prev
        dh_prev = dh_prev + drh * reset

        da = np.concatenate([
            dreset * reset * (1.0 - reset),
            dupdate * update * (1.0 - update),
        ])
        gp.w_gates += np.outer(da, x_t)
        gp.b_gates += da
        gp.u_gates += np.outer(da, h_prev)
        dh_prev = dh_prev + p.u_gates.T @ da

        if dxs is not None:
            dxs[t] += p.w_gates.T @ da + p.w_cand.T @ dc
        dh = dh_prev


def _loop_backward_encode(ecache, dvec, encoder, gencoder, emb_grad):
    hidden = encoder.hidden_size
    xs, steps_fwd = ecache["fwd"]
    xs_rev, steps_bwd = ecache["bwd"]
    dxs = np.zeros_like(xs) if emb_grad is not None else None
    _loop_backward_direction(xs, steps_fwd, dvec[:hidden], encoder.forward,
                             gencoder.forward, dxs)
    dxs_view = dxs[::-1] if dxs is not None else None
    _loop_backward_direction(xs_rev, steps_bwd, dvec[hidden:], encoder.backward,
                             gencoder.backward, dxs_view)
    if emb_grad is not None:
        np.add.at(emb_grad, ecache["ids"], dxs)


def _loop_backward_score(cache, upstream, params, grads, emb_grad):
    s = cache["score"]
    dz = upstream * s * (1.0 - s)
    grads.mlp_out_b += dz
    grads.mlp_out_w += dz * cache["hidden"]
    dhidden = dz * params.mlp_out_w
    dpre = dhidden * (1.0 - cache["hidden"] ** 2)
    grads.mlp_hidden_b += dpre
    grads.mlp_hidden_w += np.outer(dpre, cache["feats"])
    dfeats = params.mlp_hidden_w.T @ dpre

    qvec, rvec = cache["query"]["vec"], cache["reply"]["vec"]
    two_h = qvec.shape[0]
    dquad = dfeats[-1]
    dq = dfeats[:two_h] + dquad * (params.bilinear @ rvec)
    dr = dfeats[two_h:2 * two_h] + dquad * (params.bilinear.T @ qvec)
    grads.bilinear += dquad * np.outer(qvec, rvec)

    _loop_backward_encode(cache["query"], dq, params.query_encoder,
                          grads.query_encoder, emb_grad)
    _loop_backward_encode(cache["reply"], dr, params.reply_encoder,
                          grads.reply_encoder, emb_grad)


def loop_compute_gradients(batch, params, vocab, matrix, config):
    """Mean margin loss gradients by per-step BPTT.

    Returns ``(scorer_grads, embedding_grads_or_None, mean_loss)``.
    """
    from ruber.unreferenced import zero_scorer_params

    grads = zero_scorer_params(params.embed_dim, params.hidden_size, params.mlp_size)
    emb_grad = np.zeros_like(matrix) if config.fine_tune_embeddings else None
    total = 0.0
    for query, pos, neg in batch:
        s_pos, cache_pos = _loop_score(query, pos, params, vocab, matrix, config.max_len)
        s_neg, cache_neg = _loop_score(query, neg, params, vocab, matrix, config.max_len)
        loss = max(0.0, config.margin - s_pos + s_neg)
        total += loss
        if loss > 0.0:
            _loop_backward_score(cache_pos, -1.0, params, grads, emb_grad)
            _loop_backward_score(cache_neg, +1.0, params, grads, emb_grad)
    scale = 1.0 / len(batch)
    for _, arr in grads.tensors():
        arr *= scale
    if emb_grad is not None:
        emb_grad *= scale
    return grads, emb_grad, total * scale


# ---------------------------------------------------------------------------
# padded batch forward
#
# A frozen copy of the scorer's batched forward as it stood while the GRU
# forward also took (T, B) batches.  Every row is left-padded to the
# longest; at a padded step the update-gate pre-activation is -inf, so
# the update gate is exactly 0 and the state passes through unchanged.
# A batch costs one recurrence per direction per encoder and one head
# call, which keeps finite-difference sweeps over the mean loss fast.

_BELOW_ONE = float(np.nextafter(1.0, 0.0))


def padded_run_rows(xs, params, h, pad):
    """Final (B, H) states of one GRU direction over time-major (T, B, d) inputs.

    ``pad`` (T, B) marks the steps that lie outside a row.
    """
    hidden = params.hidden_size
    gate_in = xs @ params.w_gates.T + params.b_gates
    cand_in = xs @ params.w_cand.T + params.b_cand
    gate_in[pad, hidden:] = -np.inf
    u_gates, u_cand = params.u_gates.T, params.u_cand.T
    for t in range(len(xs)):
        gates = 0.5 * (1.0 + np.tanh(0.5 * (gate_in[t] + h @ u_gates)))
        reset, update = gates[..., :hidden], gates[..., hidden:]
        cand = np.tanh(cand_in[t] + (reset * h) @ u_cand)
        h = (1.0 - update) * h + update * cand
    return h


def padded_encode(utterances, encoder, vocab, matrix, max_len):
    """Sentence vectors (B, 2H) of ``utterances``, left-padded to the longest.

    Every row ends at the last step: the forward direction holds a padded
    row at the zero state until the row starts, and the backward
    direction carries the row's final state through the padding.
    """
    rows = [[vocab.id_of(tok) for tok in utt[:max_len]] for utt in utterances]
    steps = max(map(len, rows))
    ids = np.zeros((steps, len(rows)), dtype=np.intp)
    for b, row in enumerate(rows):
        ids[steps - len(row):, b] = row
    pad = np.arange(steps)[:, None] < [steps - len(row) for row in rows]
    xs = matrix[ids]
    h0 = np.zeros((len(rows), encoder.hidden_size))
    h_fwd = padded_run_rows(xs, encoder.forward, h0, pad)
    h_bwd = padded_run_rows(xs[::-1], encoder.backward, h0, pad[::-1])
    return np.concatenate([h_fwd, h_bwd], axis=-1)


def padded_batch_loss(batch, params, vocab, matrix, config):
    """Mean margin loss over ``batch`` of (query, good reply, bad reply) triples.

    The queries are encoded once and all replies together; one head call
    scores every pair.
    """
    queries, positives, negatives = zip(*batch)
    qvecs = padded_encode(queries, params.query_encoder, vocab, matrix, config.max_len)
    rvecs = padded_encode(positives + negatives, params.reply_encoder, vocab, matrix,
                          config.max_len)
    qvecs = np.concatenate([qvecs, qvecs])
    quad = (qvecs @ params.bilinear)[..., None, :] @ rvecs[..., :, None]
    feats = np.concatenate([qvecs, rvecs, quad[..., 0]], axis=-1)
    hidden = np.tanh(feats @ params.mlp_hidden_w.T + params.mlp_hidden_b)
    z = hidden @ params.mlp_out_w + params.mlp_out_b
    scores = [min(max(0.5 * (1.0 + math.tanh(0.5 * v)), 1e-300), _BELOW_ONE)
              for v in z.tolist()]
    n = len(batch)
    total = sum(max(0.0, config.margin - s_pos + s_neg)
                for s_pos, s_neg in zip(scores[:n], scores[n:]))
    return total / n


# ---------------------------------------------------------------------------
# frozen whole-input readers


def whole_text_load_embeddings(path):
    """The embedding reader that split the whole file text into lines first.

    ``str.splitlines`` also breaks lines at form feeds, ``\\x85``,
    ``\\u2028`` and the other Unicode line separators.
    """
    from array import array

    from ruber.errors import ParseError
    from ruber.vocabulary import UNK_TOKEN, Vocabulary

    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ParseError(path, 1, "empty embedding file")

    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(path, 1, "header must be '<vocab_size> <dim>'")
    try:
        declared, dim = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(path, 1, "header must hold two integers") from exc
    if declared < 1 or dim < 1:
        raise ParseError(path, 1, f"header values must be positive, got {declared} {dim}")
    if len(lines) - 1 != declared:
        raise ParseError(
            path, len(lines),
            f"header declares {declared} rows but file has {len(lines) - 1}",
        )

    seen: dict[str, None] = {}
    values = array("d")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != dim + 1:
            raise ParseError(
                path, lineno,
                f"expected a token and {dim} values, found {len(parts)} field(s)",
            )
        token = parts[0]
        if token in seen:
            first = list(seen).index(token) + 2
            raise ParseError(path, lineno, f"token {token!r} repeats line {first}")
        seen[token] = None
        try:
            row = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ParseError(path, lineno, "vector component is not a number") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(path, lineno, "vector contains a non-finite component")
        values.extend(row)
    rows = np.frombuffer(values).reshape(declared, dim)

    if UNK_TOKEN in seen:
        at = list(seen).index(UNK_TOKEN)
        del seen[UNK_TOKEN]
        matrix = np.vstack([rows[at:at + 1], rows[:at], rows[at + 1:]])
    else:
        matrix = np.vstack([rows.mean(axis=0, keepdims=True), rows])
    return Vocabulary(seen), matrix


def string_cells_read_score_table(path):
    """The score-table reader that kept every cell as a string until the end.

    It took every column after the first k + 1 as a metric, whatever the
    header's order.
    """
    from ruber.corpus import VALID_SCORES
    from ruber.errors import ParseError
    from ruber.scoretable import ScoreTable, _parse_normalization

    normalization = {}
    source = ""
    header = None
    header_line = 1
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("source:"):
                    source = comment[len("source:"):].strip()
                elif comment.startswith("normalization:"):
                    try:
                        name, lo, hi = _parse_normalization(comment)
                    except ValueError as exc:
                        raise ParseError(path, lineno, str(exc)) from exc
                    normalization[name] = (lo, hi)
                continue
            if header is None:
                header, header_line = line.split("\t"), lineno
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ParseError(
                    path, lineno,
                    f"expected {len(header)} columns, found {len(cells)}",
                )
            rows.append((lineno, cells))
    if header is None or not rows:
        raise ParseError(path, header_line, "no table content found")

    k = sum(1 for name in header if name.startswith("human_") and name != "human_mean")
    if k < 1 or "human_mean" not in header:
        raise ParseError(path, header_line, "missing annotator columns or human_mean")
    metric_names = header[k + 1:]
    human_rows = []
    metric_rows = []
    for lineno, cells in rows:
        try:
            human_rows.append([int(cells[j]) for j in range(k)])
            metric_rows.append([float(cells[k + 1 + j])
                                for j in range(len(metric_names))])
        except ValueError as exc:
            raise ParseError(path, lineno, f"non-numeric cell: {exc}") from exc
        bad = [v for v in human_rows[-1] if v not in VALID_SCORES]
        if bad:
            raise ParseError(path, lineno, f"human score {bad[0]} is not in {{0, 1, 2}}")
    human = np.array(human_rows, dtype=int)
    columns = np.array(metric_rows)
    metrics = {name: columns[:, j].copy() for j, name in enumerate(metric_names)}
    return ScoreTable(human, metrics, normalization, source)


# ---------------------------------------------------------------------------
# frozen checkpoint writer


def per_field_save_checkpoint(params, config, vocab_hash, path):
    """The checkpoint writer that packed every header field and dimension alone."""
    import json
    import struct
    from dataclasses import asdict

    blob = dict(asdict(config), embed_dim=params.embed_dim)
    encoded = json.dumps(blob, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"RUBR")
        fh.write(struct.pack("<H", 1))
        fh.write(struct.pack("<I", len(encoded)))
        fh.write(encoded)
        fh.write(struct.pack("<Q", vocab_hash))
        for _, arr in params.tensors():
            quantized = np.asarray(arr, dtype="<f4", order="C")
            fh.write(struct.pack("<I", quantized.ndim))
            for dim in quantized.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(quantized.tobytes())
