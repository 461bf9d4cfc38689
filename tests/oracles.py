"""Independent re-implementations used as test oracles.

Everything here is deliberately written in a different style from the
library: pure-Python scalar loops over lists, ``math.exp`` based
logistic, dict-based n-gram counting, brute-force subsequence search,
and mpmath extended precision for the statistics.  Agreement between
these and the vectorized library code is what the oracle tests assert.
The one exception is :func:`loop_compute_gradients`, a frozen copy of an
earlier numpy implementation of the scorer's backward pass.
"""

from __future__ import annotations

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
    grads = params.copy()
    for _, arr in grads.tensors():
        arr[...] = 0.0
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
