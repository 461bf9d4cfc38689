"""Margin ranking loss and hand-derived backpropagation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import random_scorer_params, random_utterance, toy_vocab_matrix
from ruber.errors import NumericalError
from ruber.unreferenced import TrainConfig, gradients, scorer, unreferenced_score
from ruber.unreferenced.gradients import _SUB_BATCH, compute_gradients, margin_loss


def _random_triple(rng, vocab_size=8, max_tokens=4):
    return (
        random_utterance(rng, vocab_size, max_tokens),
        random_utterance(rng, vocab_size, max_tokens),
        random_utterance(rng, vocab_size, max_tokens),
    )


def _fd_gradient(batch, params, vocab, matrix, config, tensor, index, step=1e-5):
    """Central finite difference of the mean batch loss at one entry.

    The loss is the frozen padded batch forward, which
    ``TestBatchLossAgainstLoopOracle`` ties to the scorer's per-pair scores.
    """
    original = tensor[index]
    tensor[index] = original + step
    up = oracles.padded_batch_loss(batch, params, vocab, matrix, config)
    tensor[index] = original - step
    down = oracles.padded_batch_loss(batch, params, vocab, matrix, config)
    tensor[index] = original
    return (up - down) / (2.0 * step)


class TestMarginLoss:
    def test_clamp_active(self):
        assert margin_loss(0.9, 0.2, 0.5) == 0.0

    def test_direct_arithmetic(self):
        assert margin_loss(0.5, 0.4, 0.5) == pytest.approx(0.4, abs=1e-15)

    def test_equal_scores_give_margin(self):
        assert margin_loss(0.3, 0.3, 0.5) == 0.5

    def test_margin_must_be_positive(self):
        with pytest.raises(ValueError):
            margin_loss(0.5, 0.5, 0.0)
        with pytest.raises(ValueError):
            margin_loss(0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            margin_loss(0.5, 0.5, float("nan"))


class TestComputeGradients:
    def _setup(self, seed, margin=1.0, fine_tune=False):
        rng = np.random.default_rng(seed)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=8, dim=4)
        params = random_scorer_params(4, 3, 5, rng)
        config = TrainConfig(hidden=3, mlp_hidden=5, margin=margin,
                             fine_tune_embeddings=fine_tune)
        batch = [_random_triple(rng) for _ in range(2)]
        return rng, vocab, matrix, params, config, batch

    def test_identical_replies_lose_exactly_the_margin(self):
        """s_pos == s_neg cancels exactly, leaving the bare margin."""
        _, vocab, matrix, params, _, _ = self._setup(50)
        config = TrainConfig(hidden=3, mlp_hidden=5, margin=0.5)
        batch = [(["t0", "t1"], ["t2"], ["t2"])]
        _, loss = compute_gradients(batch, params, vocab, matrix, config)
        assert loss == 0.5

    def test_forced_zero_gradients_via_large_gap(self):
        """A sample whose hinge is inactive contributes exactly zero."""
        rng, vocab, matrix, params, config, batch = self._setup(52)
        # Evaluate each sample; keep only those with zero per-sample loss
        # under a margin so small any positive gap satisfies it.
        tiny = TrainConfig(hidden=3, mlp_hidden=5, margin=1e-12)
        from ruber.unreferenced import unreferenced_score
        satisfied = []
        for q, pos, neg in batch + [_random_triple(rng) for _ in range(20)]:
            sp = unreferenced_score(q, pos, params, vocab, matrix)
            sn = unreferenced_score(q, neg, params, vocab, matrix)
            if sp - sn >= 1e-6:
                satisfied.append((q, pos, neg))
        assert satisfied, "expected at least one naturally satisfied sample"
        grads, loss = compute_gradients(satisfied, params, vocab, matrix, tiny)
        assert loss == 0.0
        for name, tensor in grads.scorer.tensors():
            assert np.all(tensor == 0.0), name

    def test_finite_differences_spot_check(self):
        rng, vocab, matrix, params, config, batch = self._setup(53)
        grads, loss = compute_gradients(batch, params, vocab, matrix, config)
        assert loss > 0.0
        probes = [
            (params.bilinear, grads.scorer.bilinear, (1, 2)),
            (params.mlp_hidden_w, grads.scorer.mlp_hidden_w, (0, 3)),
            (params.mlp_out_w, grads.scorer.mlp_out_w, (2,)),
            (params.query_encoder.forward.w_gates,
             grads.scorer.query_encoder.forward.w_gates, (1, 2)),
            (params.reply_encoder.backward.u_cand,
             grads.scorer.reply_encoder.backward.u_cand, (0, 1)),
            (params.query_encoder.backward.b_gates,
             grads.scorer.query_encoder.backward.b_gates, (4,)),
        ]
        for tensor, grad, index in probes:
            fd = _fd_gradient(batch, params, vocab, matrix, config, tensor, index)
            analytic = grad[index]
            denom = max(abs(fd), abs(analytic), 1e-7)
            assert abs(fd - analytic) / denom < 1e-4

    def test_embedding_gradient_only_when_fine_tuning(self):
        _, vocab, matrix, params, config, batch = self._setup(54, fine_tune=False)
        grads, _ = compute_gradients(batch, params, vocab, matrix, config)
        assert grads.embeddings is None
        _, vocab, matrix, params, config, batch = self._setup(54, fine_tune=True)
        grads, loss = compute_gradients(batch, params, vocab, matrix, config)
        assert grads.embeddings is not None
        assert grads.embeddings.shape == matrix.shape
        if loss > 0:
            assert np.any(grads.embeddings != 0)

    def test_embedding_gradient_finite_difference(self):
        rng, vocab, matrix, params, config, batch = self._setup(55, fine_tune=True)
        grads, loss = compute_gradients(batch, params, vocab, matrix, config)
        assert loss > 0.0
        used_ids = sorted({
            vocab.id_of(tok)
            for q, pos, neg in batch
            for tok in q + pos + neg
        })
        probe = (used_ids[0], 1)
        fd = _fd_gradient(batch, params, vocab, matrix, config, matrix, probe)
        analytic = grads.embeddings[probe]
        denom = max(abs(fd), abs(analytic), 1e-7)
        assert abs(fd - analytic) / denom < 1e-4

    def test_repeated_token_gradients_accumulate(self):
        """A token appearing twice gets both contributions, not the last one."""
        rng = np.random.default_rng(56)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=4, dim=3)
        params = random_scorer_params(3, 2, 4, rng)
        config = TrainConfig(hidden=2, mlp_hidden=4, margin=1.0,
                             fine_tune_embeddings=True)
        batch = [(["t0", "t0", "t0"], ["t1"], ["t2"])]
        grads, loss = compute_gradients(batch, params, vocab, matrix, config)
        assert loss > 0.0
        probe = (vocab.id_of("t0"), 0)
        fd = _fd_gradient(batch, params, vocab, matrix, config, matrix, probe)
        denom = max(abs(fd), abs(grads.embeddings[probe]), 1e-7)
        assert abs(fd - grads.embeddings[probe]) / denom < 1e-4

    def test_mean_loss_scaling(self):
        """Doubling a batch by repetition leaves mean loss and grads unchanged."""
        _, vocab, matrix, params, config, batch = self._setup(57)
        g1, l1 = compute_gradients(batch, params, vocab, matrix, config)
        g2, l2 = compute_gradients(batch + batch, params, vocab, matrix, config)
        assert l1 == pytest.approx(l2, abs=1e-15)
        for (n1, t1), (_, t2) in zip(g1.scorer.tensors(), g2.scorer.tensors()):
            assert_allclose(t1, t2, atol=1e-15, err_msg=n1)

    def test_non_finite_params_raise_numerical_error(self):
        _, vocab, matrix, params, config, batch = self._setup(58)
        params.bilinear[0, 0] = np.nan
        with pytest.raises(NumericalError):
            compute_gradients(batch, params, vocab, matrix, config)

    def test_empty_batch_rejected(self):
        _, vocab, matrix, params, config, _ = self._setup(59)
        with pytest.raises(ValueError, match="batch must not be empty"):
            compute_gradients([], params, vocab, matrix, config)

    def test_each_query_is_encoded_once(self, monkeypatch):
        """One query encode per triple: the negative reuses the positive's.

        Counts the utterances each encoder reads, over every encode call.
        """
        rng, vocab, matrix, params, config, _ = self._setup(60)
        batch = [_random_triple(rng) for _ in range(_SUB_BATCH + 3)]
        rows = []
        encode = scorer._encode

        def counting(utterances, encoders, *args, **kwargs):
            rows.extend(encoders)
            return encode(utterances, encoders, *args, **kwargs)

        monkeypatch.setattr(scorer, "_encode", counting)
        compute_gradients(batch, params, vocab, matrix, config)
        assert sum(e is params.query_encoder for e in rows) == len(batch)
        assert sum(e is params.reply_encoder for e in rows) == 2 * len(batch)

    def test_scores_equal_unreferenced_score(self, monkeypatch):
        """Both scores of every triple are bitwise the public scorer's."""
        rng, vocab, matrix, params, _, _ = self._setup(61)
        config = TrainConfig(hidden=3, mlp_hidden=5, max_len=4)
        batch = [_random_triple(rng, max_tokens=7) for _ in range(_SUB_BATCH + 3)]
        seen = []
        hinge = gradients.margin_loss

        def recording(s_pos, s_neg, margin):
            seen.append((s_pos, s_neg))
            return hinge(s_pos, s_neg, margin)

        monkeypatch.setattr(gradients, "margin_loss", recording)
        compute_gradients(batch, params, vocab, matrix, config)
        assert seen == [
            tuple(unreferenced_score(query, reply, params, vocab, matrix, config.max_len)
                  for reply in (pos, neg))
            for query, pos, neg in batch
        ]

    def test_batch_loss_matches_gradient_loss(self):
        _, vocab, matrix, params, config, batch = self._setup(59)
        _, loss = compute_gradients(batch, params, vocab, matrix, config)
        padded = oracles.padded_batch_loss(batch, params, vocab, matrix, config)
        assert padded == pytest.approx(loss, abs=1e-15)


# ---------------------------------------------------------------------------
# agreement with the per-step BPTT oracle

ORACLE_INSTANCES = 50
ORACLE_RTOL = 1e-12


def _oracle_instance(index):
    """A seeded (batch, params, vocab, matrix, config) for the loop oracle.

    Instance 0 runs at the benchmark's dimensions (d=50, H=64, m=128).
    The others draw small dimensions over a vocabulary of 3-6 tokens, so
    token ids repeat within and across query and reply, and utterances
    run up to three tokens past ``max_len``.  Fine-tuning alternates.
    Every third instance uses a margin no triple satisfies; the others
    orient each triple and pick the margin so even-indexed triples are
    satisfied (inactive hinge) and odd-indexed ones are not.
    """
    rng = np.random.default_rng(7000 + index)
    if index == 0:
        dim, hidden, mlp, n_tokens, max_len, n_triples = 50, 64, 128, 40, 30, 3
    else:
        dim, hidden, mlp = (int(v) for v in rng.integers(2, 7, size=3))
        n_tokens = int(rng.integers(3, 7))
        max_len = int(rng.integers(2, 6))
        n_triples = int(rng.integers(1, 5))
    vocab, matrix = toy_vocab_matrix(rng, n_tokens=n_tokens, dim=dim)
    params = random_scorer_params(dim, hidden, mlp, rng)
    batch = []
    for _ in range(n_triples):
        query = random_utterance(rng, n_tokens, max_len + 3)
        pos = random_utterance(rng, n_tokens, max_len + 3)
        neg = random_utterance(rng, n_tokens, max_len + 3)
        if rng.random() < 0.5:
            pos = query[::-1]  # same ids on both sides of the match
        batch.append((query, pos, neg))
    fine_tune = index % 2 == 1
    margin = 2.0
    if index % 3 != 0:
        oriented, gaps = [], []
        for i, (query, pos, neg) in enumerate(batch):
            gap = (unreferenced_score(query, pos, params, vocab, matrix, max_len)
                   - unreferenced_score(query, neg, params, vocab, matrix, max_len))
            if (gap < 0.0) == (i % 2 == 0):
                pos, neg, gap = neg, pos, -gap
            oriented.append((query, pos, neg))
            gaps.append(gap)
        batch = oriented
        satisfied = [g for g in gaps if g > 0.0]
        if satisfied:
            margin = 0.5 * min(satisfied)
    config = TrainConfig(hidden=hidden, mlp_hidden=mlp, margin=margin,
                         max_len=max_len, fine_tune_embeddings=fine_tune)
    return batch, params, vocab, matrix, config


def _within_oracle_tolerance(got, ref):
    return np.max(np.abs(got - ref)) <= ORACLE_RTOL * max(1.0, np.max(np.abs(ref)))


def _assert_matches_loop_oracle(batch, params, vocab, matrix, config):
    grads, loss = compute_gradients(batch, params, vocab, matrix, config)
    ref_scorer, ref_emb, ref_loss = oracles.loop_compute_gradients(
        batch, params, vocab, matrix, config
    )
    assert loss == ref_loss
    for (name, got), (_, ref) in zip(grads.scorer.tensors(), ref_scorer.tensors()):
        assert _within_oracle_tolerance(got, ref), name
    if config.fine_tune_embeddings:
        assert _within_oracle_tolerance(grads.embeddings, ref_emb)
    else:
        assert grads.embeddings is None and ref_emb is None


def _hinges_active(batch, params, vocab, matrix, config):
    return [margin_loss(
        unreferenced_score(query, pos, params, vocab, matrix, config.max_len),
        unreferenced_score(query, neg, params, vocab, matrix, config.max_len),
        config.margin,
    ) > 0.0 for query, pos, neg in batch]


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("index", range(ORACLE_INSTANCES))
    def test_matches_per_step_bptt(self, index):
        _assert_matches_loop_oracle(*_oracle_instance(index))

    def test_instances_cover_the_listed_cases(self):
        seen = set()
        for index in range(ORACLE_INSTANCES):
            batch, params, vocab, matrix, config = _oracle_instance(index)
            seen.add(("fine_tune", config.fine_tune_embeddings))
            if params.embed_dim == 50 and params.hidden_size == 64 and params.mlp_size == 128:
                seen.add("benchmark dims")
            for query, pos, neg in batch:
                if max(map(len, (query, pos, neg))) > config.max_len:
                    seen.add("truncated")
                if len(set(query)) < len(query):
                    seen.add("repeat within")
                if set(query) & (set(pos) | set(neg)):
                    seen.add("repeat across")
            hinges = _hinges_active(batch, params, vocab, matrix, config)
            if any(hinges) and not all(hinges):
                seen.add("some hinges inactive")
        assert seen == {
            ("fine_tune", True), ("fine_tune", False), "benchmark dims", "truncated",
            "repeat within", "repeat across", "some hinges inactive",
        }


# ---------------------------------------------------------------------------
# the step records the forward pass keeps for BPTT, against the loop oracle


class TestStepRecords:
    @pytest.mark.parametrize("index", range(8))
    def test_match_per_step_values(self, index):
        """Each row is the step's (state entering it, reset, update, candidate)."""
        batch, params, vocab, matrix, config = _oracle_instance(index)
        query, reply, _ = batch[0]
        reply = reply * (config.max_len + 1)  # a row truncated at max_len
        _, cache = scorer.score_with_cache(query, reply, params, vocab, matrix, config.max_len)
        for utterance, encoder, got in [(query, params.query_encoder, cache.query),
                                        (reply, params.reply_encoder, cache.reply)]:
            ref = oracles._loop_encode(utterance, encoder, vocab, matrix, config.max_len)
            assert got.ids == ref["ids"]
            for direction in ("fwd", "bwd"):
                want = np.array([np.hstack(step) for step in ref[direction][1]])
                assert getattr(got, direction).shape == want.shape
                assert _within_oracle_tolerance(getattr(got, direction), want), direction


# ---------------------------------------------------------------------------
# packed BPTT over batches of several sub-batches, against the loop oracle

PACKED_INSTANCES = 16


def _packed_instance(index):
    """A seeded (batch, params, vocab, matrix, config) spanning sub-batches.

    Instance 0 runs at the benchmark's dimensions and instance 1 holds a
    single triple; the others hold two or three full sub-batches and a
    remainder.  Every fourth instance gives all utterances one length, so
    the length sort meets only ties; the others draw ragged lengths.
    Lengths run up to three tokens past ``max_len``.  Fine-tuning
    alternates.  Every third instance uses a margin no triple satisfies;
    the others orient each triple and pick the margin so that every hinge
    of the second sub-batch and of the odd-indexed triples is inactive.
    """
    rng = np.random.default_rng(11000 + index)
    if index == 0:
        dim, hidden, mlp, n_tokens, max_len = 50, 64, 128, 40, 30
    else:
        dim, hidden, mlp = (int(v) for v in rng.integers(2, 7, size=3))
        n_tokens = int(rng.integers(3, 7))
        max_len = int(rng.integers(2, 6))
    vocab, matrix = toy_vocab_matrix(rng, n_tokens=n_tokens, dim=dim)
    params = random_scorer_params(dim, hidden, mlp, rng)
    if index == 1:
        n_triples = 1
    else:
        n_triples = (int(rng.integers(2, 4)) * _SUB_BATCH
                     + int(rng.integers(1, _SUB_BATCH)))
    shortest, longest = 1, max_len + 3
    if index % 4 == 3:
        shortest = longest = int(rng.integers(1, max_len + 4))
    batch = [tuple(random_utterance(rng, n_tokens, longest, min_tokens=shortest)
                   for _ in range(3)) for _ in range(n_triples)]
    margin = 2.0
    if index % 3 != 0:
        oriented, satisfied = [], []
        for i, (query, pos, neg) in enumerate(batch):
            gap = (unreferenced_score(query, pos, params, vocab, matrix, max_len)
                   - unreferenced_score(query, neg, params, vocab, matrix, max_len))
            inactive = i // _SUB_BATCH == 1 or i % 2 == 1
            if (gap < 0.0) == inactive:
                pos, neg, gap = neg, pos, -gap
            oriented.append((query, pos, neg))
            if inactive and gap > 0.0:
                satisfied.append(gap)
        batch = oriented
        margin = 0.5 * min(satisfied) if satisfied else 1.0
    config = TrainConfig(hidden=hidden, mlp_hidden=mlp, margin=margin, max_len=max_len,
                         fine_tune_embeddings=index % 2 == 1)
    return batch, params, vocab, matrix, config


class TestPackedAgainstLoopOracle:
    @pytest.mark.parametrize("index", range(PACKED_INSTANCES))
    def test_matches_per_step_bptt(self, index):
        _assert_matches_loop_oracle(*_packed_instance(index))

    def test_instances_cover_the_listed_cases(self):
        seen = set()
        for index in range(PACKED_INSTANCES):
            batch, params, vocab, matrix, config = _packed_instance(index)
            seen.add(("fine_tune", config.fine_tune_embeddings))
            if params.embed_dim == 50 and params.hidden_size == 64 and params.mlp_size == 128:
                seen.add("benchmark dims")
            n = len(batch)
            if n == 1:
                seen.add("single triple")
            if n > 2 * _SUB_BATCH and n % _SUB_BATCH:
                seen.add("sub-batches and a remainder")
            rows = [u for triple in batch for u in triple]
            lengths = [min(len(u), config.max_len) for u in rows]
            seen.add("equal lengths" if len(set(lengths)) == 1 else "ragged")
            if any(len(u) > config.max_len for u in rows):
                seen.add("truncated")
            hinges = _hinges_active(batch, params, vocab, matrix, config)
            subs = [hinges[i:i + _SUB_BATCH] for i in range(0, n, _SUB_BATCH)]
            if any(hinges) and not all(map(any, subs)):
                seen.add("idle sub-batch")
        assert seen == {
            ("fine_tune", True), ("fine_tune", False), "benchmark dims", "single triple",
            "sub-batches and a remainder", "equal lengths", "ragged", "truncated",
            "idle sub-batch",
        }


# ---------------------------------------------------------------------------
# the head backward, once per sub-batch, against the loop oracle

HEAD_INSTANCES = 12
_ACTIVE_SHARES = ("none", "one", "some", "all")


def _head_instance(index):
    """A seeded (batch, params, vocab, matrix, config) with chosen active hinges.

    Every fourth instance holds a single active triple; the others hold
    two full sub-batches and a remainder.  Sub-batch ``s`` makes none,
    one, some or all of its triples active, in turn with ``index + s``:
    each triple is oriented so that its score gap is negative (active)
    or positive, and the margin is half the smallest positive gap.
    Fine-tuning alternates.
    """
    rng = np.random.default_rng(13000 + index)
    dim, hidden, mlp = (int(v) for v in rng.integers(2, 7, size=3))
    n_tokens, max_len = int(rng.integers(3, 7)), int(rng.integers(2, 6))
    vocab, matrix = toy_vocab_matrix(rng, n_tokens=n_tokens, dim=dim)
    params = random_scorer_params(dim, hidden, mlp, rng)
    n_triples = 1 if index % 4 == 3 else 2 * _SUB_BATCH + int(rng.integers(1, _SUB_BATCH))
    active = []
    for start in range(0, n_triples, _SUB_BATCH):
        size = min(_SUB_BATCH, n_triples - start)
        share = _ACTIVE_SHARES[(index + start // _SUB_BATCH) % 4] if n_triples > 1 else "all"
        count = {"none": 0, "one": 1, "some": max(1, size // 2), "all": size}[share]
        chosen = set(rng.choice(size, count, replace=False).tolist())
        active += [i in chosen for i in range(size)]
    batch, satisfied = [], []
    for wanted in active:
        query, pos, neg = (random_utterance(rng, n_tokens, max_len + 3) for _ in range(3))
        gap = (unreferenced_score(query, pos, params, vocab, matrix, max_len)
               - unreferenced_score(query, neg, params, vocab, matrix, max_len))
        if (gap > 0.0) == wanted:
            pos, neg, gap = neg, pos, -gap
        batch.append((query, pos, neg))
        if gap > 0.0:
            satisfied.append(gap)
    config = TrainConfig(hidden=hidden, mlp_hidden=mlp, max_len=max_len,
                         margin=0.5 * min(satisfied) if satisfied else 1.0,
                         fine_tune_embeddings=index % 2 == 1)
    return batch, params, vocab, matrix, config


class TestHeadBackwardAgainstLoopOracle:
    @pytest.mark.parametrize("index", range(HEAD_INSTANCES))
    def test_matches_per_pair_head(self, index):
        _assert_matches_loop_oracle(*_head_instance(index))

    def test_instances_cover_the_listed_cases(self):
        seen = set()
        for index in range(HEAD_INSTANCES):
            batch, params, vocab, matrix, config = _head_instance(index)
            seen.add(("fine_tune", config.fine_tune_embeddings))
            n = len(batch)
            if n > 2 * _SUB_BATCH and n % _SUB_BATCH:
                seen.add("sub-batches and a remainder")
            hinges = _hinges_active(batch, params, vocab, matrix, config)
            if hinges == [True]:
                seen.add("single active triple")
            for start in range(0, n, _SUB_BATCH):
                sub = hinges[start:start + _SUB_BATCH]
                if len(sub) > 2:
                    seen.add(("active in a sub-batch",
                              "none" if not any(sub) else "one" if sum(sub) == 1
                              else "all" if all(sub) else "some"))
        assert seen == {
            ("fine_tune", True), ("fine_tune", False), "sub-batches and a remainder",
            "single active triple", *(("active in a sub-batch", share)
                                      for share in _ACTIVE_SHARES),
        }


# ---------------------------------------------------------------------------
# the padded batch loss (rows encoded together) against the per-pair scorer

BATCH_INSTANCES = 40


def _batch_instance(index):
    """A seeded (batch, params, vocab, matrix, config) of 1-5 triples.

    Instance 0 runs at the benchmark's dimensions.  Every fourth
    instance gives all utterances one length; the others draw ragged
    lengths up to three tokens past ``max_len``.  Vocabularies of 3-6
    tokens repeat ids within and across rows.  The margin is 2.0 (every
    hinge active) or 0.05 (some satisfied) in turn.
    """
    rng = np.random.default_rng(9000 + index)
    if index == 0:
        dim, hidden, mlp, n_tokens, max_len = 50, 64, 128, 40, 30
    else:
        dim, hidden, mlp = (int(v) for v in rng.integers(2, 7, size=3))
        n_tokens = int(rng.integers(3, 7))
        max_len = int(rng.integers(2, 6))
    vocab, matrix = toy_vocab_matrix(rng, n_tokens=n_tokens, dim=dim)
    params = random_scorer_params(dim, hidden, mlp, rng)
    n_triples = int(rng.integers(1, 6))
    shortest, longest = 1, max_len + 3
    if index % 4 == 1:
        shortest = longest = int(rng.integers(1, max_len + 1))
    batch = [tuple(random_utterance(rng, n_tokens, longest, min_tokens=shortest)
                   for _ in range(3)) for _ in range(n_triples)]
    config = TrainConfig(hidden=hidden, mlp_hidden=mlp, max_len=max_len,
                         margin=2.0 if index % 2 == 0 else 0.05)
    return batch, params, vocab, matrix, config


def _per_pair_mean_hinge(batch, params, vocab, matrix, config):
    total = 0.0
    for query, pos, neg in batch:
        s_pos, s_neg = (unreferenced_score(query, reply, params, vocab, matrix, config.max_len)
                        for reply in (pos, neg))
        total += margin_loss(s_pos, s_neg, config.margin)
    return total / len(batch)


class TestBatchLossAgainstLoopOracle:
    @pytest.mark.parametrize("index", range(BATCH_INSTANCES))
    def test_matches_mean_hinge_of_per_pair_scores(self, index):
        batch, params, vocab, matrix, config = _batch_instance(index)
        got = oracles.padded_batch_loss(batch, params, vocab, matrix, config)
        want = _per_pair_mean_hinge(batch, params, vocab, matrix, config)
        assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_instances_cover_the_listed_cases(self):
        seen = set()
        for index in range(BATCH_INSTANCES):
            batch, params, vocab, matrix, config = _batch_instance(index)
            rows = [u for triple in batch for u in triple]
            lengths = {min(len(u), config.max_len) for u in rows}
            seen.add("ragged" if len(lengths) > 1 else "equal lengths")
            seen.add(("triples", len(batch)))
            if any(len(u) > config.max_len for u in rows):
                seen.add("truncated")
            if any(len(set(u)) < len(u) for u in rows):
                seen.add("repeat within")
            if params.embed_dim == 50 and params.hidden_size == 64:
                seen.add("benchmark dims")
        assert seen >= {
            "ragged", "equal lengths", "truncated", "repeat within", "benchmark dims",
            *(("triples", n) for n in range(1, 6)),
        }
