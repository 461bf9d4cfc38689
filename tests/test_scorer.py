"""Recurrent query-reply scorer: forward pass against a scalar oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import random_scorer_params, random_utterance, toy_vocab_matrix
from ruber.unreferenced import (
    encode,
    gru_step,
    init_scorer_params,
    sigmoid,
    unreferenced_score,
    zero_scorer_params,
)
from ruber.unreferenced.scorer import GruParams, _encode_batch, _run_rows


def _zero_gru(hidden=3, dim=4):
    return GruParams(
        np.zeros((2 * hidden, dim)), np.zeros((2 * hidden, hidden)),
        np.zeros(2 * hidden),
        np.zeros((hidden, dim)), np.zeros((hidden, hidden)), np.zeros(hidden),
    )


def _random_gru(rng, hidden, dim, scale=0.4):
    return GruParams(
        rng.normal(0, scale, (2 * hidden, dim)),
        rng.normal(0, scale, (2 * hidden, hidden)),
        rng.normal(0, scale, 2 * hidden),
        rng.normal(0, scale, (hidden, dim)),
        rng.normal(0, scale, (hidden, hidden)),
        rng.normal(0, scale, hidden),
    )


class TestSigmoid:
    def test_matches_exp_form(self):
        xs = np.linspace(-30, 30, 401)
        expected = [oracles._sig(float(x)) for x in xs]
        assert_allclose(sigmoid(xs), expected, atol=1e-14)

    def test_extreme_inputs_stay_finite(self):
        out = sigmoid(np.array([-1e5, -750.0, 750.0, 1e5]))
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0


class TestGruStep:
    def test_zero_params_halve_state(self):
        h_prev = np.array([0.2, -0.4, 1.0])
        out = gru_step(np.ones(4), h_prev, _zero_gru())
        assert_allclose(out, 0.5 * h_prev, atol=0)

    def test_zero_params_zero_state(self):
        out = gru_step(np.ones(4), np.zeros(3), _zero_gru())
        assert_allclose(out, np.zeros(3), atol=0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            params = _random_gru(rng, 3, 4)
            x = rng.normal(0, 1, 4)
            h = rng.normal(0, 1, 3)
            got = gru_step(x, h, params)
            want = oracles.scalar_gru_step(
                x.tolist(), h.tolist(), *oracles._gru_params_as_lists(params)
            )
            assert_allclose(got, want, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gru_step(np.ones(5), np.zeros(3), _zero_gru(hidden=3, dim=4))


class TestEncode:
    def test_zero_params_give_zero_vector(self):
        rng = np.random.default_rng(32)
        vocab, matrix = toy_vocab_matrix(rng)
        params = zero_scorer_params(4, 3, 5)
        out = encode(["t0", "t1"], params.query_encoder, vocab, matrix)
        assert_allclose(out, np.zeros(6), atol=0)

    def test_single_token_with_tied_directions(self):
        rng = np.random.default_rng(33)
        vocab, matrix = toy_vocab_matrix(rng)
        direction = _random_gru(rng, 3, 4)
        from ruber.unreferenced.scorer import BiGruEncoder
        encoder = BiGruEncoder(direction, direction)
        out = encode(["t2"], encoder, vocab, matrix)
        assert_allclose(out[:3], out[3:], atol=0)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(34)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=8, dim=3)
        params = random_scorer_params(3, 2, 4, rng)
        utterance = ["t0", "t3", "t7"]
        got = encode(utterance, params.query_encoder, vocab, matrix)
        want = oracles.scalar_encode(utterance, params.query_encoder, vocab, matrix)
        assert_allclose(got, want, atol=1e-12)

    def test_truncation_at_max_len(self):
        rng = np.random.default_rng(35)
        vocab, matrix = toy_vocab_matrix(rng)
        params = random_scorer_params(4, 3, 5, rng)
        long = [f"t{i % 8}" for i in range(12)]
        truncated = encode(long, params.query_encoder, vocab, matrix, max_len=4)
        explicit = encode(long[:4], params.query_encoder, vocab, matrix, max_len=4)
        assert_allclose(truncated, explicit, atol=0)

    def test_empty_utterance_rejected(self):
        rng = np.random.default_rng(36)
        vocab, matrix = toy_vocab_matrix(rng)
        params = zero_scorer_params(4, 3, 5)
        with pytest.raises(ValueError):
            encode([], params.query_encoder, vocab, matrix)

    def test_max_len_below_one_rejected(self):
        rng = np.random.default_rng(37)
        vocab, matrix = toy_vocab_matrix(rng)
        params = zero_scorer_params(4, 3, 5)
        with pytest.raises(ValueError):
            encode(["t0"], params.query_encoder, vocab, matrix, max_len=0)


class TestUnreferencedScore:
    def test_all_zero_params_give_half(self):
        rng = np.random.default_rng(38)
        vocab, matrix = toy_vocab_matrix(rng)
        params = zero_scorer_params(4, 3, 5)
        score = unreferenced_score(["t0"], ["t1", "t2"], params, vocab, matrix)
        assert score == 0.5

    def test_zero_output_layer_gives_half(self):
        rng = np.random.default_rng(39)
        vocab, matrix = toy_vocab_matrix(rng)
        params = random_scorer_params(4, 3, 5, rng)
        params.mlp_out_w[:] = 0.0
        params.mlp_out_b[...] = 0.0
        score = unreferenced_score(["t0"], ["t1"], params, vocab, matrix)
        assert score == 0.5

    def test_open_unit_interval(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            vocab, matrix = toy_vocab_matrix(rng, n_tokens=6, dim=3)
            params = random_scorer_params(3, 2, 4, rng)
            q = random_utterance(rng, 6, 5)
            r = random_utterance(rng, 6, 5)
            s = unreferenced_score(q, r, params, vocab, matrix)
            assert 0.0 < s < 1.0

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(41)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=9, dim=4)
        params = random_scorer_params(4, 3, 5, rng)
        q = ["t0", "t4", "t8"]
        r = ["t2", "t6"]
        got = unreferenced_score(q, r, params, vocab, matrix)
        want = oracles.scalar_unreferenced_score(q, r, params, vocab, matrix)
        assert abs(got - want) <= 1e-12


class TestInitScorerParams:
    def test_deterministic_per_rng_state(self):
        a = init_scorer_params(4, 3, 5, np.random.default_rng(1))
        b = init_scorer_params(4, 3, 5, np.random.default_rng(1))
        for (n1, t1), (_, t2) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(t1, t2), n1

    def test_names_order_and_draws_match_listed_layout(self):
        got = list(init_scorer_params(4, 3, 5, np.random.default_rng(7)).tensors())
        want = oracles.listed_scorer_init(4, 3, 5, np.random.default_rng(7))
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, g), (_, w) in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), name

    def test_biases_and_bilinear_start_at_zero(self):
        params = init_scorer_params(4, 3, 5, np.random.default_rng(2))
        assert np.all(params.bilinear == 0)
        assert np.all(params.mlp_hidden_b == 0)
        assert float(params.mlp_out_b) == 0.0
        assert np.all(params.query_encoder.forward.b_gates == 0)

    def test_weight_bounds_follow_fan_sizes(self):
        params = init_scorer_params(6, 4, 8, np.random.default_rng(3))
        w = params.query_encoder.forward.w_gates
        limit = np.sqrt(6.0 / (6 + 2 * 4))
        assert np.max(np.abs(w)) <= limit
        assert np.max(np.abs(w)) > 0.5 * limit  # actually fills the range

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_scorer_params(0, 3, 5, np.random.default_rng(0))


class TestPaddedRows:
    """Rows of unequal length encoded together, left-padded to the longest."""

    def test_each_row_matches_its_one_row_encode(self):
        rng = np.random.default_rng(42)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=6, dim=4)
        params = random_scorer_params(4, 3, 5, rng)
        rows = [["t0", "t1", "t2", "t3", "t4", "t5"], ["t3"], ["t1", "t1", "t4"],
                ["t5", "t0", "t2", "t2", "t1", "t3", "t4"]]
        vecs = _encode_batch(rows, params.reply_encoder, vocab, matrix, max_len=6)
        for row, vec in zip(rows, vecs):
            want = encode(row, params.reply_encoder, vocab, matrix, max_len=6)
            assert np.max(np.abs(vec - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_state_is_zero_before_a_row_starts_and_frozen_after_it_ends(self):
        rng = np.random.default_rng(43)
        direction = _random_gru(rng, 3, 4)
        long, short = rng.normal(0, 1, (5, 4)), rng.normal(0, 1, (2, 4))
        xs = np.stack([long, np.concatenate([np.ones((3, 4)), short])], axis=1)
        pad = np.zeros((5, 2), dtype=bool)
        pad[:3, 1] = True
        h0 = np.zeros((2, 3))

        def states(inputs, mask):
            return [_run_rows(inputs[:t], direction, h0, mask[:t])[0][1]
                    for t in range(1, len(inputs) + 1)]

        forward = states(xs, pad)
        for t in range(3):
            assert np.all(forward[t] == 0.0) and not np.any(np.signbit(forward[t]))
        assert_allclose(forward[-1], _run_rows(short, direction, np.zeros(3))[0], atol=1e-12)

        backward = states(xs[::-1], pad[::-1])
        for t in range(2, 5):
            assert np.array_equal(backward[t], backward[1])
        assert_allclose(backward[1], _run_rows(short[::-1], direction, np.zeros(3))[0],
                        atol=1e-12)
