"""Negative sampling, Adam, and the training loop."""

import tracemalloc
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import random_scorer_params, separable_corpus, toy_vocab_matrix
from ruber.corpus import Dataset, QueryReplyPair
from ruber.errors import ConfigError, ValidationError
from ruber.unreferenced import TrainConfig, init_scorer_params, train, training
from ruber.unreferenced.gradients import Gradients, compute_gradients
from ruber.unreferenced.training import AdamState, adam_step, sample_negative


def _read_only(arr):
    arr.flags.writeable = False
    return arr


def _adam_state(params, *tuned):
    """Adam over every scorer tensor, then the ``tuned`` matrix if given, as ``train`` builds it."""
    return AdamState([arr for _, arr in params.tensors()] + list(tuned))


def _pairs(replies):
    return [QueryReplyPair([f"q{i}"], list(r)) for i, r in enumerate(replies)]


class TestSampleNegative:
    def test_two_pairs_forces_the_other_reply(self):
        pairs = _pairs([["a"], ["b"]])
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_negative(pairs, 0, rng) == ["b"]
            assert sample_negative(pairs, 1, rng) == ["a"]

    def test_never_returns_token_identical_reply(self):
        pairs = _pairs([["x"], ["x"], ["y"], ["x"]])
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert sample_negative(pairs, 0, rng) == ["y"]

    def test_all_identical_replies_exhaust_retries(self):
        pairs = _pairs([["a"], ["a"], ["a"]])
        rng = np.random.default_rng(2)
        with pytest.raises(ValidationError):
            sample_negative(pairs, 0, rng)

    def test_covers_all_eligible_replies(self):
        pairs = _pairs([["a"], ["b"], ["c"], ["d"]])
        rng = np.random.default_rng(3)
        seen = {tuple(sample_negative(pairs, 0, rng)) for _ in range(300)}
        assert seen == {("b",), ("c",), ("d",)}

    def test_needs_two_pairs_and_valid_index(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            sample_negative(_pairs([["a"]]), 0, rng)
        with pytest.raises(ValueError):
            sample_negative(_pairs([["a"], ["b"]]), 5, rng)

    def test_deterministic_given_rng_state(self):
        pairs = _pairs([["a"], ["b"], ["c"], ["d"], ["e"]])
        draws1 = [sample_negative(pairs, 2, np.random.default_rng(9)) for _ in range(1)]
        draws2 = [sample_negative(pairs, 2, np.random.default_rng(9)) for _ in range(1)]
        assert draws1 == draws2


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    def test_bad_values_raise_config_error(self):
        bad = [
            dict(hidden=0), dict(mlp_hidden=0), dict(margin=0.0),
            dict(margin=-1.0), dict(lr=0.0), dict(epochs=-1),
            dict(batch_size=0), dict(max_len=0),
            dict(beta1=1.0), dict(beta2=1.5), dict(eps=0.0),
            *(dict([(name, float("nan"))]) for name in ("margin", "lr", "eps", "beta1")),
        ]
        for kwargs in bad:
            with pytest.raises(ConfigError):
                TrainConfig(**kwargs).validate()

    def test_zero_epochs_allowed(self):
        TrainConfig(epochs=0).validate()


class TestAdamStep:
    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(60)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=6, dim=3)
        params = init_scorer_params(3, 2, 4, rng)
        config = TrainConfig(hidden=2, mlp_hidden=4, margin=1.0, lr=0.01,
                             fine_tune_embeddings=True)
        state = _adam_state(params, matrix)
        batch = [(["t0", "t1"], ["t2"], ["t3"])]

        # Keep scalar shadow copies of every tensor and an independent
        # elementwise Adam; run three consecutive steps.
        shadows = {name: arr.copy() for name, arr in params.tensors()}
        shadows["__emb__"] = matrix.copy()
        oracle_m = {k: np.zeros_like(v) for k, v in shadows.items()}
        oracle_v = {k: np.zeros_like(v) for k, v in shadows.items()}

        for step in range(1, 4):
            grads, _ = compute_gradients(batch, params, vocab, matrix, config)
            grad_map = {name: g.copy() for name, g in grads.scorer.tensors()}
            grad_map["__emb__"] = grads.embeddings.copy()
            adam_step(state, grads, config)
            for key, shadow in shadows.items():
                grad = grad_map[key]
                flat_val = shadow.reshape(-1)
                flat_g = grad.reshape(-1)
                flat_m = oracle_m[key].reshape(-1)
                flat_v = oracle_v[key].reshape(-1)
                for i in range(flat_val.size):
                    flat_val[i], flat_m[i], flat_v[i] = oracles.scalar_adam_update(
                        flat_val[i], flat_g[i], flat_m[i], flat_v[i],
                        step, config.lr, config.beta1, config.beta2, config.eps,
                    )
            for name, arr in params.tensors():
                assert_allclose(arr, shadows[name], atol=1e-10, err_msg=name)
            assert_allclose(matrix, shadows["__emb__"], atol=1e-10)
        assert state.t == 3

    @staticmethod
    def _assert_one_expression_bytes(dims, matrix, config, rng, steps=3):
        """``adam_step`` leaves every tensor with the one-expression update's bytes.

        ``dims`` are the scorer's embedding, hidden and MLP sizes.  Checked
        after each step; returns the one-expression update's final values.
        """
        params = random_scorer_params(*dims, rng)
        state = _adam_state(params, matrix)
        expected = [arr.copy() for _, arr in params.tensors()] + [matrix.copy()]
        moments = [(np.zeros_like(arr), np.zeros_like(arr)) for arr in expected]
        for t in range(1, steps + 1):
            grads = Gradients(random_scorer_params(*dims, rng),
                              rng.normal(0, 1, matrix.shape))
            adam_step(state, grads, config)
            c1, c2 = 1.0 - config.beta1 ** t, 1.0 - config.beta2 ** t
            flat = [g for _, g in grads.tensors()]
            for arr, grad, (m, v) in zip(expected, flat, moments):
                m *= config.beta1
                m += (1.0 - config.beta1) * grad
                v *= config.beta2
                v += (1.0 - config.beta2) * grad * grad
                arr -= config.lr * (m / c1) / (np.sqrt(v / c2) + config.eps)
            for (name, arr), want in zip([*params.tensors(), ("matrix", matrix)], expected):
                assert arr.tobytes() == want.tobytes(), name
        return expected

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray])
    def test_same_bytes_as_the_one_expression_update(self, layout):
        """In-place temporaries change no float, the 0-d ``mlp_out_b`` included.

        A Fortran-ordered matrix is walked in another memory order than
        its C-ordered gradient and moments.
        """
        rng = np.random.default_rng(62)
        config = TrainConfig(hidden=2, mlp_hidden=4, lr=0.01, fine_tune_embeddings=True)
        matrix = layout(rng.normal(0, 1, (5, 3)))
        expected = self._assert_one_expression_bytes((3, 2, 4), matrix, config, rng)
        assert expected[-2].ndim == 0  # mlp_out_b
        assert matrix.flags.f_contiguous == (layout is np.asfortranarray)

    @pytest.mark.parametrize("block", [training._ADAM_BLOCK, 7])
    def test_same_bytes_in_blocks_of_a_strided_view(self, monkeypatch, block):
        """Several chunks and a partial last one, written through a view to its base.

        At the real chunk size the 60,000-element (1500, 40) matrix is
        three chunks of 2^14 elements and one of 10,848; at 7 elements
        every scorer tensor but ``mlp_out_b`` spans several chunks too.
        """
        monkeypatch.setattr(training, "_ADAM_BLOCK", block)
        rng = np.random.default_rng(63)
        base = rng.normal(0, 1, (1500, 80))
        untouched = base[:, 1::2].copy()
        matrix = base[:, ::2]
        assert not matrix.flags.c_contiguous
        config = TrainConfig(hidden=3, mlp_hidden=5, lr=0.01, fine_tune_embeddings=True)
        expected = self._assert_one_expression_bytes((40, 3, 5), matrix, config, rng)
        assert base[:, ::2].tobytes() == expected[-1].tobytes()
        assert base[:, 1::2].tobytes() == untouched.tobytes()

    def test_traced_peak_does_not_grow_with_the_vocabulary(self):
        """A step over a 4 MiB matrix allocates only block-sized temporaries."""
        rng = np.random.default_rng(64)
        params = random_scorer_params(64, 2, 4, rng)
        matrix = rng.normal(0, 1, (8192, 64))
        assert matrix.nbytes >= 4 * 2 ** 20
        config = TrainConfig(hidden=2, mlp_hidden=4, fine_tune_embeddings=True)
        state = _adam_state(params, matrix)
        grads = Gradients(random_scorer_params(64, 2, 4, rng), rng.normal(0, 1, matrix.shape))
        tracemalloc.start()
        try:
            adam_step(state, grads, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("state_has_matrix", [False, True],
                             ids=["gradients-have-an-extra-slot", "gradients-lack-a-slot"])
    def test_gradient_count_must_match_the_state_before_any_tensor_moves(self,
                                                                          state_has_matrix):
        """With the matrix in the state only, a ``zip`` would have stepped the scorer and
        silently skipped the matrix."""
        rng = np.random.default_rng(61)
        vocab, matrix = toy_vocab_matrix(rng, n_tokens=4, dim=3)
        params = init_scorer_params(3, 2, 4, rng)
        config = TrainConfig(hidden=2, mlp_hidden=4, fine_tune_embeddings=not state_has_matrix)
        grads, _ = compute_gradients(
            [(["t0"], ["t1"], ["t2"])], params, vocab, matrix, config
        )
        state = _adam_state(params, matrix) if state_has_matrix else _adam_state(params)
        before = [a.copy() for a in [*state.tensors, *state.m, *state.v, matrix]]
        with pytest.raises(ValueError, match="gradients for"):
            adam_step(state, grads, config)
        after = [*state.tensors, *state.m, *state.v, matrix]
        assert all(np.array_equal(a, b) for a, b in zip(after, before, strict=True))
        assert state.t == 0


class TestTrain:
    def _tiny(self, rng, n=40):
        return separable_corpus(rng, n_pairs=n, n_topics=5, n_fillers=4, dim=6)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(70)
        dataset, vocab, matrix = self._tiny(rng)
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=2, batch_size=8, seed=5)
        p1, log1 = train(dataset, vocab, matrix.copy(), config)
        p2, log2 = train(dataset, vocab, matrix.copy(), config)
        for (n1, t1), (_, t2) in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(t1, t2), n1
        assert [(s.epoch, s.mean_loss, s.holdout_accuracy) for s in log1.epochs] == \
               [(s.epoch, s.mean_loss, s.holdout_accuracy) for s in log2.epochs]

    def test_a_batch_gradients_are_freed_before_the_next_batch(self, monkeypatch):
        rng = np.random.default_rng(76)
        dataset, vocab, matrix = self._tiny(rng)
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=2, batch_size=8, seed=5,
                             fine_tune_embeddings=True)
        earlier = []

        def compute_gradients_spy(*args):
            assert all(ref() is None for ref in earlier)
            grads, loss = compute_gradients(*args)
            earlier.append(weakref.ref(grads))
            return grads, loss

        monkeypatch.setattr(training, "compute_gradients", compute_gradients_spy)
        train(dataset, vocab, matrix, config)
        assert len(earlier) == 10  # 36 training pairs in batches of 8, twice

    def test_seed_changes_params(self):
        rng = np.random.default_rng(71)
        dataset, vocab, matrix = self._tiny(rng)
        c1 = TrainConfig(hidden=4, mlp_hidden=6, epochs=1, batch_size=8, seed=5)
        c2 = TrainConfig(hidden=4, mlp_hidden=6, epochs=1, batch_size=8, seed=6)
        p1, _ = train(dataset, vocab, matrix.copy(), c1)
        p2, _ = train(dataset, vocab, matrix.copy(), c2)
        assert any(
            not np.array_equal(t1, t2)
            for (_, t1), (_, t2) in zip(p1.tensors(), p2.tensors())
        )

    def test_zero_epochs_returns_untouched_init(self):
        rng = np.random.default_rng(72)
        dataset, vocab, matrix = self._tiny(rng)
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=0, seed=11)
        params, log = train(dataset, vocab, matrix, config)
        assert log.epochs == []
        reference = init_scorer_params(
            matrix.shape[1], 4, 6, np.random.default_rng(11)
        )
        for (n1, t1), (_, t2) in zip(params.tensors(), reference.tensors()):
            assert np.array_equal(t1, t2), n1

    def test_holdout_split_sizes(self):
        rng = np.random.default_rng(73)
        dataset, vocab, matrix = self._tiny(rng, n=50)
        config = TrainConfig(hidden=3, mlp_hidden=4, epochs=1, batch_size=8, seed=2)
        _, log = train(dataset, vocab, matrix, config)
        assert log.holdout_size == 5
        assert log.train_size == 45
        assert len(log.epochs) == 1
        assert log.epochs[0].epoch == 1

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(74)
        dataset, vocab, matrix = separable_corpus(rng, n_pairs=200, dim=8)
        config = TrainConfig(hidden=8, mlp_hidden=16, lr=5e-3, epochs=3,
                             batch_size=16, seed=3)
        _, log = train(dataset, vocab, matrix, config)
        assert log.epochs[-1].mean_loss < log.epochs[0].mean_loss

    def test_fine_tuning_mutates_matrix_in_place(self):
        rng = np.random.default_rng(75)
        dataset, vocab, matrix = self._tiny(rng)
        before = matrix.copy()
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=1, batch_size=8,
                             seed=4, fine_tune_embeddings=True)
        train(dataset, vocab, matrix, config)
        assert not np.array_equal(matrix, before)

    @pytest.mark.parametrize("convert", [
        lambda m: m.astype(np.float32), np.ndarray.tolist, _read_only,
    ], ids=["float32", "list", "read-only"])
    def test_fine_tuning_refuses_a_matrix_it_cannot_update_in_place(self, convert):
        """``np.asarray`` copied a float32 matrix or a list, so the caller's stayed unchanged."""
        rng = np.random.default_rng(79)
        dataset, vocab, matrix = self._tiny(rng)
        matrix = convert(matrix)
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=1, batch_size=8,
                             seed=4, fine_tune_embeddings=True)
        with pytest.raises(ValueError, match="writeable float64 ndarray"):
            train(dataset, vocab, matrix, config)

    def test_without_fine_tuning_matrix_untouched(self):
        rng = np.random.default_rng(76)
        dataset, vocab, matrix = self._tiny(rng)
        before = matrix.copy()
        config = TrainConfig(hidden=4, mlp_hidden=6, epochs=1, batch_size=8, seed=4)
        train(dataset, vocab, matrix, config)
        assert np.array_equal(matrix, before)

    def test_too_small_corpus_rejected(self):
        rng = np.random.default_rng(77)
        vocab, matrix = toy_vocab_matrix(rng)
        dataset = Dataset((QueryReplyPair(["t0"], ["t1"]),), source="tiny")
        config = TrainConfig(hidden=2, mlp_hidden=3, epochs=1)
        with pytest.raises(ValidationError):
            train(dataset, vocab, matrix, config)

    def test_invalid_config_rejected_before_work(self):
        rng = np.random.default_rng(78)
        dataset, vocab, matrix = self._tiny(rng)
        with pytest.raises(ConfigError):
            train(dataset, vocab, matrix, TrainConfig(hidden=0))
