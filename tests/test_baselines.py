"""Sentence-level BLEU and ROUGE-L."""

import math

import numpy as np
import pytest

import oracles
from conftest import random_utterance
from ruber.baselines import bleu, lcs_length, rouge_l


class TestBleuWorkedExamples:
    def test_perfect_match(self):
        sent = "the cat sat".split()
        assert bleu(sent, sent, 1) == pytest.approx(1.0)
        assert bleu(sent, sent, 2) == pytest.approx(1.0)
        assert bleu(sent, sent, 3) == pytest.approx(1.0)

    def test_clipping(self):
        score = bleu("the the the".split(), "the cat".split(), 1)
        assert score == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_shared_bigram_is_exact_zero(self):
        cand = "yes it is".split()
        ref = "it is so".split()  # shares unigrams but the bigrams differ
        assert bleu(["totally", "different"], ["words", "here"], 2) == 0.0
        assert bleu(cand, ref, 2) != 0.0  # sanity: shared bigram "it is"
        assert bleu("b a c".split(), "a b c".split(), 2) == 0.0

    def test_short_candidate_is_nan(self):
        assert math.isnan(bleu(["word"], ["some", "reference"], 2))
        assert math.isnan(bleu("a b c".split(), "a b c d".split(), 4))

    def test_brevity_penalty(self):
        # candidate shorter than reference: BP = exp(1 - |ref|/|cand|)
        score = bleu(["the", "cat"], ["the", "cat", "sat", "down"], 1)
        assert score == pytest.approx(math.exp(1.0 - 4.0 / 2.0), abs=1e-12)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            bleu(["a"], ["a"], 0)
        with pytest.raises(ValueError):
            bleu(["a"], ["a"], 5)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            bleu(["a"], [], 1)

    def test_empty_candidate_is_nan(self):
        assert math.isnan(bleu([], ["a"], 1))


class TestBleuOracle:
    @staticmethod
    def _cases(rng):
        for _ in range(500):
            cand = random_utterance(rng, 4, 8, min_tokens=0) if rng.random() > 0.05 else []
            yield cand, random_utterance(rng, 4, 8), int(rng.integers(1, 5))
        for _ in range(300):  # alphabets of 1-3 tokens: k-grams repeat on both sides
            size = int(rng.integers(1, 4))
            yield (random_utterance(rng, size, 80, min_tokens=0),
                   random_utterance(rng, size, 80), int(rng.integers(1, 5)))
        for n in range(1, 5):
            for _ in range(50):
                yield random_utterance(rng, 3, n, min_tokens=n), random_utterance(rng, 3, 8), n
                if n > 1:  # a reference shorter than the highest order
                    yield (random_utterance(rng, 3, 8, min_tokens=n),
                           random_utterance(rng, 3, n - 1), n)

    def test_matches_dict_oracle_on_random_cases(self):
        """Bit for bit, NaN matching NaN."""
        for cand, ref, n in self._cases(np.random.default_rng(90)):
            got, want = bleu(cand, ref, n), oracles.dict_bleu(cand, ref, n)
            assert got == want or math.isnan(got) and math.isnan(want), (cand, ref, n)


class TestRougeL:
    def test_identical(self):
        sent = "a b c".split()
        assert rouge_l(sent, sent) == pytest.approx(1.0)

    def test_disjoint(self):
        assert rouge_l("a b".split(), "c d".split()) == 0.0

    def test_worked_example(self):
        assert rouge_l("a b c d".split(), "a c d f".split()) == pytest.approx(0.75)

    def test_empty_candidate(self):
        assert rouge_l([], ["a"]) == 0.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            rouge_l(["a"], [])

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(91)
        for _ in range(300):
            cand = random_utterance(rng, 3, 7)
            ref = random_utterance(rng, 3, 7)
            got = rouge_l(cand, ref)
            want = oracles.brute_force_rouge_l(cand, ref)
            assert got == pytest.approx(want, abs=1e-12)


class TestLcs:
    def test_known_values(self):
        assert lcs_length("a b c d".split(), "a c d f".split()) == 3
        assert lcs_length([], ["a"]) == 0
        assert lcs_length(["a"], ["a"]) == 1
        assert lcs_length("a b a b".split(), "b a b a".split()) == 3

    def test_symmetry(self):
        rng = np.random.default_rng(92)
        for _ in range(200):
            a = random_utterance(rng, 3, 6, min_tokens=0)
            b = random_utterance(rng, 3, 6, min_tokens=0)
            assert lcs_length(a, b) == lcs_length(b, a)

    def test_matches_brute_force_on_random_cases(self):
        rng = np.random.default_rng(93)
        for _ in range(300):
            a = random_utterance(rng, 3, 8, min_tokens=0)
            b = random_utterance(rng, 3, 8, min_tokens=0)
            assert lcs_length(a, b) == oracles.brute_force_lcs(a, b)
