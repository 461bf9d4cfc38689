"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Tolerances and runtime budgets are asserted inside
the tests themselves.
"""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import separable_corpus, write_lines
from oracles import (
    brute_force_lcs,
    mp_pearson_r,
    mp_spearman_rho,
    mp_t_two_tailed_p,
    padded_batch_loss,
    scalar_encode,
    scalar_gru_step,
    scalar_unreferenced_score,
    _gru_params_as_lists,
)
from ruber.baselines import bleu, lcs_length, rouge_l
from ruber.blending import blend, normalize
from ruber.cli import main
from ruber.analysis import pearson, spearman
from ruber.embeddings import save_text_embeddings
from ruber.referenced import referenced_score
from ruber.unreferenced import (
    TrainConfig,
    compute_gradients,
    encode,
    gru_step,
    init_scorer_params,
    margin_loss,
    train,
    unreferenced_score,
)
from ruber.vocabulary import Vocabulary


def _toy_world(rng, n_tokens=8, dim=4, scale=0.5):
    vocab = Vocabulary([f"t{i}" for i in range(n_tokens)])
    matrix = rng.normal(0.0, scale, (n_tokens + 1, dim))
    return vocab, matrix


def _utterance(rng, n_tokens, max_len):
    length = int(rng.integers(1, max_len + 1))
    return [f"t{int(i)}" for i in rng.integers(0, n_tokens, length)]


def test_criterion_01_gradients_match_finite_differences():
    """Every analytic gradient entry on 20 small random instances agrees
    with central finite differences (step 1e-5) to relative error < 1e-4,
    and the whole sweep finishes in under 10 seconds."""
    rng = np.random.default_rng(20240101)
    d, hidden, mlp = 4, 3, 5
    step = 1e-5
    started = time.perf_counter()
    checked = 0
    for instance in range(20):
        vocab, matrix = _toy_world(rng, dim=d)
        fine_tune = instance % 4 == 0
        config = TrainConfig(
            hidden=hidden, mlp_hidden=mlp, margin=1.0, max_len=5,
            fine_tune_embeddings=fine_tune,
        )
        params = init_scorer_params(d, hidden, mlp, rng)
        batch = [
            (_utterance(rng, 8, 5), _utterance(rng, 8, 5), _utterance(rng, 8, 5))
            for _ in range(2)
        ]
        grads, _ = compute_gradients(batch, params, vocab, matrix, config)
        targets = [(arr, dict(grads.scorer.tensors())[name])
                   for name, arr in params.tensors()]
        if fine_tune:
            targets.append((matrix, grads.embeddings))
        for arr, grad in targets:
            flat = arr.reshape(-1) if arr.ndim else arr.reshape(1)
            gflat = grad.reshape(-1) if grad.ndim else grad.reshape(1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + step
                up = padded_batch_loss(batch, params, vocab, matrix, config)
                flat[i] = original - step
                down = padded_batch_loss(batch, params, vocab, matrix, config)
                flat[i] = original
                numeric = (up - down) / (2.0 * step)
                analytic = gflat[i]
                # the 1e-6 floor absorbs the ~1e-11 roundoff noise central
                # differences carry at this step size; entries below the
                # floor still face an effective 1e-10 absolute bound
                rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
                assert rel < 1e-4, (
                    f"instance {instance}, entry {i}: fd={numeric!r} "
                    f"analytic={analytic!r} rel={rel:.3e}"
                )
                checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 20 * 400
    assert elapsed < 10.0, f"gradient sweep took {elapsed:.1f}s"


def test_criterion_02_forward_pass_matches_scalar_oracle():
    """gru_step, encode and unreferenced_score agree with an independent
    scalar-loop re-implementation to 1e-10 on 100 random instances."""
    rng = np.random.default_rng(20240102)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(2, 5))
        mlp = int(rng.integers(2, 6))
        vocab, matrix = _toy_world(rng, dim=d)
        params = init_scorer_params(d, hidden, mlp, rng)

        x = rng.normal(0, 1, d)
        h_prev = rng.normal(0, 1, hidden)
        direction = params.query_encoder.forward
        expected = scalar_gru_step(
            x.tolist(), h_prev.tolist(), *_gru_params_as_lists(direction)
        )
        np.testing.assert_allclose(
            gru_step(x, h_prev, direction), expected, atol=1e-10, rtol=0
        )

        utterance = _utterance(rng, 8, 6)
        np.testing.assert_allclose(
            encode(utterance, params.query_encoder, vocab, matrix, max_len=6),
            scalar_encode(utterance, params.query_encoder, vocab, matrix, max_len=6),
            atol=1e-10, rtol=0,
        )

        query, reply = _utterance(rng, 8, 6), _utterance(rng, 8, 6)
        got = unreferenced_score(query, reply, params, vocab, matrix, max_len=6)
        want = scalar_unreferenced_score(query, reply, params, vocab, matrix, max_len=6)
        assert abs(got - want) <= 1e-10


def test_criterion_03_margin_loss_exact_and_zero_gradients_when_satisfied():
    """The hinge table holds exactly, and a batch whose every sample
    already clears the margin produces identically zero gradients."""
    assert margin_loss(0.9, 0.2, 0.5) == 0.0
    assert margin_loss(0.5, 0.4, 0.5) == 0.4
    assert margin_loss(0.3, 0.3, 0.5) == 0.5

    rng = np.random.default_rng(20240103)
    vocab, matrix = _toy_world(rng)
    params = init_scorer_params(4, 3, 5, rng)
    config = TrainConfig(
        hidden=3, mlp_hidden=5, margin=1e-9, max_len=5, fine_tune_embeddings=True
    )
    batch = []
    while len(batch) < 4:
        q = _utterance(rng, 8, 5)
        r1, r2 = _utterance(rng, 8, 5), _utterance(rng, 8, 5)
        s1 = unreferenced_score(q, r1, params, vocab, matrix, max_len=5)
        s2 = unreferenced_score(q, r2, params, vocab, matrix, max_len=5)
        if abs(s1 - s2) <= 1e-6:
            continue
        batch.append((q, r1, r2) if s1 > s2 else (q, r2, r1))
    grads, loss = compute_gradients(batch, params, vocab, matrix, config)
    assert loss == 0.0
    for name, arr in grads.scorer.tensors():
        assert np.all(arr == 0.0), f"nonzero gradient in {name}"
    assert np.all(grads.embeddings == 0.0)


def test_criterion_04_training_separates_synthetic_corpus():
    """On a 500-pair corpus whose negatives come from a disjoint topic
    vocabulary, held-out ranking accuracy reaches 0.90 within 5 epochs
    in under 3 minutes."""
    started = time.perf_counter()
    dataset, vocab, matrix = separable_corpus(np.random.default_rng(42), n_pairs=500)
    config = TrainConfig(
        hidden=16, mlp_hidden=32, margin=0.5, lr=5e-3,
        epochs=5, batch_size=16, seed=7,
    )
    _, log = train(dataset, vocab, matrix, config)
    elapsed = time.perf_counter() - started
    assert len(log.epochs) <= 5
    final = log.epochs[-1].holdout_accuracy
    assert final >= 0.90, f"holdout accuracy {final:.3f}"
    assert elapsed < 180.0, f"training took {elapsed:.1f}s"


def test_criterion_05_referenced_metric_properties_hold_at_scale():
    """Symmetry, boundedness, token-order invariance and positive
    embedding-scale invariance each hold over 10,000 randomized cases
    with no violation beyond 1e-12."""
    n_cases = 10_000
    rng = np.random.default_rng(20240105)
    vocab = Vocabulary([f"t{i}" for i in range(12)])
    matrix = rng.normal(0, 1, (13, 5))

    def utt():
        return _utterance(rng, 12, 8)

    for _ in range(n_cases):
        a, b = utt(), utt()
        assert abs(referenced_score(a, b, vocab, matrix)
                   - referenced_score(b, a, vocab, matrix)) <= 1e-12

    for _ in range(n_cases):
        s = referenced_score(utt(), utt(), vocab, matrix)
        assert abs(s) <= 1.0 + 1e-12

    for _ in range(n_cases):
        a, b = utt(), utt()
        pa = [a[int(i)] for i in rng.permutation(len(a))]
        pb = [b[int(i)] for i in rng.permutation(len(b))]
        assert abs(referenced_score(a, b, vocab, matrix)
                   - referenced_score(pa, pb, vocab, matrix)) <= 1e-12

    for _ in range(n_cases):
        a, b = utt(), utt()
        scale = float(10 ** rng.uniform(-3, 3))
        assert abs(referenced_score(a, b, vocab, matrix)
                   - referenced_score(a, b, vocab, matrix * scale)) <= 1e-12


def test_criterion_06_overlap_baselines_match_oracles():
    """BLEU and ROUGE-L reproduce their hand-computed values, and the
    LCS dynamic program agrees with brute-force subsequence enumeration
    over a 3-token alphabet: exhaustively for every pair with combined
    length <= 8, plus a seeded random sample at full lengths up to 8."""
    sentence = "the cat sat".split()
    assert bleu(sentence, sentence, 1) == 1.0
    assert abs(bleu("the the the".split(), "the cat".split(), 1) - 1 / 3) <= 1e-12
    assert bleu("b a c".split(), "a b c".split(), 2) == 0.0
    assert math.isnan(bleu(["hello"], "a b c".split(), 2))

    assert rouge_l(sentence, sentence) == 1.0
    assert rouge_l("x y".split(), "a b".split()) == 0.0
    assert abs(rouge_l("a b c d".split(), "a c d f".split()) - 0.75) <= 1e-12

    alphabet = ("a", "b", "c")
    strings = [[]]
    for length in range(1, 9):
        strings.extend(list(t) for t in itertools.product(alphabet, repeat=length))
    checked = 0
    for cand in strings:
        for ref in strings:
            if len(cand) + len(ref) > 8:
                continue
            assert lcs_length(cand, ref) == brute_force_lcs(cand, ref)
            checked += 1
    assert checked == 83_653

    rng = np.random.default_rng(20240106)
    for _ in range(2_000):
        cand = [alphabet[int(i)] for i in rng.integers(0, 3, int(rng.integers(1, 9)))]
        ref = [alphabet[int(i)] for i in rng.integers(0, 3, int(rng.integers(1, 9)))]
        assert lcs_length(cand, ref) == brute_force_lcs(cand, ref)


def test_criterion_07_correlation_statistics_match_high_precision():
    """Pearson r and Spearman rho agree with 50-digit arithmetic to
    1e-12, and two-tailed p-values agree with numerical integration of
    the t density to 1e-6, at n in {5, 30, 150}."""
    rng = np.random.default_rng(20240107)
    for n in (5, 30, 150):
        for case in range(8):
            x = rng.normal(0, 1, n)
            noise = rng.normal(0, 1, n)
            y = 0.6 * x + 0.8 * noise
            if case % 2 == 1:  # force ties to exercise fractional ranks
                x = np.round(x, 1)
                y = np.round(y, 1)
            r, p = pearson(x, y)
            assert abs(r - mp_pearson_r(x, y)) <= 1e-12
            assert abs(p - mp_t_two_tailed_p(r, n)) <= 1e-6
            rho, rho_p = spearman(x, y)
            assert abs(rho - mp_spearman_rho(x, y)) <= 1e-12
            assert abs(rho_p - mp_t_two_tailed_p(rho, n)) <= 1e-6


def test_criterion_08_blend_ordering_and_normalization_invariance():
    """min <= geometric <= arithmetic <= max pointwise on the 101x101
    grid over [0,1]^2, and min-max normalization is invariant under the
    affine maps that are exactly representable (power-of-two scaling of
    any series, integer scale and shift of integer series), with 1e-12
    agreement for arbitrary real affine maps."""
    grid = [i / 100 for i in range(101)]
    for x in grid:
        for y in grid:
            lo = blend(x, y, "min")
            geo = blend(x, y, "geometric")
            arith = blend(x, y, "arithmetic")
            hi = blend(x, y, "max")
            assert lo <= geo <= arith <= hi, f"chain broken at ({x}, {y})"

    rng = np.random.default_rng(20240108)
    series = rng.normal(0, 2, 64)
    base = normalize(series)
    for scale in (0.25, 2.0, 1024.0, 2.0 ** 40):
        assert np.array_equal(normalize(series * scale), base)

    integer_series = rng.integers(0, 3, 64).astype(float)
    int_base = normalize(integer_series)
    assert np.array_equal(normalize(integer_series * 8 + 3), int_base)
    assert np.array_equal(normalize(integer_series * 4 - 17), int_base)

    shifted = normalize(series * 3.7 + 1.9)
    np.testing.assert_allclose(shifted, base, atol=1e-12, rtol=0)


def test_criterion_09_scoring_and_reporting_are_reproducible(tmp_path, capsys):
    """Rerunning the score and report commands with fixed seeds yields
    byte-identical outputs, and normalization maps series endpoints to
    exactly 0 and 1."""
    np.testing.assert_array_equal(normalize([1.0, 3.0, 5.0]), [0.0, 0.5, 1.0])
    rng = np.random.default_rng(20240109)
    for _ in range(50):
        series = rng.normal(0, 3, int(rng.integers(2, 30)))
        if np.ptp(series) == 0:
            continue
        normed = normalize(series)
        assert normed[int(np.argmin(series))] == 0.0
        assert normed[int(np.argmax(series))] == 1.0

    dataset, vocab, matrix = separable_corpus(rng, n_pairs=60, dim=8)
    emb = str(tmp_path / "emb.txt")
    save_text_embeddings(vocab, matrix, emb)
    corpus = write_lines(
        tmp_path / "train.tsv",
        [" ".join(p.query) + "\t" + " ".join(p.reply) for p in dataset],
    )
    annotated = write_lines(
        tmp_path / "annotated.tsv",
        ["\t".join([" ".join(dataset[i].query), " ".join(dataset[i].reply),
                    " ".join(dataset[i + 1].reply), "1", "2"])
         for i in range(10)],
    )
    ckpt = str(tmp_path / "scorer.ckpt")
    assert main(["train-scorer", "--corpus", corpus, "--embeddings", emb,
                 "--out", ckpt, "--hidden", "4", "--mlp-hidden", "6",
                 "--epochs", "1", "--batch-size", "8", "--seed", "11"]) == 0

    outputs = []
    for tag in ("first", "second"):
        scores = str(tmp_path / f"scores_{tag}.tsv")
        report = str(tmp_path / f"report_{tag}.json")
        assert main(["score", "--data", annotated, "--embeddings", emb,
                     "--checkpoint", ckpt, "--out", scores]) == 0
        assert main(["report", "--scores", scores, "--out", report,
                     "--seed", "3"]) == 0
        outputs.append((Path(scores).read_bytes(), Path(report).read_bytes()))
    assert outputs[0][0] == outputs[1][0], "score outputs differ between reruns"
    assert outputs[0][1] == outputs[1][1], "report outputs differ between reruns"


def test_criterion_10_missing_ngrams_flow_through_as_undefined(tmp_path, capsys):
    """Pairs sharing no bigram score exactly 0.0 on BLEU-2; a candidate
    shorter than n yields NaN, which the report renders as an undefined
    cell rather than a number."""
    assert bleu("b a c".split(), "a b c".split(), 2) == 0.0
    assert bleu("x y z".split(), "p q r".split(), 2) == 0.0
    assert math.isnan(bleu(["single"], "a b c".split(), 4))

    rng = np.random.default_rng(20240110)
    dataset, vocab, matrix = separable_corpus(rng, n_pairs=60, dim=8)
    emb = str(tmp_path / "emb.txt")
    save_text_embeddings(vocab, matrix, emb)
    corpus = write_lines(
        tmp_path / "train.tsv",
        [" ".join(p.query) + "\t" + " ".join(p.reply) for p in dataset],
    )
    # every candidate is one token long, so no pair has any bigram
    annotated = write_lines(
        tmp_path / "annotated.tsv",
        ["\t".join([" ".join(dataset[i].query), " ".join(dataset[i].reply),
                    dataset[i + 1].reply[0], str(i % 3), str((i + 1) % 3)])
         for i in range(8)],
    )
    ckpt = str(tmp_path / "scorer.ckpt")
    assert main(["train-scorer", "--corpus", corpus, "--embeddings", emb,
                 "--out", ckpt, "--hidden", "4", "--mlp-hidden", "6",
                 "--epochs", "0", "--seed", "17"]) == 0
    scores = str(tmp_path / "scores.tsv")
    report_json = str(tmp_path / "report.json")
    report_text = str(tmp_path / "report.txt")
    assert main(["score", "--data", annotated, "--embeddings", emb,
                 "--checkpoint", ckpt, "--out", scores]) == 0
    assert main(["report", "--scores", scores, "--out", report_json,
                 "--text-out", report_text]) == 0

    table = Path(scores).read_text()
    assert "nan" in table
    payload = json.loads(Path(report_json).read_text())
    for metric in ("bleu_2", "bleu_3", "bleu_4"):
        row = payload["rows"][metric]
        assert row["pearson_r"] is None
        assert row["n_used"] == 0
    text = Path(report_text).read_text()
    bleu4_line = next(line for line in text.splitlines()
                      if line.startswith("bleu_4"))
    assert "undefined" in bleu4_line
