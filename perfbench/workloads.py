"""Seeded synthetic inputs and the CLI stages each benchmark workload runs.

Every workload writes its inputs into a directory from one seed and names
the ``ruber`` subcommands to run on them.  The program only ever sees the
generated files; its own ``--seed`` flags stay fixed.

Utterance lengths come from a fixed multiset (the quantiles of the stated
length distribution) that the seed only shuffles, so runs with different
seeds do the same amount of encoder and overlap work.  The seed decides
which tokens appear and in which order.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

from ruber.unreferenced import (
    TrainConfig,
    init_scorer_params,
    save_checkpoint,
    vocab_content_hash,
)
from ruber.embeddings import save_text_embeddings
from ruber.vocabulary import Vocabulary

# Model sizes of the ROADMAP baseline corpus.
DIM = 50
HIDDEN = 64
MLP_HIDDEN = 128


@dataclass(frozen=True)
class Stage:
    """One ``ruber`` subcommand: its argv and the files it must write."""

    command: str
    argv: list[str]
    outputs: list[str]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    generate: Callable[[int, Path], None]   # (seed, input dir)
    stages: Callable[[Path, Path], list[Stage]]  # (input dir, output dir)
    # per-layer counters the traced run must find at zero (layers bypassed)
    bypassed: tuple[str, ...] = ()
    # per-layer counters the traced run must find above zero
    exercised: tuple[str, ...] = ()


def zipf_words(n: int) -> tuple[list[str], np.ndarray]:
    """``n`` distinct words and their Zipf (exponent 1) probabilities."""
    weights = 1.0 / np.arange(1, n + 1)
    return [f"w{i}" for i in range(n)], weights / weights.sum()


def uniform_lengths(n: int, lo: int, hi: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` lengths spread evenly over ``lo..hi``, in seeded order."""
    return rng.permutation(np.resize(np.arange(lo, hi + 1), n))


def lognormal_lengths(
    n: int, median: float, sigma: float, lo: int, hi: int, rng: np.random.Generator
) -> np.ndarray:
    """The ``n`` quantiles of a lognormal clipped to ``lo..hi``, in seeded order."""
    normal = NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / n) for i in range(n)])
    lengths = np.clip(np.rint(median * np.exp(sigma * z)), lo, hi).astype(int)
    return rng.permutation(lengths)


def draw_utterances(
    lengths: np.ndarray, words: list[str], probs: np.ndarray, rng: np.random.Generator
) -> list[list[str]]:
    ids = rng.choice(len(words), size=int(lengths.sum()), p=probs)
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    return [[words[i] for i in ids[a:b]] for a, b in zip(bounds[:-1], bounds[1:])]


def make_pairs(
    query_lengths: np.ndarray,
    reply_lengths: np.ndarray,
    words: list[str],
    probs: np.ndarray,
    rng: np.random.Generator,
) -> list[tuple[list[str], list[str]]]:
    """Query-reply pairs whose reply repeats one query token, so they relate."""
    queries = draw_utterances(query_lengths, words, probs, rng)
    replies = draw_utterances(reply_lengths, words, probs, rng)
    picks = rng.random((len(queries), 2))
    for query, reply, (a, b) in zip(queries, replies, picks):
        reply[int(b * len(reply))] = query[int(a * len(query))]
    return list(zip(queries, replies))


def make_triples(
    lengths: Callable[[], np.ndarray],
    n_annotators: int,
    words: list[str],
    probs: np.ndarray,
    rng: np.random.Generator,
) -> list[tuple[list[str], list[str], list[str], list[int]]]:
    """Annotated (query, groundtruth, candidate, scores) rows.

    Each candidate copies a random share of the groundtruth tokens at the
    same positions; every annotator scores that share on {0, 1, 2} with
    Gaussian noise, so human scores and overlap metrics correlate.
    """
    queries = draw_utterances(lengths(), words, probs, rng)
    truths = draw_utterances(lengths(), words, probs, rng)
    candidates = draw_utterances(lengths(), words, probs, rng)
    overlap = rng.random(len(queries))
    noise = rng.normal(0.0, 0.5, (len(queries), n_annotators))
    rows = []
    for i, (query, truth, cand) in enumerate(zip(queries, truths, candidates)):
        keep = rng.random(len(cand)) < overlap[i]
        for j in range(min(len(cand), len(truth))):
            if keep[j]:
                cand[j] = truth[j]
        scores = np.clip(np.rint(2.0 * overlap[i] + noise[i]), 0, 2).astype(int)
        rows.append((query, truth, cand, [int(s) for s in scores]))
    return rows


def write_pairs(path: Path, pairs) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query, reply in pairs:
            fh.write(" ".join(query) + "\t" + " ".join(reply) + "\n")


def write_triples(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for query, truth, cand, scores in rows:
            cells = [" ".join(query), " ".join(truth), " ".join(cand)]
            fh.write("\t".join(cells + [str(s) for s in scores]) + "\n")


def write_random_embeddings(path: Path, words: list[str], rng: np.random.Generator) -> Vocabulary:
    """A random embedding table over ``words`` through the library writer."""
    vocab = Vocabulary(words)
    matrix = rng.normal(0.0, 0.5, (len(vocab), DIM))
    matrix[0] = matrix[1:].mean(axis=0)
    save_text_embeddings(vocab, matrix, path)
    return vocab


# ---------------------------------------------------------------------------
# pipeline: the ROADMAP baseline corpus, every stage, SGNS included

PIPELINE_PAIRS = 300
PIPELINE_TRIPLES = 300
PIPELINE_VOCAB = 400
PIPELINE_LENGTHS = (4, 15)
PIPELINE_ANNOTATORS = 3


def _pipeline_generate(seed: int, inputs: Path) -> None:
    rng = np.random.default_rng([seed, 0])
    words, probs = zipf_words(PIPELINE_VOCAB)
    lo, hi = PIPELINE_LENGTHS
    write_pairs(inputs / "train.tsv", make_pairs(
        uniform_lengths(PIPELINE_PAIRS, lo, hi, rng),
        uniform_lengths(PIPELINE_PAIRS, lo, hi, rng),
        words, probs, rng,
    ))
    write_triples(inputs / "annotated.tsv", make_triples(
        lambda: uniform_lengths(PIPELINE_TRIPLES, lo, hi, rng),
        PIPELINE_ANNOTATORS, words, probs, rng,
    ))


def _pipeline_stages(inputs: Path, out: Path) -> list[Stage]:
    corpus = str(inputs / "train.tsv")
    vectors, ckpt = str(out / "vectors.txt"), str(out / "scorer.ckpt")
    scores, report = str(out / "scores.tsv"), str(out / "report.json")
    return [
        Stage("train-embeddings", [
            "train-embeddings", "--corpus", corpus, "--out", vectors, "--dim", str(DIM),
            "--epochs", "1", "--min-count", "1", "--seed", "1",
        ], [vectors]),
        Stage("train-scorer", [
            "train-scorer", "--corpus", corpus, "--embeddings", vectors, "--out", ckpt,
            "--hidden", str(HIDDEN), "--mlp-hidden", str(MLP_HIDDEN), "--epochs", "1",
            "--seed", "1",
        ], [ckpt]),
        Stage("score", [
            "score", "--data", str(inputs / "annotated.tsv"), "--embeddings", vectors,
            "--checkpoint", ckpt, "--out", scores,
        ], [scores]),
        Stage("report", ["report", "--scores", scores, "--out", report], [report]),
    ]


# ---------------------------------------------------------------------------
# eval: score a large held-out set with a fixed, untrained scorer

EVAL_TRIPLES = 3000
EVAL_VOCAB = 5000
EVAL_LENGTHS = (1, 40)
EVAL_ANNOTATORS = 5


def _eval_generate(seed: int, inputs: Path) -> None:
    rng = np.random.default_rng([seed, 1])
    words, probs = zipf_words(EVAL_VOCAB)
    lo, hi = EVAL_LENGTHS
    write_triples(inputs / "annotated.tsv", make_triples(
        lambda: lognormal_lengths(EVAL_TRIPLES, 7.0, 0.75, lo, hi, rng),
        EVAL_ANNOTATORS, words, probs, rng,
    ))
    vocab = write_random_embeddings(inputs / "vectors.txt", words, rng)
    params = init_scorer_params(DIM, HIDDEN, MLP_HIDDEN, rng)
    config = TrainConfig(hidden=HIDDEN, mlp_hidden=MLP_HIDDEN, epochs=0)
    save_checkpoint(params, config, vocab_content_hash(vocab), inputs / "scorer.ckpt")


def _eval_stages(inputs: Path, out: Path) -> list[Stage]:
    scores, report = str(out / "scores.tsv"), str(out / "report.json")
    quantiles, scatter = str(out / "quantiles.csv"), str(out / "scatter")
    return [
        Stage("score", [
            "score", "--data", str(inputs / "annotated.tsv"),
            "--embeddings", str(inputs / "vectors.txt"),
            "--checkpoint", str(inputs / "scorer.ckpt"), "--out", scores,
        ], [scores]),
        Stage("report", [
            "report", "--scores", scores, "--out", report,
            "--quantile-csv", quantiles, "--scatter-dir", scatter,
        ], [report, quantiles, scatter]),
    ]


# ---------------------------------------------------------------------------
# finetune-ragged: scorer training alone on ragged, truncated utterances

FINETUNE_PAIRS = 300
FINETUNE_VOCAB = 5000
FINETUNE_LENGTHS = (1, 60)
FINETUNE_MAX_LEN = 30


def _finetune_generate(seed: int, inputs: Path) -> None:
    rng = np.random.default_rng([seed, 2])
    words, probs = zipf_words(FINETUNE_VOCAB)
    lo, hi = FINETUNE_LENGTHS
    write_pairs(inputs / "train.tsv", make_pairs(
        lognormal_lengths(FINETUNE_PAIRS, 12.0, 0.8, lo, hi, rng),
        lognormal_lengths(FINETUNE_PAIRS, 12.0, 0.8, lo, hi, rng),
        words, probs, rng,
    ))
    write_random_embeddings(inputs / "vectors.txt", words, rng)


def _finetune_stages(inputs: Path, out: Path) -> list[Stage]:
    ckpt = str(out / "scorer.ckpt")
    return [
        Stage("train-scorer", [
            "train-scorer", "--corpus", str(inputs / "train.tsv"),
            "--embeddings", str(inputs / "vectors.txt"), "--out", ckpt,
            "--hidden", str(HIDDEN), "--mlp-hidden", str(MLP_HIDDEN), "--epochs", "1",
            "--max-len", str(FINETUNE_MAX_LEN), "--seed", "1", "--fine-tune-embeddings",
        ], [ckpt, ckpt + ".embeddings.txt"]),
    ]


_TRAINING_COUNTERS = (
    "gradients.compute_gradients_calls",
    "scorer.score_with_cache_calls",
    "training.adam_step_calls",
)

WORKLOADS = {
    "pipeline": Workload(
        _pipeline_generate, _pipeline_stages,
        exercised=("embeddings.train_sgns_calls",) + _TRAINING_COUNTERS
        + ("baselines.bleu_calls",),
    ),
    "eval": Workload(
        _eval_generate, _eval_stages,
        bypassed=("embeddings.train_sgns_calls",) + _TRAINING_COUNTERS
        + ("gradients.margin_loss_calls",),
        exercised=("scorer.unreferenced_score_calls", "baselines.bleu_calls"),
    ),
    "finetune-ragged": Workload(
        _finetune_generate, _finetune_stages,
        bypassed=("embeddings.train_sgns_calls", "baselines.bleu_calls"),
        exercised=_TRAINING_COUNTERS + ("scorer.truncated_utterances",),
    ),
}
