"""The generated inputs: deterministic per seed, with each workload's stated properties."""

import math

import pytest

import workloads
from checks import sha256_tree
from ruber.baselines import bleu
from ruber.corpus import load_annotated, load_pairs, utterances_of
from ruber.embeddings import load_text_embeddings
from ruber.unreferenced import load_checkpoint, vocab_content_hash


def generate(name, seed, path):
    path.mkdir()
    workloads.WORKLOADS[name].generate(seed, path)
    return path


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    return {name: generate(name, 7, root / name) for name in workloads.WORKLOADS}


def lengths(dataset):
    return [len(utt) for pair in dataset for utt in utterances_of(pair)]


def tokens(dataset):
    return {tok for pair in dataset for utt in utterances_of(pair) for tok in utt}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name, generated, tmp_path):
    again = generate(name, 7, tmp_path / "again")
    other = generate(name, 8, tmp_path / "other")
    assert sha256_tree(again) == sha256_tree(generated[name])
    for item in generated[name].iterdir():
        if item.suffix == ".tsv":
            assert sha256_tree(other / item.name) != sha256_tree(item)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_only_shuffles_the_utterance_lengths(name, generated, tmp_path):
    other = generate(name, 8, tmp_path / "other")
    for item in generated[name].glob("*.tsv"):
        load = load_pairs if item.name == "train.tsv" else load_annotated
        assert sorted(lengths(load(item))) == sorted(lengths(load(other / item.name)))


def test_pipeline_corpus(generated):
    pairs = load_pairs(generated["pipeline"] / "train.tsv")
    annotated = load_annotated(generated["pipeline"] / "annotated.tsv")
    assert len(pairs) == workloads.PIPELINE_PAIRS and pairs.skipped == 0
    assert len(annotated) == workloads.PIPELINE_TRIPLES and annotated.skipped == 0
    lo, hi = workloads.PIPELINE_LENGTHS
    assert min(lengths(pairs) + lengths(annotated)) == lo
    assert max(lengths(pairs) + lengths(annotated)) == hi
    words, _ = workloads.zipf_words(workloads.PIPELINE_VOCAB)
    assert tokens(pairs) | tokens(annotated) <= set(words)
    assert len(tokens(pairs)) > workloads.PIPELINE_VOCAB // 2
    assert {len(p.human_scores) for p in annotated} == {workloads.PIPELINE_ANNOTATORS}


def test_eval_inputs(generated):
    inputs = generated["eval"]
    annotated = load_annotated(inputs / "annotated.tsv")
    assert len(annotated) == workloads.EVAL_TRIPLES and annotated.skipped == 0
    assert (min(lengths(annotated)), max(lengths(annotated))) == workloads.EVAL_LENGTHS
    assert {len(p.human_scores) for p in annotated} == {workloads.EVAL_ANNOTATORS}
    vocab, matrix = load_text_embeddings(inputs / "vectors.txt")
    assert len(vocab) == workloads.EVAL_VOCAB + 1
    assert matrix.shape == (workloads.EVAL_VOCAB + 1, workloads.DIM)
    assert tokens(annotated) <= set(vocab.tokens)
    ckpt = load_checkpoint(inputs / "scorer.ckpt", expected_vocab_hash=vocab_content_hash(vocab))
    assert (ckpt.embed_dim, ckpt.params.hidden_size) == (workloads.DIM, workloads.HIDDEN)
    undefined = [math.isnan(bleu(p.candidate, p.groundtruth, 4)) for p in annotated]
    assert 0 < sum(undefined) < len(undefined)


def test_finetune_ragged_inputs(generated):
    inputs = generated["finetune-ragged"]
    pairs = load_pairs(inputs / "train.tsv")
    assert len(pairs) == workloads.FINETUNE_PAIRS and pairs.skipped == 0
    assert (min(lengths(pairs)), max(lengths(pairs))) == workloads.FINETUNE_LENGTHS
    assert sum(n > workloads.FINETUNE_MAX_LEN for n in lengths(pairs)) > 0
    vocab, matrix = load_text_embeddings(inputs / "vectors.txt")
    assert matrix.shape == (workloads.FINETUNE_VOCAB + 1, workloads.DIM)
    assert tokens(pairs) <= set(vocab.tokens)

