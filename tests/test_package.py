"""The package namespaces: what they export, and the README's library example."""

import importlib
import re
from pathlib import Path

import pytest

import ruber
from ruber.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

EXPORTS = {
    "ruber": {
        "RuberError",
        "blend",
        "load_checkpoint",
        "load_text_embeddings",
        "normalize",
        "referenced_score",
        "unreferenced_score",
    },
    "ruber.unreferenced": {
        "AdamState",
        "ScorerParams",
        "TrainConfig",
        "adam_step",
        "batch_loss",
        "compute_gradients",
        "encode",
        "gru_step",
        "init_scorer_params",
        "load_checkpoint",
        "margin_loss",
        "sample_negative",
        "save_checkpoint",
        "sigmoid",
        "train",
        "unreferenced_score",
        "vocab_content_hash",
        "zero_scorer_params",
    },
}


@pytest.mark.parametrize("package", sorted(EXPORTS))
def test_all_lists_exactly_the_exported_names(package):
    module = importlib.import_module(package)
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == EXPORTS[package]
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert EXPORTS[package] <= set(namespace)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "train.tsv"
    corpus.write_text(
        "".join(f"how are you {i}\tfine thanks {i % 3}\n" for i in range(24)),
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert main([
        "train-embeddings", "--corpus", str(corpus), "--out", "vectors.txt",
        "--dim", "4", "--epochs", "1", "--min-count", "1",
    ]) == 0
    assert main([
        "train-scorer", "--corpus", str(corpus), "--embeddings", "vectors.txt",
        "--out", "scorer.ckpt", "--hidden", "3", "--mlp-hidden", "4",
        "--epochs", "1", "--batch-size", "8",
    ]) == 0
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(snippet, namespace)
    assert 0.0 < namespace["s_unref"] < 1.0
    assert -1.0 <= namespace["s_ref"] <= 1.0
    assert namespace["blend"] is ruber.blend
