"""The package namespaces: what they export, and the README's library example."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ruber
import ruber.unreferenced
from ruber.cli import main

REPO = Path(__file__).resolve().parent.parent
README = REPO / "README.md"

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
        "ScorerParams",
        "TrainConfig",
        "init_scorer_params",
        "load_checkpoint",
        "save_checkpoint",
        "train",
        "unreferenced_score",
        "vocab_content_hash",
    },
}


def _named(tree):
    """Each name the module spells, with the top-level statement that spells it.

    A name is an ``ast.Name``, or an attribute of a module bound by
    ``from . import``.
    """
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, stmt
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                yield node.attr, stmt


def test_every_public_helper_has_a_caller_in_the_program():
    """A public top-level function or class of a module is named elsewhere in
    ``src/ruber``; only the library names and the console entry point are exempt."""
    spellers, defined = {}, []
    for path in sorted(Path(ruber.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, stmt in _named(tree):
            spellers.setdefault(name, []).append(stmt)
        if path.name != "__init__.py":
            defined += [stmt for stmt in tree.body
                        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                        and not stmt.name.startswith("_")]
    exempt = EXPORTS["ruber"] | {"entrypoint"}
    uncalled = sorted(d.name for d in defined if d.name not in exempt
                      and all(s is d for s in spellers.get(d.name, [])))
    assert uncalled == []


def test_the_subpackage_exports_what_the_program_and_benchmark_import_through_it():
    """``ruber.unreferenced.__all__`` is the set of names that ``src/ruber``
    (outside the subpackage's own ``__init__.py``) and ``perfbench/*.py``
    import through the subpackage, by absolute or relative import."""
    src = REPO / "src"
    paths = [p for p in (src / "ruber").rglob("*.py")
             if p != src / "ruber" / "unreferenced" / "__init__.py"]
    imported = set()
    for path in paths + sorted((REPO / "perfbench").glob("*.py")):
        package = path.parent.relative_to(src).parts if src in path.parents else ()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                base = package[:len(package) + 1 - node.level] if node.level else ()
                if ".".join([*base, node.module or ""]) == "ruber.unreferenced":
                    imported |= {alias.name for alias in node.names}
    assert imported == set(ruber.unreferenced.__all__)


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
