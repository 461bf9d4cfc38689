"""Output checks for each CLI stage, through ruber's public readers.

A check raises :class:`CheckFailed` on the first problem it finds and
otherwise returns the amount of work the stage did, which the benchmark
turns into a throughput.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

from ruber.corpus import Dataset, build_vocab, utterances_of
from ruber.embeddings import load_text_embeddings
from ruber.report import REPORT_ROWS
from ruber.scoretable import METRIC_COLUMNS, read_score_table
from ruber.unreferenced import load_checkpoint, vocab_content_hash

from workloads import Stage


class CheckFailed(Exception):
    pass


def sha256_tree(path: Path) -> str:
    """SHA-256 of a file, or of a directory's files by relative name."""
    digest = hashlib.sha256()
    if path.is_dir():
        for item in sorted(p for p in path.rglob("*") if p.is_file()):
            digest.update(str(item.relative_to(path)).encode() + b"\0")
            digest.update(item.read_bytes())
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _flag(argv: list[str], name: str):
    return argv[argv.index(name) + 1] if name in argv else None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _strict_json(text: str):
    def refuse(token):
        raise CheckFailed(f"report holds the non-JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


def check_stage(stage: Stage, stdout: str, pairs: Dataset | None,
                annotated: Dataset | None) -> float:
    """Check one finished stage; return its work count (positions, pairs or rows)."""
    argv = stage.argv
    if stage.command == "train-embeddings":
        vocab, matrix = load_text_embeddings(_flag(argv, "--out"))
        expected = build_vocab(pairs, min_count=int(_flag(argv, "--min-count")))
        _require(vocab == expected, "embedding vocabulary differs from the corpus vocabulary")
        _require(matrix.shape == (len(expected), int(_flag(argv, "--dim"))),
                 f"embedding matrix has shape {matrix.shape}")
        in_vocab = sum(vocab.id_of(tok) != 0 for pair in pairs
                       for utt in utterances_of(pair) for tok in utt)
        return float(in_vocab * int(_flag(argv, "--epochs")))

    if stage.command == "train-scorer":
        epochs = int(_flag(argv, "--epochs"))
        epoch_lines = [line for line in stdout.splitlines() if line.startswith("epoch ")]
        _require(len(epoch_lines) == epochs, f"{len(epoch_lines)} epoch lines for {epochs} epochs")
        sizes = re.search(r"\(train=(\d+) holdout=(\d+)\)", stdout)
        _require(sizes is not None, "no train/holdout sizes on stdout")
        n_train, n_holdout = int(sizes.group(1)), int(sizes.group(2))
        _require(n_train + n_holdout == len(pairs),
                 f"train {n_train} + holdout {n_holdout} != {len(pairs)} pairs")
        vocab, matrix = load_text_embeddings(_flag(argv, "--embeddings"))
        ckpt = load_checkpoint(_flag(argv, "--out"), expected_vocab_hash=vocab_content_hash(vocab))
        _require(ckpt.embed_dim == matrix.shape[1], "checkpoint embedding dim mismatch")
        if "--fine-tune-embeddings" in argv:
            tuned_vocab, tuned = load_text_embeddings(_flag(argv, "--out") + ".embeddings.txt")
            _require(tuned_vocab == vocab and tuned.shape == matrix.shape,
                     "fine-tuned table does not match the input table")
        return float(n_train * epochs)

    if stage.command == "score":
        table = read_score_table(_flag(argv, "--out"))
        _require(table.n_pairs == len(annotated),
                 f"{table.n_pairs} score rows for {len(annotated)} annotated triples")
        human = np.array([pair.human_scores for pair in annotated])
        _require(np.array_equal(table.human_scores, human), "human scores were not carried over")
        _require(list(table.metrics) == list(METRIC_COLUMNS), "unexpected score columns")
        unref, ref = table.metrics["unref_score"], table.metrics["ref_score"]
        _require(bool(np.all((unref > 0.0) & (unref < 1.0))), "unref_score outside (0, 1)")
        _require(bool(np.all((ref >= -1.0) & (ref <= 1.0))), "ref_score outside [-1, 1]")
        return float(table.n_pairs)

    if stage.command == "report":
        n_rows = len(annotated)
        with open(_flag(argv, "--out"), encoding="utf-8") as fh:
            payload = _strict_json(fh.read())
        _require(payload["n_pairs"] == n_rows, f"report counts {payload['n_pairs']} pairs")
        _require(set(REPORT_ROWS) <= set(payload["rows"]), "report rows missing")
        quantiles = _flag(argv, "--quantile-csv")
        if quantiles:
            lines = Path(quantiles).read_text(encoding="utf-8").splitlines()
            _require(lines[0] == "metric,bin,mean_human,mean_metric" and len(lines) > 1,
                     "quantile CSV header or rows missing")
            _require(all(len(line.split(",")) == 4 for line in lines), "quantile CSV row width")
        scatter = _flag(argv, "--scatter-dir")
        if scatter:
            files = sorted(Path(scatter).glob("scatter_*.csv"))
            _require(len(files) == len(payload["rows"]) - 2,
                     f"{len(files)} scatter files for {len(payload['rows']) - 2} metrics")
            for path in files:
                n_lines = len(path.read_text(encoding="utf-8").splitlines())
                _require(n_lines == n_rows + 1, f"{path.name} has {n_lines} lines")
        return float(n_rows)

    raise CheckFailed(f"no check for stage {stage.command}")
