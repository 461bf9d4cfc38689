"""Per-pair score tables: computation, TSV serialization, parsing.

One row per annotated pair.  Columns: the raw annotator scores, their
mean, then the metric columns in :data:`METRIC_COLUMNS` order (referenced
and unreferenced scores, their normalized forms, the four blends, BLEU-1
through BLEU-4, ROUGE-L).  Normalization bounds are recorded in header
comments so downstream tools can undo or audit the rescaling.  All float
cells are rendered at 1e-6 precision; undefined values render as "nan".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .baselines import bleu, rouge_l
from .blending import BlendStrategy, blend_series, normalize
from .corpus import VALID_SCORES, Dataset
from .errors import NumericalError, ParseError
from .fileio import atomic_write
from .referenced import referenced_score
from .unreferenced import ScorerParams, TrainConfig, unreferenced_score
from .vocabulary import Vocabulary

METRIC_COLUMNS = (
    "ref_score",
    "unref_score",
    "ref_norm",
    "unref_norm",
    "ruber_min",
    "ruber_geometric",
    "ruber_arithmetic",
    "ruber_max",
    "bleu_1",
    "bleu_2",
    "bleu_3",
    "bleu_4",
    "rouge_l",
)

@dataclass
class ScoreTable:
    """Everything cmd-level reporting needs, one row per pair."""

    human_scores: np.ndarray            # (n, K) integers
    metrics: dict[str, np.ndarray]      # column name -> (n,) floats
    normalization: dict[str, tuple[float, float]] = field(default_factory=dict)
    source: str = ""

    @property
    def n_pairs(self) -> int:
        return self.human_scores.shape[0]

    @property
    def n_annotators(self) -> int:
        return self.human_scores.shape[1]

    @property
    def human_mean(self) -> np.ndarray:
        return self.human_scores.mean(axis=1)


def compute_score_table(
    dataset: Dataset,
    vocab: Vocabulary,
    matrix: np.ndarray,
    params: ScorerParams,
    max_len: int = TrainConfig.max_len,
    blends=tuple(BlendStrategy),
) -> ScoreTable:
    """Score every annotated pair with every metric.

    The referenced and unreferenced series are min-max normalized over
    this dataset (bounds recorded on the table) before blending; a
    non-finite value in either raises
    :class:`~ruber.errors.NumericalError`.
    """
    blends = tuple(BlendStrategy(b) for b in blends)
    ref = np.fromiter((referenced_score(p.groundtruth, p.candidate, vocab, matrix)
                       for p in dataset), float)
    unref = np.fromiter((unreferenced_score(p.query, p.candidate, params, vocab, matrix, max_len)
                         for p in dataset), float)
    _require_finite("ref_score", ref)
    _require_finite("unref_score", unref)
    ref_norm = normalize(ref)
    unref_norm = normalize(unref)
    metrics: dict[str, np.ndarray] = {
        "ref_score": ref,
        "unref_score": unref,
        "ref_norm": ref_norm,
        "unref_norm": unref_norm,
    }
    for strategy in blends:
        metrics["ruber_" + strategy.value] = blend_series(ref_norm, unref_norm, strategy)
    for k in (1, 2, 3, 4):
        metrics[f"bleu_{k}"] = np.fromiter((bleu(p.candidate, p.groundtruth, k)
                                            for p in dataset), float)
    metrics["rouge_l"] = np.fromiter((rouge_l(p.candidate, p.groundtruth)
                                      for p in dataset), float)

    ordered = {name: metrics[name] for name in METRIC_COLUMNS if name in metrics}
    return ScoreTable(
        human_scores=np.array([p.human_scores for p in dataset], dtype=int),
        metrics=ordered,
        normalization={
            "ref_score": (float(ref.min()), float(ref.max())),
            "unref_score": (float(unref.min()), float(unref.max())),
        },
        source=dataset.source,
    )


def _require_finite(column: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        row = int(bad[0])
        raise NumericalError(
            f"{column} is non-finite ({float(values[row])!r}) at row {row + 1} "
            f"of {values.size}; cannot normalize it"
        )


def write_score_table(table: ScoreTable, path) -> None:
    """Serialize a score table as tab-separated text with comment headers."""
    k = table.n_annotators
    names = [f"human_{i + 1}" for i in range(k)] + ["human_mean"] + list(table.metrics)
    human_mean = table.human_mean
    with atomic_write(path) as fh:
        fh.write("# score table\n")
        fh.write(f"# source: {table.source}\n")
        fh.write(f"# annotators: {k}\n")
        for name, (lo, hi) in table.normalization.items():
            fh.write(f"# normalization: {name} min={lo!r} max={hi!r}\n")
        fh.write("\t".join(names) + "\n")
        for i in range(table.n_pairs):
            cells = [str(int(v)) for v in table.human_scores[i]]
            cells.append(f"{human_mean[i]:.6f}")
            cells.extend(f"{table.metrics[m][i]:.6f}" for m in table.metrics)
            fh.write("\t".join(cells) + "\n")


def read_score_table(path) -> ScoreTable:
    """Parse a file written by :func:`write_score_table`."""
    normalization: dict[str, tuple[float, float]] = {}
    source = ""
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("source:"):
                    source = comment[len("source:"):].strip()
                elif comment.startswith("normalization:"):
                    try:
                        name, lo, hi = _parse_normalization(comment)
                    except ValueError as exc:
                        raise ParseError(path, lineno, str(exc)) from exc
                    normalization[name] = (lo, hi)
                continue
            if header is None:
                header = line.split("\t")
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ParseError(
                    path, lineno,
                    f"expected {len(header)} columns, found {len(cells)}",
                )
            rows.append((lineno, cells))
    if header is None or not rows:
        raise ParseError(path, 1, "no table content found")

    k = sum(1 for name in header if name.startswith("human_") and name != "human_mean")
    if k < 1 or "human_mean" not in header:
        raise ParseError(path, 1, "missing annotator columns or human_mean")
    metric_names = header[k + 1:]
    human_rows = []
    metric_rows = []
    for lineno, cells in rows:
        try:
            human_rows.append([int(cells[j]) for j in range(k)])
            metric_rows.append([float(cells[k + 1 + j])
                                for j in range(len(metric_names))])
        except ValueError as exc:
            raise ParseError(path, lineno, f"non-numeric cell: {exc}") from exc
        bad = [v for v in human_rows[-1] if v not in VALID_SCORES]
        if bad:
            raise ParseError(path, lineno, f"human score {bad[0]} is not in {{0, 1, 2}}")
    human = np.array(human_rows, dtype=int)
    columns = np.array(metric_rows)
    metrics = {name: columns[:, j].copy() for j, name in enumerate(metric_names)}
    return ScoreTable(human, metrics, normalization, source)


def _parse_normalization(comment: str) -> tuple[str, float, float]:
    # "normalization: <name> min=<float> max=<float>"
    parts = comment[len("normalization:"):].split()
    if len(parts) != 3 or not parts[1].startswith("min=") or not parts[2].startswith("max="):
        raise ValueError(f"malformed normalization comment: {comment!r}")
    return parts[0], float(parts[1][4:]), float(parts[2][4:])
