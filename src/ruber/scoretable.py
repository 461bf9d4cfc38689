"""Per-pair score tables: computation, TSV serialization, parsing.

One row per annotated pair.  Columns: the raw annotator scores, their
mean, then the metric columns in :data:`METRIC_COLUMNS` order (referenced
and unreferenced scores, their normalized forms, the four blends, BLEU-1
through BLEU-4, ROUGE-L).  Normalization bounds are recorded in header
comments so downstream tools can undo or audit the rescaling.  All float
cells are rendered at 1e-6 precision; undefined values render as "nan".
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

import numpy as np

from .baselines import bleu, rouge_l
from .blending import BlendStrategy, blend_series, normalize
from .corpus import VALID_SCORES, Dataset
from .errors import NumericalError, ParseError
from .fileio import atomic_write, fixed6_lines
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

# a human_mean cell may differ from its row's mean by half the 1e-6 precision
# cells are written at; the 1e-12 covers the float rounding of both sides
_MEAN_TOLERANCE = 5e-7 + 1e-12
# report writes metric names into CSV cells and scatter file names
_UNSAFE_IN_NAMES = frozenset(",/\x00")
# a scatter file's temporary name ".scatter_<name>.csv.<8 hex>.tmp" must fit
# the 255 bytes a file name may hold
_MAX_NAME_BYTES = 255 - len(".scatter_.csv.01234567.tmp")
# rows stacked and formatted at a time, so a write holds no second copy of the table
_WRITE_ROWS = 256


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
    with atomic_write(path) as fh:
        fh.write("# score table\n")
        fh.write(f"# source: {table.source}\n")
        fh.write(f"# annotators: {k}\n")
        for name, (lo, hi) in table.normalization.items():
            fh.write(f"# normalization: {name} min={lo!r} max={hi!r}\n")
        fh.write("\t".join(names) + "\n")
        columns = [table.human_mean, *table.metrics.values()]
        for start in range(0, table.n_pairs, _WRITE_ROWS):
            rows = slice(start, start + _WRITE_ROWS)
            floats = np.column_stack([column[rows] for column in columns])
            for scores, line in zip(table.human_scores[rows].tolist(),
                                    fixed6_lines(floats, "\t")):
                fh.write("\t".join(map(str, scores)) + "\t" + line + "\n")


def read_score_table(path) -> ScoreTable:
    """Parse a file written by :func:`write_score_table`.

    The header must list ``human_1`` .. ``human_k``, ``human_mean`` and
    then distinct metric names, in that order, with no ``,``, ``/`` or NUL
    in a name, and ``k`` must equal the ``# annotators:`` comment where
    there is one.  Each row's
    ``human_mean`` must be within 5e-7 (plus float rounding) of the mean of
    its annotator scores.  Each row is parsed into numbers as it is read,
    and the first fault in file order raises :class:`ParseError` at its
    line; a wrong annotator count is named at the header's line.
    """
    normalization: dict[str, tuple[float, float]] = {}
    source = ""
    header: list[str] | None = None
    header_line = 1  # stays 1 when the file has no header
    k = 0
    declared = None  # the count in the "# annotators:" comment
    human = array("q")
    columns: list[array] = []  # one per metric
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("source:"):
                    source = comment[len("source:"):].strip()
                elif comment.startswith("annotators:"):
                    try:
                        declared = int(comment[len("annotators:"):])
                    except ValueError as exc:
                        raise ParseError(path, lineno,
                                         f"malformed annotators comment: {comment!r}") from exc
                    if header is not None:
                        _check_declared(declared, k, path, header_line)
                elif comment.startswith("normalization:"):
                    try:
                        name, lo, hi = _parse_normalization(comment)
                    except ValueError as exc:
                        raise ParseError(path, lineno, str(exc)) from exc
                    normalization[name] = (lo, hi)
                continue
            if header is None:
                header, header_line = line.split("\t"), lineno
                k = _annotator_count(header, path, lineno)
                if declared is not None:
                    _check_declared(declared, k, path, lineno)
                columns = [array("d") for _ in header[k + 1:]]
                continue
            cells = line.split("\t")
            if len(cells) != len(header):
                raise ParseError(
                    path, lineno,
                    f"expected {len(header)} columns, found {len(cells)}",
                )
            try:
                scores = [int(cell) for cell in cells[:k]]
                human_mean = float(cells[k])
                for column, cell in zip(columns, cells[k + 1:]):
                    column.append(float(cell))
            except ValueError as exc:
                raise ParseError(path, lineno, f"non-numeric cell: {exc}") from exc
            bad = [v for v in scores if v not in VALID_SCORES]
            if bad:
                raise ParseError(path, lineno, f"human score {bad[0]} is not in {{0, 1, 2}}")
            mean = sum(scores) / k
            if not abs(human_mean - mean) <= _MEAN_TOLERANCE:
                raise ParseError(path, lineno, f"human_mean {cells[k]} is not the mean "
                                 f"{mean!r} of the row's human scores")
            human.extend(scores)
    if header is None or not human:
        raise ParseError(path, header_line, "no table content found")
    metrics = {name: np.frombuffer(column) for name, column in zip(header[k + 1:], columns)}
    return ScoreTable(np.frombuffer(human, dtype=np.int64).reshape(-1, k),
                      metrics, normalization, source)


def _annotator_count(header: list[str], path, lineno: int) -> int:
    """k of a header ``human_1 .. human_k, human_mean, <metrics>``; any other raises."""
    if "human_mean" not in header or not any(
            name.startswith("human_") and name != "human_mean" for name in header):
        raise ParseError(path, lineno, "missing annotator columns or human_mean")
    k = 0
    while header[k] == f"human_{k + 1}":
        k += 1
    col = k + 1  # 1-based column of the first name out of place
    if k and header[k] == "human_mean":
        seen: set[str] = set()
        for col, name in enumerate(header[k + 1:], start=k + 2):
            if (not name or name.startswith("human_") or name in seen
                    or not _UNSAFE_IN_NAMES.isdisjoint(name)
                    or len(name.encode("utf-8")) > _MAX_NAME_BYTES):
                break
            seen.add(name)
        else:
            return k
    raise ParseError(path, lineno, "header must be human_1 .. human_k, human_mean, then "
                     f"distinct metric names; column {col} is {header[col - 1]!r}")


def _check_declared(declared: int, k: int, path, header_line: int) -> None:
    if declared != k:
        raise ParseError(path, header_line, f"header has {k} human_i columns but the "
                         f"annotators comment declares {declared}")


def _parse_normalization(comment: str) -> tuple[str, float, float]:
    # "normalization: <name> min=<float> max=<float>"
    parts = comment[len("normalization:"):].split()
    if len(parts) != 3 or not parts[1].startswith("min=") or not parts[2].startswith("max="):
        raise ValueError(f"malformed normalization comment: {comment!r}")
    return parts[0], float(parts[1][4:]), float(parts[2][4:])
