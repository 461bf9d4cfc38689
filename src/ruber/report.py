"""Correlation reports: every metric against the mean human judgment.

A report has one row per metric (Pearson r and Spearman rho with
two-tailed p-values and the usable row count) plus, when the table
carries at least two annotators, one-vs-rest human agreement rows
(average and maximum).  It renders as an aligned text table and as JSON;
undefined values print as "undefined" and serialize as null.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, astuple, dataclass, field

from .analysis import CorrelationResult, correlate, inter_annotator
from .scoretable import ScoreTable

# Row order in rendered reports; *_norm columns are omitted because both
# correlation coefficients are invariant under the rescaling that
# produced them.
REPORT_ROWS = (
    "human_avg",
    "human_max",
    "bleu_1",
    "bleu_2",
    "bleu_3",
    "bleu_4",
    "rouge_l",
    "ref_score",
    "unref_score",
    "ruber_min",
    "ruber_geometric",
    "ruber_arithmetic",
    "ruber_max",
)

# Score-table columns left out of the report and of the CLI's figure
# exports, for the reason above.
SKIPPED_COLUMNS = ("ref_norm", "unref_norm")


@dataclass
class CorrelationReport:
    rows: dict[str, CorrelationResult]
    normalization: dict[str, tuple[float, float]] = field(default_factory=dict)
    source: str = ""
    n_pairs: int = 0
    excluded_annotators: list[int] = field(default_factory=list)


def build_report(table: ScoreTable) -> CorrelationReport:
    """Correlate every metric column of ``table`` with the mean human score."""
    human = table.human_mean
    rows: dict[str, CorrelationResult] = {}
    excluded: list[int] = []
    if table.n_annotators >= 2:
        agreement = inter_annotator(table.human_scores)
        rows["human_avg"] = agreement.average
        rows["human_max"] = agreement.maximum
        excluded = agreement.excluded
    for name, values in table.metrics.items():
        if name in SKIPPED_COLUMNS:
            continue
        rows[name] = correlate(values, human)
    ordered = {name: rows[name] for name in REPORT_ROWS if name in rows}
    for name in rows:  # keep any non-standard columns at the end
        if name not in ordered:
            ordered[name] = rows[name]
    return CorrelationReport(
        rows=ordered,
        normalization=dict(table.normalization),
        source=table.source,
        n_pairs=table.n_pairs,
        excluded_annotators=excluded,
    )


def format_report_text(report: CorrelationReport) -> str:
    """Aligned, fixed-width text rendering."""
    headers = ("metric", "pearson_r", "pearson_p", "spearman_rho", "spearman_p", "n")
    lines = [f"# source: {report.source}", f"# pairs: {report.n_pairs}"]
    for name, (lo, hi) in report.normalization.items():
        lines.append(f"# normalization: {name} min={lo:.6f} max={hi:.6f}")
    if report.excluded_annotators:
        ids = ", ".join(str(i) for i in report.excluded_annotators)
        lines.append(f"# excluded annotators (undefined one-vs-rest): {ids}")
    widths = (16, 12, 12, 12, 12, 6)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for name, res in report.rows.items():
        *coefficients, n_used = astuple(res)  # field order is the column order
        cells = (name, *map(_fmt, coefficients), str(n_used))
        lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    return "\n".join(lines) + "\n"


def report_to_json(report: CorrelationReport) -> str:
    """Machine-readable form; NaN becomes null so the JSON stays strict."""
    payload = {
        "source": report.source,
        "n_pairs": report.n_pairs,
        "normalization": {
            name: {"min": lo, "max": hi}
            for name, (lo, hi) in report.normalization.items()
        },
        "excluded_annotators": report.excluded_annotators,
        "rows": {
            name: {key: _jsonable(value) for key, value in asdict(res).items()}
            for name, res in report.rows.items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _fmt(value: float) -> str:
    return "undefined" if math.isnan(value) else f"{value:.4f}"


def _jsonable(value):
    return None if math.isnan(value) else value
