"""Correlation report construction and rendering."""

import json
import math

import numpy as np
import pytest

from conftest import random_scorer_params, write_lines
from ruber.corpus import load_annotated
from ruber.report import (
    REPORT_ROWS,
    build_report,
    format_report_text,
    report_to_json,
)
from ruber.scoretable import compute_score_table
from ruber.vocabulary import Vocabulary


def _table(tmp_path, n_rows=12, seed=120, annotators=3):
    rng = np.random.default_rng(seed)
    tokens = [f"w{i}" for i in range(12)]
    vocab = Vocabulary(tokens)
    matrix = rng.normal(0, 0.5, (len(vocab), 4))
    params = random_scorer_params(4, 3, 5, rng)
    rows = []
    for _ in range(n_rows):
        q = " ".join(rng.choice(tokens, size=3))
        gt = " ".join(rng.choice(tokens, size=4))
        cand = " ".join(rng.choice(tokens, size=int(rng.integers(2, 5))))
        scores = "\t".join(str(rng.integers(0, 3)) for _ in range(annotators))
        rows.append(f"{q}\t{gt}\t{cand}\t{scores}")
    path = write_lines(tmp_path / "ann.tsv", rows)
    return compute_score_table(load_annotated(path), vocab, matrix, params)


class TestBuildReport:
    def test_row_order_and_coverage(self, tmp_path):
        table = _table(tmp_path)
        report = build_report(table)
        assert list(report.rows) == list(REPORT_ROWS)
        assert report.n_pairs == 12

    def test_norm_columns_not_reported(self, tmp_path):
        report = build_report(_table(tmp_path))
        assert "ref_norm" not in report.rows
        assert "unref_norm" not in report.rows
        # but the bounds still ride along for provenance
        assert set(report.normalization) == {"ref_score", "unref_score"}

    def test_single_annotator_has_no_human_rows(self, tmp_path):
        table = _table(tmp_path, annotators=1, seed=121)
        report = build_report(table)
        assert "human_avg" not in report.rows
        assert "human_max" not in report.rows
        assert "ref_score" in report.rows

    def test_metric_equal_to_human_mean_correlates_perfectly(self, tmp_path):
        table = _table(tmp_path, seed=122)
        table.metrics["ref_score"] = table.human_mean.copy()
        report = build_report(table)
        assert report.rows["ref_score"].pearson_r == pytest.approx(1.0, abs=1e-12)
        assert report.rows["ref_score"].spearman_rho == pytest.approx(1.0, abs=1e-12)

    def test_non_standard_column_follows_the_standard_rows(self, tmp_path):
        table = _table(tmp_path, seed=125)
        table.metrics = {"extra": table.human_mean.copy(), **table.metrics}
        report = build_report(table)
        assert list(report.rows) == list(REPORT_ROWS) + ["extra"]
        assert report.rows["extra"].spearman_rho == pytest.approx(1.0, abs=1e-12)

    def test_all_nan_metric_is_undefined_with_zero_count(self, tmp_path):
        table = _table(tmp_path, seed=123)
        table.metrics["bleu_4"][:] = np.nan
        report = build_report(table)
        row = report.rows["bleu_4"]
        assert row.n_used == 0
        assert math.isnan(row.pearson_r)

    def test_human_agreement_rows(self, tmp_path):
        table = _table(tmp_path, seed=124)
        report = build_report(table)
        avg = report.rows["human_avg"]
        best = report.rows["human_max"]
        if not math.isnan(avg.pearson_r):
            assert best.pearson_r >= avg.pearson_r - 1e-12


class TestRenderText:
    def test_undefined_cells_and_alignment(self, tmp_path):
        table = _table(tmp_path, seed=125)
        table.metrics["bleu_4"][:] = np.nan
        text = format_report_text(build_report(table))
        lines = text.splitlines()
        assert lines[-1].endswith("\n") is False
        header = next(l for l in lines if l.startswith("metric"))
        columns = header.split()
        assert columns == ["metric", "pearson_r", "pearson_p",
                           "spearman_rho", "spearman_p", "n"]
        bleu4_line = next(l for l in lines if l.startswith("bleu_4"))
        assert "undefined" in bleu4_line

    def test_normalization_comments(self, tmp_path):
        text = format_report_text(build_report(_table(tmp_path, seed=126)))
        assert "# normalization: ref_score" in text
        assert "# normalization: unref_score" in text


class TestRenderJson:
    def test_schema_and_null_handling(self, tmp_path):
        table = _table(tmp_path, seed=127)
        table.metrics["bleu_4"][:] = np.nan
        payload = json.loads(report_to_json(build_report(table)))
        assert set(payload) == {
            "source", "n_pairs", "normalization", "excluded_annotators", "rows"
        }
        assert payload["n_pairs"] == 12
        row = payload["rows"]["bleu_4"]
        assert row["pearson_r"] is None
        assert row["n_used"] == 0
        defined = payload["rows"]["ref_score"]
        assert isinstance(defined["pearson_r"], float)
        assert set(defined) == {
            "pearson_r", "pearson_p", "spearman_rho", "spearman_p", "n_used"
        }

    def test_json_is_strict(self, tmp_path):
        text = report_to_json(build_report(_table(tmp_path, seed=128)))
        json.loads(text)  # would fail on bare NaN tokens
        assert "NaN" not in text
