"""Per-pair score tables: computation and round-trip serialization."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import random_scorer_params, write_lines
from ruber.baselines import bleu, rouge_l
from ruber.blending import BlendStrategy, blend_series, normalize
from ruber.corpus import load_annotated
from ruber.errors import ParseError
from ruber.referenced import referenced_score
from ruber.scoretable import (
    METRIC_COLUMNS,
    ScoreTable,
    compute_score_table,
    read_score_table,
    write_score_table,
)
from ruber.unreferenced import unreferenced_score
from ruber.vocabulary import Vocabulary


def _setup(tmp_path, n_rows=6, seed=110):
    rng = np.random.default_rng(seed)
    tokens = [f"w{i}" for i in range(10)]
    vocab = Vocabulary(tokens)
    matrix = rng.normal(0, 0.5, (len(vocab), 4))
    params = random_scorer_params(4, 3, 5, rng)

    rows = []
    for i in range(n_rows):
        q = " ".join(rng.choice(tokens, size=3))
        gt = " ".join(rng.choice(tokens, size=3))
        cand = " ".join(rng.choice(tokens, size=int(rng.integers(1, 4))))
        rows.append(f"{q}\t{gt}\t{cand}\t{rng.integers(0, 3)}\t{rng.integers(0, 3)}")
    path = write_lines(tmp_path / "ann.tsv", rows)
    dataset = load_annotated(path)
    return dataset, vocab, matrix, params


class TestComputeScoreTable:
    def test_thirteen_metric_columns(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        assert len(METRIC_COLUMNS) == 13
        assert list(table.metrics) == list(METRIC_COLUMNS)
        assert table.n_pairs == 6
        assert table.n_annotators == 2

    def test_values_match_direct_calls(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        ref = np.array([
            referenced_score(p.groundtruth, p.candidate, vocab, matrix)
            for p in dataset
        ])
        unref = np.array([
            unreferenced_score(p.query, p.candidate, params, vocab, matrix)
            for p in dataset
        ])
        assert_allclose(table.metrics["ref_score"], ref, atol=0)
        assert_allclose(table.metrics["unref_score"], unref, atol=0)
        assert_allclose(table.metrics["ref_norm"], normalize(ref), atol=0)
        assert_allclose(table.metrics["unref_norm"], normalize(unref), atol=0)
        assert_allclose(
            table.metrics["ruber_geometric"],
            blend_series(normalize(ref), normalize(unref), BlendStrategy.GEOMETRIC),
            atol=0,
        )
        for i, pair in enumerate(dataset):
            for n in range(1, 5):
                want = bleu(pair.candidate, pair.groundtruth, n)
                got = table.metrics[f"bleu_{n}"][i]
                assert (math.isnan(want) and math.isnan(got)) or got == want
            assert table.metrics["rouge_l"][i] == rouge_l(
                pair.candidate, pair.groundtruth
            )

    def test_normalization_bounds_recorded(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        lo, hi = table.normalization["ref_score"]
        assert lo == float(np.min(table.metrics["ref_score"]))
        assert hi == float(np.max(table.metrics["ref_score"]))

    def test_human_mean(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        expected = np.array([np.mean(p.human_scores) for p in dataset])
        assert_allclose(table.human_mean, expected, atol=0)

    def test_single_blend_subset(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(
            dataset, vocab, matrix, params, blends=(BlendStrategy.MAX,)
        )
        assert "ruber_max" in table.metrics
        assert "ruber_min" not in table.metrics


class TestScoreTableIO:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        p1, p2 = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        write_score_table(table, p1)
        loaded = read_score_table(p1)
        write_score_table(loaded, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_read_back_values_at_format_precision(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path)
        table = compute_score_table(dataset, vocab, matrix, params)
        path = str(tmp_path / "t.tsv")
        write_score_table(table, path)
        loaded = read_score_table(path)
        assert loaded.n_annotators == table.n_annotators
        assert np.array_equal(loaded.human_scores, table.human_scores)
        for name in table.metrics:
            a, b = table.metrics[name], loaded.metrics[name]
            mask = np.isfinite(a)
            assert np.array_equal(mask, np.isfinite(b)), name
            if mask.any():
                assert np.max(np.abs(a[mask] - b[mask])) <= 5e-7, name
        # normalization bounds ride along at full precision
        for name, (lo, hi) in table.normalization.items():
            assert loaded.normalization[name] == (lo, hi)

    def test_nan_cells_render_and_parse(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path, seed=111)
        table = compute_score_table(dataset, vocab, matrix, params)
        assert np.any(~np.isfinite(table.metrics["bleu_4"]))  # short candidates
        path = str(tmp_path / "t.tsv")
        write_score_table(table, path)
        assert "nan" in Path(path).read_text()
        loaded = read_score_table(path)
        assert np.array_equal(
            np.isnan(table.metrics["bleu_4"]), np.isnan(loaded.metrics["bleu_4"])
        )

    def test_parse_errors_name_lines(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", [
            "# score table",
            "# source: x",
            "# annotators: 1",
            "human_1\thuman_mean\tref_score",
            "1\t1.0\tnot-a-number",
        ])
        with pytest.raises(ParseError) as err:
            read_score_table(str(path))
        assert err.value.line == 5

    def _written(self, tmp_path):
        """The lines of a table as ``score`` writes it, and the header's index."""
        dataset, vocab, matrix, params = _setup(tmp_path)
        path = tmp_path / "t.tsv"
        write_score_table(compute_score_table(dataset, vocab, matrix, params), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        return lines, next(i for i, line in enumerate(lines) if not line.startswith("#"))

    def test_header_errors_name_the_header_line(self, tmp_path):
        lines, at = self._written(tmp_path)
        assert at + 1 == 6  # after five comment lines
        no_rows = write_lines(tmp_path / "no_rows.tsv", lines[:at + 1])
        with pytest.raises(ParseError) as err:
            read_score_table(no_rows)
        assert str(err.value) == f"{no_rows}:6: no table content found"
        renamed = lines[at].replace("human_mean", "mean")
        no_mean = write_lines(tmp_path / "no_mean.tsv", lines[:at] + [renamed] + lines[at + 1:])
        with pytest.raises(ParseError) as err:
            read_score_table(no_mean)
        assert str(err.value) == f"{no_mean}:6: missing annotator columns or human_mean"

    def test_comments_only_points_at_line_one(self, tmp_path):
        lines, at = self._written(tmp_path)
        path = write_lines(tmp_path / "comments.tsv", lines[:at])
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value) == f"{path}:1: no table content found"

    @pytest.mark.parametrize("comment, message", [
        ("# normalization: ref_score min=low max=1", "could not convert string to float"),
        ("# normalization: ref_score 0 1", "malformed normalization comment"),
    ], ids=["not-a-float", "malformed"])
    def test_bad_normalization_comment_names_its_line(self, tmp_path, comment, message):
        lines, _ = self._written(tmp_path)
        path = write_lines(tmp_path / "bad.tsv", lines[:3] + [comment] + lines[4:])
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert err.value.line == 4
        assert str(err.value).startswith(f"{path}:4: {message}")

    def test_missing_header_rejected(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", ["1\t2\t3"])
        with pytest.raises(ParseError):
            read_score_table(str(path))

    def test_ragged_row_rejected(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", [
            "# score table",
            "# source: x",
            "# annotators: 1",
            "human_1\thuman_mean\tref_score",
            "1\t1.0",
        ])
        with pytest.raises(ParseError):
            read_score_table(str(path))


_COMMENTS = ["# score table", "# source: x", "# annotators: 2"]  # the header is line 4
_ORDER_RULE = "header must be human_1 .. human_k, human_mean, then distinct metric names"


def _big_table(n_rows=2000, seed=7):
    rng = np.random.default_rng(seed)
    metrics = {name: rng.normal(0, 1, n_rows) for name in METRIC_COLUMNS}
    metrics["bleu_4"][::5] = np.nan
    return ScoreTable(rng.integers(0, 3, (n_rows, 3)), metrics,
                      {"ref_score": (-1.5, 2.25), "unref_score": (0.0, 1.0)}, "big.tsv")


def _assert_same_table(table, ref):
    assert table.human_scores.shape == ref.human_scores.shape
    assert np.array_equal(table.human_scores, ref.human_scores)
    assert list(table.metrics) == list(ref.metrics)
    for name, column in ref.metrics.items():
        assert table.metrics[name].tobytes() == column.tobytes(), name
    assert table.normalization == ref.normalization
    assert table.source == ref.source


class TestAgainstStringCellsReader:
    def _tables(self, tmp_path):
        dataset, vocab, matrix, params = _setup(tmp_path, n_rows=12)
        full = compute_score_table(dataset, vocab, matrix, params)
        subset = compute_score_table(dataset, vocab, matrix, params,
                                     blends=[BlendStrategy.MAX])
        subset.metrics = {name: subset.metrics[name] for name in ("bleu_1", "ref_score")}
        no_metrics = ScoreTable(np.array([[0], [2]]), {}, {}, "")
        return {"full": full, "subset": subset, "no-metrics": no_metrics, "big": _big_table()}

    def test_same_table(self, tmp_path):
        for name, table in self._tables(tmp_path).items():
            path = tmp_path / f"{name}.tsv"
            write_score_table(table, str(path))
            crlf = tmp_path / f"{name}-crlf.tsv"
            crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
            for each in (path, crlf):
                _assert_same_table(read_score_table(str(each)),
                                   oracles.string_cells_read_score_table(str(each)))

    def test_peak_memory_far_below_the_string_cells_reader(self, tmp_path):
        path = str(tmp_path / "big.tsv")
        write_score_table(_big_table(), path)
        peaks = []
        for reader in (oracles.string_cells_read_score_table, read_score_table):
            tracemalloc.start()
            try:
                reader(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        old, new = peaks
        assert new < old / 4  # measured about 1/13


class TestHeaderOrder:
    @pytest.mark.parametrize("header, message", [
        ("human_1 foo human_mean ref_score", f"{_ORDER_RULE}; column 2 is 'foo'"),
        ("human_2 human_1 human_mean ref_score", f"{_ORDER_RULE}; column 1 is 'human_2'"),
        ("human_1 human_3 human_mean ref_score", f"{_ORDER_RULE}; column 2 is 'human_3'"),
        ("mean human_1 human_mean ref_score", f"{_ORDER_RULE}; column 1 is 'mean'"),
        ("human_1 human_mean human_2 ref_score", f"{_ORDER_RULE}; column 3 is 'human_2'"),
        ("human_1 human_mean ref_score human_mean", f"{_ORDER_RULE}; column 4 is 'human_mean'"),
        ("human_1 human_mean ref_score ref_score", f"{_ORDER_RULE}; column 4 is 'ref_score'"),
        ("human_1 human_mean  ref_score", f"{_ORDER_RULE}; column 3 is ''"),
        ("human_1 human_mean ref_score a,b", f"{_ORDER_RULE}; column 4 is 'a,b'"),
        ("human_1 human_mean ref_score a/b", f"{_ORDER_RULE}; column 4 is 'a/b'"),
        ("human_1 human_mean a\x00b ref_score", f"{_ORDER_RULE}; column 3 is 'a\\x00b'"),
        ("human_1 human_mean ref_score " + "x" * 230, f"{_ORDER_RULE}; column 4 is {'x' * 230!r}"),
        ("human_1 human_mean ref_score " + "é" * 115, f"{_ORDER_RULE}; column 4 is {'é' * 115!r}"),
        ("human_1 human_2 ref_score unref_score", "missing annotator columns or human_mean"),
        ("human_mean ref_score x y", "missing annotator columns or human_mean"),
    ], ids=["column-between", "annotators-swapped", "annotator-skipped", "name-first",
            "annotator-after-mean", "second-mean", "repeated-metric", "empty-name",
            "comma-in-name", "slash-in-name", "nul-in-name", "name-over-229-bytes",
            "multibyte-name-over-229-bytes", "no-mean", "no-annotators"])
    def test_refused_at_the_header_line(self, tmp_path, header, message):
        names = header.split(" ")
        path = write_lines(tmp_path / "bad.tsv",
                           _COMMENTS + ["\t".join(names), "\t".join(["1"] * len(names))])
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value) == f"{path}:4: {message}"

    def test_the_string_cells_reader_took_a_misplaced_column_for_a_metric(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", _COMMENTS + [
            "human_1\tfoo\thuman_mean\tref_score", "1\t0.5\t1.0\t0.25"])
        table = oracles.string_cells_read_score_table(path)
        assert list(table.metrics) == ["human_mean", "ref_score"]


class TestFirstFaultInFileOrder:
    """Rows are parsed as they are read, so the first faulty line is the one named.

    The string-cells reader checked every row's width first, then the
    header, then the cells; each case here names a later line there.
    """

    GOOD = "human_1\thuman_2\thuman_mean\tref_score"
    BAD = "human_1\tfoo\thuman_mean\tref_score"

    @pytest.mark.parametrize("lines, line, message, old_line", [
        ([BAD, "1\t1\t1.0\t0.5", "1\t1"], 4, _ORDER_RULE, 6),
        ([BAD], 4, _ORDER_RULE, 4),  # the string-cells reader: no table content found
        ([BAD, "# normalization: ref_score 0 1", "1\t1\t1.0\t0.5"], 4, _ORDER_RULE, 5),
        ([GOOD, "1\tx\t1.0\t0.5", "1\t1"], 5, "non-numeric cell", 6),
        ([GOOD, "1\t1\t1.0\tx", "1\t1"], 5, "non-numeric cell", 6),
        ([GOOD, "1\t7\t1.0\t0.5", "1\t1"], 5, "human score 7 is not in", 6),
    ], ids=["header-then-ragged-row", "header-without-rows", "header-then-bad-comment",
            "human-cell-then-ragged-row", "metric-cell-then-ragged-row",
            "score-then-ragged-row"])
    def test_first_fault_is_named(self, tmp_path, lines, line, message, old_line):
        path = write_lines(tmp_path / "bad.tsv", _COMMENTS + lines)
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value).startswith(f"{path}:{line}: {message}")
        with pytest.raises(ParseError) as ref:
            oracles.string_cells_read_score_table(path)
        assert ref.value.line == old_line
        assert str(ref.value) != str(err.value)


class TestHumanMeanAndAnnotatorCount:
    """``human_mean`` must be its row's mean, and ``k`` the annotators comment's count."""

    HEADER = "human_1\thuman_2\thuman_mean\tref_score"  # line 4, after _COMMENTS

    @pytest.mark.parametrize("cell, message", [
        ("0.5000006", "human_mean 0.5000006 is not the mean 0.5 of the row's human scores"),
        ("1.5", "human_mean 1.5 is not the mean 0.5 of the row's human scores"),
        ("nan", "human_mean nan is not the mean 0.5 of the row's human scores"),
        ("half", "non-numeric cell: could not convert string to float: 'half'"),
    ], ids=["just-beyond-rounding", "wrong", "nan", "non-numeric"])
    def test_a_wrong_mean_is_refused_at_its_row(self, tmp_path, cell, message):
        path = write_lines(tmp_path / "bad.tsv", _COMMENTS + [
            self.HEADER, "2\t2\t2.000000\t0.1", f"1\t0\t{cell}\t0.2", "0\t0\t0.000000\t0.3"])
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value) == f"{path}:6: {message}"

    def test_a_mean_within_rounding_loads(self, tmp_path):
        path = write_lines(tmp_path / "ok.tsv", _COMMENTS + [
            self.HEADER, "1\t0\t0.5000005\t0.2", "1\t2\t1.4999995\t0.3", "2\t1\t1.5\t0.4"])
        assert read_score_table(path).n_pairs == 3

    @pytest.mark.parametrize("at", [2, 4], ids=["comment-before-header", "comment-after-header"])
    def test_a_count_unlike_the_header_is_refused_at_the_header_line(self, tmp_path, at):
        lines = ["# score table", "# source: x", self.HEADER, "1\t0\t0.500000\t0.2"]
        lines.insert(at, "# annotators: 3")
        header_line = lines.index(self.HEADER) + 1
        path = write_lines(tmp_path / "bad.tsv", lines)
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value) == (f"{path}:{header_line}: header has 2 human_i columns "
                                  "but the annotators comment declares 3")

    def test_a_malformed_count_is_refused_at_its_line(self, tmp_path):
        path = write_lines(tmp_path / "bad.tsv", [
            "# score table", "# annotators: two", self.HEADER, "1\t0\t0.500000\t0.2"])
        with pytest.raises(ParseError) as err:
            read_score_table(path)
        assert str(err.value) == f"{path}:2: malformed annotators comment: 'annotators: two'"

    def test_a_table_without_the_comment_loads(self, tmp_path):
        path = write_lines(tmp_path / "ok.tsv", [self.HEADER, "1\t0\t0.500000\t0.2"])
        table = read_score_table(path)
        assert table.n_annotators == 2 and table.human_mean.tolist() == [0.5]

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 128])
    def test_every_mean_a_written_table_holds_round_trips(self, tmp_path, k):
        """One row per score sum 0 .. 2k; at k=128 some means round by exactly 5e-7."""
        rows = [[2] * (s // 2) + [s % 2] + [0] * (k - s // 2 - 1) for s in range(2 * k)]
        rows.append([2] * k)
        table = ScoreTable(np.array(rows), {"ref_score": np.linspace(0, 1, 2 * k + 1)})
        path = str(tmp_path / "t.tsv")
        write_score_table(table, path)
        assert np.array_equal(read_score_table(path).human_scores, table.human_scores)
