"""Correlation statistics, annotator agreement, and figure-data helpers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from ruber.analysis import (
    correlate,
    inter_annotator,
    pearson,
    quantile_bins,
    rankdata,
    regularized_incomplete_beta,
    scatter_points,
    spearman,
    write_scatter_csv,
)
from ruber.errors import ConfigError
from ruber.scoretable import ScoreTable


class TestAggregateHuman:
    def test_means(self):
        three = ScoreTable(np.array([[2, 2, 2], [0, 1, 2]]), {})
        assert three.human_mean.tolist() == [2.0, 1.0]
        assert ScoreTable(np.array([[1, 2]]), {}).human_mean.tolist() == [1.5]


class TestPearson:
    def test_exact_linearity(self):
        r, p = pearson([1, 2, 3], [2, 4, 6])
        assert r == pytest.approx(1.0, abs=1e-15)
        assert p == pytest.approx(0.0, abs=1e-12)

    def test_exact_anti_linearity(self):
        r, _ = pearson([1, 2, 3], [3, 2, 1])
        assert r == pytest.approx(-1.0, abs=1e-15)

    def test_hand_computed_example(self):
        r, p = pearson([1, 2, 3, 4], [1, 3, 2, 4])
        assert r == pytest.approx(0.8, abs=1e-15)
        assert p == pytest.approx(0.2, abs=1e-12)

    def test_constant_vector_is_undefined_marker(self):
        r, p = pearson([1, 1, 1], [1, 2, 3])
        assert math.isnan(r) and math.isnan(p)
        r, p = pearson([1, 2, 3], [5, 5, 5])
        assert math.isnan(r) and math.isnan(p)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [3, 4])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson([1, 2, 3], [1, 2])

    def test_r_against_extended_precision(self):
        rng = np.random.default_rng(100)
        for n in (5, 30, 150):
            for _ in range(20):
                x = rng.normal(0, 1, n)
                y = 0.5 * x + rng.normal(0, 1, n)
                r, _ = pearson(x, y)
                assert r == pytest.approx(oracles.mp_pearson_r(x, y), abs=1e-12)

    def test_p_against_t_density_integration(self):
        rng = np.random.default_rng(101)
        for n in (5, 30, 150):
            for _ in range(10):
                x = rng.normal(0, 1, n)
                y = 0.3 * x + rng.normal(0, 1, n)
                r, p = pearson(x, y)
                want = oracles.mp_t_two_tailed_p(oracles.mp_pearson_r(x, y), n)
                assert p == pytest.approx(want, abs=1e-6)


class TestSpearman:
    def test_monotone_is_one(self):
        rho, _ = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert rho == pytest.approx(1.0, abs=1e-15)

    def test_rank_example(self):
        rho, p = spearman([1, 2, 3, 4], [1, 3, 2, 4])
        assert rho == pytest.approx(0.8, abs=1e-15)
        assert p == pytest.approx(0.2, abs=1e-12)

    def test_ties_use_average_ranks(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [5.0, 5.0, 7.0, 9.0]
        rho, p = spearman(x, y)
        want_r, want_p = pearson([1, 2, 3, 4], [1.5, 1.5, 3.0, 4.0])
        assert rho == want_r  # identical arithmetic path, bitwise equal
        assert p == want_p

    def test_against_extended_precision(self):
        rng = np.random.default_rng(102)
        for n in (5, 30, 150):
            for _ in range(10):
                x = rng.integers(0, 5, n).astype(float)  # heavy ties
                y = x + rng.normal(0, 1, n)
                rho, _ = spearman(x, y)
                if math.isnan(rho):
                    continue
                assert rho == pytest.approx(oracles.mp_spearman_rho(x, y), abs=1e-12)


class TestRankdata:
    def test_matches_average_ranks_oracle(self):
        rng = np.random.default_rng(104)
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -1e300])
        for n in (0, 1, 2, 7, 60, 400):
            for _ in range(10):
                pool = np.concatenate([rng.integers(-3, 4, 8).astype(float), edges,
                                       rng.normal(0, 1, 8)])
                values = rng.choice(pool, n)
                assert rankdata(values).tolist() == oracles.average_ranks(values.tolist())

    def test_each_nan_ranks_alone_after_the_numbers(self):
        got = rankdata([np.nan, 2.0, np.nan, 1.0, 2.0])
        assert got.tolist() == [4.0, 2.5, 5.0, 1.0, 2.5]


class TestIncompleteBeta:
    def test_against_mpmath(self):
        rng = np.random.default_rng(103)
        cases = [(0.5, 1.5, 0.3), (2.0, 3.0, 0.7), (14.0, 0.5, 0.99),
                 (74.0, 0.5, 0.2), (1.5, 1.5, 0.5)]
        cases += [
            (float(rng.uniform(0.3, 80)), float(rng.uniform(0.3, 80)),
             float(rng.uniform(0.001, 0.999)))
            for _ in range(60)
        ]
        for a, b, x in cases:
            got = regularized_incomplete_beta(a, b, x)
            want = oracles.mp_regularized_incomplete_beta(a, b, x)
            assert got == pytest.approx(want, abs=1e-13), (a, b, x)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_non_positive_shape_rejected(self):
        with pytest.raises(ValueError, match="shape parameters must be positive"):
            regularized_incomplete_beta(0, 1, 0.5)


class TestCorrelate:
    def test_pairwise_nan_exclusion(self):
        metric = np.array([0.1, np.nan, 0.3, 0.4, 0.9])
        human = np.array([0.0, 1.0, 1.0, 2.0, 2.0])
        result = correlate(metric, human)
        assert result.n_used == 4
        r, p = pearson([0.1, 0.3, 0.4, 0.9], [0.0, 1.0, 2.0, 2.0])
        assert result.pearson_r == r
        assert result.pearson_p == p
        assert result.defined

    def test_too_few_usable_rows_is_undefined(self):
        metric = np.array([0.1, np.nan, np.nan])
        human = np.array([0.0, 1.0, 2.0])
        result = correlate(metric, human)
        assert not result.defined
        assert result.n_used == 1
        assert math.isnan(result.pearson_r)

    def test_all_nan_column(self):
        metric = np.full(5, np.nan)
        human = np.arange(5.0)
        result = correlate(metric, human)
        assert result.n_used == 0
        assert not result.defined

    def test_constant_metric_is_undefined_with_full_count(self):
        metric = np.full(6, 0.25)
        human = np.arange(6.0)
        result = correlate(metric, human)
        assert result.n_used == 6
        assert not result.defined


class TestInterAnnotator:
    def _pairs(self, table):
        return np.array(table, dtype=int)

    def test_identical_annotators(self):
        pairs = self._pairs([[0, 0], [1, 1], [2, 2], [1, 1]])
        result = inter_annotator(pairs)
        assert result.average.pearson_r == pytest.approx(1.0)
        assert result.maximum.pearson_r == pytest.approx(1.0)
        assert result.excluded == []

    def test_hand_computed_one_vs_rest(self):
        table = [
            [0, 1, 2],
            [1, 1, 1],
            [2, 0, 1],
            [2, 2, 0],
        ]
        pairs = self._pairs(table)
        result = inter_annotator(pairs)
        scores = np.array(table, dtype=float)
        expected = []
        for k in range(3):
            rest = scores[:, [j for j in range(3) if j != k]].mean(axis=1)
            expected.append(pearson(scores[:, k], rest)[0])
        assert len(result.per_annotator) == 3
        for got, want in zip(result.per_annotator, expected):
            assert got.pearson_r == pytest.approx(want, abs=1e-12)
        assert result.average.pearson_r == pytest.approx(
            float(np.mean(expected)), abs=1e-12
        )
        assert result.maximum.pearson_r == pytest.approx(
            float(np.max(expected)), abs=1e-12
        )

    def test_constant_annotator_excluded_with_disclosure(self):
        table = [
            [0, 1, 1],
            [1, 1, 0],
            [2, 1, 2],
            [0, 1, 2],
        ]
        pairs = self._pairs(table)
        result = inter_annotator(pairs)
        assert result.excluded == [1]
        assert not result.per_annotator[1].defined
        defined = [r.pearson_r for i, r in enumerate(result.per_annotator) if i != 1]
        assert result.average.pearson_r == pytest.approx(
            float(np.mean(defined)), abs=1e-12
        )

    def test_single_annotator_rejected(self):
        with pytest.raises(ValueError):
            inter_annotator(self._pairs([[1], [2]]))

    def test_all_constant_annotators_gives_nan_summary(self):
        pairs = self._pairs([[1, 1], [1, 1], [1, 1]])
        result = inter_annotator(pairs)
        assert result.excluded == [0, 1]
        assert math.isnan(result.average.pearson_r)


class TestQuantileBins:
    def test_even_split(self):
        human = np.arange(10.0)
        metric = np.arange(10.0) * 2
        means = quantile_bins(human, metric, 5)
        assert_allclose(means, [1, 5, 9, 13, 17])

    def test_remainder_goes_to_early_bins(self):
        human = np.arange(11.0)
        metric = np.ones(11)
        means = quantile_bins(human, metric, 5)
        assert means.shape == (5,)
        # group sizes [3, 2, 2, 2, 2]: verify via a metric equal to the index
        means_idx = quantile_bins(human, np.arange(11.0), 5)
        assert_allclose(means_idx, [1.0, 3.5, 5.5, 7.5, 9.5])

    def test_metric_equal_to_human_is_nondecreasing(self):
        rng = np.random.default_rng(105)
        human = rng.normal(0, 1, 37)
        means = quantile_bins(human, human, 5)
        assert np.all(np.diff(means) >= 0)

    def test_n_below_k_rejected(self):
        with pytest.raises(ValueError):
            quantile_bins(np.arange(3.0), np.arange(3.0), 5)

    def test_stable_tie_handling(self):
        human = np.array([1.0, 1.0, 1.0, 1.0])
        metric = np.array([10.0, 20.0, 30.0, 40.0])
        means = quantile_bins(human, metric, 2)
        assert_allclose(means, [15.0, 35.0])  # input order preserved within ties


class TestScatter:
    def test_sigma_zero_is_identity(self):
        human = np.array([0.0, 1.0, 2.0])
        metric = np.array([0.5, 0.6, 0.7])
        points = scatter_points(human, metric, sigma=0.0, seed=3)
        assert_allclose(points[:, 0], human, atol=0)
        assert_allclose(points[:, 1], metric, atol=0)

    def test_jitter_touches_only_human_axis(self):
        human = np.zeros(50)
        metric = np.linspace(0, 1, 50)
        points = scatter_points(human, metric, sigma=0.25, seed=4)
        assert np.any(points[:, 0] != 0.0)
        assert_allclose(points[:, 1], metric, atol=0)

    def test_deterministic_per_seed(self):
        human = np.arange(20.0)
        metric = np.arange(20.0)
        a = scatter_points(human, metric, seed=7)
        b = scatter_points(human, metric, seed=7)
        c = scatter_points(human, metric, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_jitter_scale(self):
        human = np.zeros(4000)
        metric = np.zeros(4000)
        points = scatter_points(human, metric, sigma=0.25, seed=9)
        assert np.std(points[:, 0]) == pytest.approx(0.25, rel=0.1)

    def test_negative_sigma_rejected(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scatter_points(np.zeros(3), np.zeros(3), sigma=sigma)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            scatter_points(np.zeros(3), np.zeros(3), seed=-1)

    def test_csv_export(self, tmp_path):
        path = tmp_path / "scatter.csv"
        write_scatter_csv(path, np.array([1.0, 2.0]), np.array([0.25, 0.75]),
                          sigma=0.0, seed=0)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "human,metric"
        assert lines[1] == "1.000000,0.250000"
        assert len(lines) == 3
