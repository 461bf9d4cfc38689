"""Score normalization and the four blending strategies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import oracles
from ruber.blending import BlendStrategy, blend, blend_series, normalize

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestNormalize:
    def test_endpoints_map_exactly(self):
        out = normalize([1.0, 3.0, 5.0])
        assert out[0] == 0.0
        assert out[1] == 0.5
        assert out[2] == 1.0

    def test_constant_series_maps_to_half(self):
        assert_allclose(normalize([0.7, 0.7]), [0.5, 0.5], atol=0)

    def test_singleton_maps_to_half(self):
        assert_allclose(normalize([2.0]), [0.5], atol=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normalize([0.0, np.nan])
        with pytest.raises(ValueError):
            normalize([0.0, np.inf])

    def test_output_range(self):
        rng = np.random.default_rng(80)
        for _ in range(100):
            series = rng.normal(0, 10, size=int(rng.integers(1, 40)))
            out = normalize(series)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_exact_invariance_power_of_two_scale(self):
        """Scaling by a power of two is float-exact, so output is bitwise equal."""
        rng = np.random.default_rng(81)
        for _ in range(100):
            series = rng.normal(0, 4, size=int(rng.integers(2, 30)))
            base = normalize(series)
            for scale in (0.25, 2.0, 8.0, 2.0 ** 40):
                assert np.array_equal(base, normalize(series * scale))

    def test_exact_invariance_integer_series_affine(self):
        """On integer-valued series (like human scores) a*x+b stays exact."""
        rng = np.random.default_rng(85)
        for _ in range(100):
            series = rng.integers(0, 3, size=int(rng.integers(2, 30))).astype(float)
            if series.min() == series.max():
                continue
            base = normalize(series)
            assert np.array_equal(base, normalize(series * 8.0 + 3.0))
            assert np.array_equal(base, normalize(series * 4.0 - 17.0))

    def test_affine_invariance_general_reals(self):
        rng = np.random.default_rng(82)
        for _ in range(100):
            series = rng.normal(0, 4, size=int(rng.integers(2, 30)))
            a = float(rng.uniform(0.1, 7.0))
            b = float(rng.normal(0, 5))
            assert_allclose(normalize(series * a + b), normalize(series),
                            atol=1e-12)

    def test_preserves_order(self):
        rng = np.random.default_rng(83)
        series = rng.normal(0, 1, 25)
        out = normalize(series)
        assert np.array_equal(np.argsort(series, kind="stable"),
                              np.argsort(out, kind="stable"))


class TestBlend:
    def test_worked_examples(self):
        assert blend(0.2, 0.6, BlendStrategy.ARITHMETIC) == pytest.approx(0.4)
        assert blend(0.25, 1.0, BlendStrategy.GEOMETRIC) == pytest.approx(0.5)
        assert blend(0.2, 0.6, BlendStrategy.MIN) == 0.2
        assert blend(0.2, 0.6, BlendStrategy.MAX) == 0.6

    def test_equal_inputs_are_fixed_points(self):
        for strategy in BlendStrategy:
            for v in [0.0, 0.3, 1.0]:
                assert blend(v, v, strategy) == v

    def test_out_of_range_rejected_beyond_slack(self):
        with pytest.raises(ValueError):
            blend(-0.01, 0.5, BlendStrategy.MIN)
        with pytest.raises(ValueError):
            blend(0.5, 1.01, BlendStrategy.MAX)

    def test_slack_inputs_clamp_into_range(self):
        assert blend(-1e-10, 0.5, BlendStrategy.MIN) == 0.0
        assert blend(0.5, 1.0 + 1e-10, BlendStrategy.MAX) == 1.0

    def test_strategy_from_string_value(self):
        assert BlendStrategy("geometric") is BlendStrategy.GEOMETRIC
        assert {s.value for s in BlendStrategy} == {
            "min", "max", "geometric", "arithmetic"
        }

    @given(unit, unit)
    @settings(max_examples=500, deadline=None)
    def test_am_gm_chain(self, x, y):
        lo = blend(x, y, BlendStrategy.MIN)
        geo = blend(x, y, BlendStrategy.GEOMETRIC)
        ari = blend(x, y, BlendStrategy.ARITHMETIC)
        hi = blend(x, y, BlendStrategy.MAX)
        assert lo <= geo <= ari <= hi
        assert lo == min(x, y)
        assert hi == max(x, y)

    @given(unit, unit)
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x, y):
        for strategy in BlendStrategy:
            assert blend(x, y, strategy) == blend(y, x, strategy)

    @given(unit, unit)
    @settings(max_examples=200, deadline=None)
    def test_geometric_is_root_of_product(self, x, y):
        got = blend(x, y, BlendStrategy.GEOMETRIC)
        assert got == pytest.approx(math.sqrt(x * y), abs=1e-15)


class TestBlendSeries:
    def test_matches_scalar_blend(self):
        # bit patterns must agree, so signed zeros and the geometric edge
        # branches (equal inputs, underflowing product) count too
        rng = np.random.default_rng(84)
        edges = [0.0, -0.0, 1.0, -1e-10, 1.0 + 1e-10, 5e-324, 1e-160, 1e-300,
                 0.5, float(np.nextafter(0.5, 1.0))]
        ref = np.concatenate([rng.uniform(0, 1, 30), np.repeat(edges, len(edges))])
        unref = np.concatenate([rng.uniform(0, 1, 30), np.tile(edges, len(edges))])
        for strategy in BlendStrategy:
            series = blend_series(ref, unref, strategy)
            scalar = np.array([oracles.scalar_blend(float(a), float(b), strategy.value)
                               for a, b in zip(ref, unref)])
            assert series.view(np.int64).tolist() == scalar.view(np.int64).tolist()
            assert blend(float(ref[0]), float(unref[0]), strategy) == scalar[0]

    def test_out_of_range_rejected_anywhere_in_the_series(self):
        with pytest.raises(ValueError, match="outside"):
            blend_series([0.5, 0.2, 1.5], [0.5, 0.5, 0.5], BlendStrategy.ARITHMETIC)
        with pytest.raises(ValueError, match="outside"):
            blend_series([0.5, 0.2], [0.5, np.nan], BlendStrategy.MIN)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            blend_series(np.zeros(3), np.zeros(4), BlendStrategy.MIN)
