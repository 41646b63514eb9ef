"""Tests for the convergence predictor."""

import numpy as np
import pytest

from repro.core.prediction import ConvergencePredictor, rank_correlation


class TestConvergencePredictor:
    def test_recovers_power_law(self):
        rng = np.random.default_rng(7)
        rates2 = rng.uniform(0.1, 10.0, size=80)
        rates3 = rng.uniform(0.1, 10.0, size=80)
        outcomes = 100 * rates2**1.5 * rates3**0.5 * np.exp(
            rng.normal(0, 0.05, size=80)
        )
        predictor = ConvergencePredictor().fit(rates2, rates3, outcomes)
        assert predictor.r_squared(rates2, rates3, outcomes) > 0.95
        prediction = predictor.predict([2.0], [2.0])[0]
        expected = 100 * 2**1.5 * 2**0.5
        assert prediction == pytest.approx(expected, rel=0.2)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ConvergencePredictor().predict([1.0], [1.0])

    def test_nonpositive_outcomes_rejected(self):
        with pytest.raises(ValueError):
            ConvergencePredictor().fit([1.0], [1.0], [0.0])


class TestRankCorrelation:
    def test_perfect_monotone(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert rank_correlation([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_ties_averaged(self):
        rho = rank_correlation([1, 1, 2, 2], [1, 1, 2, 2])
        assert rho == pytest.approx(1.0)

    def test_constant_series_zero(self):
        assert rank_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rank_correlation([1, 2], [1])
