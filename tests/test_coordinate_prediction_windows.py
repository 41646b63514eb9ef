"""Tests for the Spearman rank correlation the figures use."""

import pytest

from repro.core.prediction import rank_correlation


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
