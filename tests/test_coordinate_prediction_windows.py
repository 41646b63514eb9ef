"""Tests for coordinate descent and the convergence predictor."""

import numpy as np
import pytest

from repro.core.prediction import ConvergencePredictor, rank_correlation
from repro.ml.coordinate import (
    AsyncCoordinateDescent,
    RidgeProblem,
    random_ridge_problem,
)
from repro.sim import SimConfig


class TestRidgeProblem:
    def test_exact_solution_minimises(self):
        problem = random_ridge_problem(seed=1)
        optimal = problem.optimal_loss()
        rng = np.random.default_rng(0)
        for _ in range(10):
            perturbed = problem.solution + 0.1 * rng.normal(
                size=problem.dimension
            )
            assert problem.loss(perturbed) >= optimal

    def test_zero_weights_loss_positive(self):
        problem = random_ridge_problem(seed=2)
        assert problem.loss(np.zeros(problem.dimension)) > problem.optimal_loss()


class TestAsyncCoordinateDescent:
    def test_serial_converges(self):
        problem = random_ridge_problem(seed=3)
        cd = AsyncCoordinateDescent(problem, SimConfig(num_workers=1, seed=0))
        trajectory = cd.run(rounds=40, tolerance=1e-4)
        assert trajectory[-1][1] <= problem.optimal_loss() + 1e-4

    def test_serial_loss_monotone(self):
        """Exact coordinate minimisation never increases the loss when
        executed in isolation."""
        problem = random_ridge_problem(seed=4)
        cd = AsyncCoordinateDescent(problem, SimConfig(num_workers=1, seed=0))
        trajectory = cd.run(rounds=15, tolerance=0.0)
        losses = [loss for _, loss in trajectory]
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_concurrent_chaos_slows_or_breaks_monotonicity(self):
        problem = random_ridge_problem(seed=5)
        serial = AsyncCoordinateDescent(problem,
                                        SimConfig(num_workers=1, seed=0))
        serial_traj = serial.run(rounds=25, tolerance=1e-5)

        chaotic = AsyncCoordinateDescent(
            problem,
            SimConfig(num_workers=8, seed=1, write_latency=300,
                      compute_jitter=10),
        )
        chaotic_traj = chaotic.run(rounds=25, tolerance=1e-5)
        # chaos needs at least as many updates, usually more
        assert len(chaotic_traj) >= len(serial_traj)

    def test_monitor_attached(self):
        problem = random_ridge_problem(seed=6)
        cd = AsyncCoordinateDescent(
            problem,
            SimConfig(num_workers=8, seed=2, write_latency=100),
        )
        cd.run(rounds=5, tolerance=0.0)
        e2, e3 = cd.monitor.cumulative_estimates()
        assert e2 + e3 >= 0  # dense reads, every BUU conflicts: usually > 0


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
