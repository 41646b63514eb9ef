"""Tests for the optimization substrate (logistic regression, optimizers,
asynchronous training)."""

import math
import random

import pytest

from repro.ml.async_sgd import AsyncTrainer
from repro.ml.logistic import (
    initial_loss,
    optimum_loss,
    sample_gradient,
    sample_loss,
    sigmoid,
)
from repro.ml.optimizers import (
    asgd_buu,
    asgdm_buu,
    make_optimizer,
    rmsprop_buu,
)
from repro.sim import SimConfig
from repro.workloads.datasets import ClickSample, synthetic_click_dataset


@pytest.fixture(scope="module")
def dataset():
    return synthetic_click_dataset(300, 40, 5, rng=random.Random(1))


class TestLogistic:
    def test_sigmoid_range_and_symmetry(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(100.0) == pytest.approx(1.0)
        assert sigmoid(-100.0) == pytest.approx(0.0, abs=1e-10)
        assert sigmoid(2.0) + sigmoid(-2.0) == pytest.approx(1.0)

    def test_zero_model_loss_is_log2(self, dataset):
        assert initial_loss(dataset) == pytest.approx(math.log(2))

    def test_optimum_beats_initial(self, dataset):
        assert optimum_loss(dataset) < initial_loss(dataset)

    def test_loss_nonnegative(self, dataset):
        weights = {dataset.weight_key(i): 0.3 for i in range(dataset.num_features)}
        for sample in dataset.samples[:20]:
            assert sample_loss(weights, sample, dataset) >= 0

    def test_gradient_matches_finite_difference(self, dataset):
        sample = dataset.samples[0]
        weights = {dataset.weight_key(i): 0.1 * (i % 5)
                   for i in range(dataset.num_features)}
        grad = sample_gradient(weights, sample, dataset)
        eps = 1e-6
        for feature in sample.features:
            key = dataset.weight_key(feature)
            bumped = dict(weights)
            bumped[key] = weights.get(key, 0.0) + eps
            numeric = (sample_loss(bumped, sample, dataset)
                       - sample_loss(weights, sample, dataset)) / eps
            assert grad[key] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_gradient_sign(self, dataset):
        """For a positive label and zero weights, the gradient is negative
        (pushing scores up)."""
        sample = ClickSample(features=[0, 1], label=1)
        grad = sample_gradient({}, sample, dataset)
        assert all(g < 0 for g in grad.values())


class TestOptimizerBuus:
    def test_asgd_buu_shape(self, dataset):
        sample = dataset.samples[0]
        buu = asgd_buu(dataset, sample, lr=0.1)
        assert buu.additive
        assert len(buu.reads) == len(sample.features)
        deltas = buu.run_compute({k: 0.0 for k in buu.reads})
        assert set(deltas) == set(buu.reads)

    def test_asgdm_reads_velocity(self, dataset):
        sample = dataset.samples[0]
        buu = asgdm_buu(dataset, sample, lr=0.1)
        assert any(str(k).startswith("m:") for k in buu.reads)
        deltas = buu.run_compute({k: 0.0 for k in buu.reads})
        # writes both weights and velocity deltas
        assert any(str(k).startswith("m:") for k in deltas)

    def test_asgdm_momentum_accumulates(self, dataset):
        sample = dataset.samples[0]
        buu = asgdm_buu(dataset, sample, lr=0.1, momentum=0.9)
        key = dataset.weight_key(sample.features[0])
        first = buu.run_compute({k: 0.0 for k in buu.reads})
        # second step with the velocity from the first: larger weight delta
        values = {k: 0.0 for k in buu.reads}
        values[f"m:{key}"] = first[f"m:{key}"]
        second = buu.run_compute(values)
        assert abs(second[key]) > abs(first[key]) * 0.99

    def test_rmsprop_normalizes_step(self, dataset):
        sample = dataset.samples[0]
        buu = rmsprop_buu(dataset, sample, lr=0.1, decay=0.0)
        deltas = buu.run_compute({k: 0.0 for k in buu.reads})
        key = dataset.weight_key(sample.features[0])
        # with decay=0, step = -lr * g / |g| = -lr * sign(g)
        assert abs(deltas[key]) == pytest.approx(0.1, rel=1e-3)

    def test_make_optimizer_unknown(self):
        with pytest.raises(ValueError):
            make_optimizer("adamw")


class TestAsyncTrainer:
    def test_serial_like_training_converges(self, dataset):
        trainer = AsyncTrainer(
            dataset, "asgd",
            SimConfig(num_workers=1, seed=0),
            learning_rate=0.2, batch_per_round=300,
        )
        result = trainer.train(rounds=12)
        assert result.converged
        assert result.final_loss <= optimum_loss(dataset) + 0.06

    def test_records_anomalies_and_losses(self, dataset):
        trainer = AsyncTrainer(
            dataset, "asgd",
            SimConfig(num_workers=8, seed=1, write_latency=200),
            learning_rate=0.2, batch_per_round=200,
        )
        result = trainer.train(rounds=4)
        assert len(result.rounds) == 4
        assert result.rounds[-1].buus_total == 800
        assert result.total_2_cycles >= 0
        assert all(r.loss > 0 for r in result.rounds)

    def test_staleness_slows_convergence(self, dataset):
        """The Fig 7 relationship: tighter staleness converges in fewer
        BUUs; loose staleness needs more (or diverges)."""

        def buus_to_converge(bound):
            trainer = AsyncTrainer(
                dataset, "asgd",
                SimConfig(num_workers=16, seed=3, write_latency=800,
                          staleness_bound=bound, compute_jitter=20),
                learning_rate=0.5, batch_per_round=100, seed=3,
            )
            result = trainer.train(rounds=30, stop_at_convergence=True)
            return result.buus_to_converge or 10**9

        assert buus_to_converge(1) < buus_to_converge(None)

    def test_staleness_increases_anomaly_rate(self):
        """Needs the sparse-conflict regime (wide feature space) that the
        Fig 7 experiment operates in."""
        sparse = synthetic_click_dataset(300, 60, 5, rng=random.Random(1))

        def rate(bound):
            trainer = AsyncTrainer(
                sparse, "asgd",
                SimConfig(num_workers=8, seed=3, write_latency=400,
                          staleness_bound=bound, compute_jitter=20),
                learning_rate=0.05, batch_per_round=200, seed=3,
            )
            result = trainer.train(rounds=5)
            c2, c3 = result.cycles_per_time()
            return c2 + c3

        assert rate(1) < rate(None)

    def test_staleness_schedule_switch(self, dataset):
        """Fig 8 mechanics: the schedule switches the bound mid-run."""
        trainer = AsyncTrainer(
            dataset, "asgd",
            SimConfig(num_workers=16, seed=3, write_latency=800,
                      staleness_bound=None, compute_jitter=20),
            learning_rate=0.3, batch_per_round=100, seed=3,
        )
        trainer.train(rounds=4, staleness_schedule={2: 1})
        assert trainer.simulator.config.staleness_bound == 1

    def test_divergence_detected(self, dataset):
        trainer = AsyncTrainer(
            dataset, "asgd",
            SimConfig(num_workers=16, seed=3, write_latency=2000,
                      compute_jitter=10),
            learning_rate=8.0, batch_per_round=200, seed=3,
        )
        result = trainer.train(rounds=20)
        assert not result.converged
        # blow-up cut the run short
        assert len(result.rounds) <= 20
