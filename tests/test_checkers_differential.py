"""Differential tests: the sampled monitor against the *exact checker*.

``tests/test_differential.py`` validates the real-time paths against the
offline monitor — which shares its collector and cycle counter with the
code under test.  Here the ground truth is :mod:`repro.checkers`, which
shares neither, so these differentials can catch bugs in the shared
bookkeeping itself:

- sr=1 bit-exactness across all three paper workloads (ycsb, bookstore,
  graph) x 50 seeds — the full sweep is marked ``oracle`` (CI's oracle
  job); a small smoke subset stays in tier-1;
- sr in {2, 4, 8}: the Theorem 5.2 estimator's mean over independent
  sampler seeds lands within 3 sigma of the checker's exact counts;
- hypothesis properties over shrinkable interleavings: any disagreement
  minimises to a witness history of a handful of operations;
- an injected monitor bug (dropping rw anti-dependency edges) *is*
  caught, with the shrunk minimal witness to prove the harness bites.
"""

from __future__ import annotations

import statistics

import pytest
from hypothesis import HealthCheck, find, given, settings

from repro.checkers import exact_cycle_counts
from repro.core.collector import DataCentricCollector
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector
from repro.core.monitor import RushMon
from repro.core.types import EdgeType, Operation
from repro.sim import SimConfig, Simulator
from repro.sim.traces import Trace

from tests.histgen import feed_with_lifecycle, random_history
from tests.strategies import interleavings

WORKLOADS = ("ycsb", "bookstore", "graph")
FULL_SEEDS = range(50)
SMOKE_SEEDS = range(0, 50, 10)


def workload_history(name: str, seed: int) -> list[Operation]:
    """One seeded run of a paper workload, captured as a raw history."""
    trace = Trace()
    if name == "ycsb":
        from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

        workload = YcsbWorkload(YcsbConfig(records=40, theta=0.9, seed=seed))
        sim = Simulator(SimConfig(num_workers=8, write_latency=150,
                                  seed=seed), listeners=[trace])
        sim.run(workload.buus(120))
    elif name == "bookstore":
        from repro.workloads.bookstore import Bookstore, BookstoreConfig

        shop = Bookstore(
            BookstoreConfig(num_books=30, customers=8, books_per_order=3,
                            initial_stock=3, seed=seed),
            SimConfig(num_workers=8, write_latency=120, seed=seed),
        )
        shop.simulator.subscribe(trace)
        shop.run(150)
    elif name == "graph":
        from repro.workloads.graph_workload import (
            GraphWorkload,
            GraphWorkloadConfig,
        )

        workload = GraphWorkload(GraphWorkloadConfig(num_vertices=60,
                                                     neighbor_cap=4,
                                                     seed=seed))
        sim = Simulator(SimConfig(num_workers=8, write_latency=150,
                                  seed=seed), listeners=[trace])
        sim.run(workload.buus(100))
    else:  # pragma: no cover - parametrize guards this
        raise ValueError(name)
    return trace.ops


def monitor_counts(history, *, sampling_rate=1, mob=False, seed=0):
    monitor = RushMon(RushMonConfig(sampling_rate=sampling_rate, mob=mob,
                                    seed=seed))
    feed_with_lifecycle([monitor], history)
    return monitor


def _assert_bit_exact(history):
    exact = exact_cycle_counts(history)
    monitor = monitor_counts(history)
    assert monitor.detector.counts == exact
    e2, e3 = monitor.cumulative_estimates()
    assert e2 == exact.two_cycles
    assert e3 == exact.three_cycles


@pytest.mark.oracle
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_sr1_bit_exact_full_sweep(workload, seed):
    """The acceptance sweep: all three workloads x 50 seeds, sr=1
    monitor counts equal the independent checker's exactly."""
    _assert_bit_exact(workload_history(workload, seed))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_sr1_bit_exact_smoke(workload, seed):
    """Tier-1 subset of the sweep (the oracle job runs all 50 seeds)."""
    _assert_bit_exact(workload_history(workload, seed))


@pytest.mark.oracle
@pytest.mark.parametrize("sr", [2, 4, 8])
def test_estimator_unbiased_against_checker(sr):
    """Theorem 5.2 vs the exact checker: over independent sampler seeds
    the estimate's mean must land within 3 standard errors of the
    checker's exact 2-/3-cycle counts."""
    history = random_history(5, num_buus=140, num_keys=8, ops_per_buu=5)
    exact = exact_cycle_counts(history)
    assert exact.two_cycles > 0 and exact.three_cycles > 0
    trials = 200
    e2s, e3s = [], []
    for trial in range(trials):
        monitor = monitor_counts(history, sampling_rate=sr, seed=trial)
        e2, e3 = monitor.cumulative_estimates()
        e2s.append(e2)
        e3s.append(e3)
    for estimates, truth in ((e2s, exact.two_cycles),
                             (e3s, exact.three_cycles)):
        mean = statistics.fmean(estimates)
        stderr = statistics.stdev(estimates) / trials ** 0.5
        assert abs(mean - truth) <= 3 * max(stderr, 1e-9), (
            f"sr={sr}: mean {mean:.2f} vs exact {truth} "
            f"(stderr {stderr:.3f})"
        )


@given(history=interleavings(max_buus=5, max_steps=4, max_keys=3))
def test_monitor_agrees_with_checker_on_any_interleaving(history):
    """The shrinking differential: if the sr=1 monitor ever disagrees
    with the exact checker, hypothesis minimises the interleaving to a
    few operations and prints it."""
    _assert_bit_exact(history)


def _rw_dropping_counts(history):
    """A deliberately broken monitor pipeline: the collector's rw
    anti-dependency edges never reach the detector."""
    collector = DataCentricCollector(sampling_rate=1, mob=False)
    detector = CycleDetector()
    for op in history:
        for edge in collector.handle(op):
            if edge.kind is not EdgeType.RW:  # the injected bug
                detector.add_edge(edge)
    return detector.counts


def test_injected_rw_drop_caught_with_minimal_witness():
    """Acceptance: a monitor that silently drops one edge type *is*
    caught by the differential harness, and the witness shrinks to a
    minimal history (a lost update needs only three operations).

    The search is derandomized: an unseeded one shrank to a 9-operation
    witness about once in 65 runs, so the bound below held by luck."""

    def diverges(history):
        return _rw_dropping_counts(history) != exact_cycle_counts(history)

    witness = find(
        interleavings(max_buus=4, max_steps=3, max_keys=2),
        diverges,
        settings=settings(max_examples=300, deadline=None, database=None,
                          derandomize=True,
                          suppress_health_check=list(HealthCheck)),
    )
    assert diverges(witness)
    # Shrunk to a handful of operations — small enough to read in a
    # failure message and replay by hand.
    assert len(witness) <= 8, witness
    # 1-minimal: every operation is needed to show the divergence.
    for i in range(len(witness)):
        assert not diverges(witness[:i] + witness[i + 1:]), (i, witness)
    # The honest monitor passes the same history.
    exact = exact_cycle_counts(witness)
    assert monitor_counts(witness).detector.counts == exact
