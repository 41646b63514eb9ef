"""Tests for the RushMon facade and the offline baseline monitor."""

import gc
import random
import weakref

import pytest

from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.core.types import Operation, OpType

from tests.histgen import (
    BuuProgram,
    interleaved_history,
    program,
    serial_history,
)


def lost_update_ops():
    return [
        Operation(OpType.READ, 1, "x", 1),
        Operation(OpType.READ, 2, "x", 2),
        Operation(OpType.WRITE, 1, "x", 3),
        Operation(OpType.WRITE, 2, "x", 4),
    ]


class TestRushMon:
    def test_lost_update_detected(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.begin_buu(1, 0)
        mon.begin_buu(2, 0)
        mon.on_operations(lost_update_ops())
        mon.commit_buu(1, 5)
        mon.commit_buu(2, 5)
        report = mon.close_window()
        assert report.estimated_2 == 1.0
        assert report.estimated_3 == 0.0
        assert report.operations == 4

    def test_window_resets(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.begin_buu(1, 0)
        mon.begin_buu(2, 0)
        mon.on_operations(lost_update_ops())
        first = mon.close_window()
        second = mon.close_window()
        assert first.estimated_2 == 1.0
        assert second.estimated_2 == 0.0
        assert second.operations == 0
        assert second.window_start == first.window_end

    def test_cumulative_estimates_persist(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.begin_buu(1, 0)
        mon.begin_buu(2, 0)
        mon.on_operations(lost_update_ops())
        mon.close_window()
        e2, e3 = mon.cumulative_estimates()
        assert e2 == 1.0 and e3 == 0.0

    def test_serial_history_zero_anomalies(self):
        programs = [
            program(i, ("r", "x"), ("r", "y"), ("w", "x"), ("w", "y"))
            for i in range(20)
        ]
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        for op in serial_history(programs):
            mon.on_operation(op)
        report = mon.close_window()
        assert report.estimated_2 == 0.0
        assert report.estimated_3 == 0.0

    def test_reports_accumulate_in_history(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.close_window()
        mon.close_window()
        assert len(mon.reports) == 2

    def test_edges_counted_per_window(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.on_operations(lost_update_ops())
        report = mon.close_window()
        assert report.edges.total > 0

    def test_sampled_monitor_estimates_near_truth(self):
        """End to end: sampled monitor vs offline exact, averaged."""
        rng = random.Random(5)
        programs = []
        for buu in range(120):
            prog = BuuProgram(buu)
            for _ in range(4):
                key = rng.randrange(10)
                (prog.read if rng.random() < 0.5 else prog.write)(key)
            programs.append(prog)
        history = interleaved_history(programs, rng)

        offline = OfflineAnomalyMonitor()
        offline.on_operations(history)
        exact = offline.exact_counts()
        assert exact.two_cycles > 0

        trials = 200
        total = 0.0
        for seed in range(trials):
            mon = RushMon(RushMonConfig(sampling_rate=2, mob=False, seed=seed))
            mon.on_operations(history)
            e2, _ = mon.cumulative_estimates()
            total += e2
        assert total / trials == pytest.approx(exact.two_cycles, rel=0.15)

    @pytest.mark.parametrize("config", (
        RushMonConfig(sampling_rate=1, mob=False), RushMonConfig()),
        ids=("exact", "deployed"))
    def test_a_dropped_monitor_is_freed_by_reference_counting(self, config):
        # No part may sit in a reference cycle — metrics callbacks closing
        # over the monitor that owns their registry, a sampler's memo
        # calling back into the sampler — or a dropped monitor keeps its
        # live graph and its sampling decisions until a full collection.
        gc.collect()
        gc.disable()
        try:
            mon = RushMon(config)
            mon.begin_buu(1, 0)
            mon.begin_buu(2, 0)
            mon.on_operations(lost_update_ops())
            mon.close_window()
            assert mon.metrics.snapshot()["rushmon_monitor_reports_total"] == 1
            parts = [weakref.ref(part) for part in (
                mon, mon.detector, mon.collector, mon.collector.sampler)]
            del mon
            assert [part() for part in parts] == [None] * len(parts)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_doctest_example(self):
        import doctest
        import repro.core.monitor as mod

        results = doctest.testmod(mod)
        assert results.failed == 0


class TestOfflineAnomalyMonitor:
    def test_exact_counts_on_lost_update(self):
        mon = OfflineAnomalyMonitor()
        mon.on_operations(lost_update_ops())
        counts = mon.exact_counts()
        assert counts.two_cycles == 1

    def test_serial_zero(self):
        programs = [program(i, ("r", "x"), ("w", "x")) for i in range(10)]
        mon = OfflineAnomalyMonitor()
        mon.on_operations(serial_history(programs))
        counts = mon.exact_counts()
        assert counts.two_cycles == 0 and counts.three_cycles == 0


class TestConfigValidation:
    def test_bad_sampling_rate(self):
        with pytest.raises(ValueError):
            RushMonConfig(sampling_rate=0)

    def test_bad_prune_interval(self):
        with pytest.raises(ValueError):
            RushMonConfig(prune_interval=0)

    def test_bad_resample_interval(self):
        with pytest.raises(ValueError):
            RushMonConfig(resample_interval=0)

    def test_defaults(self):
        config = RushMonConfig()
        assert config.sampling_rate == 20
        assert config.mob is True
        assert config.pruning == "both"
