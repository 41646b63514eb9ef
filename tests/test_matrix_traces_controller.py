"""Tests for trace persistence and the controller."""

import random

import pytest

from repro.core.controller import AnomalyController, DEFAULT_LADDER
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.core.config import RushMonConfig
from repro.core.types import AnomalyReport
from repro.sim import SimConfig, Simulator, read_modify_write
from repro.sim.traces import Trace, TraceWriter


class TestTraces:
    def _record(self, tmp_path):
        trace = Trace()
        sim = Simulator(SimConfig(num_workers=4, seed=2, write_latency=30),
                        listeners=[trace])
        sim.run([read_modify_write([f"k{i % 4}"], lambda v: (v or 0) + 1)
                 for i in range(60)])
        return trace

    def test_roundtrip(self, tmp_path):
        trace = self._record(tmp_path)
        path = tmp_path / "run.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.ops == trace.ops
        assert sorted(loaded.begins) == sorted(trace.begins)
        assert sorted(loaded.commits) == sorted(trace.commits)

    def test_replay_matches_live_monitoring(self, tmp_path):
        trace = self._record(tmp_path)
        live = OfflineAnomalyMonitor()
        for op in trace.ops:
            live.on_operation(op)

        replayed = OfflineAnomalyMonitor()
        trace.replay([replayed])
        assert replayed.exact_counts() == live.exact_counts()

    def test_replay_drives_rushmon_with_pruning(self, tmp_path):
        trace = self._record(tmp_path)
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False,
                                    pruning="both", prune_interval=20))
        trace.replay([mon])
        offline = OfflineAnomalyMonitor()
        offline.on_operations(trace.ops)
        e2, e3 = mon.cumulative_estimates()
        exact = offline.exact_counts()
        assert e2 == exact.two_cycles
        assert e3 == exact.three_cycles

    def test_streaming_writer(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            writer = TraceWriter(handle)
            sim = Simulator(SimConfig(num_workers=2, seed=0),
                            listeners=[writer])
            sim.run([read_modify_write(["x"], lambda v: (v or 0) + 1)
                     for _ in range(5)])
        loaded = Trace.load(path)
        assert len(loaded.ops) == 10  # 5 reads + 5 writes
        assert len(loaded.begins) == 5
        assert len(loaded.commits) == 5

    def test_load_rejects_unknown_records(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"t": "mystery"}\n')
        with pytest.raises(ValueError):
            Trace.load(path)


def report(rate, window=100):
    return AnomalyReport(window_start=0, window_end=window,
                         estimated_2=rate * window, estimated_3=0.0)


class TestAnomalyController:
    def test_starts_loose(self):
        controller = AnomalyController(upper=1.0, lower=0.1)
        assert controller.bound is None

    def test_tightens_on_high_rate(self):
        controller = AnomalyController(upper=1.0, lower=0.1)
        decision = controller.observe(report(rate=5.0))
        assert decision.action == "tighten"
        assert controller.bound == DEFAULT_LADDER[-2]

    def test_relaxes_on_low_rate(self):
        controller = AnomalyController(upper=1.0, lower=0.1,
                                       start_position=0)
        decision = controller.observe(report(rate=0.0))
        assert decision.action == "relax"
        assert controller.bound == DEFAULT_LADDER[1]

    def test_holds_inside_band(self):
        controller = AnomalyController(upper=1.0, lower=0.1)
        assert controller.observe(report(rate=0.5)).action == "hold"

    def test_saturates_at_ladder_ends(self):
        controller = AnomalyController(upper=1.0, lower=0.1,
                                       start_position=0)
        assert controller.observe(report(rate=99.0)).action == "hold"
        loose = AnomalyController(upper=1.0, lower=0.1)
        assert loose.observe(report(rate=0.0)).action == "hold"

    def test_cooldown_blocks_consecutive_moves(self):
        controller = AnomalyController(upper=1.0, lower=0.1, cooldown=2)
        assert controller.observe_rate(5.0).action == "tighten"
        assert controller.observe_rate(5.0).action == "hold"
        assert controller.observe_rate(5.0).action == "hold"
        assert controller.observe_rate(5.0).action == "tighten"

    def test_history_recorded(self):
        controller = AnomalyController(upper=1.0, lower=0.1)
        controller.observe_rate(5.0)
        controller.observe_rate(0.5)
        assert [d.action for d in controller.history] == ["tighten", "hold"]

    def test_validation(self):
        with pytest.raises(ValueError):
            AnomalyController(upper=0.1, lower=1.0)
        with pytest.raises(ValueError):
            AnomalyController(upper=1.0, lower=0.1, ladder=())
        with pytest.raises(ValueError):
            AnomalyController(upper=1.0, lower=0.1, start_position=99)
        with pytest.raises(ValueError):
            AnomalyController(upper=1.0, lower=0.1, cooldown=-1)

    def test_closed_loop_converges_to_tight_bound(self):
        """End to end: the controller drives a chaotic system into the
        target band by tightening the staleness bound."""
        from repro.sim import SimConfig, Simulator, read_modify_write

        monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        sim = Simulator(SimConfig(num_workers=16, seed=3, write_latency=600,
                                  compute_jitter=10),
                        listeners=[monitor])
        controller = AnomalyController(upper=0.05, lower=0.002)
        rng = random.Random(1)
        for _ in range(12):
            sim.config.staleness_bound = controller.bound
            sim.run([read_modify_write(
                [f"k{k}" for k in rng.sample(range(40), 3)],
                lambda v: (v or 0) + 1) for _ in range(150)])
            controller.observe(monitor.close_window(sim.now))
        tightened = sum(1 for d in controller.history if d.action == "tighten")
        assert tightened >= 1
