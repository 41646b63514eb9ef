"""End-to-end integration scenarios across the full stack."""

import random

import pytest

from repro.checkers import check_operations
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.sim import SimConfig, Simulator, Trace
from repro.workloads.ycsb import YcsbConfig, YcsbWorkload


def monitored_ycsb_run(isolation, seed=9, buus=400):
    workload = YcsbWorkload(YcsbConfig(records=200, keys_per_txn=2,
                                       read=0.2, update=0.0, rmw=0.8,
                                       theta=0.9, seed=seed))
    monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False,
                                    pruning="both", prune_interval=100))
    offline = OfflineAnomalyMonitor()
    trace = Trace()
    sim = Simulator(
        SimConfig(num_workers=16, seed=seed, write_latency=100,
                  compute_jitter=10, isolation=isolation),
        listeners=[monitor, offline, trace],
    )
    sim.run(workload.buus(buus))
    return monitor, offline, trace, sim


class TestFullStack:
    def test_monitor_matches_offline_on_ycsb(self):
        monitor, offline, _, _ = monitored_ycsb_run("none")
        e2, e3 = monitor.cumulative_estimates()
        exact = offline.exact_counts()
        assert e2 == exact.two_cycles
        assert e3 == exact.three_cycles
        assert exact.two_cycles > 0

    def test_serializable_stack_is_quiet_and_checks_clean(self):
        monitor, offline, trace, _ = monitored_ycsb_run("serializable")
        e2, e3 = monitor.cumulative_estimates()
        assert e2 == 0 and e3 == 0
        verdict = check_operations(trace.ops)
        assert verdict.serializable
        assert set(verdict.serial_order) == {op.buu for op in trace.ops}

    def test_chaotic_stack_fails_serializability(self):
        _, _, trace, _ = monitored_ycsb_run("none")
        verdict = check_operations(trace.ops)
        assert not verdict.serializable and not verdict.serial_order

    def test_trace_replay_reproduces_monitor(self, tmp_path):
        monitor, _, trace, _ = monitored_ycsb_run("none")
        path = tmp_path / "ycsb.jsonl"
        trace.save(path)
        replayed = RushMon(RushMonConfig(sampling_rate=1, mob=False,
                                         pruning="both", prune_interval=100))
        Trace.load(path).replay([replayed])
        assert replayed.cumulative_estimates() == monitor.cumulative_estimates()
        assert (replayed.detector.patterns.as_dict()
                == monitor.detector.patterns.as_dict())

    def test_sampled_mob_monitor_is_cheap_and_close(self):
        """The deployed configuration (sr=20, MOB, pruning) touches a
        small fraction of operations and lands within an order of
        magnitude on a single run (tight accuracy needs averaging,
        which the estimator tests cover)."""
        workload = YcsbWorkload(YcsbConfig(records=400, keys_per_txn=2,
                                           read=0.2, update=0.0, rmw=0.8,
                                           theta=0.9, seed=10))
        full = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        deployed = RushMon(RushMonConfig(sampling_rate=5, mob=True, seed=2))
        deployed.collector.sampler.materialize(workload.items)
        sim = Simulator(
            SimConfig(num_workers=16, seed=10, write_latency=100,
                      compute_jitter=10),
            listeners=[full, deployed],
        )
        sim.run(workload.buus(1200))
        assert deployed.collector.touches < 0.4 * full.collector.touches
        exact2, _ = full.cumulative_estimates()
        est2, _ = deployed.cumulative_estimates()
        if exact2 >= 50:
            assert est2 == pytest.approx(exact2, rel=0.8)

    def test_windowed_reports_sum_to_cumulative(self):
        workload = YcsbWorkload(YcsbConfig(records=150, seed=11))
        monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        sim = Simulator(SimConfig(num_workers=8, seed=11, write_latency=50),
                        listeners=[monitor])
        total_from_windows = 0.0
        for _ in range(5):
            sim.run(workload.buus(150))
            report = monitor.close_window(sim.now)
            total_from_windows += report.estimated_2
        e2, _ = monitor.cumulative_estimates()
        assert total_from_windows == pytest.approx(e2)


class TestPublicApiSurface:
    def test_core_exports_resolve(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_all_public_modules_documented(self):
        """Every public module and every public class/function in the
        package carries a docstring — the documentation deliverable,
        enforced."""
        import importlib
        import inspect
        import pkgutil

        import repro

        undocumented = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if info.name.endswith("__main__"):
                continue
            module = importlib.import_module(info.name)
            if not module.__doc__:
                undocumented.append(info.name)
            for name, member in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(member) or inspect.isfunction(member):
                    if getattr(member, "__module__", None) != info.name:
                        continue
                    if not inspect.getdoc(member):
                        undocumented.append(f"{info.name}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"
