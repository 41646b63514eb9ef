"""Tests for the repro.obs observability subsystem.

Covers the metric primitives (per-thread counters, callback gauges,
le-bucket histograms), the registry's snapshot/Prometheus/JSON
renderings, the HTTP exporter, and — the load-bearing part — exact
reconciliation of the metrics snapshot against the monitor's own
counters after a multi-threaded run.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.core.types import Operation, OpType
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsExporter,
    MetricsRegistry,
)
from repro.sim.buu import read_modify_write
from repro.sim.scheduler import ThreadedWorkloadDriver


# -- primitives ---------------------------------------------------------------


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x_total")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_per_thread_cells_sum_exactly(self):
        """16 threads x 10k increments with no lock must lose nothing:
        each thread owns its cell, so the sum is exact by construction."""
        c = Counter("hits_total")
        per_thread = 10_000
        threads = [
            threading.Thread(
                target=lambda: [c.inc() for _ in range(per_thread)],
                daemon=True,
            )
            for _ in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
            assert not t.is_alive()
        assert c.value == 16 * per_thread


class TestGauge:
    def test_set(self):
        g = Gauge("depth")
        g.set(3)
        assert g.value == 3.0
        g.set(2)
        assert g.value == 2.0

    def test_callback_gauge_reads_live_and_rejects_set(self):
        box = {"v": 1.0}
        g = Gauge("live", fn=lambda: box["v"])
        assert g.value == 1.0
        box["v"] = 9.0
        assert g.value == 9.0
        with pytest.raises(RuntimeError):
            g.set(5)


class TestHistogram:
    def test_buckets_are_cumulative_with_inf(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        summary = h.value
        assert summary["count"] == 4
        assert summary["max"] == 5.0
        assert summary["buckets"]["0.01"] == 1
        assert summary["buckets"]["0.1"] == 2
        assert summary["buckets"]["1.0"] == 3
        assert summary["buckets"]["+Inf"] == 4
        assert summary["mean"] == pytest.approx(summary["sum"] / 4)

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 0.5))


# -- registry -----------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total") is reg.counter("a_total")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_names_are_sanitized_for_prometheus(self):
        reg = MetricsRegistry()
        c = reg.counter("weird name-1!")
        assert c.name == "weird_name_1_"
        assert reg.get("weird name-1!") is c

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(2)
        reg.gauge("g").set(1.5)
        reg.gauge_fn("g_fn", lambda: 42.0)
        reg.histogram("h").observe(0.002)
        snap = reg.snapshot()
        assert snap["c_total"] == 2
        assert snap["g"] == 1.5
        assert snap["g_fn"] == 42.0
        assert snap["h"]["count"] == 1
        # The snapshot must round-trip through JSON (the exporter and the
        # CLI both rely on it).
        assert json.loads(reg.render_json())["g_fn"] == 42.0

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("ops_total", help="operations").inc(3)
        reg.histogram("lat_seconds", buckets=(0.1, 1.0)).observe(0.05)
        text = reg.render_prometheus()
        assert "# HELP ops_total operations" in text
        assert "# TYPE ops_total counter" in text
        assert "ops_total 3" in text
        assert '# TYPE lat_seconds histogram' in text
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf"} 1' in text
        assert "lat_seconds_count 1" in text
        assert text.endswith("\n")


# -- exporter -----------------------------------------------------------------


class TestExporter:
    def test_serves_prometheus_and_json(self):
        reg = MetricsRegistry()
        reg.counter("demo_total").inc(7)
        with MetricsExporter(reg) as exporter:  # port=0 -> ephemeral
            assert exporter.running and exporter.port > 0
            with urllib.request.urlopen(f"{exporter.url}/metrics") as resp:
                text = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "demo_total 7" in text
            with urllib.request.urlopen(f"{exporter.url}/metrics.json") as resp:
                payload = json.loads(resp.read())
            assert payload["demo_total"] == 7
        assert not exporter.running

    def test_unknown_path_is_404(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{exporter.url}/nope")
            assert excinfo.value.code == 404

    def test_stop_is_idempotent_and_port_requires_running(self):
        exporter = MetricsExporter(MetricsRegistry())
        with pytest.raises(RuntimeError):
            exporter.port
        exporter.start()
        exporter.start()  # idempotent
        exporter.stop()
        exporter.stop()

    def test_ephemeral_ports_never_collide_side_by_side(self):
        """port=0 asks the kernel, so N exporters (parallel tests, a
        server and a monitor on one host) all bind distinct ports."""
        exporters = [MetricsExporter(MetricsRegistry()).start()
                     for _ in range(4)]
        try:
            ports = [e.port for e in exporters]
            assert len(set(ports)) == len(ports)
            for exporter in exporters:
                with urllib.request.urlopen(f"{exporter.url}/metrics"):
                    pass
        finally:
            for exporter in exporters:
                exporter.stop()

    def test_bound_port_stays_readable_after_stop(self):
        """Harnesses report where the exporter *was* after shutdown —
        the resolved ephemeral port must survive stop()."""
        exporter = MetricsExporter(MetricsRegistry()).start()
        bound = exporter.port
        assert bound > 0
        exporter.stop()
        assert not exporter.running
        assert exporter.port == bound

    def test_bind_conflict_raises_actionable_error(self):
        """A fixed port that is already taken fails with the address in
        the message and a pointer at port=0, not a bare OSError."""
        first = MetricsExporter(MetricsRegistry()).start()
        try:
            clash = MetricsExporter(MetricsRegistry(), port=first.port)
            with pytest.raises(RuntimeError, match=str(first.port)):
                clash.start()
        finally:
            first.stop()


# -- monitor instrumentation --------------------------------------------------


def _workload(buus, keys, touch, seed):
    import random

    rng = random.Random(seed)
    return [
        read_modify_write(
            [f"k{k}" for k in rng.sample(range(keys), touch)],
            lambda v: (v or 0) + 1,
        )
        for _ in range(buus)
    ]


class TestSerialMonitorMetrics:
    def test_gauges_track_collector_and_detector(self):
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
        mon.begin_buu(1, 0)
        mon.begin_buu(2, 0)
        mon.on_operations([
            Operation(OpType.READ, 1, "x", 1),
            Operation(OpType.READ, 2, "x", 2),
            Operation(OpType.WRITE, 1, "x", 3),
            Operation(OpType.WRITE, 2, "x", 4),
        ])
        mon.commit_buu(1, 5)
        mon.commit_buu(2, 5)
        mon.close_window()
        snap = mon.metrics.snapshot()
        assert snap["rushmon_collector_ops_total"] == 4
        assert snap["rushmon_collector_sampled_ops_total"] == 4
        assert snap["rushmon_collector_sampled_hit_rate"] == 1.0
        assert snap["rushmon_collector_edges_total"] == \
            mon.collector.stats.total
        assert snap["rushmon_monitor_reports_total"] == 1
        assert snap["rushmon_detector_cycles_total"] == \
            mon.detector.counts.two_cycles + mon.detector.counts.three_cycles

    def test_shared_registry_is_reusable(self):
        reg = MetricsRegistry()
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False), metrics=reg)
        assert mon.metrics is reg
        assert "rushmon_collector_ops_total" in reg.names()


@pytest.mark.cluster
class TestClusterMonitorMetrics:
    def test_ops_routed_counts_every_op_and_ops_elided_the_unshipped(self):
        from repro.cluster import ClusterMonitor
        from repro.core.collector import ItemSampler

        config = RushMonConfig(sampling_rate=20, mob=False, seed=3,
                               num_workers=2)
        ops = [Operation(OpType.WRITE, 1, f"k{i % 97}", i + 1)
               for i in range(400)]
        sampler = ItemSampler(config.sampling_rate, config.seed)
        unsampled = sum(not sampler.chosen(op.key) for op in ops)
        assert 0 < unsampled < len(ops)
        with ClusterMonitor(config) as cluster:
            cluster.begin_buu(1, 0)
            cluster.on_operations(ops)
            cluster.commit_buu(1, len(ops) + 1)
            assert cluster.close_window().operations == len(ops)
            snap = cluster.metrics.snapshot()
            assert snap["rushmon_cluster_ops_routed_total"] == len(ops)
            assert snap["rushmon_cluster_ops_elided_total"] == unsampled
            assert sum(shard["ops_elided"]
                       for shard in cluster.shard_health()) == unsampled
            text = cluster.metrics.render_prometheus()
        assert "# HELP rushmon_cluster_ops_routed_total operations " \
               "ticketed by the router (every operation offered" in text
        assert "# HELP rushmon_cluster_ops_elided_total the subset of " \
               "ops_routed never shipped" in text


class TestServiceMetricsReconcile:
    def test_snapshot_reconciles_after_drain(self):
        """After a 4-thread run and a clean stop, every metric must agree
        exactly with the service's own counters — metrics are a parallel
        bookkeeping path over the same event stream."""
        service = RushMonService(
            RushMonConfig(sampling_rate=1, mob=False, seed=3,
                          num_shards=4, detect_interval=0.005),
        )
        driver = ThreadedWorkloadDriver([service], num_threads=4, seed=3,
                                        yield_every=7, join_timeout=60.0)
        with service:
            driver.run(_workload(300, 32, 3, seed=3))
        snap = service.metrics.snapshot()
        assert snap["rushmon_service_events_processed_total"] == \
            service.processed_events
        assert snap["rushmon_service_passes_total"] == service.passes
        assert snap["rushmon_service_reports_total"] == len(service.reports)
        assert snap["rushmon_service_pass_seconds"]["count"] == service.passes
        assert snap["rushmon_collector_ops_total"] == driver.ops_emitted
        assert snap["rushmon_collector_sampled_ops_total"] == \
            service.collector.touches
        assert snap["rushmon_collector_lifecycle_events_total"] == \
            2 * driver.buus_completed
        assert snap["rushmon_collector_edges_total"] == \
            service.collector.stats.total
        assert snap["rushmon_collector_journal_depth"] == 0  # drained
        assert snap["rushmon_service_detection_thread_alive"] == 0.0
        assert snap["rushmon_service_report_age_seconds"] >= 0.0

    def test_elided_operations_are_counted(self):
        """At sr=20 most operations never enter the journal, yet the
        progress gauges keep meaning every event offered: the batch
        records carry the count of what they left out, and once the pass
        collected them the sampled operations are what was journaled."""
        service = RushMonService(
            RushMonConfig(sampling_rate=20, mob=False, seed=3))
        num_buus, ops_per_buu = 50, 40
        for buu in range(num_buus):
            service.begin_buu(buu, buu)
            service.on_operations([
                Operation(OpType.WRITE, buu, (7 * buu + i) % 97, i)
                for i in range(ops_per_buu)
            ])
            service.commit_buu(buu, buu)
        num_ops = num_buus * ops_per_buu
        state = service.collector.snapshot_state()
        batches = [r for r in state["journal"] if r[1] == "ops"]
        journaled = sum(len(r[2]) for r in batches)
        elided = sum(r[3] for r in batches) + state["elided"]
        snap = service.metrics.snapshot()
        assert snap["rushmon_collector_ops_total"] == num_ops
        assert 0 < journaled < num_ops
        assert journaled + elided == num_ops
        assert snap["rushmon_collector_journal_depth"] == \
            journaled + 2 * num_buus
        service.close_window()
        snap = service.metrics.snapshot()
        assert snap["rushmon_collector_sampled_ops_total"] == journaled
        assert snap["rushmon_collector_journal_depth"] == 0
        assert snap["rushmon_service_events_processed_total"] == \
            num_ops + 2 * num_buus
        assert service.reports[-1].operations == num_ops

    def test_journal_highwater_and_lock_wait_move(self):
        service = RushMonService(
            RushMonConfig(sampling_rate=1, mob=False, num_shards=2,
                          detect_interval=10.0),  # passes only on stop
        )
        driver = ThreadedWorkloadDriver([service], num_threads=2, seed=1,
                                        join_timeout=60.0)
        with service:
            driver.run(_workload(100, 8, 3, seed=1))
        snap = service.metrics.snapshot()
        assert snap["rushmon_collector_journal_depth_highwater"] > 0
        assert snap["rushmon_collector_lock_wait_seconds_total"] >= 0.0

    def test_unmetered_collector_has_no_overhead_path(self, monkeypatch):
        """An uncontended producer reads no clock, metered or not: the
        collector's metrics are callback gauges, and only a wait for the
        journal lock is timed."""
        from types import SimpleNamespace

        from repro.core.concurrent import journaled

        def no_clock():
            raise AssertionError("an uncontended producer read the clock")

        monkeypatch.setattr(journaled, "time", SimpleNamespace(
            perf_counter=no_clock, monotonic=no_clock))
        for metrics in (None, MetricsRegistry()):
            collector = journaled.JournaledCollector(
                sampling_rate=1, mob=False, metrics=metrics)
            collector.offer([("begin", 1, 0)])
            collector.offer([("ops", [Operation(OpType.WRITE, 1, "x", 1)], 0)])
            collector.offer([("ops", [Operation(OpType.READ, 1, "y", 2)], 0),
                             ("commit", 1, 3)])
            assert collector.ops_seen == 2
            assert collector.lock_wait_seconds == 0.0
