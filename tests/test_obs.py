"""Tests for the repro.obs observability subsystem.

Covers the metric primitives (per-thread counters, callback gauges,
le-bucket histograms), the registry's snapshot/Prometheus/JSON
renderings, the HTTP exporter, and — the load-bearing part — exact
reconciliation of the metrics snapshot against the monitor's own
counters after a multi-threaded run.
"""

import gc
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import DataCentricCollector
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import RecordWalk, RushMon
from repro.core.types import Operation, OpType
from repro.net.server import RushMonServer
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsExporter,
    MetricsRegistry,
)
from repro.sim.buu import read_modify_write
from repro.obs import exporter as exporter_module
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

    def test_deferred_steps_run_once_in_queue_order_on_the_first_read(self):
        reg = MetricsRegistry()
        ran = []
        reg.defer(lambda r, tag: ran.append(tag), "a")
        reg.defer(lambda r: r.gauge_fn("g", lambda: 1.0, help="first"))
        reg.defer(lambda r, tag: ran.append(tag), "b")
        assert ran == []
        assert reg.names() == ["g"]
        assert ran == ["a", "b"]
        reg.snapshot()
        assert ran == ["a", "b"]

    def test_a_step_that_raises_reaches_its_read_and_the_rest_stay_queued(
            self):
        reg = MetricsRegistry()
        reg.counter("x")
        reg.defer(lambda r: r.gauge_fn("x", lambda: 1.0))  # a kind clash
        reg.defer(lambda r: r.gauge_fn("y", lambda: 2.0))
        with pytest.raises(TypeError):
            reg.snapshot()
        assert reg.snapshot() == {"x": 0, "y": 2.0}


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

    @staticmethod
    def _exchange(exporter, request: bytes) -> bytes:
        """Send ``request`` as raw bytes; everything the server answers
        before it closes (a refused request may end in a reset, after
        the reply)."""
        with socket.create_connection(("127.0.0.1", exporter.port),
                                      timeout=10) as conn:
            conn.sendall(request)
            chunks = []
            try:
                while chunk := conn.recv(65536):
                    chunks.append(chunk)
            except ConnectionResetError:
                pass
        return b"".join(chunks)

    def test_query_string_is_ignored(self):
        reg = MetricsRegistry()
        reg.counter("demo_total").inc(2)
        with MetricsExporter(reg) as exporter:
            with urllib.request.urlopen(
                    f"{exporter.url}/metrics?debug=1&x") as resp:
                assert resp.read().decode() == reg.render_prometheus()
            with urllib.request.urlopen(f"{exporter.url}/json?pretty") as resp:
                assert json.loads(resp.read()) == {"demo_total": 2}

    @pytest.mark.parametrize("request_bytes, status", [
        (b"POST /metrics HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 405),
        (b"HEAD /metrics HTTP/1.0\r\n\r\n", 405),
        (b"\x00\xff garbage\r\n\r\n", 400),
        (b"GET /metrics\r\n\r\n", 400),
        (b"GET /metrics SPDY/3\r\n\r\n", 400),
    ], ids=["post", "head", "garbage", "no-version", "not-http"])
    def test_other_methods_and_bad_request_lines_are_refused(
            self, request_bytes, status):
        """An error status, ``Connection: close`` — and the next scrape
        is served as usual."""
        with MetricsExporter(MetricsRegistry()) as exporter:
            reply = self._exchange(exporter, request_bytes)
            assert reply.startswith(f"HTTP/1.0 {status} ".encode()), reply
            assert b"\r\nConnection: close\r\n" in reply
            with urllib.request.urlopen(f"{exporter.url}/metrics") as resp:
                assert resp.status == 200

    def test_a_post_from_urllib_is_405(self):
        with MetricsExporter(MetricsRegistry()) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(urllib.request.Request(
                    f"{exporter.url}/metrics", data=b"x=1", method="POST"))
            assert excinfo.value.code == 405
            assert excinfo.value.headers["Allow"] == "GET"

    def test_an_oversized_request_is_refused(self):
        limit = exporter_module.MAX_REQUEST_BYTES
        with MetricsExporter(MetricsRegistry()) as exporter:
            long_line = b"GET /" + b"a" * (2 * limit) + b" HTTP/1.1\r\n\r\n"
            assert self._exchange(exporter, long_line).startswith(
                b"HTTP/1.0 414 ")
            long_headers = (b"GET /metrics HTTP/1.1\r\n"
                            + b"X-Pad: a\r\n" * (limit // 8) + b"\r\n")
            assert self._exchange(exporter, long_headers).startswith(
                b"HTTP/1.0 431 ")
            with urllib.request.urlopen(f"{exporter.url}/metrics") as resp:
                assert resp.status == 200

    def test_a_silent_client_delays_no_scrape_and_is_dropped(
            self, monkeypatch):
        """One thread per connection: a client that connects and sends
        nothing holds its own thread until the handler timeout closes
        it; a scrape meanwhile is answered at once."""
        monkeypatch.setattr(exporter_module._Handler, "timeout", 2.0)
        with MetricsExporter(MetricsRegistry()) as exporter:
            with socket.create_connection(("127.0.0.1", exporter.port),
                                          timeout=10) as silent:
                opened = time.monotonic()
                with urllib.request.urlopen(f"{exporter.url}/metrics",
                                            timeout=10) as resp:
                    assert resp.status == 200
                scraped = time.monotonic() - opened
                assert silent.recv(1) == b""  # closed by the server
                dropped = time.monotonic() - opened
        assert scraped < 2.0 <= dropped < 10.0

    def test_stop_frees_the_port_and_leaves_no_exporter_thread(self):
        """Even with a request half sent: stop() ends that connection
        too, rather than waiting out its timeout."""
        def exporter_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("rushmon-metrics-exporter")]

        exporter = MetricsExporter(MetricsRegistry()).start()
        port = exporter.port
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=10) as stalled:
            stalled.sendall(b"GET /metr")
            deadline = time.monotonic() + 10
            while len(exporter_threads()) < 2:  # the accept loop + this one
                assert time.monotonic() < deadline
                time.sleep(0.01)
            started = time.monotonic()
            exporter.stop()
            assert time.monotonic() - started < 5.0
            assert exporter_threads() == []
            assert stalled.recv(1) == b""
        again = MetricsExporter(MetricsRegistry(), port=port).start()
        try:
            assert again.port == port
        finally:
            again.stop()

    def test_a_registry_that_fails_to_render_is_a_500(self, capsys):
        """A queued registration step that raises reaches the scrape that
        ran it (and the server's stderr); the step is dropped, so the
        next scrape is served."""
        def broken(registry):
            raise ValueError("broken step")

        reg = MetricsRegistry()
        reg.counter("demo_total").inc()
        reg.defer(broken)
        with MetricsExporter(reg) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{exporter.url}/metrics")
            assert excinfo.value.code == 500
            with urllib.request.urlopen(f"{exporter.url}/metrics") as resp:
                assert "demo_total 1" in resp.read().decode()
        assert "ValueError: broken step" in capsys.readouterr().err

    def test_a_prometheus_style_request_gets_the_text_exposition(self):
        reg = MetricsRegistry()
        reg.counter("demo_total").inc(3)
        reg.gauge("demo_depth").set(1.5)
        with MetricsExporter(reg) as exporter:
            reply = self._exchange(exporter, (
                f"GET /metrics HTTP/1.1\r\n"
                f"Host: 127.0.0.1:{exporter.port}\r\n"
                f"User-Agent: Prometheus/2.45.0\r\n"
                f"Accept: application/openmetrics-text;version=1.0.0,"
                f"text/plain;version=0.0.4;q=0.5,*/*;q=0.1\r\n"
                f"Accept-Encoding: gzip\r\n"
                f"X-Prometheus-Scrape-Timeout-Seconds: 10\r\n\r\n").encode())
        head, body = reply.split(b"\r\n\r\n", 1)
        lines = head.decode().split("\r\n")
        assert lines[0] == "HTTP/1.0 200 OK"
        headers = dict(line.split(": ", 1) for line in lines[1:])
        assert headers == {
            "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
            "Content-Length": str(len(body)),
            "Connection": "close",
        }
        assert body.decode() == reg.render_prometheus()
        assert "demo_total 3" in body.decode()

    def test_serve_with_a_taken_export_port_never_accepts_on_its_ingest_port(
            self):
        """The exporter binds before the ingest socket: ``serve`` ends as
        a usage error (exit 2) and its ingest port accepts nothing while
        the process lives."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            ingest = probe.getsockname()[1]
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--port", str(ingest),
                 "--export-port", str(taken.getsockname()[1])],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            accepted = False
            try:
                while proc.poll() is None:
                    try:
                        socket.create_connection(("127.0.0.1", ingest),
                                                 timeout=0.05).close()
                        accepted = True
                    except OSError:
                        time.sleep(0.005)
                out, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        assert proc.returncode == 2 and not accepted
        assert "listening" not in out
        assert ("repro serve: error: metrics exporter could not bind "
                "127.0.0.1:") in err


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
        """Two monitors on one registry, an eager ``gauge_fn`` between
        them: get-or-create and last-callback-wins keep the order of the
        calls, as they did when monitors registered eagerly."""
        config = RushMonConfig(sampling_rate=1, mob=False)
        views = []
        for reg in (MetricsRegistry(), EagerRegistry()):
            first = RushMon(config, metrics=reg)
            assert first.metrics is reg
            reg.gauge_fn("rushmon_collector_ops_total", lambda: -1.0,
                         help="eager")
            second = RushMon(config, metrics=reg)
            first.on_operations([Operation(OpType.WRITE, 1, "x", 1)])
            second.on_operations([Operation(OpType.WRITE, 1, "x", 1),
                                  Operation(OpType.READ, 2, "x", 2)])
            ops = reg.get("rushmon_collector_ops_total")
            # The first monitor created the gauge, so its help stays;
            # the second one's callback came last.
            assert ops.help == "operations the collector has observed"
            assert ops.value == 2
            reg.gauge_fn("rushmon_collector_ops_total", lambda: -1.0)
            views.append(_registry_view(reg))
            assert views[-1][3]["rushmon_collector_ops_total"] == -1.0
        assert views[0] == views[1]


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

    @pytest.mark.parametrize("capacity", (None, 1 << 20),
                             ids=("unbounded", "bounded"))
    def test_elided_operations_are_counted(self, capacity):
        """At sr=20 the progress gauges keep meaning every event offered.
        An unbounded journal holds each batch whole, so its depth counts
        every operation; a bounded one journals only the sampled
        operations and its batch records carry the count of what they
        left out.  Once the pass collected them, the sampled operations
        are what was bookkept either way."""
        service = RushMonService(
            RushMonConfig(sampling_rate=20, mob=False, seed=3,
                          journal_capacity=capacity))
        num_buus, ops_per_buu = 50, 40
        chosen = service.collector.sampler.chosen
        sampled = 0
        for buu in range(num_buus):
            service.begin_buu(buu, buu)
            ops = [Operation(OpType.WRITE, buu, (7 * buu + i) % 97, i)
                   for i in range(ops_per_buu)]
            sampled += sum(1 for op in ops if chosen(op.key))
            service.on_operations(ops)
            service.commit_buu(buu, buu)
        num_ops = num_buus * ops_per_buu
        state = service.collector.snapshot_state()
        batches = [r for r in state["journal"] if r[1] == "ops"]
        journaled = sum(len(r[2]) for r in batches)
        elided = sum(r[3] for r in batches) + state["elided"]
        snap = service.metrics.snapshot()
        assert snap["rushmon_collector_ops_total"] == num_ops
        assert 0 < sampled < num_ops
        assert journaled == (num_ops if capacity is None else sampled)
        assert journaled + elided == num_ops
        assert snap["rushmon_collector_journal_depth"] == \
            journaled + 2 * num_buus
        service.close_window()
        snap = service.metrics.snapshot()
        assert snap["rushmon_collector_sampled_ops_total"] == sampled
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
        # An unbounded journal's producers never wait for its lock.
        assert snap["rushmon_collector_lock_wait_seconds_total"] == 0.0

    @pytest.mark.parametrize("sr", (1, 20))
    def test_gauges_and_views_read_appends_not_yet_settled(self, sr):
        """Producers of an unbounded journal append untallied records;
        the pass tallies them.  Each depth, operation, high-water and
        lifecycle reading settles first: read alone right after fresh
        offers, with no drain, snapshot or other reading in between, it
        counts every call that returned."""
        service = RushMonService(
            RushMonConfig(sampling_rate=sr, mob=False, seed=3))
        collector = service.collector
        chosen = collector.sampler.chosen
        totals = {"depth": 0, "ops": 0, "lifecycle": 0}

        def offer(buu):
            ops = [Operation(OpType.WRITE, buu, (7 * buu + i) % 97, i)
                   for i in range(20)]
            service.begin_buu(buu, 0)
            service.on_operations(ops[:10])
            for op in ops[10:]:
                service.on_operation(op)
            service.on_records([("ops", ops[:3], 0), ("commit", buu, 1)])
            # Journaled: the batch whole, the chosen single operations,
            # the frame's three operations, a begin and a commit.
            totals["depth"] += 15 + sum(chosen(op.key) for op in ops[10:])
            totals["ops"] += 23
            totals["lifecycle"] += 2

        def gauge(name):
            # One callback, run alone: the registry reads no other.
            return lambda: service.metrics.get(
                f"rushmon_collector_{name}").value

        readings = [
            (gauge("journal_depth"), "depth"),
            (gauge("journal_depth_highwater"), "depth"),
            (gauge("ops_total"), "ops"),
            (gauge("lifecycle_events_total"), "lifecycle"),
            (lambda: collector.journal_depth, "depth"),
            (lambda: collector.journal_highwater, "depth"),
            (lambda: collector.ops_seen, "ops"),
            (lambda: collector.lifecycle_offered, "lifecycle"),
        ]
        for buu, (read, total) in enumerate(readings):
            offer(buu)
            assert read() == totals[total]
        assert gauge("lock_wait_seconds_total")() == 0.0
        service.close_window()
        assert collector.journal_depth == 0
        assert service.processed_events == len(readings) * (23 + 2)

    def test_unmetered_collector_has_no_overhead_path(self, monkeypatch):
        """A producer reads no clock, metered or not: the collector's
        metrics are callback gauges, and an unbounded journal's producer
        never takes the journal lock (``test_sampled_journal.py``), so it
        has no wait to time."""
        from types import SimpleNamespace

        from repro.core.concurrent import journaled

        def no_clock():
            raise AssertionError("an uncontended producer read the clock")

        monkeypatch.setattr(journaled, "time", SimpleNamespace(
            perf_counter=no_clock, monotonic=no_clock))
        for metrics in (None, MetricsRegistry()):
            collector = journaled.JournaledCollector(
                DataCentricCollector(sampling_rate=1, mob=False,
                                     engaged=True), metrics=metrics)
            collector.offer([("begin", 1, 0)])
            collector.offer([("ops", [Operation(OpType.WRITE, 1, "x", 1)], 0)])
            collector.offer([("ops", [Operation(OpType.READ, 1, "y", 2)], 0),
                             ("commit", 1, 3)])
            assert collector.ops_seen == 2
            assert collector.lock_wait_seconds == 0.0


# -- deferred registration ------------------------------------------------------


class EagerRegistry(MetricsRegistry):
    """The reference: every step runs the moment it is queued, as
    registration did before it was deferred."""

    def defer(self, step, *parts):
        step(self, *parts)


_SERIAL_NAMES = frozenset({
    "rushmon_collector_edges_total", "rushmon_collector_ops_total",
    "rushmon_collector_sampled_hit_rate",
    "rushmon_collector_sampled_ops_total", "rushmon_detector_cycles_total",
    "rushmon_detector_edges_refused_total", "rushmon_detector_live_edges",
    "rushmon_detector_live_vertices", "rushmon_detector_prune_passes_total",
    "rushmon_detector_pruned_distance_total",
    "rushmon_detector_pruned_ect_total", "rushmon_monitor_reports_total",
})
_SERVICE_NAMES = frozenset({
    "rushmon_collector_backpressure_timeouts_total",
    "rushmon_collector_backpressure_wait_seconds_total",
    "rushmon_collector_edges_total",
    "rushmon_collector_effective_sampling_rate",
    "rushmon_collector_journal_depth",
    "rushmon_collector_journal_depth_highwater",
    "rushmon_collector_journal_fill_ratio",
    "rushmon_collector_journal_shed_sampled_total",
    "rushmon_collector_journal_shed_total",
    "rushmon_collector_lifecycle_elided_total",
    "rushmon_collector_lifecycle_events_total",
    "rushmon_collector_lifecycle_parked",
    "rushmon_collector_lock_wait_seconds_total",
    "rushmon_collector_ops_total", "rushmon_collector_sampled_hit_rate",
    "rushmon_collector_sampled_ops_total", "rushmon_detector_cycles_total",
    "rushmon_detector_edges_refused_total", "rushmon_detector_live_edges",
    "rushmon_detector_live_vertices", "rushmon_detector_prune_passes_total",
    "rushmon_detector_pruned_distance_total",
    "rushmon_detector_pruned_ect_total", "rushmon_service_checkpoints_total",
    "rushmon_service_consecutive_detect_failures",
    "rushmon_service_degraded", "rushmon_service_detect_failures_total",
    "rushmon_service_detect_restarts_total",
    "rushmon_service_detection_thread_alive",
    "rushmon_service_drain_seconds", "rushmon_service_events_processed_total",
    "rushmon_service_pass_seconds", "rushmon_service_passes_total",
    "rushmon_service_report_age_seconds", "rushmon_service_reports_total",
    "rushmon_service_window_close_lag_seconds",
})
_SERVER_NAMES = _SERVICE_NAMES | {
    "rushmon_net_ack_latency_seconds", "rushmon_net_acks_total",
    "rushmon_net_admission_refusals_total",
    "rushmon_net_batches_accepted_total", "rushmon_net_batches_total",
    "rushmon_net_connections_current", "rushmon_net_connections_total",
    "rushmon_net_dedup_hits_total", "rushmon_net_drain_forced_total",
    "rushmon_net_errors_total", "rushmon_net_events_ingested_total",
    "rushmon_net_frames_total", "rushmon_net_idle_disconnects_total",
    "rushmon_net_partial_frame_disconnects_total",
    "rushmon_net_reconnect_hellos_total", "rushmon_net_sessions_current",
    "rushmon_net_sessions_evicted_total",
    "rushmon_net_write_overflow_disconnects_total",
}


def _stream(pairs=60, keys=5, seed=7):
    """BUUs begun two at a time whose operations interleave, so the
    detector sees cycles, and half of them fed per operation."""
    rng = random.Random(seed)
    seq = 0
    for a in range(0, 2 * pairs, 2):
        yield "begin", a, seq
        yield "begin", a + 1, seq
        ops = []
        for _ in range(8):
            seq += 1
            ops.append(Operation(rng.choice((OpType.READ, OpType.WRITE)),
                                 a + rng.randrange(2), rng.randrange(keys),
                                 seq))
        yield ("ops" if a % 4 else "op"), ops, seq
        yield "commit", a, seq
        yield "commit", a + 1, seq


def _feed(target):
    for kind, payload, seq in _stream():
        if kind == "begin":
            target.begin_buu(payload, seq)
        elif kind == "commit":
            target.commit_buu(payload, seq)
        elif kind == "ops":
            target.on_operations(payload)
        else:
            for op in payload:
                target.on_operation(op)
    return target.close_window()


_CONFIG = RushMonConfig(sampling_rate=2, seed=5, prune_interval=8)


def _serial(registry):
    mon = RushMon(_CONFIG, metrics=registry)
    _feed(mon)
    return mon


def _service(registry):
    service = RushMonService(_CONFIG, metrics=registry)
    _feed(service)
    return service


def _server(registry):
    service = RushMonService(_CONFIG, metrics=registry)
    server = RushMonServer(service)
    _feed(service)
    return server


_FRONT_ENDS = {"serial": (_serial, _SERIAL_NAMES),
               "service": (_service, _SERVICE_NAMES),
               "server": (_server, _SERVER_NAMES)}


def _timed(name):
    # Wall-clock readings differ between any two runs.
    return "_seconds" in name


def _untimed(snapshot):
    return {k: v for k, v in snapshot.items() if not _timed(k)}


def _untimed_text(text):
    return [line for line in text.splitlines()
            if line.startswith("#") or not _timed(line)]


#: Every way to read a registry, each tried as the first read.
_FIRST_READS = {
    "names": lambda reg: reg.names(),
    "get": lambda reg: reg.get("rushmon_collector_ops_total").value,
    "gauge_fn": lambda reg: reg.gauge_fn("extra", lambda: 7.0).value,
    "snapshot": lambda reg: _untimed(reg.snapshot()),
    "render_json": lambda reg: _untimed(json.loads(reg.render_json())),
    "render_prometheus": lambda reg: _untimed_text(reg.render_prometheus()),
}


def _registry_view(reg):
    names = reg.names()
    return (names,
            {name: reg.get(name).kind for name in names},
            {name: reg.get(name).help for name in names},
            _untimed(reg.snapshot()),
            _untimed_text(reg.render_prometheus()))


class TestDeferredRegistration:
    @pytest.mark.parametrize("read", sorted(_FIRST_READS))
    @pytest.mark.parametrize("front_end", sorted(_FRONT_ENDS))
    def test_every_read_sees_what_eager_registration_built(self, front_end,
                                                          read):
        build, pinned = _FRONT_ENDS[front_end]
        views = []
        for reg in (MetricsRegistry(), EagerRegistry()):
            owner = build(reg)
            first = _FIRST_READS[read](reg)
            views.append((first, _registry_view(reg)))
            del owner
        assert views[0] == views[1]
        names = set(views[0][1][0]) - {"extra"}
        assert names == pinned
        snapshot = views[0][1][3]
        assert snapshot["rushmon_collector_ops_total"] == 480
        assert snapshot["rushmon_detector_cycles_total"] > 0

    @pytest.mark.parametrize("front_end", sorted(_FRONT_ENDS))
    def test_a_registry_never_read_runs_none_of_its_steps(self, front_end,
                                                          monkeypatch):
        calls = []
        gauge_fn = MetricsRegistry.gauge_fn

        def counted(self, name, *args, **kwargs):
            calls.append(name)
            return gauge_fn(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "gauge_fn", counted)
        reg = MetricsRegistry()
        owner = _FRONT_ENDS[front_end][0](reg)
        if front_end == "server":
            # Creating the server's frame and ack counters on its
            # service's registry is a read: the service's steps ran
            # then.  The server's own step waits for a real read.
            assert calls and not [n for n in calls if "_net_" in n]
            del calls[:]
        assert calls == []
        reg.snapshot()
        callbacks = sorted(name for name in reg.names()
                           if getattr(reg.get(name), "_fn", None))
        assert sorted(calls) == [name for name in callbacks
                                 if front_end != "server" or "_net_" in name]
        del owner

    def test_a_scrape_from_another_thread_never_walks_the_buffer(
            self, monkeypatch):
        walkers = set()
        walk = RecordWalk.walk

        def traced(self, records):
            walkers.add(threading.get_ident())
            return walk(self, records)

        monkeypatch.setattr(RecordWalk, "walk", traced)
        mon = RushMon(RushMonConfig(sampling_rate=1, mob=False,
                                    batch_size=32))
        started, done = threading.Event(), threading.Event()
        seen = []

        def scrape():
            while not done.is_set():
                seen.append(mon.metrics.snapshot()
                            ["rushmon_collector_ops_total"])
                started.set()

        def feed(buus):
            for buu in buus:
                mon.begin_buu(buu)
                for i in range(4):
                    mon.on_operation(Operation(
                        OpType.WRITE if i % 2 else OpType.READ, buu,
                        f"k{(buu + i) % 13}", 4 * buu + i + 1))
                mon.commit_buu(buu)

        # The first scrape, which registers the gauges, meets a buffer
        # holding records.
        feed(range(8))
        assert mon._records and not walkers
        scraper = threading.Thread(target=scrape)
        scraper.start()
        assert started.wait(10)
        try:
            feed(range(8, 2000))
        finally:
            done.set()
            scraper.join(10)
        assert not scraper.is_alive()
        assert walkers == {threading.get_ident()}
        assert len(seen) > 1 and seen == sorted(seen)
        mon.close_window()
        assert mon.metrics.snapshot()["rushmon_collector_ops_total"] == 8000

    def test_a_dropped_monitor_never_read_is_freed_by_reference_counting(
            self):
        gc.collect()
        gc.disable()
        try:
            mon = RushMon(RushMonConfig())
            _feed(mon)
            parts = [weakref.ref(part) for part in (
                mon, mon.metrics, mon.detector, mon.collector)]
            del mon
            assert [part() for part in parts] == [None] * len(parts)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_steps_queued_and_read_from_many_threads_run_once_each(self):
        reg = MetricsRegistry()
        ran = []
        readers, writers, steps = 4, 4, 200
        go = threading.Barrier(readers + writers)

        def step(registry, tag):
            ran.append(tag)
            registry.gauge_fn(f"g{tag[0]}", lambda: float(tag[1]))

        def write(w):
            go.wait()
            for i in range(steps):
                reg.defer(step, (w, i))

        def read():
            go.wait()
            for _ in range(steps):
                reg.snapshot()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = ([threading.Thread(target=write, args=(w,))
                        for w in range(writers)]
                       + [threading.Thread(target=read)
                          for _ in range(readers)])
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        snapshot = reg.snapshot()
        assert sorted(ran) == [(w, i) for w in range(writers)
                               for i in range(steps)]
        # Each writer's steps ran in the order it queued them.
        assert snapshot == {f"g{w}": steps - 1.0 for w in range(writers)}

    @given(st.lists(st.tuples(st.sampled_from(("defer", "eager", "gauge",
                                                "read")),
                              st.integers(0, 3), st.integers(0, 2)),
                    max_size=30))
    def test_deferred_and_eager_registrations_interleave_as_eager_ones(
            self, calls):
        """Drawn interleavings of queued and immediate registrations on
        one registry, read at drawn points, equal immediate ones only."""
        views = []
        for reg in (MetricsRegistry(), EagerRegistry()):
            reads = []
            for index, (kind, name, value) in enumerate(calls):
                name, fn = f"g{name}", lambda v=value: float(v)
                text = f"{kind} {index}"
                if kind == "defer":
                    reg.defer(lambda r, n, f, h: r.gauge_fn(n, f, help=h),
                              name, fn, text)
                elif kind == "eager":
                    reg.gauge_fn(name, fn, help=text)
                elif kind == "gauge":
                    reg.gauge(name, help=text)
                else:
                    reads.append(reg.snapshot())
            views.append((reads, _registry_view(reg)))
        assert views[0] == views[1]
