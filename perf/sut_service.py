"""Service system under test: ``RushMonService`` fed by paced producer
threads while another thread closes windows beside them."""

from __future__ import annotations

import threading
import time

import gen
from harness import (CLOSE_INTERVAL, OUT_DIR, PRODUCERS, SERVICE_CHUNK,
                     Outcome, Profile, Spec, check_estimate, counts_tuple,
                     require_cpus, sleep_until)
from measure import (HostSpeed, Tracer, begin_span, end_span, median,
                     proc_peak_rss_mb, quantile)
from repro.checkers import exact_cycle_counts
from repro.core import RushMonService
from repro.core.types import CycleCounts

LAYER = "core.concurrent.service"


def run_service(spec: Spec, seed: int, seconds: float, profile: Profile,
                tracer: Tracer | None = None, verify: bool = True) -> Outcome:
    require_cpus(PRODUCERS, "service_paced")
    out = Outcome()
    config = spec.config
    family = spec.family
    rate = profile.service_rate[family.name]
    prep = time.perf_counter()
    streams = [gen.make_stream(family, seed, profile.lap_ops // PRODUCERS,
                               producer=j, producers=PRODUCERS)
               for j in range(PRODUCERS)]
    chunks = [gen.chunked(s, SERVICE_CHUNK) for s in streams]
    out.input_hash = gen.stream_hash(streams)
    exact = None
    if verify:
        exact = exact_cycle_counts(
            gen.merge_round_robin(streams, SERVICE_CHUNK))
    out.prep_s = time.perf_counter() - prep
    lap_ops = sum(len(s.ops) for s in streams)

    host = HostSpeed(profile.probe_reps)
    setups = []
    laps = max(1, round(seconds / (lap_ops / rate)))
    interval = SERVICE_CHUNK / (rate / PRODUCERS)
    calls: list[tuple[float, int, float]] = []   # (seconds, ops, ack seconds)
    late: list[float] = []
    reports: list[float] = []
    walls, cpu_s = [], []
    raw = CycleCounts()
    estimate = 0.0
    reflected = seen = shed = 0
    healthy = True
    registry = {}
    for _ in range(laps):
        # A batch of set-ups before every lap, so that the run's median
        # set-up has seen the host at as many moments as its laps.
        for _ in range(profile.setups["service"]):
            started = time.perf_counter()
            service = RushMonService(config).start()
            service.close_window()
            setups.append(time.perf_counter() - started)
            service.stop()
        service = RushMonService(config).start()
        done = threading.Event()
        start = time.perf_counter() + 0.05

        def produce(mine):
            clock = time.perf_counter
            for i, chunk in enumerate(mine):
                due = start + i * interval
                late.append(sleep_until(due))
                span = begin_span(tracer, LAYER + ".lifecycle")
                for buu, when in chunk.begins:
                    service.begin_buu(buu, when)
                end_span(tracer, span)
                span = begin_span(tracer, LAYER + ".on_operations")
                began = clock()
                service.on_operations(chunk.ops)
                ended = clock()
                end_span(tracer, span)
                span = begin_span(tracer, LAYER + ".lifecycle")
                calls.append((ended - began, len(chunk.ops), ended - due))
                for buu, when in chunk.commits:
                    service.commit_buu(buu, when)
                end_span(tracer, span)

        def close_beside():
            tick = 1
            while not done.wait(max(0.0, start + tick * CLOSE_INTERVAL
                                    - time.perf_counter())):
                tick += 1
                span = begin_span(tracer, LAYER + ".close_window")
                began = time.perf_counter()
                service.close_window()
                reports.append(time.perf_counter() - began)
                end_span(tracer, span)

        threads = [threading.Thread(target=produce, args=(mine,))
                   for mine in chunks]
        closer = threading.Thread(target=close_beside)
        cpu0 = time.process_time()
        for thread in threads + [closer]:
            thread.start()
        for thread in threads:
            thread.join()
        done.set()
        closer.join()
        began = time.perf_counter()
        service.close_window()
        reports.append(time.perf_counter() - began)
        service.stop()
        walls.append(time.perf_counter() - start)
        cpu_s.append(time.process_time() - cpu0)
        host.probe()
        reflected += sum(r.operations for r in service.reports)
        seen += service.collector.ops_seen
        shed += service.collector.shed_events
        healthy = healthy and service.health == "ok" and all(
            r.health == "ok" for r in service.reports)
        raw.add(service.counts())
        estimate += sum(service.cumulative_estimates())
        registry = service.metrics.snapshot()
    if tracer:
        _storage_layers(out, service, tracer)

    out.attempted = lap_ops * laps
    out.failed = out.attempted - reflected
    out.metrics = {
        "ops_per_s": lap_ops / median(walls),
        "cpu_us_per_op": median(cpu_s) / lap_ops * 1e6,
        "ack_ms_p50": median([a for _, _, a in calls]) * 1e3,
        "setup_s": median(setups),
        "peak_rss_mb": proc_peak_rss_mb(),
    }
    out.scale_to_nominal_speed(host, "service")
    out.check("ops_seen", seen == out.attempted,
              f"collector saw {seen} of {out.attempted}")
    out.check("ops_reflected", reflected == out.attempted,
              f"reports cover {reflected} of {out.attempted}")
    out.check("nothing_shed", shed == 0, f"{shed} shed")
    out.check("health_ok", healthy)
    if verify:
        check_estimate(out, raw, (estimate,), exact,
                        profile.cycle_floor["service"], laps)
    passes = registry["rushmon_service_pass_seconds"]
    out.layers.update({
        "run.passes": laps,
        "run.cpu_s": sum(cpu_s),
        "run.ops": out.attempted,
        "run.generator_late_ms_max": max(late) * 1e3,
        "check.raw_counts": list(counts_tuple(raw)),
        "core.concurrent.service.on_operations_us_per_op_p50":
            median([s / n for s, n, _ in calls]) * 1e6,
        "core.concurrent.service.on_operations_us_per_op_p99":
            quantile([s / n for s, n, _ in calls], 0.99) * 1e6,
        "core.concurrent.service.pass_ms_mean": passes["mean"] * 1e3,
        "core.concurrent.service.pass_ms_max": passes["max"] * 1e3,
        "core.concurrent.service.passes": passes["count"],
        "core.concurrent.service.report_ms_p50": median(reports) * 1e3,
        "core.concurrent.service.report_ms_p90": quantile(reports, 0.9) * 1e3,
        "core.concurrent.sharded.journal_depth_high_water":
            registry["rushmon_collector_journal_depth_highwater"],
        "core.concurrent.sharded.lock_wait_s":
            registry["rushmon_collector_lock_wait_seconds_total"],
    })
    return out


def _storage_layers(out: Outcome, service: RushMonService,
                    tracer: Tracer) -> None:
    """One checkpoint of the last lap's (stopped) service and one
    restore from it: the baseline for checkpoint work."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"checkpoint-{tracer.workload}.wal"
    span = tracer.begin("storage.wal.checkpoint")
    began = time.perf_counter()
    service.checkpoint(str(path))
    saved = time.perf_counter()
    tracer.end(span)
    span = tracer.begin("storage.wal.restore")
    restored = RushMonService.restore(str(path))
    done = time.perf_counter()
    tracer.end(span)
    out.check("restore_counts",
              counts_tuple(restored.counts())
              == counts_tuple(service.counts()))
    out.layers.update({
        "storage.wal.checkpoint_ms": (saved - began) * 1e3,
        "storage.wal.checkpoint_bytes": path.stat().st_size,
        "storage.wal.restore_ms": (done - saved) * 1e3,
    })
    path.unlink()
