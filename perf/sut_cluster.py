"""Cluster system under test: ``ClusterMonitor`` with two worker
processes, fed closed loop by one caller."""

from __future__ import annotations

import multiprocessing
import time
from collections import Counter
from dataclasses import replace

import gen
from harness import (CLUSTER_WORKERS, Outcome, Profile, Samples, Spec,
                     check_estimate, closed_loop_inputs, counts_tuple,
                     feed_pass, require_cpus, sum_raw)
from measure import (HostSpeed, Tracer, median, proc_cpu_clock,
                     proc_peak_rss_mb)
from repro.checkers import exact_cycle_counts
from repro.cluster import ClusterMonitor
from repro.core import RushMon
from repro.core.frontier import key_partition
from repro.core.types import CycleCounts

#: Leading 2048-op chunks of the bit-exactness differential.
EXACT_HEAD_CHUNKS = 25


def _children_cpu() -> float:
    return sum(proc_cpu_clock(child.pid)
               for child in multiprocessing.active_children())


def run_cluster(spec: Spec, seed: int, seconds: float, profile: Profile,
                tracer: Tracer | None = None, verify: bool = True) -> Outcome:
    out = Outcome()
    config = replace(spec.config, num_workers=CLUSTER_WORKERS)
    require_cpus(CLUSTER_WORKERS, "cluster_closed")
    prep = time.perf_counter()
    stream, chunks = closed_loop_inputs(spec, seed, profile)
    out.input_hash = gen.stream_hash([stream])
    exact = exact_cycle_counts(stream.ops) if verify else None
    out.prep_s = time.perf_counter() - prep
    n_ops = len(stream.ops)

    host = HostSpeed(profile.probe_reps)
    setups = []
    cluster = None
    try:
        for attempt in range(profile.setups["cluster"] + 1):
            if cluster is not None:
                cluster.stop()
            started = time.perf_counter()
            cluster = ClusterMonitor(config)
            cluster.close_window()   # forces the lazy worker spawn
            if attempt:   # the first spawn only warms the page cache
                setups.append(time.perf_counter() - started)
                host.probe()
        if verify:
            _check_cluster_exact(out, cluster, config, chunks)
        samples = Samples()
        walls, parent_cpu, worker_cpu, raws = [], [], [], []
        reflected = 0
        healthy = True
        host.probe()
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            cluster.reset(config)
            kids0 = _children_cpu()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            feed_pass(cluster, chunks, samples, tracer, "cluster.monitor")
            walls.append(time.perf_counter() - wall0)
            parent_cpu.append(time.process_time() - cpu0)
            worker_cpu.append(_children_cpu() - kids0)
            host.probe()
            reflected += sum(r.operations for r in cluster.reports)
            healthy = healthy and all(r.health == "ok"
                                      for r in cluster.reports)
            raws.append(counts_tuple(sum_raw(cluster.reports)))
        estimates = [r.estimated_2 + r.estimated_3 for r in cluster.reports]
        peak = max(proc_peak_rss_mb(child.pid)
                   for child in multiprocessing.active_children())
        registry = cluster.metrics.snapshot()
        flushes = cluster.router_flushes
        states = [shard["state"] for shard in cluster.shard_health()]
    finally:
        if cluster is not None:
            cluster.stop()

    passes = len(walls)
    out.attempted = n_ops * passes
    out.failed = out.attempted - reflected
    out.metrics = {
        "ops_per_s": n_ops / median(walls),
        "cpu_us_per_op":
            median([p + w for p, w in zip(parent_cpu, worker_cpu)])
            / n_ops * 1e6,
        "ack_ms_p50": samples.ack_ms_p50(),
        "setup_s": median(setups),
        "peak_rss_mb": peak,
    }
    out.scale_to_nominal_speed(host, "cluster")
    out.check("ops_reflected", reflected == out.attempted,
              f"reports cover {reflected} of {out.attempted}")
    out.check("health_ok", healthy and all(s == "up" for s in states),
              str(states))
    out.check("passes_agree", len(set(raws)) == 1,
              f"{len(set(raws))} distinct raw counts over {passes} passes")
    if verify:
        check_estimate(out, CycleCounts(*raws[-1]), estimates, exact,
                        profile.cycle_floor["cluster"])
    owners = [0] * CLUSTER_WORKERS
    for key, ops in Counter(op.key for op in stream.ops).items():
        owners[key_partition(key, CLUSTER_WORKERS,
                             CLUSTER_WORKERS - 1)] += ops
    barrier = registry["rushmon_cluster_barrier_seconds"]
    out.layers.update({
        "run.passes": passes,
        "run.cpu_s": sum(parent_cpu) + sum(worker_cpu),
        "run.ops": out.attempted,
        "check.raw_counts": list(raws[-1]),
        "cluster.monitor.route_us_per_op":
            median(parent_cpu) / n_ops * 1e6,
        "cluster.worker.worker_cpu_us_per_op":
            median(worker_cpu) / n_ops * 1e6,
        "cluster.monitor.flush_barrier_ms_mean": barrier["mean"] * 1e3,
        "cluster.monitor.flush_barrier_ms_max": barrier["max"] * 1e3,
        "cluster.monitor.frames_routed": flushes * CLUSTER_WORKERS,
        "cluster.monitor.shard_skew":
            max(owners) / (sum(owners) / len(owners)),
        "cluster.monitor.on_operations_us_per_op_p50":
            samples.caller_us_p(0.5),
        "cluster.monitor.report_ms_p50": samples.report_ms_p(0.5),
        "cluster.monitor.report_ms_p90": samples.report_ms_p(0.9),
    })
    return out


def _check_cluster_exact(out: Outcome, cluster, config, chunks) -> None:
    """Without MOB the cluster's merged raw counts must equal the serial
    monitor's bit for bit.  (With MOB each worker draws its reservoir
    coins from its own RNG, so the shipped default can only be held to
    the estimate band.)  Checked on the head of the stream, untimed."""
    exact_config = replace(config, mob=False)
    head = chunks[:EXACT_HEAD_CHUNKS]
    serial = RushMon(exact_config)
    feed_pass(serial, head, Samples())
    cluster.reset(exact_config)
    feed_pass(cluster, head, Samples())
    got = counts_tuple(sum_raw(cluster.reports))
    want = counts_tuple(sum_raw(serial.reports))
    out.check("serial_bit_exact", got == want,
              f"mob off: cluster {got} serial {want}")
