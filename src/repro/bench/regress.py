"""Perf-regression harness: pinned-seed ingest benchmarks (``BENCH_ingest.json``).

Three benches, all driven by the same deterministic event generator:

- **collector+detector** — single-threaded ingest of a mixed
  operation/lifecycle stream through ``DataCentricCollector`` and
  ``CycleDetector`` (sr=1 exercises the full bookkeeping path, sr=20 the
  sampled path).  The stream is pre-chunked into operation batches — the
  shape a batched caller such as ``RushMonService.on_operations``
  delivers — and fed through ``handle_batch`` / ``add_edge_batch``.
- **detector edge storm** — the detector alone, fed pre-collected edges
  in batches (isolates cycle counting + pruning from collection).
- **columnar** (numpy only) — the vectorized :mod:`repro.core.columnar`
  collection kernel in isolation (``columnar_collect_sr1``).  No monitor
  feeds the kernel any more (the combined row lost to the batched path
  end to end and was retired with the ``columnar`` switch).
- **net ingest** — server-side wire decode + sr=1 ingest of pre-encoded
  frames, codec 0 (JSON) vs codec 2 (packed columns): the
  representation claim measured where it pays, at the wire boundary.
- **service end-to-end** — 8 threads feed ``RushMonService`` in
  1024-operation chunks while a closer thread snapshots windows;
  reports ops/sec plus p50/p99 window-close (detection pass) latency.
- **cluster end-to-end** — the identical 8-thread workload against a
  4-worker :class:`~repro.cluster.ClusterMonitor`: collection is
  partitioned across worker *processes* (sidestepping the GIL the
  service's producer threads share), so the committed
  ``cluster_workers4`` row is the multi-process scaling claim, measured
  in the same run as ``service_8threads``.

Results go to ``BENCH_ingest.json`` at the repo root.  The committed
file records both the **pre-change** numbers (measured at the per-op
ingest commit, on the same machine and workload, protocol below) and
the **post-change** numbers, so the speedup claims are auditable.

CI check mode
-------------
Absolute ops/sec are machine-dependent, so ``--check`` compares the
machine-*independent* batch-vs-per-op speedup ratios: the quick suite
measures both protocols back-to-back on the same host and fails if the
measured ratio fell more than ``--tolerance`` (default 0.30, i.e. 30%)
below the committed one.  Raise the tolerance if a hosted runner proves
noisier than that; lower it to tighten the gate on quiet hardware.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.core.collector import BaselineCollector, DataCentricCollector
from repro.core.columnar import HAVE_NUMPY, OpBatch
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector
from repro.core.pruning import make_pruner
from repro.core.types import Edge, KeyInterner, Operation, OpType
from repro.net import protocol

#: Committed results file, at the repo root.
RESULTS_FILE = "BENCH_ingest.json"

#: Default operation batch size for the batched protocol (matches the
#: service default).
DEFAULT_BATCH_SIZE = 2048

#: Throughput measured immediately before the batched fast path landed,
#: with the then-current per-operation ingest protocol (``handle`` /
#: ``add_edge`` per event) on the identical workload, seeds, and
#: machine as the committed post-change numbers.  Latencies in seconds.
PRE_CHANGE = {
    "collector_detector_sr1": 118738.5,
    "collector_detector_sr20": 670996.9,
    "detector_edge_storm": 229093.5,
    "detector_edges": 184222,
    "service_8threads": 49613.9,
    "service_pass_p50": 2.8249,
    "service_pass_p99": 2.8249,
}


def synth_events(num_ops: int, num_keys: int = 1024, active: int = 32,
                 ops_per_buu: int = 8, write_frac: float = 0.5,
                 skew: float = 2.0, seed: int = 0) -> list:
    """Pinned-seed event stream mixing lifecycle tuples and operations.

    Yields ``("b", buu, seq)`` / ``("c", buu, seq)`` lifecycle markers
    interleaved with :class:`Operation` events: ``active`` BUUs run
    concurrently, each touching ``ops_per_buu`` skewed-random keys, and
    every commit immediately begins a replacement BUU.
    """
    rng = random.Random(seed)
    events: list = []
    next_buu = 0
    live: list[int] = []
    remaining: dict[int, int] = {}
    seq = 0

    def begin() -> None:
        nonlocal next_buu, seq
        buu = next_buu
        next_buu += 1
        seq += 1
        events.append(("b", buu, seq))
        live.append(buu)
        remaining[buu] = ops_per_buu

    for _ in range(active):
        begin()
    emitted = 0
    while emitted < num_ops:
        buu = live[rng.randrange(len(live))]
        key = f"k{int(num_keys * (rng.random() ** skew))}"
        kind = OpType.WRITE if rng.random() < write_frac else OpType.READ
        seq += 1
        events.append(Operation(kind, buu, key, seq))
        emitted += 1
        remaining[buu] -= 1
        if remaining[buu] == 0:
            live.remove(buu)
            del remaining[buu]
            seq += 1
            events.append(("c", buu, seq))
            begin()
    for buu in live:
        seq += 1
        events.append(("c", buu, seq))
    return events


def _chunk_plan(events: Sequence, batch_size: int) -> list:
    """Group operations into batches of up to ``batch_size``, leaving
    lifecycle tuples inline.

    Operations accumulate *across* lifecycle boundaries: lifecycle
    events apply to the detector immediately while buffered operations
    flush later, which is count-preserving because no pruner acts at
    commit time and pruning at the flush point sees the complete graph.
    """
    plan: list = []
    buf: list = []
    for ev in events:
        if ev.__class__ is Operation:
            buf.append(ev)
            if len(buf) >= batch_size:
                plan.append(buf)
                buf = []
        else:
            plan.append(ev)
    if buf:
        plan.append(buf)
    return plan


def _columnar_plan(events: Sequence, batch_size: int) -> list:
    """The :func:`_chunk_plan` with every operation batch pre-interned
    into an :class:`OpBatch` (one shared interner across the stream).

    The conversion is untimed by design: the row measures the kernel,
    and building the batches (``OpBatch.from_ops``, which interns every
    key before sampling) is what made the combined path lose.
    """
    interner = KeyInterner()
    return [OpBatch.from_ops(item, interner) if item.__class__ is list
            else item for item in _chunk_plan(events, batch_size)]


def bench_collector_detector(events: Sequence, sr: int,
                             batch_size: int = DEFAULT_BATCH_SIZE,
                             repeats: int = 3, batched: bool = True) -> float:
    """Single-thread collector+detector ingest throughput (ops/sec).

    ``batched=False`` runs the per-operation protocol (``handle`` +
    ``add_edge`` per event) used for the pre-change baseline and for
    the machine-independent speedup ratio in check mode.
    """
    n_ops = sum(1 for e in events if e.__class__ is Operation)
    plan = _chunk_plan(events, batch_size) if batched else None
    best = None
    for _ in range(repeats):
        col = DataCentricCollector(sampling_rate=sr, mob=True, seed=0)
        det = CycleDetector(pruner=make_pruner("both"), prune_interval=1000)
        if batched:
            assert plan is not None
            handle_batch = col.handle_batch
            add_edge_batch = det.add_edge_batch
            t0 = time.perf_counter()
            for item in plan:
                if item.__class__ is list:
                    add_edge_batch(handle_batch(item))
                elif item[0] == "b":
                    det.begin_buu(item[1], item[2])
                else:
                    det.commit_buu(item[1], item[2])
            dt = time.perf_counter() - t0
        else:
            handle = col.handle
            add_edge = det.add_edge
            t0 = time.perf_counter()
            for ev in events:
                if ev.__class__ is Operation:
                    for edge in handle(ev):
                        add_edge(edge)
                elif ev[0] == "b":
                    det.begin_buu(ev[1], ev[2])
                else:
                    det.commit_buu(ev[1], ev[2])
            dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert best is not None
    return n_ops / best


def bench_detector_storm(events: Sequence,
                         batch_size: int = DEFAULT_BATCH_SIZE,
                         repeats: int = 3,
                         batched: bool = True) -> tuple[float, int]:
    """Detector-only edge ingest throughput (edges/sec, edge count).

    Edges are pre-collected (untimed) through the exact baseline
    collector, so the timed region isolates cycle counting + pruning.
    """
    col = BaselineCollector()
    storm: list = []
    for ev in events:
        if ev.__class__ is Operation:
            storm.extend(col.handle(ev))
        else:
            storm.append(ev)
    n_edges = sum(1 for s in storm if s.__class__ is Edge)

    plan: list = []
    buf: list = []
    for item in storm:
        if item.__class__ is Edge:
            buf.append(item)
            if len(buf) >= batch_size:
                plan.append(buf)
                buf = []
        else:
            plan.append(item)
    if buf:
        plan.append(buf)

    best = None
    for _ in range(repeats):
        det = CycleDetector(pruner=make_pruner("both"), prune_interval=1000)
        if batched:
            add_edge_batch = det.add_edge_batch
            t0 = time.perf_counter()
            for item in plan:
                if item.__class__ is list:
                    add_edge_batch(item)
                elif item[0] == "b":
                    det.begin_buu(item[1], item[2])
                else:
                    det.commit_buu(item[1], item[2])
            dt = time.perf_counter() - t0
        else:
            add_edge = det.add_edge
            t0 = time.perf_counter()
            for item in storm:
                if item.__class__ is Edge:
                    add_edge(item)
                elif item[0] == "b":
                    det.begin_buu(item[1], item[2])
                else:
                    det.commit_buu(item[1], item[2])
            dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert best is not None
    return n_edges / best, n_edges


def bench_collector_columnar(events: Sequence, sr: int,
                             batch_size: int = DEFAULT_BATCH_SIZE,
                             repeats: int = 3) -> float:
    """Columnar collection-kernel throughput (ops/sec): DCS sampling +
    per-key grouping + edge derivation over pre-built :class:`OpBatch`
    columns, without the (pure-python) cycle detector downstream.

    The kernel in isolation: what is left of the columnar path, kept
    for the performance ledger's ``columnar_leg``.
    """
    n_ops = sum(1 for e in events if e.__class__ is Operation)
    cplan = [item for item in _columnar_plan(events, batch_size)
             if item.__class__ is not tuple]
    best = None
    for _ in range(repeats):
        col = DataCentricCollector(sampling_rate=sr, mob=True, seed=0)
        handle_batch = col.handle_batch
        t0 = time.perf_counter()
        for item in cplan:
            handle_batch(item)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    assert best is not None
    return n_ops / best


def bench_net_ingest(events: Sequence, codec: int, sr: int = 20,
                     batch_size: int = DEFAULT_BATCH_SIZE,
                     repeats: int = 3) -> tuple[float, object]:
    """Server-side decode+ingest throughput (ops/sec) for one codec.

    Frames are pre-encoded (untimed — that is the client's cost); the
    timed region is what an ingestion server does per connection:
    :class:`~repro.net.protocol.FrameReader` framing + CRC, event
    materialization, and collector+detector ingest at ``sr`` (default
    20, the deployed sampling configuration — there decode is the
    dominant server cost, exactly what the codec choice changes; the
    ``collector_detector_sr1*`` rows cover full-bookkeeping ingest).
    Both codecs apply the same frame discipline — each frame's
    operations ingest as one batch, then its lifecycle rows apply in
    order — so the derived graphs (returned as the detector's final
    cycle counts) are identical across codecs and the ratio isolates
    decode + materialization cost.
    """
    frames: list[bytes] = []
    buf: list = []
    seqno = 0
    n_ops = 0

    def flush() -> None:
        nonlocal seqno, buf
        if buf:
            seqno += 1
            frames.append(protocol.encode_frame(
                protocol.batch("bench", seqno, buf), codec))
            buf = []

    for ev in events:
        if ev.__class__ is Operation:
            buf.append(protocol.wire_op(ev))
            n_ops += 1
        elif ev[0] == "b":
            buf.append(protocol.wire_begin(ev[1], ev[2]))
        else:
            buf.append(protocol.wire_commit(ev[1], ev[2]))
        if len(buf) >= batch_size:
            flush()
    flush()
    blob = b"".join(frames)

    best = None
    counts = None
    for _ in range(repeats):
        col = DataCentricCollector(sampling_rate=sr, mob=True, seed=0)
        det = CycleDetector(pruner=make_pruner("both"), prune_interval=1000)
        interner = KeyInterner()
        reader = protocol.FrameReader()
        handle_batch = col.handle_batch
        add_edge_batch = det.add_edge_batch
        t0 = time.perf_counter()
        for offset in range(0, len(blob), 65536):  # socket-sized chunks
            for message in reader.feed(blob[offset:offset + 65536]):
                records = message["events"]
                if isinstance(records, protocol.ColumnarEvents):
                    batch, lifecycle = OpBatch.from_wire(records, interner)
                    if len(batch):
                        edges = handle_batch(batch)
                        add_edge_batch(edges.iter_rows() if HAVE_NUMPY
                                       else edges)
                    for kind, buu, when in lifecycle:
                        if kind == "b":
                            det.begin_buu(buu, when)
                        else:
                            det.commit_buu(buu, when)
                else:
                    ops: list = []
                    lifecycle = []
                    for record in records:
                        kind = record[0]
                        if kind == "r" or kind == "w":
                            ops.append(Operation(OpType(kind), record[1],
                                                 record[2], record[3]))
                        else:
                            lifecycle.append(record)
                    if ops:
                        add_edge_batch(handle_batch(ops))
                    for record in lifecycle:
                        if record[0] == "b":
                            det.begin_buu(record[1], record[2])
                        else:
                            det.commit_buu(record[1], record[2])
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        counts = det.counts
    assert best is not None
    return n_ops / best, counts


def bench_service(num_threads: int = 8, ops_per_thread: int = 40000,
                  num_keys: int = 4096, sr: int = 4, shards: int = 16,
                  seed: int = 0,
                  batch_size: int = DEFAULT_BATCH_SIZE
                  ) -> tuple[float, float, float]:
    """End-to-end service throughput: N threads feed pre-generated
    streams in 1024-op chunks while a closer thread snapshots windows.

    Returns (ops/sec, p50 close latency, p99 close latency) in seconds.
    """
    streams = []
    for t in range(num_threads):
        evs = synth_events(ops_per_thread, num_keys=num_keys, active=16,
                           ops_per_buu=64, seed=seed + 1000 * t + 1)
        streams.append(evs)
    service = RushMonService(
        RushMonConfig(sampling_rate=sr, mob=True, seed=seed,
                      num_shards=shards, detect_interval=3600.0,
                      batch_size=batch_size),
    )
    total_ops = sum(
        sum(1 for e in s if e.__class__ is Operation) for s in streams
    )

    def feed(stream: list) -> None:
        buf: list = []
        for ev in stream:
            if ev.__class__ is Operation:
                buf.append(ev)
                if len(buf) >= 1024:
                    service.on_operations(buf)
                    buf.clear()
            elif ev[0] == "b":
                service.begin_buu(ev[1], ev[2])
            else:
                service.commit_buu(ev[1], ev[2])
        if buf:
            service.on_operations(buf)

    threads = [threading.Thread(target=feed, args=(s,)) for s in streams]
    done = threading.Event()
    pass_lat: list[float] = []

    def closer() -> None:
        while not done.is_set():
            time.sleep(0.05)
            t0 = time.perf_counter()
            service.close_window()
            pass_lat.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    close_thread = threading.Thread(target=closer)
    close_thread.start()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done.set()
    close_thread.join()
    service.stop()
    dt = time.perf_counter() - t0
    lat = sorted(pass_lat)
    p50 = lat[len(lat) // 2] if lat else 0.0
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))] if lat else 0.0
    return total_ops / dt, p50, p99


def bench_cluster(num_threads: int = 8, ops_per_thread: int = 40000,
                  num_keys: int = 4096, sr: int = 4, workers: int = 4,
                  seed: int = 0, cluster_batch: int = 1024,
                  kill_respawn: bool = False
                  ) -> tuple[float, float, float]:
    """End-to-end cluster throughput: the same 8-thread workload as
    :func:`bench_service`, fed to a ``workers``-process
    :class:`~repro.cluster.ClusterMonitor` while a closer thread
    snapshots cluster-wide windows.

    With ``kill_respawn`` a worker is SIGKILLed mid-stream, so the
    measured number includes one supervisor respawn-and-replay — the
    smoke check that the recovery path survives a real workload (the
    run must still finish with ``health="ok"``).

    Returns (ops/sec, p50 close latency, p99 close latency) in seconds.
    """
    import os
    import signal as _signal

    from repro.cluster import ClusterMonitor

    streams = []
    for t in range(num_threads):
        evs = synth_events(ops_per_thread, num_keys=num_keys, active=16,
                           ops_per_buu=64, seed=seed + 1000 * t + 1)
        streams.append(evs)
    cluster = ClusterMonitor(
        RushMonConfig(sampling_rate=sr, mob=True, seed=seed,
                      num_workers=workers, cluster_batch=cluster_batch),
    )
    total_ops = sum(
        sum(1 for e in s if e.__class__ is Operation) for s in streams
    )

    def feed(stream: list) -> None:
        buf: list = []
        for ev in stream:
            if ev.__class__ is Operation:
                buf.append(ev)
                if len(buf) >= 1024:
                    cluster.on_operations(buf)
                    buf.clear()
            elif ev[0] == "b":
                cluster.begin_buu(ev[1], ev[2])
            else:
                cluster.commit_buu(ev[1], ev[2])
        if buf:
            cluster.on_operations(buf)

    # Spawn + mesh handshake happens outside the timed region: the
    # bench measures steady-state routing, not process startup.
    cluster.begin_buu(-1, 0)
    cluster.commit_buu(-1, 0)
    cluster.close_window()

    threads = [threading.Thread(target=feed, args=(s,)) for s in streams]
    done = threading.Event()
    pass_lat: list[float] = []

    def closer() -> None:
        while not done.is_set():
            time.sleep(0.05)
            t0 = time.perf_counter()
            cluster.close_window()
            pass_lat.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    close_thread = threading.Thread(target=closer)
    close_thread.start()
    for t in threads:
        t.start()
    if kill_respawn:
        time.sleep(0.2)
        victim = cluster._links[0].proc
        if victim is not None and victim.is_alive():
            os.kill(victim.pid, _signal.SIGKILL)
    for t in threads:
        t.join()
    done.set()
    close_thread.join()
    final = cluster.close_window()
    if kill_respawn and final.health != "ok":
        raise RuntimeError(
            f"kill-respawn bench ended degraded: {final.degraded_shards}")
    cluster.stop()
    dt = time.perf_counter() - t0
    lat = sorted(pass_lat)
    p50 = lat[len(lat) // 2] if lat else 0.0
    p99 = lat[min(len(lat) - 1, int(len(lat) * 0.99))] if lat else 0.0
    return total_ops / dt, p50, p99


def run_full(batch_size: int = DEFAULT_BATCH_SIZE,
             repeats: int = 3, seed: int = 0) -> dict:
    """The committed suite: 150k-op stream + the 8-thread service run."""
    events = synth_events(150_000, seed=seed)
    results: dict = {}
    results["collector_detector_sr1"] = bench_collector_detector(
        events, 1, batch_size, repeats)
    results["collector_detector_sr20"] = bench_collector_detector(
        events, 20, batch_size, repeats)
    storm, n_edges = bench_detector_storm(events, batch_size, repeats)
    results["detector_edge_storm"] = storm
    results["detector_edges"] = n_edges
    if HAVE_NUMPY:
        results["columnar_collect_sr1"] = bench_collector_columnar(
            events, 1, batch_size, repeats)
    net0, counts0 = bench_net_ingest(events, protocol.CODEC_JSON,
                                     batch_size=batch_size, repeats=repeats)
    net2, counts2 = bench_net_ingest(events, protocol.CODEC_COLUMNAR,
                                     batch_size=batch_size, repeats=repeats)
    if counts0 != counts2:
        raise RuntimeError(
            f"net_ingest codecs diverged: codec-0 counted {counts0}, "
            f"codec-2 counted {counts2}")
    results["net_ingest_codec0"] = net0
    results["net_ingest_codec2"] = net2
    results["net_ingest_speedup"] = net2 / net0
    svc, p50, p99 = bench_service(seed=seed, batch_size=batch_size)
    results["service_8threads"] = svc
    results["service_pass_p50"] = p50
    results["service_pass_p99"] = p99
    clu, cp50, cp99 = bench_cluster(seed=seed)
    results["cluster_workers4"] = clu
    results["cluster_pass_p50"] = cp50
    results["cluster_pass_p99"] = cp99
    return results


def run_quick(batch_size: int = DEFAULT_BATCH_SIZE,
              repeats: int = 3, seed: int = 0) -> dict:
    """CI suite: small stream, both protocols, machine-portable ratios."""
    events = synth_events(30_000, seed=seed)
    batched_sr1 = bench_collector_detector(events, 1, batch_size, repeats)
    perop_sr1 = bench_collector_detector(events, 1, batch_size, repeats,
                                         batched=False)
    storm_batched, _ = bench_detector_storm(events, batch_size, repeats)
    storm_perop, _ = bench_detector_storm(events, batch_size, repeats,
                                          batched=False)
    results = {
        "collector_detector_sr1_batched": batched_sr1,
        "collector_detector_sr1_perop": perop_sr1,
        "batch_speedup_sr1": batched_sr1 / perop_sr1,
        "detector_storm_batched": storm_batched,
        "detector_storm_perop": storm_perop,
        "batch_speedup_storm": storm_batched / storm_perop,
    }
    net0, counts0 = bench_net_ingest(events, protocol.CODEC_JSON,
                                     batch_size=batch_size, repeats=repeats)
    net2, counts2 = bench_net_ingest(events, protocol.CODEC_COLUMNAR,
                                     batch_size=batch_size, repeats=repeats)
    if counts0 != counts2:
        raise RuntimeError(
            f"net_ingest codecs diverged: codec-0 counted {counts0}, "
            f"codec-2 counted {counts2}")
    results["net_ingest_codec0"] = net0
    results["net_ingest_codec2"] = net2
    results["net_ingest_speedup"] = net2 / net0
    if HAVE_NUMPY:
        results["columnar_collect_sr1"] = bench_collector_columnar(
            events, 1, batch_size, repeats)
    return results


def _speedups(full: dict) -> dict:
    pre = PRE_CHANGE
    return {
        "collector_detector_sr1":
            full["collector_detector_sr1"] / pre["collector_detector_sr1"],
        "collector_detector_sr20":
            full["collector_detector_sr20"] / pre["collector_detector_sr20"],
        "detector_edge_storm":
            full["detector_edge_storm"] / pre["detector_edge_storm"],
        "service_8threads":
            full["service_8threads"] / pre["service_8threads"],
    }


def _print_table(full: dict, speedups: dict) -> None:
    print(f"{'bench':<28}{'pre (ops/s)':>14}{'now (ops/s)':>14}{'speedup':>9}")
    for key, ratio in speedups.items():
        print(f"{key:<28}{PRE_CHANGE[key]:>14,.0f}{full[key]:>14,.0f}"
              f"{ratio:>8.2f}x")
    if "columnar_collect_sr1" in full:
        print(f"{'columnar_collect_sr1':<28}{'--':>14}"
              f"{full['columnar_collect_sr1']:>14,.0f}"
              f"{'':>9}  (collection kernel, no detector)")
    if "net_ingest_codec2" in full:
        print(f"{'net_ingest codec-0':<28}{'--':>14}"
              f"{full['net_ingest_codec0']:>14,.0f}")
        print(f"{'net_ingest codec-2':<28}{'--':>14}"
              f"{full['net_ingest_codec2']:>14,.0f}"
              f"{full['net_ingest_speedup']:>8.2f}x  (decode+ingest vs "
              f"codec-0)")
    print(f"service close latency: p50 {full['service_pass_p50'] * 1e3:.1f}ms"
          f"  p99 {full['service_pass_p99'] * 1e3:.1f}ms"
          f"  (pre p50 {PRE_CHANGE['service_pass_p50'] * 1e3:.1f}ms)")
    if "cluster_workers4" in full:
        # No PRE_CHANGE row exists for the cluster (it is new); the
        # scaling claim is measured against the same-run service number.
        scale = full["cluster_workers4"] / full["service_8threads"]
        print(f"{'cluster_workers4':<28}{'--':>14}"
              f"{full['cluster_workers4']:>14,.0f}{scale:>8.2f}x"
              f"  (vs same-run service_8threads)")
        print(f"cluster close latency: p50 {full['cluster_pass_p50'] * 1e3:.1f}"
              f"ms  p99 {full['cluster_pass_p99'] * 1e3:.1f}ms")
        if (os.cpu_count() or 1) < 4:
            print("  note: this host has fewer cores than workers — no "
                  "process parallelism; see protocol.cluster_note in "
                  f"{RESULTS_FILE}")


def check_quick(committed: dict, measured: dict, tolerance: float) -> list[str]:
    """Compare measured quick-suite speedup ratios against the committed
    ones; returns a list of human-readable failures (empty = pass)."""
    failures = []
    quick = committed.get("quick", {})
    gated = ["batch_speedup_sr1", "batch_speedup_storm"]
    # Codec-2's decode advantage lives in numpy frombuffer, so it only
    # holds where numpy does — a fallback-mode host measures the
    # pure-python struct path, so the committed ratio would gate the
    # wrong thing there.
    if HAVE_NUMPY:
        gated.append("net_ingest_speedup")
    for key in gated:
        baseline = quick.get(key)
        if baseline is None:
            failures.append(f"committed {RESULTS_FILE} has no quick.{key}; "
                            f"re-run with --update to regenerate it")
            continue
        floor = baseline * (1.0 - tolerance)
        if measured[key] < floor:
            failures.append(
                f"{key} regressed: measured {measured[key]:.2f}x < floor "
                f"{floor:.2f}x (committed {baseline:.2f}x minus "
                f"{tolerance:.0%} tolerance)")
    return failures


def run_regress(out_path: str | Path = RESULTS_FILE, *, quick: bool = False,
                update: bool = False, check: bool = False,
                tolerance: float = 0.30,
                batch_size: int = DEFAULT_BATCH_SIZE,
                repeats: int = 3, seed: int = 0) -> int:
    """Entry point behind ``python -m repro bench-regress``.

    Default: run the suite and print results.  ``--update`` also rewrites
    ``BENCH_ingest.json``; ``--check`` compares the quick suite's
    batch-vs-per-op ratios against the committed file and returns 1 on a
    regression beyond ``tolerance``.
    """
    out_path = Path(out_path)
    quick_results = run_quick(batch_size, repeats, seed)
    print("quick suite (30k ops):")
    print(f"  sr=1 batched {quick_results['collector_detector_sr1_batched']:,.0f}"
          f" vs per-op {quick_results['collector_detector_sr1_perop']:,.0f}"
          f" ops/s -> {quick_results['batch_speedup_sr1']:.2f}x")
    print(f"  storm batched {quick_results['detector_storm_batched']:,.0f}"
          f" vs per-op {quick_results['detector_storm_perop']:,.0f}"
          f" edges/s -> {quick_results['batch_speedup_storm']:.2f}x")
    print(f"  net ingest codec-2 {quick_results['net_ingest_codec2']:,.0f}"
          f" vs codec-0 {quick_results['net_ingest_codec0']:,.0f}"
          f" ops/s -> {quick_results['net_ingest_speedup']:.2f}x")
    if "columnar_collect_sr1" in quick_results:
        print(f"  sr=1 columnar kernel "
              f"{quick_results['columnar_collect_sr1']:,.0f} ops/s")

    if check:
        if not out_path.exists():
            print(f"check failed: {out_path} not found — run with --update "
                  f"first to commit a baseline")
            return 1
        committed = json.loads(out_path.read_text())
        failures = check_quick(committed, quick_results, tolerance)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}")
            return 1
        print(f"check passed (tolerance {tolerance:.0%})")
        if quick:
            return 0

    full_results: dict = {}
    if not quick:
        full_results = run_full(batch_size, repeats, seed)
        speedups = _speedups(full_results)
        print()
        _print_table(full_results, speedups)

    if update:
        if quick and out_path.exists():
            payload = json.loads(out_path.read_text())
        else:
            payload = {}
        payload.setdefault("protocol", {
            "workload": "synth_events(150_000, seed=0); quick=30k ops",
            "batch_size": batch_size,
            "repeats": repeats,
            "service": "8 threads x 40k ops, keys=4096, sr=4, shards=16, "
                       "1024-op chunks, closer @50ms, detect_interval=3600",
            "note": "pre = per-op protocol at the pre-change commit, same "
                    "machine/workload; quick ratios are what CI checks",
        })
        # The cluster row is new: (re)write its protocol note even when a
        # committed protocol block already exists.
        payload["protocol"]["cluster"] = (
            "same 8-thread workload, ClusterMonitor with 4 worker "
            "processes, cluster_batch=1024, closer @50ms; compared "
            "against the same-run service_8threads"
        )
        payload["protocol"]["cluster_cpus"] = os.cpu_count()
        payload["protocol"]["columnar"] = (
            "columnar_collect_sr1 = the collection kernel alone "
            "(sampling, grouping, edge derivation) over pre-built "
            "(untimed) OpBatch batches, without the cycle detector; no "
            "monitor feeds the kernel (the combined row measured 0.83x "
            "the batched path and was retired); numpy required (skipped "
            "otherwise)"
        )
        payload["protocol"]["net_ingest"] = (
            "server-side decode+ingest: pre-encoded 2048-event frames "
            "fed through FrameReader in 64KiB chunks, each frame's ops "
            "ingested as one sr=20 collector+detector batch (the "
            "deployed sampling configuration, where decode is the "
            "dominant server cost) and its "
            "lifecycle rows applied after; identical frame discipline "
            "for both codecs (final cycle counts asserted equal), so "
            "the ratio isolates decode + event materialization"
        )
        payload["protocol"]["cluster_note"] = (
            "every worker redundantly maintains the full conflict graph "
            "(that is what makes per-shard counts sum bit-exactly), so "
            "the cluster only out-scales the single-process service when "
            "the host grants it >= num_workers cores; on a single-core "
            "host it is strictly more total CPU work and the row "
            "documents that honestly rather than a scaling win"
        )
        payload["pre"] = PRE_CHANGE
        if full_results:
            payload["full"] = full_results
            payload["speedup_vs_pre"] = _speedups(full_results)
        payload["quick"] = quick_results
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out_path}")
    return 0
