"""Concurrency stress tests for the sharded collector + service.

The heavyweight test pushes 8 real threads x ~5k operations each through
:class:`~repro.core.concurrent.RushMonService` with a trace recorded
beside it, then checks the whole contract at once: no exceptions, no
deadlock (join timeout), clean shutdown, every submitted event
processed, and — the differential invariant — replaying the recorded
trace through the offline baseline reproduces the service's counts
bit-exactly.  The driver notifies every listener of an operation under
that key's lock, so the recorder sees each key's operations in journal
order, and the dependency graph depends on nothing else.  The
interleaving itself is nondeterministic; the invariant must hold for
*any* interleaving, and the recorder makes each run auditable after the
fact.

Marked ``stress`` so CI can rerun the module back-to-back (3 consecutive
passes are required by the acceptance criteria).
"""

import itertools
import random
import sys
import threading
import time

import pytest

from repro.core.concurrent import RushMonService, ShardedCollector
from repro.core.concurrent.journaled import EV_OPS
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.core.types import Operation, OpType
from repro.sim.buu import read_modify_write
from repro.sim.scheduler import ThreadedWorkloadDriver
from repro.sim.traces import Trace
from repro.storage import wal

from tests.histgen import JournalTap, skewed_key
from tests.test_sampled_journal import (_events, _feed_batched, _feed_calls,
                                        _feed_per_op, _frame_records)

pytestmark = pytest.mark.stress


def _workload(num_buus, num_keys, touch, seed, skew=1.5):
    rng = random.Random(seed)
    return [
        read_modify_write(
            list({skewed_key(rng, num_keys, skew) for _ in range(touch)}),
            lambda v: (v or 0) + 1,
        )
        for _ in range(num_buus)
    ]


def _run_stress(num_threads, ops_per_thread, num_keys, seed):
    touch = 4  # 2 reads + 2 writes per key pair -> 8 ops per BUU
    num_buus = num_threads * ops_per_thread // (2 * touch)
    workload = _workload(num_buus, num_keys, touch, seed)
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, pruning="both", seed=seed,
                      detect_interval=0.005),
    )
    trace = Trace()
    driver = ThreadedWorkloadDriver(
        [service, trace], num_threads=num_threads, seed=seed,
        yield_every=17, join_timeout=60.0,
    )
    with service:
        driver.run(workload)
    assert not service.running, "detection thread failed to stop"
    return service, driver, trace


def _assert_differential(service, driver, trace):
    # Every submitted event reached the detector: ops + one begin and one
    # commit per BUU.
    expected_events = driver.ops_emitted + 2 * driver.buus_completed
    assert service.processed_events == expected_events
    assert service.collector.ops_seen == driver.ops_emitted

    counts = service.counts()
    assert len(trace.ops) == driver.ops_emitted
    replayed = OfflineAnomalyMonitor()
    trace.replay([replayed])
    assert replayed.exact_counts() == counts

    # Window reports partition the cumulative counts exactly.
    assert sum(r.raw.two_cycles for r in service.reports) == counts.two_cycles
    assert sum(r.raw.three_cycles for r in service.reports) == counts.three_cycles
    assert sum(r.operations for r in service.reports) == driver.ops_emitted

    # The observability snapshot reconciles exactly with the service's
    # own counters: metrics are a second bookkeeping path over the same
    # events, so after drain any disagreement is a lost update.
    snap = service.metrics.snapshot()
    assert snap["rushmon_service_events_processed_total"] == \
        service.processed_events
    assert snap["rushmon_service_passes_total"] == service.passes
    assert snap["rushmon_service_reports_total"] == len(service.reports)
    assert snap["rushmon_service_pass_seconds"]["count"] == service.passes
    assert snap["rushmon_collector_ops_total"] == driver.ops_emitted
    assert snap["rushmon_collector_lifecycle_events_total"] == \
        2 * driver.buus_completed
    assert snap["rushmon_collector_edges_total"] == service.collector.stats.total


def test_stress_8_threads_5k_ops():
    """8 threads x ~5k ops with a hot key space: heavy journal contention,
    many real anomalies, exact differential match."""
    service, driver, trace = _run_stress(num_threads=8, ops_per_thread=5000,
                                         num_keys=512, seed=101)
    _assert_differential(service, driver, trace)
    # With 8 unsynchronized writers on a skewed key space the run must
    # actually produce anomalies — otherwise the stress is vacuous.
    assert service.counts().two_cycles > 0


def test_stress_small_shard_count():
    """``num_shards=1``, a field the service does not read: its one
    journal orders every producer call whatever the config says.
    Four producers on 32 hot keys, yielding every 5 operations, must
    still match the serial replay exactly."""
    workload = _workload(400, 32, 3, seed=7)
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=7, num_shards=1,
                      detect_interval=0.005),
    )
    trace = Trace()
    driver = ThreadedWorkloadDriver([service, trace], num_threads=4, seed=7,
                                    yield_every=5, join_timeout=60.0)
    with service:
        driver.run(workload)
    _assert_differential(service, driver, trace)


@pytest.mark.parametrize("num_threads", (2, 4, 8))
def test_a_trace_listener_sees_each_key_in_journal_order(num_threads):
    """The premise of every differential here and of ``monitor
    --oracle``: a ``Trace`` listed after the service is notified of an
    operation under the same key lock as the service's journal, so per
    key the two hold the same operations in the same order — on 16 hot
    keys, where every key is raced for."""
    workload = _workload(120 * num_threads, 16, 4, seed=31 + num_threads)
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=31,
                      detect_interval=0.003),
    )
    tap = JournalTap(service)
    trace = Trace()
    driver = ThreadedWorkloadDriver([service, trace], num_threads=num_threads,
                                    seed=31, yield_every=3,
                                    join_timeout=60.0)
    with service:
        driver.run(workload)

    def per_key(ops):
        order = {}
        for op in ops:
            order.setdefault(op.key, []).append((op.buu, op.op))
        return order

    journaled = sorted(tap.trace().ops, key=lambda op: op.seq)
    assert len(journaled) == len(trace.ops) == driver.ops_emitted
    assert per_key(journaled) == per_key(trace.ops)
    # Not vacuous: some key was written by BUUs of different threads in
    # turn, so its order was decided by the race.
    assert any(len({buu for buu, _ in ops}) > 1
               for ops in per_key(trace.ops).values())


def test_stress_sampled_and_mob():
    """sr>1 + MOB under threads: no crashes, clean drain, events conserved
    (counts are sampled, so no exactness claim — that is sr=1's job)."""
    workload = _workload(600, 64, 4, seed=13)
    service = RushMonService(
        RushMonConfig(sampling_rate=4, mob=True, seed=13,
                      detect_interval=0.005),
    )
    driver = ThreadedWorkloadDriver([service], num_threads=8, seed=13,
                                    yield_every=11, join_timeout=60.0)
    with service:
        driver.run(workload)
    assert service.processed_events == (
        driver.ops_emitted + 2 * driver.buus_completed
    )
    e2, e3 = service.cumulative_estimates()
    assert e2 >= 0.0 and e3 >= 0.0


@pytest.mark.parametrize("capacity", (None, 1 << 20),
                         ids=("unbounded", "bounded"))
@pytest.mark.parametrize("sr", (4, 20))
def test_stress_sampled_service_two_producers(sr, capacity):
    """The sampled service differential under real interleaving: two
    producers alternate per-op ingest, batched ingest and whole calls of
    several hundred operations (past ``batch_size``, each one record,
    landing whole — unlocked on an unbounded journal, under the journal
    lock on a bounded one) beside the detection thread.  No
    interleaving may lose or double-apply an elided count (carried by
    records and by the run-length total, appended concurrently), and the
    counts equal a serial replay of the journal the passes drained — the
    producers share no key lock, so the journal's ticket order is the
    only order their events have.  Both
    producer rules run: an unbounded journal takes batches whole and
    elides only unsampled single operations; a bounded one (too large
    ever to block or shed) elides before the journal on every call."""
    config = RushMonConfig(sampling_rate=sr, mob=False, seed=3,
                           detect_interval=0.002, journal_capacity=capacity)
    service = RushMonService(config)
    tap = JournalTap(service)
    num_threads = 2
    streams = [_events(3000, seed=tid + 1, first_buu=tid * 1_000_000)
               for tid in range(num_threads)]
    errors = []

    def whole(monitor, events):
        _feed_calls(monitor, events, len(events))

    def producer(events):
        # A slice of 600 events carries ~500 operations: one call.
        slices = itertools.cycle(((_feed_per_op, 150),
                                  (_feed_batched, 150), (whole, 600)))
        try:
            start = 0
            for feed, size in slices:
                if start >= len(events):
                    break
                feed(service, events[start:start + size])
                start += size
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=producer, args=(events,), daemon=True)
               for events in streams]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with service:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive(), "producer deadlocked"
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert not service.running

    num_events = sum(len(events) for events in streams)
    num_ops = 3000 * num_threads
    counts = service.counts()
    assert service.collector.ops_seen == num_ops
    assert service.processed_events == num_events
    assert sum(r.operations for r in service.reports) == num_ops
    assert sum(r.raw.two_cycles for r in service.reports) == counts.two_cycles
    assert sum(r.raw.three_cycles for r in service.reports) == \
        counts.three_cycles
    assert sum(r.edges.total for r in service.reports) == \
        service.collector.stats.total
    snap = service.metrics.snapshot()
    assert snap["rushmon_service_events_processed_total"] == \
        service.processed_events
    assert snap["rushmon_collector_ops_total"] == num_ops
    assert snap["rushmon_collector_sampled_ops_total"] == \
        service.collector.touches
    replayed = RushMon(config)
    tap.trace().replay([replayed])
    assert replayed.detector.counts == counts
    assert replayed.collector.stats == service.collector.stats
    assert counts.two_cycles > 0  # the run was not vacuous


class _Producer:
    """One producer's stream, fed in turns of per-op, batched and
    whole-frame calls through op lists it reuses, recording what it
    expects its journal to hold: its events in program order, less the
    single unsampled operations ``on_operation`` only counts."""

    def __init__(self, service, events):
        self.service = service
        self.events = events
        self.expected = []
        self.error = None

    def run(self):
        service = self.service
        chosen = service.collector.sampler.chosen
        batch, frame = [], []

        def flush():
            if batch:
                service.on_operations(batch)
                self.expected.extend(("op", op) for op in batch)
                batch.clear()

        try:
            for turn, start in enumerate(range(0, len(self.events), 40)):
                events = self.events[start:start + 40]
                time.sleep(0.001)  # paced, so passes and cuts fall mid-stream
                if turn % 3 == 2:
                    frame[:] = _frame_records(events)
                    service.on_records(frame)
                    self.expected.extend(events)
                    continue
                for kind, payload in events:
                    if kind == "op" and turn % 3:
                        batch.append(payload)
                        continue
                    flush()
                    if kind == "begin":
                        service.begin_buu(*payload)
                    elif kind == "commit":
                        service.commit_buu(*payload)
                    else:
                        service.on_operation(payload)
                        if not chosen(payload.key):
                            continue  # only counted, never a record
                    self.expected.append((kind, payload))
                flush()
        except BaseException as exc:  # pragma: no cover - failure path
            self.error = exc


@pytest.mark.parametrize("sr", (1, 4))
def test_stress_producers_land_in_program_order(tmp_path, sr):
    """Three producers on an unbounded journal make per-op, batched and
    whole-frame calls, reusing their op lists, while passes drain every
    1–2 ms, checkpoints are cut mid-stream and a scraper reads the
    journal depth in a loop (each of them settles what landed).  In the
    drained journal, by ticket, each producer's events come out in its
    program order, each exactly once, on disjoint ticket ranges; every
    checkpoint holds each event offered before its cut, processed or
    pending; and ``ops_seen``, ``processed_events`` and
    ``lifecycle_offered`` reconcile with what the producers offered."""
    service = RushMonService(
        RushMonConfig(sampling_rate=sr, mob=False, seed=5,
                      detect_interval=0.0015))
    tap = JournalTap(service)
    streams = [_events(6000, seed=tid + 1, first_buu=tid * 1_000_000)
               for tid in range(3)]
    producers = [_Producer(service, events) for events in streams]
    threads = [threading.Thread(target=p.run, daemon=True) for p in producers]
    cuts = []
    done = threading.Event()

    def cut():
        while not done.wait(0.002):
            path = str(tmp_path / f"cut{len(cuts) % 2}.wal")
            service.checkpoint(path)
            cuts.append(wal.load_checkpoint(path))

    def scrape():
        # Every reading settles: the tail is taken while producers append.
        while not done.is_set():
            service.collector.journal_depth

    cutter = threading.Thread(target=cut, daemon=True)
    scraper = threading.Thread(target=scrape, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with service:
            cutter.start()
            scraper.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
                assert not thread.is_alive(), "producer deadlocked"
            done.set()
            cutter.join(60.0)
            scraper.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not [p.error for p in producers if p.error]
    assert len(cuts) > 2

    for state in cuts:
        journal = state["collector"]
        pending = sum(len(r[2]) + r[3] if r[1] == EV_OPS else 1
                      for r in journal["journal"])
        assert state["processed_events"] + pending == \
            journal["ops_seen"] - journal["elided"] \
            + journal["lifecycle_offered"]

    landed = sorted(tap.records.items())
    for (ticket, record), (after, _) in zip(landed, landed[1:]):
        width = len(record[2]) if record[1] == EV_OPS else 1
        assert after >= ticket + max(1, width)
    for tid, producer in enumerate(producers):
        mine = []
        for _, (_, kind, payload, _) in landed:
            if kind == EV_OPS:
                mine.extend(("op", op) for op in payload
                            if op.buu // 1_000_000 == tid)
            elif payload // 1_000_000 == tid:
                mine.append((kind, payload))
        assert mine == [(kind, payload if kind == "op" else payload[0])
                        for kind, payload in producer.expected]

    num_ops = 3 * 6000
    num_lifecycle = sum(map(len, streams)) - num_ops
    collector = service.collector
    assert collector.ops_seen == num_ops
    assert collector.lifecycle_offered == num_lifecycle
    assert service.processed_events == num_ops + num_lifecycle
    assert sum(r.operations for r in service.reports) == num_ops
    assert collector.journal_depth == 0
    journaled = sum(len(r[2]) for r in tap.records.values()
                    if r[1] == EV_OPS)
    assert journaled == sum(1 for p in producers
                            for kind, _ in p.expected if kind == "op")
    assert (journaled < num_ops) == (sr > 1)


def test_raw_sharded_collector_hammer():
    """Bypass the service: many threads hammering ShardedCollector
    directly on overlapping keys must never corrupt shard state (edge
    and op conservation)."""
    collector = ShardedCollector(sampling_rate=1, mob=False, num_shards=4)
    num_threads, per_thread = 8, 2000
    errors = []

    def worker(tid):
        rng = random.Random(tid)
        try:
            for i in range(per_thread):
                buu = tid * 1_000_000 + i
                key = f"k{rng.randrange(64)}"
                op = OpType.READ if rng.random() < 0.5 else OpType.WRITE
                collector.handle(Operation(op, buu, key, i))
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,), daemon=True)
               for t in range(num_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
        assert not thread.is_alive(), "collector worker deadlocked"
    assert not errors
    assert collector.ops_seen == num_threads * per_thread
    assert collector.touches == num_threads * per_thread
    merged = collector.merged()
    assert merged.touches == collector.touches
    assert merged.num_items <= 64


def test_service_stop_is_idempotent_and_terminal():
    """stop() after stop() is safe; stop() is terminal — the final drain
    already ran, so late ingestion and window closes are refused loudly
    instead of silently post-dating the final counts."""
    service = RushMonService(RushMonConfig(sampling_rate=1, mob=False))
    service.start()
    service.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    service.stop()
    first = service.processed_events
    assert first >= 1
    assert service.stop() is service.latest_report()  # idempotent
    with pytest.raises(RuntimeError, match="stopped"):
        service.on_operation(Operation(OpType.WRITE, 2, "x", 2))
    with pytest.raises(RuntimeError, match="stopped"):
        service.close_window()
    assert service.processed_events == first
