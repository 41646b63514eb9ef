"""Where the service samples: an unbounded journal takes a producer's
batch whole and the detection pass samples it; a single unsampled
``on_operation``, a prefiltered server frame and every call into a
bounded journal leave unsampled operations out before the journal and
count them in a batch record's ``elided`` field (or one run-length total
per drain).

The contract pinned here, at ``sr`` in {4, 20} (every other service
differential runs at ``sr=1``, where nothing is ever elided):

- counts, edge statistics and operation totals equal the serial
  :class:`~repro.core.monitor.RushMon`'s bit for bit, through every
  ingest path;
- no operation is lost or double-counted by elision — not by a failed
  detection pass, not by a bounded journal, not by checkpoint/restore.
"""

import itertools
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core.collector import DataCentricCollector
from repro.core.concurrent import JournalBackpressure, RushMonService
from repro.core.concurrent.journaled import (EV_BEGIN, EV_COMMIT, EV_EDGES,
                                             EV_OPS, JournaledCollector)
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.core.types import Operation, OpType
from repro.storage import wal
from repro.testing import Fault, FaultInjector, InjectedFault

from tests.test_checkpoint import _feed as _feed_per_op

SAMPLING_RATES = (4, 20)

#: Checkpoints of older formats, which this build refuses by version.
#: Version 1, written by the commit before sampling moved ahead of the
#: journal: ``_events(1000)`` up to the operation with ``seq == 500``,
#: fed per op into ``RushMonService(RushMonConfig(sampling_rate=20,
#: mob=False, seed=3, num_shards=4))`` and checkpointed before any drain
#: (its pending journal holds one ``op`` record per operation, collected
#: at ingest by four key-hash shards).  Version 2, written by the last
#: build whose service could record its own trace:
#: ``_events(400)`` up to the operation with ``seq == 200``, fed per op
#: into ``RushMonService(RushMonConfig(sampling_rate=20, mob=False,
#: seed=3), record_trace=True)``, one window closed, the next 40 events
#: fed and the checkpoint cut with them pending (it carries the
#: ``record_trace`` and ``trace`` keys and ``checkpoint_interval`` in its
#: config).  Version 3, written by the last build with the ``"degrade"``
#: overflow policy (whose service kept its own copy of the collector:
#: the shard, the gate and the pass's shift on ``JournaledCollector``):
#: ``_events(1000)`` fed per op in slices of 50 events, a window closed
#: after each, into ``RushMonService(_config(1, journal_capacity=16,
#: overflow="degrade"))`` up to event 145, then checkpointed (it carries
#: the ``degrade_shift`` and ``pass_shift`` collector keys and a pending
#: ``"shift"`` record).
OLD_CHECKPOINTS = {
    version: os.path.join(os.path.dirname(__file__), "data", name)
    for version, name in ((1, "checkpoint_full_journal_sr20.wal"),
                          (2, "checkpoint_v2_traced_sr20.wal"),
                          (3, "checkpoint_v3_degrade_sr1.wal"))
}


def _events(num_ops, num_keys=48, active=12, ops_per_buu=10, seed=1,
            first_buu=0):
    """A deterministic single-producer event stream, as ``(kind,
    payload)`` tuples: ``active`` BUUs (ids from ``first_buu``) run
    interleaved on a skewed int key space; each begins before its first
    operation and commits after its last.  A bare LCG instead of
    ``random`` so the committed checkpoint fixture can never drift from
    the stream that wrote it."""
    state = seed

    def draw(bound):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % bound

    events = []
    running = {}  # buu -> operations left
    next_buu = first_buu
    for seq in range(num_ops):
        while len(running) < active:
            events.append(("begin", (next_buu, seq)))
            running[next_buu] = ops_per_buu
            next_buu += 1
        buu = sorted(running)[draw(len(running))]
        key = min(draw(num_keys), draw(num_keys))  # skew towards low keys
        kind = OpType.WRITE if draw(2) else OpType.READ
        events.append(("op", Operation(kind, buu, key, seq)))
        running[buu] -= 1
        if not running[buu]:
            del running[buu]
            events.append(("commit", (buu, seq)))
    for buu in sorted(running):
        events.append(("commit", (buu, num_ops)))
    return events


def _lifecycle(monitor, kind, payload):
    (monitor.begin_buu if kind == "begin" else monitor.commit_buu)(*payload)


def _feed_batched(monitor, events):
    """Runs of consecutive operations go through ``on_operations`` (what
    the network server does with a decoded frame)."""
    run = []
    for kind, payload in events:
        if kind == "op":
            run.append(payload)
            continue
        if run:
            monitor.on_operations(run)
            run = []
        _lifecycle(monitor, kind, payload)
    if run:
        monitor.on_operations(run)


def _frame_records(events):
    """``events`` as the records of one producer call
    (:meth:`RushMonService.on_records`), each run of consecutive
    operations one ops record — what the network server makes of a
    decoded frame."""
    records = []
    for kind, run in itertools.groupby(events, key=lambda event: event[0]):
        if kind == "op":
            records.append((EV_OPS, [payload for _, payload in run], 0))
        else:
            records.extend((kind, *payload) for _, payload in run)
    return records


def _feed_calls(monitor, events, size):
    """``on_operations`` calls of ``size`` operations each, as an
    application that logs a batch at a time makes them: a begin that
    ``events`` places among a call's operations moves before the call, a
    commit after it (a BUU still begins before its first operation and
    commits after its last)."""
    begins, ops, commits = [], [], []

    def call():
        for payload in begins:
            monitor.begin_buu(*payload)
        if ops:
            monitor.on_operations(ops)
        for payload in commits:
            monitor.commit_buu(*payload)

    for kind, payload in events:
        if kind == "op" and len(ops) == size:
            call()
            begins, ops, commits = [], [], []
        {"begin": begins, "op": ops, "commit": commits}[kind].append(payload)
    call()


def _config(sr, **kwargs):
    return RushMonConfig(sampling_rate=sr, mob=False, seed=3, **kwargs)


def _num_ops(events):
    return sum(1 for kind, _ in events if kind == "op")


def _serial(sr, events):
    monitor = RushMon(_config(sr))
    _feed_per_op(monitor, events)
    monitor.close_window()
    return monitor


def _run_in_windows(service, feed, events, windows=4):
    """Feed ``events`` in ``windows`` slices, closing a window after
    each, so the totals are sums over several reports."""
    step = -(-len(events) // windows)
    for start in range(0, len(events), step):
        feed(service, events[start:start + step])
        service.close_window()


def _assert_matches_serial(service, serial, events):
    ops = _num_ops(events)
    assert service.counts() == serial.detector.counts
    assert service.collector.stats == serial.collector.stats
    assert service.collector.touches == serial.collector.touches
    assert service.collector.ops_seen == ops
    assert sum(r.operations for r in service.reports) == ops
    assert service.processed_events == len(events)
    assert sum(r.raw.two_cycles for r in service.reports) == \
        serial.detector.counts.two_cycles
    assert sum(r.edges.total for r in service.reports) == \
        serial.collector.stats.total


# -- the sampled service differential -----------------------------------------


@pytest.mark.parametrize("path", ("batched", "per-op", "bounded"))
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_sampled_service_matches_serial(sr, path):
    """Every ingest path reproduces the serial monitor's sampled counts
    and accounts for every event."""
    events = _events(6000)
    serial = _serial(sr, events)
    assert serial.detector.counts.two_cycles > 0  # not vacuous
    # "bounded": a capacity nothing here reaches still checks every
    # record against it.
    config = _config(sr, journal_capacity=1 << 20) if path == "bounded" \
        else _config(sr)
    service = RushMonService(config)
    feed = _feed_per_op if path == "per-op" else _feed_batched
    _run_in_windows(service, feed, events)
    assert len(service.reports) == 4
    _assert_matches_serial(service, serial, events)


@pytest.mark.parametrize("feed", (_feed_per_op, _feed_batched),
                         ids=("per-op", "batched"))
@pytest.mark.parametrize("sr", (1,) + SAMPLING_RATES)
def test_one_producer_with_mob_is_the_serial_monitor(sr, feed):
    """Collection runs in the pass, in ticket order, on one shard seeded
    like the serial collector's: fed one stream, batched or one operation
    at a time, the service draws MOB's reservoir and discard coins exactly
    as ``RushMon`` does."""
    events = _events(6000)
    serial = RushMon(RushMonConfig(sampling_rate=sr, seed=3))
    _feed_per_op(serial, events)
    serial.close_window()
    service = RushMonService(RushMonConfig(sampling_rate=sr, seed=3))
    _run_in_windows(service, feed, events)
    assert serial.collector.discarded_reads > 0  # MOB dropped reads
    assert service.collector.engine.discarded_reads == \
        serial.collector.discarded_reads
    for part in ("shard", "sampler"):  # item tables and MOB's RNG too
        assert getattr(service.collector.engine, part).to_state() == \
            getattr(serial.collector, part).to_state()
    _assert_matches_serial(service, serial, events)


#: The journal under each overflow policy a service can run: unbounded,
#: ``"block"`` with room for every slice below, and ``"shed"`` with
#: room for less than one.
_JOURNALS = {
    "unbounded": {},
    "block": {"journal_capacity": 1 << 20, "overflow": "block"},
    "shed": {"journal_capacity": 16, "overflow": "shed"},
}


@pytest.mark.parametrize("mob", (False, True), ids=("full", "mob"))
@pytest.mark.parametrize("sr", (1, 4))
@pytest.mark.parametrize("front", ("serial", *_JOURNALS))
def test_the_windows_add_up_to_the_cumulative_estimate(front, sr, mob):
    """One item sample and one ``p`` for the whole stream (Theorem 5.2):
    the estimates of the windows a monitor publishes sum to its
    ``cumulative_estimates()``, on the serial monitor and on an inline
    service under every overflow policy."""
    config = RushMonConfig(sampling_rate=sr, mob=mob, seed=3,
                           **_JOURNALS.get(front, {}))
    monitor = RushMon(config) if front == "serial" else RushMonService(config)
    events = _events(3000)
    for start in range(0, len(events), 60):
        _feed_batched(monitor, events[start:start + 60])
        monitor.close_window()
    if front == "shed":
        assert monitor.collector.shed_events > 0  # the policy ran
    two, three = monitor.cumulative_estimates()
    assert two > 0 and three > 0  # not vacuous
    assert sum(r.estimated_2 for r in monitor.reports) == pytest.approx(two)
    assert sum(r.estimated_3 for r in monitor.reports) == \
        pytest.approx(three)


def test_a_call_is_one_detector_batch(monkeypatch):
    """At the deployed settings (sr=20, MOB, the default ``batch_size``),
    each ``on_operations`` call of 1 024 operations is one journal record,
    so the pass feeds the detector once per call, as the serial monitor
    does, and counts what the serial monitor counts."""
    from repro.core.detector import CycleDetector

    feeds = []
    add_edge_batch = CycleDetector.add_edge_batch

    def counted(detector, edges):
        feeds.append(detector)
        return add_edge_batch(detector, edges)

    monkeypatch.setattr(CycleDetector, "add_edge_batch", counted)
    config = RushMonConfig(sampling_rate=20, seed=3)
    assert config.mob and config.batch_size < 1024
    events = _events(8 * 1024, num_keys=400)
    serial, service = RushMon(config), RushMonService(config)
    for monitor in (serial, service):
        _feed_calls(monitor, events, 1024)
        monitor.close_window()
    assert feeds.count(serial.detector) == 8
    assert feeds.count(service.detector) == 8
    assert service.counts() == serial.detector.counts
    assert service.collector.stats == serial.collector.stats
    assert service.collector.engine.discarded_reads == \
        serial.collector.discarded_reads
    assert service.collector.stats.total > 0  # not vacuous


#: ``journal_capacity``: unbounded (the default, where a producer's batch
#: is journaled whole) or a bound nothing here reaches (where producers
#: leave unsampled operations out before the journal).
CAPACITIES = pytest.mark.parametrize("capacity", (None, 1 << 20),
                                     ids=("unbounded", "bounded"))


@CAPACITIES
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_on_operations_longer_than_batch_size(sr, capacity):
    """One call far longer than ``batch_size`` is one journal record.  An
    unbounded journal holds the call whole, in order, with nothing
    elided; a bounded one filters the input once and journals the chosen
    operations with the elided count.  Either way the pass counts every
    operation once."""
    events = _events(6000)
    serial = _serial(sr, events)
    ops = [payload for kind, payload in events if kind == "op"]
    service = RushMonService(_config(sr, batch_size=64,
                                     journal_capacity=capacity))
    for kind, payload in events:
        if kind == "begin":
            service.begin_buu(*payload)
    service.on_operations(iter(ops))  # read once, into the record
    [(_, _, journaled, elided)] = [
        record for record in service.collector.snapshot_state()["journal"]
        if record[1] == EV_OPS]
    chosen = service.collector.sampler.chosen
    if capacity is None:
        assert journaled == [[op.op.value, op.buu, op.key, op.seq]
                             for op in ops]
        assert elided == 0
    else:
        assert journaled == [[op.op.value, op.buu, op.key, op.seq]
                             for op in ops if chosen(op.key)]
        assert len(journaled) + elided == len(ops)
    for kind, payload in events:
        if kind == "commit":
            service.commit_buu(*payload)
    service.close_window()
    assert service.collector.stats == serial.collector.stats
    assert service.collector.ops_seen == len(ops)
    assert sum(r.operations for r in service.reports) == len(ops)
    assert service.processed_events == len(events)


def test_an_unbounded_batch_asks_the_sampler_nothing_before_the_pass():
    """At ``sr=20`` an unbounded service's ``on_operations`` journals
    the batch without one probe of the sampler; the pass samples it.  A
    bounded service's producer still probes every operation."""
    events = _events(3000)
    serial = _serial(20, events)
    probes = {}
    services = {}
    for capacity in (None, 1 << 20):
        service = RushMonService(_config(20, journal_capacity=capacity))
        sampler = service.collector.sampler
        lookup = sampler.lookup
        probes[capacity] = 0

        def counting(key, lookup=lookup, capacity=capacity):
            probes[capacity] += 1
            return lookup(key)

        sampler.lookup = counting
        _feed_batched(service, events)
        services[capacity] = service
    assert probes[None] == 0
    assert probes[1 << 20] == _num_ops(events)
    for service in services.values():
        service.close_window()
        _assert_matches_serial(service, serial, events)


def test_unsampled_single_operations_journal_nothing_but_a_count():
    """``on_operation`` keeps the serial monitor's rule on any journal:
    one probe, and an operation on an unsampled item only adds to the
    run-length count — 1 000 of them leave no record but the one the
    drain closes with."""
    service = RushMonService(_config(20))
    chosen = service.collector.sampler.chosen
    unsampled = [Operation(OpType.WRITE, i, ("k", i), i)
                 for i in range(5000) if not chosen(("k", i))][:1000]
    assert len(unsampled) == 1000
    for op in unsampled:
        service.on_operation(op)
    state = service.collector.snapshot_state()
    assert state["journal"] == []
    assert state["elided"] == 1000
    assert service.collector.journal_depth == 0
    records = service.collector.drain()
    assert [record[1:] for record in records] == [(EV_OPS, [], 1000)]
    assert service.collector.ops_seen == 1000


# -- journal level# -- journal level --------------------------------------------------------------


def _journaling(sr=4, **kwargs):
    return JournaledCollector(
        DataCentricCollector(sampling_rate=sr, mob=False, seed=3,
                             engaged=True), **kwargs)


def _journaled_ops(records):
    return [op for _, kind, ops, _ in records if kind == EV_OPS for op in ops]


@CAPACITIES
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_journal_holds_sampled_ops_and_counts(sr, capacity):
    """Tickets rise with one per journaled operation, and the records
    account for every operation offered.  An unbounded journal holds
    each call's operations whole; in a bounded one no journaled operation
    is on an unchosen key and the records' counts are exactly the
    operations left out."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    collector = _journaling(sr, journal_capacity=capacity)
    for start in range(0, 2000, 100):
        collector.offer([(EV_OPS, ops[start:start + 100], 0)])
    for op in ops[2000:]:
        collector.offer([(EV_OPS, [op], 0)])
    records = collector.drain()
    chosen = collector.sampler.chosen
    assert collector.ops_seen == len(ops)
    assert len(_journaled_ops(records)) + sum(
        record[3] for record in records) == len(ops)
    if capacity is None:
        assert _journaled_ops(records) == ops
        assert [len(record[2]) for record in records] == \
            [100] * 20 + [1] * 1000
    else:
        assert _journaled_ops(records) == [op for op in ops
                                           if chosen(op.key)]
        # Each per-op record and each batch of the first 2000 holds at
        # least one op; the per-op calls that kept none share one count
        # at the end.
        assert all(record[2] for record in records[:-1])
        assert records[-1][2] == [] and records[-1][3] > 0
    tickets = [ticket for ticket, *_ in records]
    assert tickets == sorted(set(tickets))
    assert collector.drain() == []


def test_sr1_never_elides():
    """At ``sr=1`` every item is chosen: there is no prefilter, and every
    operation is journaled."""
    ops = [payload for kind, payload in _events(800) if kind == "op"]
    collector = _journaling(1)
    assert collector.prefilter() is None
    collector.offer([(EV_OPS, ops[:400], 0)])
    for op in ops[400:]:
        collector.offer([(EV_OPS, [op], 0)])
    records = collector.drain()
    assert _journaled_ops(records) == ops
    assert sum(record[3] for record in records) == 0


@CAPACITIES
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_prefiltered_batch_with_elided_count_journals_the_same(sr, capacity):
    """Offering the chosen operations plus how many were left out (what
    the server does after decoding with ``prefilter()``) walks to the
    counts an offer of them all walks to — including batches with
    nothing chosen and with nothing elided.  A bounded journal, which
    filters every offer itself, even journals the same records."""
    events = _events(3000)
    ops = [payload for kind, payload in events if kind == "op"]
    whole, prefiltered = (
        RushMonService(_config(sr, batch_size=32, journal_capacity=capacity))
        for _ in range(2))
    chosen = prefiltered.collector.prefilter()
    assert chosen is prefiltered.collector.sampler.lookup
    for kind, payload in events:
        if kind == "begin":
            whole.begin_buu(*payload)
            prefiltered.begin_buu(*payload)
    sizes = (1, 3, 40, 100, 7, 260)
    start = offers = 0
    while start < len(ops):
        offers += 1
        size = sizes[start % len(sizes)]
        batch = ops[start:start + size]
        kept = [op for op in batch if chosen(op.key)]
        whole.on_records([(EV_OPS, batch, 0)])
        prefiltered.on_records([(EV_OPS, kept, len(batch) - len(kept))])
        start += size
    for service in (whole, prefiltered):
        assert service.collector.ops_seen == len(ops)
        # At most one ops record per offer, whatever its length.
        assert sum(record[1] == EV_OPS for record in service.collector
                   .snapshot_state()["journal"]) <= offers
    if capacity is not None:
        assert whole.collector.snapshot_state()["journal"] == \
            prefiltered.collector.snapshot_state()["journal"]
    for service in (whole, prefiltered):
        service.close_window()
    assert whole.collector.stats.total > 0
    assert whole.collector.stats == prefiltered.collector.stats
    assert whole.collector.touches == prefiltered.collector.touches
    assert whole.counts() == prefiltered.counts()
    assert whole.reports[0].operations == prefiltered.reports[0].operations \
        == len(ops)
    assert whole.processed_events == prefiltered.processed_events
    with pytest.raises(ValueError, match="prefilter"):
        _journaling(1, journal_capacity=capacity).offer(
            [(EV_OPS, ops[:3], 2)])


@pytest.mark.parametrize("bounded", (False, True),
                         ids=("unbounded", "bounded"))
@pytest.mark.parametrize("seed", range(6))
def test_one_call_appends_what_per_event_calls_append(seed, bounded):
    """Random begin/op/commit interleavings: journaling the events of a
    frame with one ``offer`` drains to the same records as one ``offer``
    per event."""
    import random

    rng = random.Random(seed)
    kwargs = {"journal_capacity": 10 ** 6} if bounded else {}
    per_event, frames = _journaling(1, **kwargs), _journaling(1, **kwargs)
    script = []
    for seq in range(400):
        roll = rng.random()
        if roll < 0.3:
            script.append(("begin", (rng.randrange(50), seq)))
        elif roll < 0.6:
            script.append(("commit", (rng.randrange(50), seq)))
        else:
            script.append(("op", Operation(OpType.WRITE, rng.randrange(50),
                                           rng.randrange(24), seq)))
    records = [(EV_OPS, [payload], 0) if kind == "op" else (kind, *payload)
               for kind, payload in script]
    for record in records:
        per_event.offer([record])
    for start in range(0, len(records), 97):
        frames.offer(records[start:start + 97])
    frames.offer([])  # an empty call is nothing
    drained = frames.drain()
    assert drained == per_event.drain()
    assert sum(1 for _, kind, _, _ in drained
               if kind in (EV_BEGIN, EV_COMMIT)) == \
        sum(1 for kind, _ in script if kind != "op")


@CAPACITIES
def test_concurrent_producers_lose_no_append_and_no_ticket(capacity):
    """Six threads offer batches, single operations and lifecycle events
    while a seventh drains: every record arrives once, tickets rise
    strictly across drains, and the counters updated under the journal
    lock are exact.  An unbounded journal holds every operation, a
    bounded one the sampled ones."""
    import sys
    import threading

    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    collector = _journaling(4, journal_capacity=capacity)
    start = threading.Barrier(7)
    stop = threading.Event()
    drained = []

    def produce(thread):
        start.wait(timeout=30)
        for i in range(thread, len(ops), 6):
            if i % 5:
                collector.offer([(EV_OPS, [ops[i]], 0)])
                collector.offer([(EV_COMMIT, ops[i].buu, i)])
            else:
                collector.offer([(EV_OPS, ops[i:i + 1], 0),
                                 (EV_COMMIT, ops[i].buu, i)])

    def drain():
        start.wait(timeout=30)
        while not stop.is_set():
            drained.extend(collector.drain())

    threads = [threading.Thread(target=produce, args=(t,)) for t in range(6)]
    drainer = threading.Thread(target=drain)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads + [drainer]:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stop.set()
        drainer.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads + [drainer])
    drained.extend(collector.drain())
    tickets = [record[0] for record in drained]
    assert tickets == sorted(set(tickets))
    assert sorted(_journaled_ops(drained), key=lambda op: op.seq) == [
        op for op in ops
        if capacity is None or collector.sampler.chosen(op.key)]
    assert sum(record[3] for record in drained if record[1] == EV_OPS) \
        + len(_journaled_ops(drained)) == len(ops) == collector.ops_seen
    assert sum(record[1] == EV_COMMIT for record in drained) == len(ops) \
        == collector.lifecycle_offered
    assert collector.journal_depth == 0


# -- failed passes ----------------------------------------------------------------


@pytest.mark.parametrize("after", (0, 7, 40))
def test_failed_pass_neither_loses_nor_repeats_elided_counts(after):
    """A ``detect.process`` fault mid-pass re-queues the unconsumed
    suffix, run-length records included: after a clean pass the totals
    equal an uninterrupted run's."""
    events = _events(3000)
    serial = _serial(20, events)
    faults = FaultInjector().inject(
        Fault("detect.process", kind="exception", after=after, times=1)
    )
    service = RushMonService(_config(20), faults=faults)
    _feed_per_op(service, events[:1500])
    with pytest.raises(InjectedFault):
        service.close_window()
    _feed_per_op(service, events[1500:])
    service.close_window()
    service.close_window()
    assert service.collector.journal_depth == 0
    _assert_matches_serial(service, serial, events)


@pytest.mark.parametrize("sr", (1, 20))
@pytest.mark.parametrize("call", (0, 3, 25))
@pytest.mark.parametrize("feed", (_feed_per_op, _feed_batched),
                         ids=("per-op", "batched"))
def test_a_detector_that_raises_loses_no_collected_edge(feed, call, sr):
    """The detector raises once, on its ``call``-th batch, after the pass
    collected the records whose edges it was fed: those edges are
    re-queued and fed again, so the totals still equal the serial run's
    (collection is never repeated, feeding again is idempotent)."""
    events = _events(3000)
    serial = _serial(sr, events)
    service = RushMonService(_config(sr))
    add_edge_batch = service.detector.add_edge_batch
    calls = []

    def flaky(edges):
        calls.append(len(edges))
        if len(calls) == call + 1:
            raise MemoryError("injected")
        return add_edge_batch(edges)

    service.detector.add_edge_batch = flaky
    feed(service, events[:1500])
    with pytest.raises(MemoryError):
        service.close_window()
    journal = service.collector.snapshot_state()["journal"]
    assert journal[0][1] == EV_EDGES and journal[0][3]
    feed(service, events[1500:])
    service.close_window()
    assert service.collector.journal_depth == 0
    _assert_matches_serial(service, serial, events)


# -- bounded journal ----------------------------------------------------------------


def test_shed_only_ever_drops_sampled_ops():
    """An operation on an unsampled item takes no journal room, so under
    'shed' with a tiny capacity only sampled operations (and lifecycle
    events) are dropped, and every operation offered is either reflected
    in a report or counted as shed."""
    events = _events(4000)
    ops = [payload for kind, payload in events if kind == "op"]
    service = RushMonService(
        _config(20, journal_capacity=8, overflow="shed"))
    for start in range(0, len(ops), 500):  # no lifecycle: ops only
        service.on_operations(ops[start:start + 500])
        if start == 1500:
            service.close_window()
    service.close_window()
    collector = service.collector
    assert collector.shed_events > 0
    assert collector.shed_sampled_events == collector.shed_events
    assert sum(r.operations for r in service.reports) \
        + collector.shed_events == len(ops)
    assert collector.ops_seen + collector.shed_events == len(ops)


def test_block_never_blocks_unsampled_ops():
    """'block' with no detector running: a long stream of operations on
    unsampled items flows through a full journal without waiting, while
    a sampled one still feels the backpressure."""
    ops = [payload for kind, payload in _events(4000) if kind == "op"]
    service = RushMonService(
        _config(20, journal_capacity=2, overflow="block",
                block_timeout=0.05))
    chosen = service.collector.sampler.chosen
    sampled = [op for op in ops if chosen(op.key)]
    unsampled = [op for op in ops if not chosen(op.key)]
    assert len(sampled) > 2 and len(unsampled) > 1000
    service.on_operations(sampled[:2])  # the journal is now full
    service.on_operations(unsampled)
    for op in unsampled[:50]:
        service.on_operation(op)
    with pytest.raises(JournalBackpressure):
        service.on_operation(sampled[2])
    service.close_window()
    assert service.collector.shed_events == 0
    assert sum(r.operations for r in service.reports) == \
        2 + len(unsampled) + 50
    assert service.metrics.snapshot()[
        "rushmon_collector_backpressure_timeouts_total"] == 1.0


def test_a_degraded_unbounded_service_sheds_every_call():
    """Once the breaker has tripped, no pass drains the journal again: an
    unbounded journal stops growing, every producer call is shed whole,
    and the elided operations of an ``on_operation`` still count as
    seen."""
    faults = FaultInjector().inject(
        Fault("detect.pass", kind="exception", times=None))
    service = RushMonService(
        _config(20, detect_interval=0.002, max_restarts=0), faults=faults)
    ops = [payload for kind, payload in _events(4000) if kind == "op"]
    service.on_operations(ops[:100])
    service.start()
    deadline = time.monotonic() + 10.0
    while not service.degraded and time.monotonic() < deadline:
        time.sleep(0.002)
    assert service.degraded
    collector = service.collector
    depth, seen = collector.journal_depth, collector.ops_seen
    assert depth == 100 and seen == 100
    for start in range(100, 2000, 100):
        service.on_operations(ops[start:start + 100])
    chosen = collector.sampler.chosen
    unsampled = sum(1 for op in ops[2000:] if not chosen(op.key))
    for op in ops[2000:]:
        service.on_operation(op)
    service.begin_buu(10 ** 6, 0)
    assert collector.journal_depth == depth
    assert collector.shed_events == len(ops) - 100 - unsampled + 1
    assert collector.shed_sampled_events == sum(
        1 for op in ops[100:] if chosen(op.key))
    assert collector.ops_seen == seen + unsampled
    assert collector.lifecycle_offered == 0
    service.stop()


# -- the producer call is the unit of admission ------------------------------------


class _CountingLock:
    """The journal lock, counting the acquires made on each thread."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.by_thread: dict[str, int] = {}

    def acquire(self, blocking=True, timeout=-1):
        name = threading.current_thread().name
        self.by_thread[name] = self.by_thread.get(name, 0) + 1
        return self._lock.acquire(blocking, timeout)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


@CAPACITIES
def test_an_unbounded_journals_producers_never_take_the_lock(capacity):
    """Three producers — per-op, batched and whole frames — beside the
    detection thread: on an unbounded journal no producer thread ever
    acquires the journal lock (each call is one list append or extend,
    ticketed by the pass), while the pass still does.  A bounded
    journal's producers take it to admit their calls."""
    service = RushMonService(_config(4, detect_interval=0.001,
                                     journal_capacity=capacity))
    lock = service.collector._lock = _CountingLock(service.collector._lock)

    def frames(monitor, events):
        for start in range(0, len(events), 50):
            monitor.on_records(_frame_records(events[start:start + 50]))

    streams = [_events(1500, seed=tid + 1, first_buu=tid * 1_000_000)
               for tid in range(3)]
    producers = [
        threading.Thread(target=feed, args=(service, events),
                         name=f"producer-{tid}")
        for tid, (feed, events) in enumerate(
            zip((_feed_per_op, _feed_batched, frames), streams))]
    with service:
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(60.0)
            assert not thread.is_alive()
    acquires = [lock.by_thread.get(thread.name, 0) for thread in producers]
    assert lock.by_thread.get("rushmon-detector", 0) > 0
    if capacity is None:
        assert acquires == [0, 0, 0]
    else:
        assert all(acquires)
    assert service.processed_events == sum(map(len, streams))
    assert service.collector.ops_seen == 3 * 1500



def test_a_blocked_call_that_times_out_journals_nothing():
    """A call the journal has room for only part of waits for room for
    all of it; when ``block_timeout`` passes first it raises with none
    of its operations journaled."""
    ops = [payload for kind, payload in _events(1000) if kind == "op"]
    service = RushMonService(
        _config(1, journal_capacity=300, block_timeout=0.02))
    service.on_operations(ops[:10])
    with pytest.raises(JournalBackpressure):
        service.on_operations(ops[10:610])
    assert service.collector.journal_depth == 10
    assert service.collector.ops_seen == 10
    assert service.collector.block_timeouts == 1
    # Into an empty journal a call is admitted whole, however large.
    service.close_window()
    service.on_operations(ops[10:610])
    assert service.collector.journal_depth == 600


def test_shed_drops_a_whole_call_and_still_counts_its_elided_ops():
    """Under ``"shed"`` a call without room goes whole — its begin, its
    operations and its commit — and its elided operations still count as
    seen."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    service = RushMonService(
        _config(20, journal_capacity=64, overflow="shed"))
    collector = service.collector
    chosen = collector.sampler.chosen
    service.on_operations(ops[:200])
    depth = collector.journal_depth
    call = ops[200:2200]
    kept = [op for op in call if chosen(op.key)]
    assert 0 < depth < 64 < depth + len(kept)
    service.on_records([(EV_BEGIN, 10 ** 6, 0), (EV_OPS, call, 0),
                        (EV_COMMIT, 10 ** 6, 1)])
    assert collector.shed_events == len(kept) + 2
    assert collector.shed_sampled_events == len(kept)
    assert collector.journal_depth == depth
    assert collector.ops_seen == 200 + len(call) - len(kept)
    assert collector.lifecycle_offered == 0


@pytest.mark.parametrize("sr", (1, 20))
def test_a_refused_call_offered_again_counts_as_if_never_refused(sr):
    """Frames into a ``"block"`` journal smaller than most of them: each
    refused frame is offered again after a drain, whole, and the totals
    are those of the serial monitor — nothing of a refused frame was
    ingested the first time."""
    events = _events(3000)
    serial = _serial(sr, events)
    service = RushMonService(
        _config(sr, journal_capacity=48, block_timeout=0.005))
    refusals = 0
    for start in range(0, len(events), 40):
        records = _frame_records(events[start:start + 40])
        try:
            service.on_records(records)
        except JournalBackpressure:
            refusals += 1
            service.close_window()
            service.on_records(records)
    service.close_window()
    assert refusals > 5
    _assert_matches_serial(service, serial, events)


# -- durability -----------------------------------------------------------------------


@pytest.mark.parametrize("feed", (_feed_per_op, _feed_batched),
                         ids=("per-op", "batched"))
def test_checkpoint_between_ingest_and_drain(tmp_path, feed):
    """A checkpoint cut while run-length records are pending, restored
    and fed the rest of the stream, ends where an uninterrupted run
    does."""
    events = _events(6000)
    serial = _serial(20, events)
    path = str(tmp_path / "svc.wal")
    first = RushMonService(_config(20))
    feed(first, events[:2000])
    first.close_window()
    feed(first, events[2000:3500])
    assert first.collector.journal_depth > 0
    first.checkpoint(path)
    del first  # simulated kill: nothing after the checkpoint survives
    restored = RushMonService.restore(path)
    feed(restored, events[3500:])
    restored.close_window()
    _assert_matches_serial(restored, serial, events)


def _split_at(journal, size):
    """A pending journal in the shape older builds wrote: every ops
    record longer than ``size`` as several of at most ``size``
    operations, one ticket per operation, the first carrying the
    record's ``elided`` count."""
    split = []
    for ticket, kind, payload, extra in journal:
        if kind != EV_OPS or len(payload) <= size:
            split.append([ticket, kind, payload, extra])
            continue
        for start in range(0, len(payload), size):
            split.append([ticket + start, kind,
                          payload[start:start + size],
                          extra if start == 0 else 0])
    return split


def test_a_pending_prefiltered_journal_restores_like_a_whole_one(tmp_path):
    """A checkpoint whose pending journal holds prefiltered records (as a
    bounded journal, or a build that filtered every batch before the
    journal, writes them), restored into an unbounded service, walks to
    the counts of one whose pending journal holds the batches whole — and
    so does one whose long calls older builds split at ``batch_size``."""
    events = _events(6000)
    serial = _serial(20, events)
    size = RushMonConfig().batch_size
    paths = {}
    for name, capacity, feed in (
            ("whole", None, _feed_batched),
            ("prefiltered", 1 << 20, _feed_batched),
            ("split", None, lambda service, events:
             _feed_calls(service, events, 4 * size))):
        service = RushMonService(_config(20, journal_capacity=capacity))
        _feed_batched(service, events[:2000])
        service.close_window()
        feed(service, events[2000:3500])
        paths[name] = service.checkpoint(str(tmp_path / f"{name}.wal"))
    payload = wal.load_checkpoint(paths["prefiltered"])
    payload["config"]["journal_capacity"] = None
    wal.save_checkpoint(paths["prefiltered"], payload)
    payload = wal.load_checkpoint(paths["split"])
    journal = payload["collector"]["journal"]
    assert max(len(record[2]) for record in journal
               if record[1] == EV_OPS) > size
    split = payload["collector"]["journal"] = _split_at(journal, size)
    assert len(split) > len(journal)
    wal.save_checkpoint(paths["split"], payload)
    pending, counts = {}, {}
    for name, path in paths.items():
        service = RushMonService.restore(path)
        assert service.config.journal_capacity is None
        state = service.collector.snapshot_state()
        if name == "split":
            assert state["journal"] == split  # restored as is
        pending[name] = sum(len(record[2]) for record in state["journal"]
                            if record[1] == EV_OPS)
        _feed_batched(service, events[3500:])
        service.close_window()
        _assert_matches_serial(service, serial, events)
        counts[name] = service.counts()
    assert 0 < pending["prefiltered"] < pending["whole"] == pending["split"]
    assert counts["whole"] == counts["prefiltered"] == counts["split"]


@pytest.mark.parametrize("sr", (1, *SAMPLING_RATES))
def test_a_checkpoint_carries_no_per_event_history(tmp_path, sr):
    """A checkpoint holds state, not a copy of the input: four times the
    events, in as many windows, add about two bytes per event (the
    detector's per-BUU commit times), where a recorded trace adds two
    dozen."""
    sizes = []
    for num_ops in (10_000, 40_000):
        events = _events(num_ops, seed=5)
        service = RushMonService(_config(sr))
        _run_in_windows(service, _feed_batched, events)
        path = service.checkpoint(str(tmp_path / f"{num_ops}.ckpt"))
        sizes.append((len(events), os.path.getsize(path)))
    (small_events, small), (large_events, large) = sizes
    assert large - small < 8 * (large_events - small_events), sizes


@pytest.mark.parametrize("version", sorted(OLD_CHECKPOINTS))
def test_an_old_checkpoint_is_refused_and_left_untouched(tmp_path, version):
    """Formats 1 to 3 have no reader: ``load_checkpoint``,
    ``RushMonService.restore`` and ``serve --checkpoint`` refuse the file
    by its version, naming both, and leave it as it was."""
    old = OLD_CHECKPOINTS[version]
    for load in (wal.load_checkpoint, RushMonService.restore):
        with pytest.raises(wal.CheckpointError) as refused:
            load(old)
        assert f"has version {version}" in str(refused.value)
        assert f"reads version {wal.CHECKPOINT_VERSION}" in str(
            refused.value)
    copy = tmp_path / "old.wal"
    with open(old, "rb") as handle:
        original = handle.read()
    copy.write_bytes(original)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--checkpoint", str(copy)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1, proc.stderr
    assert f"has version {version}" in errors[0]
    assert f"reads version {wal.CHECKPOINT_VERSION}" in errors[0]
    assert "Traceback" not in proc.stderr
    assert "listening" not in proc.stdout
    assert copy.read_bytes() == original
