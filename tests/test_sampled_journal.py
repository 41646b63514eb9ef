"""Sampling before the journal: the service journals sampled operations
only and counts the rest in each batch record's ``elided`` field (or one
run-length total per drain).

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

from repro.core.concurrent import JournalBackpressure, RushMonService
from repro.core.concurrent.journaled import (EV_BEGIN, EV_COMMIT, EV_EDGES,
                                             EV_OPS, EV_SHIFT,
                                             JournaledCollector)
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
#: config).
OLD_CHECKPOINTS = {
    version: os.path.join(os.path.dirname(__file__), "data", name)
    for version, name in ((1, "checkpoint_full_journal_sr20.wal"),
                          (2, "checkpoint_v2_traced_sr20.wal"))
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


@pytest.mark.parametrize("sr", (1,) + SAMPLING_RATES)
def test_one_producer_with_mob_is_the_serial_monitor(sr):
    """Collection runs in the pass, in ticket order, on one shard seeded
    like the serial collector's: fed one stream, the service draws MOB's
    reservoir and discard coins exactly as ``RushMon`` does."""
    events = _events(6000)
    serial = RushMon(RushMonConfig(sampling_rate=sr, seed=3))
    _feed_per_op(serial, events)
    serial.close_window()
    service = RushMonService(RushMonConfig(sampling_rate=sr, seed=3))
    _run_in_windows(service, _feed_batched, events)
    assert serial.collector.discarded_reads > 0  # MOB dropped reads
    assert service.collector.discarded_reads == \
        serial.collector.discarded_reads
    _assert_matches_serial(service, serial, events)


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_on_operations_longer_than_batch_size(sr):
    """One call far longer than ``batch_size``: the input is filtered
    once, the chosen operations are journaled in records of at most
    ``batch_size``, and the elided count is recorded exactly once."""
    events = _events(6000)
    serial = _serial(sr, events)
    ops = [payload for kind, payload in events if kind == "op"]
    service = RushMonService(_config(sr, batch_size=64))
    for kind, payload in events:
        if kind == "begin":
            service.begin_buu(*payload)
    service.on_operations(ops)
    batches = [record for record in service.collector.snapshot_state()[
        "journal"] if record[1] == EV_OPS]
    assert len(batches) > 1
    assert max(len(record[2]) for record in batches) == 64
    assert [record[3] for record in batches].count(0) == len(batches) - 1
    for kind, payload in events:
        if kind == "commit":
            service.commit_buu(*payload)
    service.close_window()
    assert service.collector.stats == serial.collector.stats
    assert service.collector.ops_seen == len(ops)
    assert sum(r.operations for r in service.reports) == len(ops)
    assert service.processed_events == len(events)


# -- journal level --------------------------------------------------------------


def _journaling(sr=4, **kwargs):
    return JournaledCollector(sampling_rate=sr, mob=False, seed=3, **kwargs)


def _journaled_ops(records):
    return [op for _, kind, ops, _ in records if kind == EV_OPS for op in ops]


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_journal_holds_sampled_ops_and_counts(sr):
    """No journaled operation is on an unchosen key, the records' counts
    account for exactly the operations left out, and tickets rise with
    one per journaled operation."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    collector = _journaling(sr)
    for start in range(0, 2000, 100):
        collector.offer([(EV_OPS, ops[start:start + 100], 0)])
    for op in ops[2000:]:
        collector.offer([(EV_OPS, [op], 0)])
    records = collector.drain()
    chosen = collector.sampler.chosen
    assert _journaled_ops(records) == [op for op in ops if chosen(op.key)]
    assert len(_journaled_ops(records)) + sum(
        record[3] for record in records) == len(ops)
    assert collector.ops_seen == len(ops)
    # Each per-op record and each batch of the first 2000 holds at least
    # one op; the per-op calls that kept none share one count at the end.
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


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_prefiltered_batch_with_elided_count_journals_the_same(sr):
    """Offering the chosen operations plus how many were left out (what
    the server does after decoding with ``prefilter()``) journals
    exactly the records an offer of them all journals when the collector
    filters itself — including batches with nothing chosen and with nothing
    elided."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    whole, prefiltered = _journaling(sr, batch_size=32), \
        _journaling(sr, batch_size=32)
    chosen = prefiltered.prefilter()
    assert chosen is prefiltered.sampler.lookup
    sizes = (1, 3, 40, 100, 7, 260)
    start = 0
    while start < len(ops):
        size = sizes[start % len(sizes)]
        batch = ops[start:start + size]
        kept = [op for op in batch if chosen(op.key)]
        whole.offer([(EV_OPS, batch, 0)])
        prefiltered.offer([(EV_OPS, kept, len(batch) - len(kept))])
        start += size
    assert whole.ops_seen == prefiltered.ops_seen == len(ops)
    records = whole.drain()
    assert records == prefiltered.drain()
    assert {len(record[2]) > 32 for record in records} == {False}
    with pytest.raises(ValueError, match="prefilter"):
        _journaling(1).offer([(EV_OPS, ops[:3], 2)])


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


def test_concurrent_producers_lose_no_append_and_no_ticket():
    """Six threads offer batches, single operations and lifecycle events
    while a seventh drains: every record arrives once, tickets rise
    strictly across drains, and the counters updated under the journal
    lock are exact."""
    import sys
    import threading

    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    collector = _journaling(4)
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
        op for op in ops if collector.sampler.chosen(op.key)]
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


def test_degrade_relieves_the_journal():
    """Operations the degrade filter excludes are elided like any other
    unsampled one — and are never a reason to escalate further."""
    ops = [payload for kind, payload in _events(4000) if kind == "op"]
    service = RushMonService(
        _config(1, journal_capacity=16, overflow="degrade"))
    collector = service.collector
    for op in ops[:17]:  # the 17th overflows: shift 0 -> 1
        service.on_operation(op)
    assert collector.degrade_shift == 1
    before = collector.journal_depth
    service.on_operations(ops[17:])
    assert collector.degrade_shift == 1  # one step per drain epoch
    journaled = collector.journal_depth - before
    assert journaled < 0.75 * len(ops[17:])  # about half were elided
    assert collector.sampling_probability == 0.5
    service.close_window()  # a heavy drain: the shift holds
    assert collector.degrade_shift == 1
    # The pass bookkept what was journaled, less the 17th op's item if
    # the filter excludes it.
    assert collector.touches <= 16 + journaled
    assert sum(r.operations for r in service.reports) == len(ops)
    assert collector.ops_seen == len(ops)


@pytest.mark.parametrize("per_op", (False, True), ids=("batched", "per-op"))
def test_degrade_shift_stays_bounded_while_a_producer_outpaces_the_pass(
        per_op):
    """A producer offering 25x the journal's capacity every epoch: each
    shift halves what it journals, so the shift settles near
    log2(25) instead of climbing once per drain."""
    capacity, per_epoch, epochs = 16, 400, 30
    service = RushMonService(
        _config(1, journal_capacity=capacity, overflow="degrade"))
    collector = service.collector
    seq = 0
    shifts = []
    for epoch in range(epochs):
        ops = [Operation(OpType.WRITE, seq + i, ("k", seq + i), seq + i)
               for i in range(per_epoch)]
        seq += per_epoch
        if per_op:
            for op in ops:
                service.on_operation(op)
        else:
            for start in range(0, per_epoch, 20):
                service.on_operations(ops[start:start + 20])
        service.close_window()
        shifts.append(collector.degrade_shift)
    assert max(shifts) <= 7
    assert min(shifts[epochs // 2:]) >= 3  # the pressure is real
    assert sum(r.operations for r in service.reports) == epochs * per_epoch
    assert collector.ops_seen == epochs * per_epoch


def test_degrade_never_derives_an_edge_from_stale_item_state():
    """Across shift changes — up on overflow, down on a light drain —
    every item the pass bookkeeps has each of its operations since it
    was last excluded: each ww edge joins two consecutive writers of its
    key, never writers with an elided or forgotten write between."""
    service = RushMonService(_config(
        1, journal_capacity=16, overflow="degrade", pruning="none"))
    writers: dict = {}
    shifts = []
    buu = 0
    for burst in (40, 40, 2, 2, 40, 40, 2, 2, 2, 2):
        for _ in range(burst):
            keys = [("k", i) for i in range(buu % 8, 64, 8)]
            for key in keys:
                writers.setdefault(key, []).append(buu)
            service.on_operations([Operation(OpType.WRITE, buu, key, buu)
                                   for key in keys])
            buu += 1
        service.close_window()
        shifts.append(service.collector.degrade_shift)
    assert max(shifts) >= 2 and shifts[-1] < max(shifts)
    edges = 0
    for src, dst, labels in service.detector.graph.edges():
        for key in labels:
            order = writers[key]
            assert order.index(dst) == order.index(src) + 1
            edges += 1
    assert edges == service.collector.stats.ww > 0


# -- the producer call is the unit of admission ------------------------------------


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


def test_a_window_is_scaled_by_the_shift_its_records_ran_under():
    """A producer that overflows a ``"degrade"`` journal while the pass
    is still walking what it drained raises the shift of the journal's
    tail, not of the records being detected: the window — and the
    cumulative estimate — is scaled by the pass's shift."""
    faults = FaultInjector().inject(
        Fault("detect.process", kind="delay", delay=0.3, times=1))
    service = RushMonService(
        _config(1, journal_capacity=8, overflow="degrade"), faults=faults)
    lost_update = [("begin", (1, 0)), ("begin", (2, 0))] + [
        ("op", Operation(kind, buu, 0, seq)) for seq, (kind, buu) in
        enumerate([(OpType.READ, 1), (OpType.READ, 2), (OpType.WRITE, 1),
                   (OpType.WRITE, 2)], start=1)] + [
        ("commit", (1, 5)), ("commit", (2, 6))]
    service.on_records(_frame_records(lost_update))
    detecting = threading.Thread(target=service.close_window)
    detecting.start()
    while service.collector.journal_depth:
        time.sleep(0.001)  # drained; the pass is held in its delay
    for start in range(0, 10, 5):
        service.on_operations([Operation(OpType.WRITE, 3, key, 10 + key)
                               for key in range(start + 1, start + 6)])
    detecting.join()
    assert service.collector.degrade_shift == 1
    (report,) = service.reports
    assert report.raw.two_cycles == 1
    assert report.estimated_2 == 1.0
    assert service.cumulative_estimates()[0] == 1.0
    assert service.collector.sampling_probability == 0.5


# -- durability -----------------------------------------------------------------------


def test_restore_while_a_degrade_shift_is_in_force(tmp_path):
    """Cut while the journal's tail runs under a higher degrade shift
    than the pass — the marker still journaled, and the escalation of
    this drain epoch spent — the restored service goes on exactly as the
    uninterrupted one: counts, edge stats, shifts and estimates."""
    events = _events(3000)
    config = _config(1, journal_capacity=16, overflow="degrade")
    path = str(tmp_path / "degraded.wal")

    def feed(service, start, stop):
        for at in range(start, stop, 50):
            _feed_per_op(service, events[at:min(at + 50, stop)])
            if at + 50 <= stop:
                service.close_window()

    cut = 1240
    live = RushMonService(config)
    feed(live, 0, cut)
    collector = live.collector
    journal = collector.snapshot_state()["journal"]
    assert collector.degrade_shift > 0
    assert any(record[1] == EV_SHIFT for record in journal)
    assert collector._pass_shift != collector.degrade_shift
    live.checkpoint(path)
    restored = RushMonService.restore(path)
    for service in (live, restored):
        feed(service, cut, len(events))
        service.close_window()
    for service in (live, restored):
        assert service.collector.journal_depth == 0
    assert restored.counts() == live.counts()
    assert restored.collector.stats == live.collector.stats
    assert restored.collector.ops_seen == live.collector.ops_seen
    assert (restored.collector.degrade_shift, restored.collector._pass_shift,
            restored.collector.degrade_shifts_total) == \
        (live.collector.degrade_shift, live.collector._pass_shift,
         live.collector.degrade_shifts_total)
    assert [(r.estimated_2, r.estimated_3, r.edges)
            for r in restored.reports] == \
        [(r.estimated_2, r.estimated_3, r.edges) for r in live.reports]
    assert restored.cumulative_estimates() == live.cumulative_estimates()



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
    """Formats 1 and 2 have no reader: ``load_checkpoint``,
    ``RushMonService.restore`` and ``serve --checkpoint`` refuse the file
    by its version, naming both, and leave it as it was."""
    old = OLD_CHECKPOINTS[version]
    for load in (wal.load_checkpoint, RushMonService.restore):
        with pytest.raises(wal.CheckpointError) as refused:
            load(old)
        assert f"has version {version}" in str(refused.value)
        assert "reads version 3" in str(refused.value)
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
    assert "reads version 3" in errors[0]
    assert "Traceback" not in proc.stderr
    assert "listening" not in proc.stdout
    assert copy.read_bytes() == original
