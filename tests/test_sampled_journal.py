"""Sampling before the journal: a service that records no trace journals
sampled operations only and counts the rest with run-length
``EV_ELIDED`` records.

The contract pinned here, at ``sr`` in {4, 20} (every other service
differential runs at ``sr=1``, where nothing is ever elided):

- counts, edge statistics and operation totals equal the serial
  :class:`~repro.core.monitor.RushMon`'s bit for bit, through every
  ingest path, and a tracing (full-journal) and a non-tracing service
  agree on all of them;
- no operation is lost or double-counted by elision — not by a failed
  detection pass, not by a bounded journal, not by checkpoint/restore.
"""

import os

import pytest

from repro.core.concurrent import JournalBackpressure, RushMonService
from repro.core.concurrent.sharded import EV_ELIDED, EV_OP, ShardedCollector
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.core.types import Operation, OpType
from repro.storage import wal
from repro.testing import Fault, FaultInjector, InjectedFault

from tests.test_checkpoint import _feed as _feed_per_op

SAMPLING_RATES = (4, 20)

#: Written by the commit before sampling moved ahead of the journal:
#: ``_events(1000)`` up to the operation with ``seq == 500``, fed per op
#: into ``RushMonService(RushMonConfig(sampling_rate=20, mob=False,
#: seed=3, num_shards=4))`` and checkpointed before any drain, so its
#: pending journal holds one ``op`` record per operation.
PARENT_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                                 "checkpoint_full_journal_sr20.wal")


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


def _config(sr, **kwargs):
    kwargs.setdefault("num_shards", 4)
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


@pytest.mark.parametrize("record_trace", (False, True),
                         ids=("sampled-journal", "full-journal"))
@pytest.mark.parametrize("path", ("batched", "per-op", "bounded"))
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_sampled_service_matches_serial(sr, path, record_trace):
    """Every ingest path, with and without a recorded trace, reproduces
    the serial monitor's sampled counts and accounts for every event."""
    events = _events(6000)
    serial = _serial(sr, events)
    assert serial.detector.counts.two_cycles > 0  # not vacuous
    # "bounded": a capacity nothing here reaches still sends
    # on_operations down the collector's per-op fallback.
    config = _config(sr, journal_capacity=1 << 20) if path == "bounded" \
        else _config(sr)
    service = RushMonService(config, record_trace=record_trace)
    feed = _feed_per_op if path == "per-op" else _feed_batched
    _run_in_windows(service, feed, events)
    assert len(service.reports) == 4
    _assert_matches_serial(service, serial, events)


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_on_operations_longer_than_batch_size(sr):
    """One call far longer than ``batch_size``: the input is filtered
    once, the chosen operations are bookkept in several rounds, and the
    elided count is recorded exactly once."""
    events = _events(6000)
    serial = _serial(sr, events)
    ops = [payload for kind, payload in events if kind == "op"]
    service = RushMonService(_config(sr, batch_size=64))
    for kind, payload in events:
        if kind == "begin":
            service.begin_buu(*payload)
    service.on_operations(ops)
    for kind, payload in events:
        if kind == "commit":
            service.commit_buu(*payload)
    service.close_window()
    assert service.collector.stats == serial.collector.stats
    assert service.collector.ops_seen == len(ops)
    assert sum(r.operations for r in service.reports) == len(ops)
    assert service.processed_events == len(events)


# -- journal level --------------------------------------------------------------


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_journal_holds_sampled_ops_and_run_lengths(sr):
    """No ``EV_OP`` record carries an unchosen key, and the run-length
    records account for exactly the operations left out."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    collector = ShardedCollector(sampling_rate=sr, mob=False, seed=3,
                                 num_shards=4, journal=True,
                                 journal_sampled_only=True)
    for start in range(0, 2000, 100):
        collector.handle_batch(ops[start:start + 100])
    for op in ops[2000:]:
        collector.handle(op)
    events = collector.drain_journal()
    journaled = [payload for _, kind, payload, _ in events if kind == EV_OP]
    elided = [payload for _, kind, payload, _ in events if kind == EV_ELIDED]
    chosen = collector.sampler.chosen
    # A batch tickets shard group by shard group, so compare by seq.
    assert sorted(journaled, key=lambda op: op.seq) == \
        [op for op in ops if chosen(op.key)]
    assert len(journaled) + sum(elided) == len(ops)
    assert collector.ops_seen == len(ops)
    # One record per batch; the per-op tail grew trailing records in
    # place, starting a new one only behind a journaled operation.
    tail_sampled = sum(1 for op in journaled if op.seq >= 2000)
    assert len(elided) <= 20 + tail_sampled + collector.num_shards
    tickets = [ticket for ticket, *_ in events]
    assert tickets == sorted(set(tickets))


def test_full_journal_and_sr1_never_elide():
    """``journal=True`` alone keeps meaning every operation, and at
    ``sr=1`` the sampled-only journal is the full journal."""
    ops = [payload for kind, payload in _events(800) if kind == "op"]
    for sr, sampled_only in ((20, False), (1, True)):
        collector = ShardedCollector(sampling_rate=sr, mob=False, seed=3,
                                     num_shards=4, journal=True,
                                     journal_sampled_only=sampled_only)
        collector.handle_batch(ops[:400])
        for op in ops[400:]:
            collector.handle(op)
        events = collector.drain_journal()
        assert [kind for _, kind, _, _ in events] == [EV_OP] * len(ops)


def _journaling(sr=4, **kwargs):
    return ShardedCollector(sampling_rate=sr, mob=False, seed=3,
                            num_shards=4, journal=True,
                            journal_sampled_only=True, **kwargs)


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_prefiltered_batch_with_elided_count_journals_the_same(sr):
    """Handing ``handle_batch`` the chosen operations plus how many were
    left out (what the server does after decoding with ``prefilter()``)
    journals the operations ``handle_batch`` journals when it filters
    itself, and counts as many elided — including batches with nothing
    chosen and with nothing elided."""
    ops = [payload for kind, payload in _events(3000) if kind == "op"]
    whole, prefiltered = _journaling(sr), _journaling(sr)
    chosen = prefiltered.prefilter()
    assert chosen is prefiltered.sampler.lookup
    sizes = (1, 3, 40, 100, 7, 260)
    start = 0
    while start < len(ops):
        size = sizes[start % len(sizes)]
        batch = ops[start:start + size]
        kept = [op for op in batch if chosen(op.key)]
        assert whole.handle_batch(batch, chunk=32) == \
            prefiltered.handle_batch(kept, chunk=32,
                                     elided=len(batch) - len(kept))
        start += size
    assert whole.ops_seen == prefiltered.ops_seen == len(ops)
    assert whole.touches == prefiltered.touches
    assert whole.stats == prefiltered.stats
    # An all-elided batch is counted on the first offered operation's
    # shard, or on shard 0 when the caller kept none to name one, and a
    # shard's trailing count grows in place: the run-length records may
    # be cut differently, never the operations or the total.
    journals = [collector.drain_journal()
                for collector in (whole, prefiltered)]
    for kind in (EV_OP, EV_ELIDED):
        assert kind in {event[1] for event in journals[0]}
    assert [event[2:] for event in journals[0] if event[1] == EV_OP] == \
        [event[2:] for event in journals[1] if event[1] == EV_OP]
    assert len({sum(event[2] for event in journal if event[1] == EV_ELIDED)
                for journal in journals}) == 1


@pytest.mark.parametrize("bounded", (False, True),
                         ids=("unbounded", "bounded"))
@pytest.mark.parametrize("seed", range(6))
def test_lifecycle_run_appends_what_per_event_calls_append(seed, bounded):
    """Random begin/op/commit interleavings: journaling each run of
    consecutive begins (or commits) with one ``record_lifecycle_run``
    drains to the same tickets, kinds and payloads as one
    ``record_lifecycle`` per event.  A bounded journal takes the
    per-event path inside the run call, and must agree too."""
    import random

    rng = random.Random(seed)
    kwargs = {"journal_capacity": 10 ** 6} if bounded else {}
    # sr=1: no run-length records, whose cut depends on which shard a
    # lifecycle record lands on — every ticket can be compared.
    per_event, runs = _journaling(1, **kwargs), _journaling(1, **kwargs)
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
    for kind, payload in script:
        if kind == "op":
            per_event.handle_batch([payload])
        else:
            per_event.record_lifecycle(kind, *payload)
    index = 0
    while index < len(script):
        kind = script[index][0]
        end = index
        while end < len(script) and script[end][0] == kind:
            end += 1
        payloads = [payload for _, payload in script[index:end]]
        if kind == "op":
            for payload in payloads:
                runs.handle_batch([payload])
        else:
            runs.record_lifecycle_run(kind, [p[0] for p in payloads],
                                      [p[1] for p in payloads])
        index = end
    runs.record_lifecycle_run("begin", [], [])  # an empty run is nothing
    drained = runs.drain_journal()
    assert drained == per_event.drain_journal()
    assert sum(1 for _, kind, _, _ in drained
               if kind in ("begin", "commit")) == \
        sum(1 for kind, _ in script if kind != "op")


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
        _config(20, num_shards=1, journal_capacity=2, overflow="block",
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
        _config(1, num_shards=1, journal_capacity=16, overflow="degrade"))
    collector = service.collector
    for op in ops[:17]:  # the 17th overflows: shift 0 -> 1
        service.on_operation(op)
    assert collector.degrade_shift == 1
    before = collector.journal_depth
    service.on_operations(ops[17:])
    assert collector.degrade_shift == 1  # one step per drain epoch
    journaled = collector.journal_depth - before
    assert journaled < 0.75 * len(ops[17:])  # about half were elided
    service.close_window()
    assert sum(r.operations for r in service.reports) == len(ops)
    assert collector.ops_seen == len(ops)


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


def test_full_journal_checkpoint_still_restores(tmp_path):
    """A checkpoint from before this journal format — every operation a
    pending ``op`` record, unsampled ones included — restores into a
    sampled-only service and is consumed like any other journal.  Its
    config also stores options retired since (``columnar``, and a
    ``loop_threads`` that could be 0): restore drops them, whatever
    value they held."""
    events = _events(1000)
    serial = _serial(20, events)
    split = next(i for i, (kind, payload) in enumerate(events)
                 if kind == "op" and payload.seq == 500)
    payload = wal.load_checkpoint(PARENT_CHECKPOINT)
    assert payload["config"]["columnar"] is False
    payload["config"].update(columnar=True, loop_threads=0)
    retired_values = str(tmp_path / "retired.wal")
    wal.save_checkpoint(retired_values, payload)
    for path in (PARENT_CHECKPOINT, retired_values):
        restored = RushMonService.restore(path)
        assert restored.config.loop_threads == RushMonConfig().loop_threads
        pending = restored.collector.journal_depth
        assert pending == split  # one record per event: nothing was elided
        _feed_per_op(restored, events[split:])
        restored.close_window()
        _assert_matches_serial(restored, serial, events)
