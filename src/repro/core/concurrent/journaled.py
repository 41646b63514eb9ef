"""The service's journal: producers append, the detection pass tickets.

A producer of :class:`~repro.core.concurrent.service.RushMonService`
does no bookkeeping.  A producer call — ``on_operations``, a begin or
commit, or a network frame — lands whole: each run of its operations as
one copied record ``(EV_OPS, ops, elided)``, a begin or commit as
``(EV_BEGIN | EV_COMMIT, buu, time)``.  On an unbounded journal (the
default) a call is one GIL-atomic ``append`` or ``extend`` on the
journal's tail and takes no lock: the dependency graph depends only on
each key's operation order and each BUU's program order, so any landing
order is a valid journal order.  One settle step, under the journal
lock, takes what landed as a prefix of the tail (never by swapping the
list, which a producer may have loaded), draws the tickets in landing
order — one per operation, a begin or commit journaled with its ticket
as ``time`` — and counts it; drains, snapshots and every view or gauge
of those counts settle first.  So journal order is ticket order, a
drain is always a complete prefix of it, and a call is journaled whole
or not at all.

The consumer — the service's detection pass, one thread at a time —
drains the journal and walks it in ticket order with the service's
:class:`~repro.core.monitor.RecordWalk`, the engine the serial
:class:`~repro.core.monitor.RushMon` holds too: the same walk over the
same collector, fed the journal instead of a record buffer.  That
walk's collector is :attr:`JournaledCollector.engine`, handed in by the
service; this module keeps only the journal and the record vocabulary
(``EV_*``).  Per-key bookkeeping order is ticket order, so the edges a
service derives are those of a serial run over its journal, MOB's
reservoir draws included.  No item state is shared with a producer.

Where the sample is applied
---------------------------

An operation on an unsampled item derives no edge, and the engine's
``collect`` keeps only the operations on chosen items (the gate's
``admit``).  So an unbounded journal (the default) takes a producer's
batch whole, as one copied record, and the producer's thread asks the
sampler nothing: the probe runs once, in the pass.  A caller that can
tell earlier — the network server, while decoding a frame, or
``on_operation`` for a single operation — asks
:meth:`JournaledCollector.prefilter` for the predicate, offers the
chosen operations and passes the number it left out as the record's
``elided``; a call that keeps none adds its count to one run-length
total that the next drain hands over as an ``(ticket, EV_OPS, [],
count)`` record.

A bounded journal counts sampled events (below), so there every producer
call is thinned before the journal: the operations on unchosen items
ride along as the record's ``elided`` count (a lock-free probe of the
sampler's memo each).  At ``sampling_rate == 1`` every item is chosen,
and nothing is left out.  The sample is the same for the whole stream:
no overflow policy changes which items are chosen.

Bounded journal and backpressure
--------------------------------

``journal_capacity`` bounds the events waiting in the journal — journaled
operations (the sampled ones) and lifecycle events; elided operations
take no room.  Its producers take the journal lock (and settle first:
one ticketing site).  The unit of admission is the producer call: a call
arriving at a journal that holds events and has no room for all of it
meets the ``overflow`` policy once (so the journal exceeds its capacity
only by a call admitted into an empty journal):

``"block"``
    The producer waits (released by the next drain) until the whole
    call fits or the journal is empty, up to ``block_timeout`` seconds,
    then gets :class:`JournalBackpressure` with nothing journaled.
``"shed"``
    The call is dropped whole and counted in the shed counters; its
    elided operations are still counted, so only sampled operations
    (and lifecycle events) are ever shed.  After
    :meth:`~JournaledCollector.shed_all` (a degraded service's) every
    call is shed, whatever the capacity (under the lock, if unbounded).
"""

from __future__ import annotations

import threading
import time
from itertools import compress
from typing import Any, Callable, Iterable, Sequence

from repro.core.collector import _KEY, DataCentricCollector
from repro.core.config import RushMonConfig
from repro.core.types import (BuuId, Edge, EdgeColumns, EdgeStats, EdgeType,
                              Key, Operation, OpType)
from repro.obs.instrument import instrument_collector
from repro.obs.metrics import MetricsRegistry

#: Record kinds.  ``(ticket, EV_OPS, ops, elided)``: a producer batch
#: still to collect; ``(ticket, EV_BEGIN | EV_COMMIT, buu, time)``.
EV_OPS = "ops"
EV_BEGIN = "begin"
EV_COMMIT = "commit"
#: ``(ticket, EV_EDGES, owner, edges)``: collected edges, counted here
#: (owner 0: a failed pass's re-queued run, a cluster worker's own) or
#: inserted uncounted (1: a cluster peer's).
EV_EDGES = "edges"

_EDGE_TYPES = {member.value: member for member in EdgeType}


class JournalBackpressure(RuntimeError):
    """Raised to a producer when the journal stayed full past the
    ``block_timeout`` under the ``"block"`` overflow policy."""


def _weight(record: tuple) -> int:
    """Journal room a record takes: its operations, or one event."""
    kind = record[1]
    if kind == EV_OPS:
        return len(record[2])
    return 0 if kind == EV_EDGES else 1


def _encode_edges(edges: Iterable[Edge]) -> list:
    return [[e.src, e.dst, e.kind.value, e.label, e.seq] for e in edges]


def _decode_edges(rows: list) -> EdgeColumns:
    edges = EdgeColumns()
    edges.extend((r[0], r[1], _EDGE_TYPES[r[2]], r[3], r[4]) for r in rows)
    return edges


def _encode(record: tuple) -> list:
    """Checkpoint encoding of one journal record (JSON-friendly)."""
    ticket, kind, payload, extra = record
    if kind == EV_OPS:
        return [ticket, kind, [[op.op.value, op.buu, op.key, op.seq]
                               for op in payload], extra]
    if kind == EV_EDGES:
        return [ticket, kind, payload, _encode_edges(extra)]
    return [ticket, kind, payload, extra]


def _decode(record: list) -> tuple:
    """Inverse of :func:`_encode` (an EV_EDGES record's edges come back
    as :class:`~repro.core.types.EdgeColumns`)."""
    ticket, kind, payload, extra = record
    if kind == EV_OPS:
        return (ticket, kind, [Operation(OpType(o[0]), o[1], o[2], o[3])
                               for o in payload], extra)
    if kind == EV_EDGES:
        return (ticket, kind, payload, _decode_edges(extra))
    return (ticket, kind, payload, extra)


def _settled(count: str, doc: str) -> property:
    """A view of one of the journal's counts, read after the settle."""
    def read(self: "JournaledCollector") -> int:
        with self._lock:
            self._settle()
            return getattr(self, count)
    return property(read, doc=doc)


class JournaledCollector:
    """The journal of :class:`~repro.core.concurrent.RushMonService`
    (module docstring): :attr:`append` and :meth:`offer` on any producer
    thread, :meth:`drain`, :meth:`requeue` and :attr:`engine` on the
    consumer's, the views on any.

    ``engine`` is the collector the detection pass walks the journal
    into — the service's :class:`~repro.core.monitor.RecordWalk`'s
    :class:`~repro.core.collector.DataCentricCollector`, whose gate may
    park; its sampler is the one the producers' filters probe.
    ``journal_capacity``, ``overflow`` and ``block_timeout`` are the
    journal's.  ``faults`` arms the ``collector.handle`` (each producer
    call) and ``journal.drain`` injection points; ``metrics`` gets the
    journal's and the engine's readings as callback gauges.
    """

    def __init__(
        self,
        engine: DataCentricCollector,
        journal_capacity: int | None = None,
        overflow: str = "block",
        block_timeout: float = 5.0,
        faults: Any | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if journal_capacity is not None and journal_capacity < 1:
            raise ValueError("journal_capacity must be >= 1 or None")
        if overflow not in RushMonConfig.OVERFLOW_CHOICES:
            raise ValueError(
                f"overflow must be one of {RushMonConfig.OVERFLOW_CHOICES}, "
                f"got {overflow!r}")
        if block_timeout <= 0:
            raise ValueError("block_timeout must be > 0")
        #: The detection pass's collector: a service fed one stream draws
        #: MOB's coins exactly as ``RushMon`` does.  The consumer is its
        #: only caller.
        self.engine = engine
        #: The engine's sampler; the producers' filters probe it too.
        self.sampler = self.engine.sampler
        self.journal_capacity = journal_capacity
        self.overflow = overflow
        self._shed_all = False
        self.block_timeout = block_timeout
        self._faults = faults
        # Records as they landed, not yet ticketed (taken by _settle).
        self._tail: list[tuple] = []
        #: Journal one record a producer built (its ``ops`` kept, not
        #: copied) as a call of its own: unlocked when unbounded.
        self.append: Callable[[tuple], None] = (
            self._tail.append if journal_capacity is None and faults is None
            else self._offer_one)
        # Everything below is guarded by _lock (settles, bounded offers).
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._records: list[tuple] = []
        self._next_ticket = 0
        self._pending = 0      # journaled events not yet drained
        self._elided = 0       # elided operations not yet drained
        self._ops_seen = 0
        self._lifecycle_offered = 0
        self._journal_highwater = 0
        self.shed_events = 0
        self.shed_sampled_events = 0
        self.blocked_seconds = 0.0
        self.block_timeouts = 0
        self.lock_wait_seconds = 0.0
        if metrics is not None:
            metrics.defer(self._register_metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Callback gauges only, reading what the journal and the engine
        count anyway: exporting costs a producer nothing.  Queued on the
        registry, so it runs on the registry's first read."""
        instrument_collector(metrics, self)
        gauges: dict[str, tuple[Callable[[], float], str]] = {
            "lifecycle_events_total": (
                lambda: self.lifecycle_offered,
                "BUU begin/commit events offered and not shed"),
            "lock_wait_seconds_total": (
                lambda: self.lock_wait_seconds,
                "cumulative time producer threads of a bounded journal "
                "waited for the journal lock (an unbounded journal's "
                "producers never take it)"),
            "lifecycle_elided_total": (
                lambda: self.engine.lifecycle.elided,
                "begin/commit events the detector never heard of: their "
                "BUU committed without an operation on a sampled item"),
            "lifecycle_parked": (
                lambda: self.engine.lifecycle.num_parked,
                "BUUs whose begin is held back until their first operation "
                "on a sampled item (or their commit)"),
            "journal_depth": (
                lambda: self.journal_depth,
                "events waiting in the journal: journaled operations and "
                "lifecycle events (elided operations take no room); an "
                "unbounded journal holds every operation a batch offers, "
                "a bounded one only the sampled ones"),
            "journal_depth_highwater": (
                lambda: self.journal_highwater,
                "deepest the journal has grown between drains, in events "
                "(every operation a batch offers, when unbounded)"),
            "journal_fill_ratio": (
                self._fill_ratio,
                "journal depth / journal capacity (0 when unbounded)"),
            "journal_shed_total": (
                lambda: self.shed_events,
                "events dropped whole by the 'shed' overflow policy "
                "(never acknowledged, so estimates stay honest)"),
            "journal_shed_sampled_total": (
                lambda: self.shed_sampled_events,
                "shed events that were operations on sampled items"),
            "backpressure_wait_seconds_total": (
                lambda: self.blocked_seconds,
                "cumulative time producers spent blocked on a full "
                "journal ('block' overflow policy)"),
            "backpressure_timeouts_total": (
                lambda: self.block_timeouts,
                "producer waits that exceeded block_timeout and raised "
                "JournalBackpressure"),
            "effective_sampling_rate": (
                lambda: self.sampler.sampling_rate,
                "the sampler's sampling_rate: one item sample for the "
                "whole stream"),
        }
        for name, (read, text) in gauges.items():
            metrics.gauge_fn(f"rushmon_collector_{name}",
                             lambda read=read: float(read()), help=text)

    def _fill_ratio(self) -> float:
        if self.journal_capacity is None:
            return 0.0
        return self.journal_depth / self.journal_capacity

    # -- producers (any thread) ----------------------------------------------

    def prefilter(self) -> Callable[[Key], bool] | None:
        """The predicate ``key -> chosen?`` a caller may apply to
        operations *before* it builds or hands over anything for them —
        offering the chosen ones and the number it left out as a batch
        record's ``elided`` — or ``None`` at ``sampling_rate == 1``,
        where every item is chosen."""
        if self.sampler.sampling_rate > 1:
            return self.sampler.lookup
        return None

    def offer(self, records: Sequence[tuple]) -> None:
        """Journal one producer call whole, or nothing of it.

        ``records`` are the call's events in order, without tickets:
        ``(EV_OPS, ops, elided)`` — operations (the chosen ones, when
        :meth:`prefilter` allows leaving the rest out) and how many the
        caller already left out with its predicate — and ``(EV_BEGIN |
        EV_COMMIT, buu, time)``, journaled with its ticket as ``time``.
        The call is built first (:meth:`_build`: copies, so the caller
        may reuse its lists).  An unbounded journal then extends its tail
        with it in one step, without the lock; a bounded one takes the
        lock, settles, weighs the call and meets the overflow policy once
        (module docstring) — every call is shed once :meth:`shed_all`
        ran — and, if admitted, appends and settles it under that hold."""
        if self._faults is not None:
            self._fire("collector.handle")
        if self.journal_capacity is None and not self._shed_all:
            self._tail.extend(self._build(records))
            return
        lock = self._lock
        if not lock.acquire(False):
            self._wait_for(lock)
        try:
            self._settle()
            built = self._build(records)
            weight = sum(len(r[1]) if r[0] == EV_OPS else 1 for r in built)
            capacity = self.journal_capacity
            if ((self._shed_all or capacity is not None and self._pending
                 and self._pending + weight > capacity)
                    and not self._make_room_locked(built, weight)):
                return
            self._tail.extend(built)
            self._settle()
        finally:
            lock.release()

    def _offer_one(self, record: tuple) -> None:
        self.offer((record,))

    def shed_all(self) -> None:
        """Shed every producer call whole from now on, whatever the
        journal's room: a degraded service's pass is not coming back to
        drain it.  Elided operations still count as seen.  A call that
        already took the unlocked path may still land, unshed."""
        self.overflow = "shed"
        self._shed_all = True
        self.append = self._offer_one

    def _build(self, records: Sequence[tuple]) -> list[tuple]:
        """The call's records as they land, each run of operations one
        copied record.  A bounded journal first thins the copy by
        :meth:`prefilter`, adding what it left out to the record's
        ``elided``; an unbounded one leaves that to the pass.  A record's
        operations may be any iterable: they are read once, into the
        copy."""
        chosen = self.prefilter()
        thin = None if self.journal_capacity is None else chosen
        built: list[tuple] = []
        for record in records:
            if record[0] == EV_OPS:
                _, ops, elided = record
                if elided and chosen is None:
                    raise ValueError(
                        "an ops record with elided operations needs "
                        "prefilter() to allow eliding: at sampling_rate 1 "
                        "every item is chosen")
                ops = list(ops)
                if thin is not None:
                    kept = list(compress(ops, map(thin, map(_KEY, ops))))
                    elided += len(ops) - len(kept)
                    ops = kept
                record = (EV_OPS, ops, elided)
            built.append(record)
        return built

    def _settle(self) -> None:
        """Ticket what landed since the last settle, in landing order,
        and count it: the journal's one ticketing site.  Caller holds the
        lock."""
        landed = self._tail[:]
        # Producers may append meanwhile: drop exactly the prefix taken.
        del self._tail[:len(landed)]
        records, ticket = self._records, self._next_ticket
        journaled = elided = loose = lifecycle = 0
        for kind, payload, extra in landed:
            if kind != EV_OPS:
                records.append((ticket, kind, payload, ticket))
                ticket += 1
                lifecycle += 1
            elif payload:
                records.append((ticket, kind, payload, extra))
                ticket += len(payload)
                journaled += len(payload)
                elided += extra
            else:
                loose += extra
        self._next_ticket = ticket
        self._ops_seen += journaled + elided + loose
        self._elided += loose
        self._lifecycle_offered += lifecycle
        self._pending += journaled + lifecycle
        self._journal_highwater = max(self._journal_highwater, self._pending)

    def _wait_for(self, lock) -> None:
        """Take the contended journal lock, timing the wait (an
        uncontended producer reads no clock)."""
        waited = time.perf_counter()
        lock.acquire()
        self.lock_wait_seconds += time.perf_counter() - waited

    def _make_room_locked(self, built: Sequence[tuple], weight: int) -> bool:
        """Apply the overflow policy to a call the journal has no room
        for; ``True`` when it may be journaled.  Caller holds the lock."""
        if self.overflow == "shed":
            self.shed_events += weight
            chosen = self.sampler.chosen
            loose = 0
            for kind, payload, extra in built:
                if kind == EV_OPS:
                    self.shed_sampled_events += sum(
                        map(chosen, map(_KEY, payload)))
                    loose += extra
            self._elided += loose
            self._ops_seen += loose
            return False
        # "block": wait (released by the next drain) until the whole
        # call fits or the journal is empty.
        started = time.monotonic()
        deadline = started + self.block_timeout
        capacity = self.journal_capacity
        assert capacity is not None
        try:
            while self._pending and self._pending + weight > capacity:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.block_timeouts += 1
                    raise JournalBackpressure(
                        f"journal stayed full ({capacity} events) for "
                        f"{self.block_timeout}s — the detection thread is "
                        f"not draining; raise journal_capacity, lower "
                        f"detect_interval, or use the 'shed' overflow "
                        f"policy")
                self._not_full.wait(remaining)
        finally:
            self.blocked_seconds += time.monotonic() - started
        return True

    # -- the consumer (one thread at a time) --------------------------------------

    def drain(self) -> list[tuple]:
        """Take every journaled record, in ticket order — a complete
        prefix of the serialized execution — and wake blocked producers.
        Operations elided since the previous drain close it as one
        ``(ticket, EV_OPS, [], count)`` record."""
        fault = None
        if self._faults is not None:
            fault = self._fire("journal.drain", defer=("partial_drain",))
        with self._lock:
            self._settle()
            records, self._records = self._records, []
            self._pending = 0
            if self._elided:
                records.append((self._next_ticket, EV_OPS, [], self._elided))
                self._next_ticket += 1
                self._elided = 0
            self._not_full.notify_all()
        if fault is not None:
            keep = int(len(records) * fault.fraction)
            self.requeue(records[keep:])
            records = records[:keep]
        return records

    def requeue(self, records: list[tuple]) -> None:
        """Put drained records (an ascending-ticket suffix) back at the
        front of the journal, to be drained again — a failed pass's
        unconsumed tail.  Capacity is ignored: they were acknowledged."""
        if not records:
            return
        with self._lock:
            self._records[:0] = records
            self._pending += sum(map(_weight, records))

    def _fire(self, point: str, defer: tuple = ()):
        """Fire an injection point; applies exception/delay kinds
        inline, returns the fault for kinds the call site handles."""
        fault = self._faults.fire(point)
        if fault is None or fault.kind in defer:
            return fault
        if fault.kind == "delay":
            time.sleep(fault.delay)
            return None
        raise fault.exc_factory()

    # -- checkpoint support ------------------------------------------------------

    def snapshot_state(self) -> dict:
        """A JSON-friendly snapshot: collection state and the records not
        yet drained.  The caller keeps the consumer out (the service holds
        its pass lock); the journal is settled and cut under its lock, so
        a record is either in the snapshot or landed after it."""
        with self._lock:
            self._settle()
            journal = [_encode(record) for record in self._records]
            journal_state = {
                "next_ticket": self._next_ticket,
                "elided": self._elided,
                "ops_seen": self._ops_seen,
                "lifecycle_offered": self._lifecycle_offered,
                "journal_highwater": self._journal_highwater,
                "shed": self.shed_events,
                "shed_sampled": self.shed_sampled_events,
            }
        engine = self.engine
        return {
            **journal_state,
            "sampler": engine.sampler.to_state(),
            "shard": engine.shard.to_state(),
            "lifecycle": engine.lifecycle.to_state(),
            "journal": journal,
        }

    def restore_state(self, state: dict, known: Iterable[BuuId] = ()) -> None:
        """Load a :meth:`snapshot_state` payload into this fresh
        collector; ``known`` names the BUUs the restored detector holds
        (:class:`~repro.core.collector.SampledLifecycle`)."""
        engine = self.engine
        engine.sampler.load_state(state["sampler"])
        engine.shard.load_state(state["shard"])
        engine.lifecycle.load_state(state["lifecycle"], known)
        records = [_decode(record) for record in state["journal"]]
        with self._lock:
            self._records = records
            self._pending = sum(map(_weight, records))
            self._next_ticket = state["next_ticket"]
            self._elided = state["elided"]
            self._ops_seen = state["ops_seen"]
            self._lifecycle_offered = state["lifecycle_offered"]
            self._journal_highwater = state["journal_highwater"]
            self.shed_events = state["shed"]
            self.shed_sampled_events = state["shed_sampled"]

    # -- aggregate views (settled first) --------------------------------------

    journal_depth = _settled(
        "_pending", "Events waiting in the journal (what the next pass "
        "drains).")
    ops_seen = _settled(
        "_ops_seen", "Operations offered and not shed (elided ones "
        "included).")
    lifecycle_offered = _settled(
        "_lifecycle_offered", "Begin and commit events offered and not shed.")
    journal_highwater = _settled(
        "_journal_highwater", "Deepest the journal has grown between "
        "drains, in events.")

    # Read by instrument_collector beside ops_seen.
    @property
    def stats(self) -> EdgeStats:
        return self.engine.stats

    @property
    def touches(self) -> int:
        return self.engine.touches

