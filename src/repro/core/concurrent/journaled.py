"""The service's journal: producers journal, the detection pass collects.

A producer of :class:`~repro.core.concurrent.service.RushMonService`
does no bookkeeping.  A producer call — ``on_operations``, a begin or
commit, or a network frame — is offered whole
(:meth:`JournaledCollector.offer`): each run of its operations becomes
one journal record ``(ticket, EV_OPS, ops, elided)``, whatever its
length, and a begin or commit becomes ``(ticket, EV_BEGIN | EV_COMMIT,
buu, ticket)``.  The records are built, the tickets drawn and the
records appended under one hold of the journal lock, so journal order
*is* ticket order, a drain is always a complete prefix of it, and a call
is journaled whole or not at all.  A batch record reserves one ticket
per operation (at least one), so the journaled operations keep
distinct, increasing stamps.

The consumer — the service's detection pass, one thread at a time —
drains the journal and walks it in ticket order with the service's
:class:`~repro.core.monitor.RecordWalk`, the engine the serial
:class:`~repro.core.monitor.RushMon` holds too: the same walk over the
same collector, fed the journal instead of a record buffer.  That
walk's collector is :attr:`JournaledCollector.engine`, handed in by the
service; this module keeps only the journal and the record vocabulary
(``EV_*``).  Per-key bookkeeping order is ticket order, so the edges a
service derives are those of a serial run over its journal, MOB's
reservoir draws included.  No item state is shared with a producer, so
nothing but the journal is locked.

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
take no room.  The unit of admission is the producer call: a call
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
    call is shed, whatever the capacity.
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


class JournaledCollector:
    """The journal of :class:`~repro.core.concurrent.RushMonService`
    (module docstring): :meth:`offer` on any producer thread, everything
    else — :meth:`drain`, :meth:`requeue` and :attr:`engine` — on the
    consumer's.

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
        # Everything below is guarded by _lock (producers and drains).
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        self._records: list[tuple] = []
        self._next_ticket = 0
        self._pending = 0      # journaled events not yet drained
        self._elided = 0       # elided operations not yet drained
        self._ops_seen = 0
        self.journal_highwater = 0
        self.shed_events = 0
        self.shed_sampled_events = 0
        self.blocked_seconds = 0.0
        self.block_timeouts = 0
        self.lifecycle_offered = 0
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
                "cumulative time producer threads waited for the journal "
                "lock, held while another producer builds and appends its "
                "call or a pass drains"),
            "lifecycle_elided_total": (
                lambda: self.engine.lifecycle.elided,
                "begin/commit events the detector never heard of: their "
                "BUU committed without an operation on a sampled item"),
            "lifecycle_parked": (
                lambda: self.engine.lifecycle.num_parked,
                "BUUs whose begin is held back until their first operation "
                "on a sampled item (or their commit)"),
            "journal_depth": (
                lambda: self._pending,
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
        return self._pending / self.journal_capacity

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
        Everything happens in one hold of the journal lock: the call is
        built (:meth:`_build`: an unbounded journal takes the operations
        as given, a bounded one thins them to the chosen items), weighed,
        meets the overflow policy once (module docstring) — every call is
        shed once :meth:`shed_all` ran — and,
        if admitted, is ticketed and appended, each run of operations
        as one record.  The records hold copies: the caller may reuse
        its lists."""
        if self._faults is not None:
            self._fire("collector.handle")
        lock = self._lock
        if not lock.acquire(False):
            self._wait_for(lock)
        try:
            # A call of begins and commits alone is journaled as given.
            built, weight, loose = records, len(records), 0
            for record in records:
                if record[0] == EV_OPS:
                    built, weight, loose = self._build(records)
                    break
            capacity = self.journal_capacity
            if ((self._shed_all or capacity is not None and self._pending
                 and self._pending + weight > capacity)
                    and not self._make_room_locked(built, weight, loose)):
                return
            if loose:
                self._elided += loose
                self._ops_seen += loose
            ticket = self._next_ticket
            for kind, payload, extra in built:
                if kind == EV_OPS:
                    self._records.append((ticket, kind, payload, extra))
                    ticket += len(payload)
                    self._ops_seen += len(payload) + extra
                else:
                    self._records.append((ticket, kind, payload, ticket))
                    ticket += 1
                    self.lifecycle_offered += 1
            self._next_ticket = ticket
            self._pending += weight
            if self._pending > self.journal_highwater:
                self.journal_highwater = self._pending
        finally:
            lock.release()

    def shed_all(self) -> None:
        """Shed every producer call whole from now on, whatever the
        journal's room: a degraded service's pass is not coming back to
        drain it.  Elided operations still count as seen."""
        self.overflow = "shed"
        self._shed_all = True

    def _build(self,
               records: Sequence[tuple]) -> tuple[list[tuple], int, int]:
        """The call's records as journaled, each run of operations one
        copied record, with their journal weight and the elided
        operations no record carries.  A bounded journal first thins
        the copy by :meth:`prefilter`; an unbounded one leaves that to
        the pass.  A record's operations may be any iterable: they are
        read once, into the copy.  Caller holds the lock."""
        chosen = self.prefilter()
        whole = self.journal_capacity is None
        built: list[tuple] = []
        weight = loose = 0
        for record in records:
            if record[0] != EV_OPS:
                built.append(record)
                weight += 1
                continue
            _, ops, elided = record
            if elided and chosen is None:
                raise ValueError(
                    "an ops record with elided operations needs "
                    "prefilter() to allow eliding: at sampling_rate 1 "
                    "every item is chosen")
            kept = ops = list(ops)
            if chosen is not None and not whole:
                kept = list(compress(ops, map(chosen, map(_KEY, ops))))
            elided += len(ops) - len(kept)
            if not kept:
                loose += elided
                continue
            weight += len(kept)
            built.append((EV_OPS, kept, elided))
        return built, weight, loose

    def _wait_for(self, lock) -> None:
        """Take the contended journal lock, timing the wait (an
        uncontended producer reads no clock)."""
        waited = time.perf_counter()
        lock.acquire()
        self.lock_wait_seconds += time.perf_counter() - waited

    def _make_room_locked(self, built: Sequence[tuple], weight: int,
                          loose: int) -> bool:
        """Apply the overflow policy to a call the journal has no room
        for; ``True`` when it may be journaled.  Caller holds the lock."""
        if self.overflow == "shed":
            self.shed_events += weight
            chosen = self.sampler.chosen
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
        its pass lock); the journal is cut under its lock, so a record is
        either in the snapshot or was appended after it."""
        with self._lock:
            journal = [_encode(record) for record in self._records]
            journal_state = {
                "next_ticket": self._next_ticket,
                "elided": self._elided,
                "ops_seen": self._ops_seen,
                "lifecycle_offered": self.lifecycle_offered,
                "journal_highwater": self.journal_highwater,
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
            self.lifecycle_offered = state["lifecycle_offered"]
            self.journal_highwater = state["journal_highwater"]
            self.shed_events = state["shed"]
            self.shed_sampled_events = state["shed_sampled"]

    # -- aggregate views ------------------------------------------------------------

    @property
    def journal_depth(self) -> int:
        """Events waiting in the journal (what the next pass drains)."""
        return self._pending

    @property
    def ops_seen(self) -> int:
        """Operations offered and not shed (elided ones included)."""
        return self._ops_seen

    # Read by instrument_collector beside ops_seen.
    @property
    def stats(self) -> EdgeStats:
        return self.engine.stats

    @property
    def touches(self) -> int:
        return self.engine.touches

