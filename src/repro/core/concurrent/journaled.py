"""The service's collector: producers journal, the detection pass collects.

A producer of :class:`~repro.core.concurrent.service.RushMonService`
does no bookkeeping.  A producer call — ``on_operations``, a begin or
commit, or a network frame — is offered whole
(:meth:`JournaledCollector.offer`): its operations become journal
records ``(ticket, EV_OPS, ops, elided)`` (a batch longer than
``batch_size`` journaled operations becomes several), and a begin or
commit becomes ``(ticket, EV_BEGIN | EV_COMMIT, buu, ticket)``.  The
tickets are drawn and the records appended under one short lock, so
journal order *is* ticket order, a drain is always a complete prefix of
it, and a call is journaled whole or not at all.  A batch record
reserves one ticket per operation (at least one), so the journaled
operations keep distinct, increasing stamps.

The consumer — the service's detection pass, one thread at a time —
drains the journal and walks it in ticket order (:class:`RecordWalk`,
the loop the serial :class:`~repro.core.monitor.RushMon` walks its own
record buffer with): lifecycle records go to the admission gate, and
each batch goes to :meth:`JournaledCollector.collect` — the gate's
``admit``, then one fused :meth:`CollectorShard.handle_batch` over the
chosen operations, as in the serial monitor's
:meth:`~repro.core.collector.DataCentricCollector.collect`.  Per-key
bookkeeping order is ticket order, so the edges a service derives are
those of a serial run over its journal, and one
:class:`~repro.core.collector.CollectorShard` seeded like the serial
collector's makes even MOB's reservoir draws identical.  No item state
is shared with a producer, so nothing but the journal is locked.

Sampling before the journal
---------------------------

An operation on an unsampled item derives no edge.  At
``sampling_rate > 1`` a producer therefore keeps only the operations on
chosen items, and the rest ride along as the record's ``elided`` count;
a call that keeps none adds its count to one run-length total that the
next drain hands over as an ``(ticket, EV_OPS, [], count)`` record.  The
decision is a lock-free probe of the sampler's memo.  A caller that can
tell earlier still — the network server, while decoding a frame — asks
:meth:`JournaledCollector.prefilter` for the same predicate and passes
``elided`` itself, under every overflow policy.  At ``sampling_rate ==
1`` every item is chosen, and only the degrade filter (below) leaves
operations out.

Bounded journal and backpressure
--------------------------------

``journal_capacity`` bounds the events waiting in the journal — journaled
operations and lifecycle events; elided operations take no room.  The
unit of admission is the producer call: a call arriving at a journal
that holds events and has no room for all of it meets the ``overflow``
policy once (under ``"block"`` and ``"shed"`` the journal therefore
exceeds its capacity only by a call admitted into an empty journal):

``"block"``
    The producer waits (released by the next drain) until the whole
    call fits or the journal is empty, up to ``block_timeout`` seconds,
    then gets :class:`JournalBackpressure` with nothing journaled.
``"shed"``
    The call is dropped whole and counted in the shed counters; its
    elided operations are still counted, so only sampled operations
    (and lifecycle events) are ever shed.
``"degrade"``
    The call is journaled anyway and the effective sampling rate
    doubles (at most once per drain): an item is kept only if a
    secondary per-item hash also keeps it, and
    :attr:`~JournaledCollector.sampling_probability` stays calibrated.
    A drain that comes up under half the capacity steps it back down.

Each change of the degrade shift is journaled as a marker record
``(ticket, EV_SHIFT, shift, 0)`` at the position it takes effect, so the
pass filters every batch at the shift in force where it was journaled
and, when the shift rises, forgets the state of the items it now
excludes (a later re-inclusion warms up instead of deriving edges from a
stale ``lastWrite``).  Producers apply the same filter before the
journal, so an excluded operation is elided like an unsampled one: each
shift halves the inflow, and excluded operations are never a reason to
escalate again.  A producer never filters at a shift above the one in
force where its record lands — if the shift fell while it filtered, it
filters again under the lock — so the pass always sees every operation
on the items it keeps.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from itertools import compress
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.collector import (_KEY, CollectorShard, ItemSampler,
                                  SampledLifecycle, _splitmix64)
from repro.core.detector import LifecycleOrderError
from repro.core.types import (BuuId, Edge, EdgeColumns, EdgeStats, EdgeType,
                              Key, Operation, OpType)
from repro.obs.instrument import instrument_collector
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # repro.core.monitor walks its buffer with RecordWalk
    from repro.core.monitor import WindowTracker

#: Record kinds.  ``(ticket, EV_OPS, ops, elided)``: a producer batch
#: still to collect; ``(ticket, EV_BEGIN | EV_COMMIT, buu, time)``.
EV_OPS = "ops"
EV_BEGIN = "begin"
EV_COMMIT = "commit"
#: ``(ticket, EV_SHIFT, shift, 0)``: the degrade shift from here on.
EV_SHIFT = "shift"
#: ``(ticket, EV_EDGES, owner, edges)``: collected edges, counted here
#: (owner 0: a failed pass's re-queued run, a cluster worker's own) or
#: inserted uncounted (1: a cluster peer's).
EV_EDGES = "edges"

#: Valid journal-overflow policies.
OVERFLOW_POLICIES = ("block", "shed", "degrade")

#: Salt for the degrade-mode secondary item filter (must differ from the
#: sampler's salt so the two inclusions are independent).
_DEGRADE_SALT = 0xD1E6_7A5E

_EDGE_TYPES = {member.value: member for member in EdgeType}


def _degrade_hash(key: Key) -> int:
    """The degrade filter's per-item hash: ``key`` is kept at shift
    ``s`` iff its low ``s`` bits are zero.  Process-stable, so filter
    membership survives a restore."""
    return _splitmix64(zlib.crc32(repr(key).encode()) ^ _DEGRADE_SALT)


class JournalBackpressure(RuntimeError):
    """Raised to a producer when the journal stayed full past the
    ``block_timeout`` under the ``"block"`` overflow policy."""


def _weight(record: tuple) -> int:
    """Journal room a record takes: its operations, or one event."""
    kind = record[1]
    if kind == EV_OPS:
        return len(record[2])
    return 0 if kind in (EV_SHIFT, EV_EDGES) else 1


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
    """The collector of :class:`~repro.core.concurrent.RushMonService`
    (module docstring): :meth:`offer` on any producer thread, everything
    else on the consumer's.

    Parameters mirror :class:`~repro.core.collector.DataCentricCollector`
    (``sampling_rate``, ``mob``, ``mob_slots``, ``items``, ``seed``) plus
    the journal's: ``journal_capacity``, ``overflow``, ``block_timeout``
    and ``batch_size`` (most journaled operations per record).
    ``faults`` arms the ``collector.handle`` (each producer call) and
    ``journal.drain`` injection points; ``metrics`` gets the collector's
    readings as callback gauges.
    """

    def __init__(
        self,
        sampling_rate: int = 1,
        mob: bool = True,
        items: Iterable[Key] | None = None,
        seed: int = 0,
        mob_slots: int = 2,
        journal_capacity: int | None = None,
        overflow: str = "block",
        block_timeout: float = 5.0,
        batch_size: int = 256,
        faults: Any | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if journal_capacity is not None and journal_capacity < 1:
            raise ValueError("journal_capacity must be >= 1 or None")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow!r}")
        if block_timeout <= 0:
            raise ValueError("block_timeout must be > 0")
        self.sampler = ItemSampler(sampling_rate, seed)
        if items is not None:
            self.sampler.materialize(items)
        # Seeded like DataCentricCollector's shard: a service fed one
        # stream draws MOB's coins exactly as the serial monitor does.
        self.shard = CollectorShard(mob, mob_slots,
                                    random.Random(seed ^ 0x5EED))
        #: The admission gate; the consumer is its only caller.
        self.lifecycle = SampledLifecycle(self.sampler)
        self.journal_capacity = journal_capacity
        self.overflow = overflow
        self.block_timeout = block_timeout
        self.batch_size = batch_size
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
        # Degrade-policy state: the effective per-item keep fraction is
        # 1 / 2**shift on top of the base sample.  _degrade_shift is the
        # shift at the journal's tail; _pass_shift, the consumer's, is
        # the one in force where the pass has got to (EV_SHIFT records).
        self._degrade_shift = 0
        self._pass_shift = 0
        self.degrade_shifts_total = 0
        self._shifted_this_epoch = False
        self.lifecycle_offered = 0
        self.lock_wait_seconds = 0.0
        if metrics is not None:
            metrics.defer(self._register_metrics)

    def _register_metrics(self, metrics: MetricsRegistry) -> None:
        """Callback gauges only, reading what the journal and the shard
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
                "lock"),
            "lifecycle_elided_total": (
                lambda: self.lifecycle.elided,
                "begin/commit events the detector never heard of: their "
                "BUU committed without an operation on a sampled item"),
            "lifecycle_parked": (
                lambda: self.lifecycle.num_parked,
                "BUUs whose begin is held back until their first operation "
                "on a sampled item (or their commit)"),
            "journal_depth": (
                lambda: self._pending,
                "events waiting in the journal: journaled operations and "
                "lifecycle events (elided operations take no room)"),
            "journal_depth_highwater": (
                lambda: self.journal_highwater,
                "deepest the journal has grown between drains, in events"),
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
                lambda: self.sampler.sampling_rate << self._degrade_shift,
                "configured sr times the degrade-policy multiplier"),
            "degrade_shifts_total": (
                lambda: self.degrade_shifts_total,
                "times the degrade policy changed the effective sampling "
                "rate (up or down)"),
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
        The call is weighed once and meets the
        overflow policy once (module docstring); an admitted call is
        ticketed and appended under that same hold of the journal lock,
        a batch of more than ``batch_size`` journaled operations as
        several records.  Under a degrade shift, operations the
        secondary filter excludes are elided too.  The records hold
        copies: the caller may reuse its lists."""
        if self._faults is not None:
            self._fire("collector.handle")
        # A call of begins and commits alone is journaled as given.
        built, weight, loose = records, len(records), 0
        shift = 0
        for record in records:
            if record[0] == EV_OPS:
                shift = self._degrade_shift
                built, weight, loose = self._build(records, shift)
                break
        lock = self._lock
        if not lock.acquire(False):
            self._wait_for(lock)
        try:
            if self._degrade_shift < shift:
                # The shift fell while this call filtered.
                built, weight, loose = self._build(records,
                                                   self._degrade_shift)
            capacity = self.journal_capacity
            if (capacity is not None and self._pending
                    and self._pending + weight > capacity
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

    def _build(self, records: Sequence[tuple],
               shift: int) -> tuple[list[tuple], int, int]:
        """The call's records as journaled — operations thinned by
        :meth:`prefilter` and the degrade filter at ``shift``, split
        past ``batch_size`` — with their journal weight and the elided
        operations no record carries.  A record's operations are a list
        or tuple, never a one-shot iterator: they are read twice."""
        chosen = self.prefilter()
        mask = (1 << shift) - 1
        size = self.batch_size
        built: list[tuple] = []
        weight = loose = 0
        for record in records:
            if record[0] != EV_OPS:
                built.append(record)
                weight += 1
                continue
            _, ops, elided = record
            if chosen is not None:
                kept = list(compress(ops, map(chosen, map(_KEY, ops))))
            elif elided:
                raise ValueError(
                    "an ops record with elided operations needs "
                    "prefilter() to allow eliding: at sampling_rate 1 "
                    "every item is chosen")
            else:
                kept = list(ops)
            if shift:
                kept = [op for op in kept if not _degrade_hash(op[2]) & mask]
            elided += len(ops) - len(kept)
            if not kept:
                loose += elided
                continue
            weight += len(kept)
            for start in range(0, len(kept), size):
                built.append((EV_OPS, kept[start:start + size], elided))
                elided = 0
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
        if self.overflow == "degrade":
            if not self._shifted_this_epoch:
                self._shifted_this_epoch = True
                self._records.append(
                    self._shift_locked(self._degrade_shift + 1))
            return True
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
                        f"detect_interval, or use the 'shed'/'degrade' "
                        f"overflow policy")
                self._not_full.wait(remaining)
        finally:
            self.blocked_seconds += time.monotonic() - started
        return True

    def _shift_locked(self, shift: int) -> tuple:
        """Change the degrade shift at the journal's tail; returns the
        ``EV_SHIFT`` record the caller puts where the change takes
        effect.  Caller holds the lock."""
        self._degrade_shift = shift
        self.degrade_shifts_total += 1
        ticket = self._next_ticket
        self._next_ticket = ticket + 1
        return (ticket, EV_SHIFT, shift, 0)

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
            drained, self._pending = self._pending, 0
            if self._elided:
                records.append((self._next_ticket, EV_OPS, [], self._elided))
                self._next_ticket += 1
                self._elided = 0
            self._not_full.notify_all()
            # Degrade: reopen the once-per-drain escalation, and step
            # back down once a drain comes up light — from the next
            # record on, so the marker closes this drain.
            self._shifted_this_epoch = False
            if (self._degrade_shift and self.journal_capacity is not None
                    and drained < self.journal_capacity // 2):
                records.append(self._shift_locked(self._degrade_shift - 1))
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

    def collect(self, ops: list[Operation],
                begin: Callable[[BuuId, int], object]) -> EdgeColumns:
        """Bookkeep a batch record's operations: the degrade filter at
        the shift in force thins them, the gate keeps those on chosen
        items (handing ``begin`` each parked begin they promote), and one
        fused :meth:`CollectorShard.handle_batch` derives their edges."""
        shift = self._pass_shift
        if shift:
            mask = (1 << shift) - 1
            ops = [op for op in ops if not _degrade_hash(op[2]) & mask]
        if self.sampler.sampling_rate != 1:
            ops = self.lifecycle.admit(ops, begin)
        return self.shard.handle_batch(ops)

    def apply_shift(self, shift: int) -> None:
        """An ``EV_SHIFT`` record reached the pass: the degrade filter
        keeps an item with probability ``1 / 2**shift`` from here on.  A
        rise forgets the state of every item it excludes."""
        if shift > self._pass_shift:
            mask = (1 << shift) - 1
            self.shard.drop_items(lambda key: _degrade_hash(key) & mask)
        self._pass_shift = shift

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
                "degrade_shift": self._degrade_shift,
                "pass_shift": self._pass_shift,
                "degrade_shifts_total": self.degrade_shifts_total,
                "shifted_this_epoch": self._shifted_this_epoch,
            }
        return {
            **journal_state,
            "sampler": self.sampler.to_state(),
            "shard": self.shard.to_state(),
            "lifecycle": self.lifecycle.to_state(),
            "journal": journal,
        }

    def restore_state(self, state: dict, known: Iterable[BuuId] = ()) -> None:
        """Load a :meth:`snapshot_state` payload into this fresh
        collector; ``known`` names the BUUs the restored detector holds
        (:class:`~repro.core.collector.SampledLifecycle`)."""
        self.sampler.load_state(state["sampler"])
        self.shard.load_state(state["shard"])
        self.lifecycle.load_state(state["lifecycle"], known)
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
            self._degrade_shift = state["degrade_shift"]
            self._pass_shift = state["pass_shift"]
            self.degrade_shifts_total = state["degrade_shifts_total"]
            self._shifted_this_epoch = state["shifted_this_epoch"]

    # -- aggregate views ------------------------------------------------------------

    @property
    def journal_depth(self) -> int:
        """Events waiting in the journal (what the next pass drains)."""
        return self._pending

    @property
    def ops_seen(self) -> int:
        """Operations offered and not shed (elided ones included)."""
        return self._ops_seen

    @property
    def sampling_rate(self) -> int:
        return self.sampler.sampling_rate

    @property
    def sampling_probability(self) -> float:
        """Effective per-item inclusion probability: the base sample
        times the degrade-policy multiplier (1 until a shift happens)."""
        return self.sampler.probability / (1 << self._degrade_shift)

    @property
    def pass_probability(self) -> float:
        """The inclusion probability the detection pass collects under:
        the base sample times the degrade multiplier in force where the
        pass has got to — what a window it closes is scaled by (the
        journal's tail may already run under a higher shift)."""
        return self.sampler.probability / (1 << self._pass_shift)

    @property
    def degrade_shift(self) -> int:
        """Current degrade level (kept fraction is 1/2**shift)."""
        return self._degrade_shift

    @property
    def stats(self) -> EdgeStats:
        return self.shard.stats

    @property
    def touches(self) -> int:
        return self.shard.touches

    @property
    def total_reads(self) -> int:
        return self.shard.total_reads

    @property
    def discarded_reads(self) -> int:
        return self.shard.discarded_reads

    @property
    def discard_ratio(self) -> float:
        return self.shard.discard_ratio


def _gather(parts: list) -> EdgeColumns:
    """Several records' edges as new columns, never merged into a part."""
    edges = EdgeColumns()
    for part in parts:
        edges.extend(part)
    return edges


class RecordWalk:
    """The one consumer of ticket-ordered records.  Three callers walk
    with it: the serial :class:`~repro.core.monitor.RushMon` its record
    buffer, the service's detection pass its drained journal, and every
    cluster worker its merged streams (:mod:`repro.cluster.worker`).

    A begin or commit goes to the admission gate (``collector.lifecycle``)
    and, unless it parks or drops it, to the detector, stamped with the
    record's time.  A batch's operations go through ``collector.collect``
    and, with its ``elided`` count, join the window's operations.  The
    edges of consecutive records form a *run*, fed to one
    :meth:`CycleDetector.add_edge_batch` through the window once it
    spans ``batch_size`` collected operations, at every begin or commit
    record (delivered, parked or dropped alike), and before anything
    else reaches the detector: a begin the gate promotes, or an
    uncounted edge.  An ``EV_EDGES`` record's ``owner`` 0 joins the run
    and 1 is inserted uncounted, so each cycle is counted once, by the
    owner of its closing edge.

    ``consumed`` counts the records taken (a batch once collected, a
    begin or commit once the detector took it) and ``events`` the events
    they stand for, also when :meth:`walk` raises; :meth:`unfed` then
    hands back the run not yet fed.  ``clock`` is the last ticket taken
    and ``late`` the first
    :class:`~repro.core.detector.LifecycleOrderError`, after which the
    walk goes on: the detector applied every edge but the late ones.
    """

    def __init__(self, collector, window: WindowTracker,
                 batch_size: int) -> None:
        self.collector = collector
        self.window = window
        self.batch_size = batch_size
        self.run: list = []
        self.run_ops = 0
        self.clock = 0
        self.consumed = 0
        self.events = 0
        self.late: LifecycleOrderError | None = None

    def walk(self, records: Iterable[tuple]) -> None:
        """Feed ``records`` (ascending tickets), then flush the run."""
        collector = self.collector
        gate = collector.lifecycle
        # A gate that is not engaged parks nothing, so it is not asked.
        engaged = gate.engaged
        window = self.window
        detector = window.detector
        uncounted = detector.add_edge_uncounted
        run = self.run
        flush = self.flush
        size = self.batch_size
        consumed, events, clock = self.consumed, self.events, self.clock
        try:
            for ticket, kind, payload, extra in records:
                if kind == EV_BEGIN:
                    if run:
                        flush()
                    if not (engaged and gate.begin(payload, extra)):
                        detector.begin_buu(payload, extra)
                    events += 1
                    clock = ticket
                elif kind == EV_COMMIT:
                    if run:
                        flush()
                    if not (engaged and gate.commit(payload)):
                        detector.commit_buu(payload, extra)
                    events += 1
                    clock = ticket
                elif kind == EV_OPS:
                    n = len(payload)
                    if n:
                        edges = collector.collect(payload, self._begin)
                        if edges:
                            run.append(edges)
                        self.run_ops += n
                        clock = ticket + n - 1
                    else:
                        clock = ticket
                    window.observe_operations(n + extra)
                    events += n + extra
                    if self.run_ops >= size:
                        # Taken before the run is fed: a feed that fails
                        # hands back the edges, not the batch.
                        consumed += 1
                        flush()
                        continue
                elif kind == EV_EDGES:
                    if payload:
                        if run:
                            flush()
                        for edge in extra:
                            uncounted(edge)
                    else:
                        run.append(extra)
                elif kind == EV_SHIFT:
                    collector.apply_shift(payload)
                consumed += 1
            flush()
        finally:
            self.consumed, self.events, self.clock = consumed, events, clock

    def _begin(self, buu: BuuId, start: int) -> None:
        if self.run:
            self.flush()
        self.window.detector.begin_buu(buu, start)

    def flush(self) -> None:
        """Feed the run to the detector, window-attributed: a run of one
        columnar part as it is, anything else gathered into new
        columns."""
        self.run_ops = 0
        run = self.run
        if not run:
            return
        edges = run[0]
        if len(run) > 1 or not isinstance(edges, EdgeColumns):
            edges = _gather(run)
        try:
            self.window.observe_edges(edges)
        except LifecycleOrderError as late:
            if self.late is None:
                self.late = late
        run.clear()

    def unfed(self) -> EdgeColumns | None:
        """Take the run a failed walk did not feed, as new columns."""
        edges = _gather(self.run) if self.run else None
        self.run.clear()
        self.run_ops = 0
        return edges
