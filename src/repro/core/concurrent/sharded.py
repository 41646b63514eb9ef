"""Sharded, thread-safe data-centric collection.

:class:`ShardedCollector` partitions the key space into ``num_shards``
key-hash shards, each guarded by its own lock and holding its own
:class:`~repro.core.collector.CollectorShard` bookkeeping.  Writer
threads operating on keys that hash to different shards never contend;
threads on the same shard serialize only the per-item bookkeeping, which
is exactly the per-key serialization the paper's collector assumes
("operations on the same data item are fully ordered", §2.1).

Correctness rests on two facts:

- Algorithm 1/2 bookkeeping is *per item*, and an item lives in exactly
  one shard, so the edges a sharded run derives are identical to the
  edges a serial run derives from any operation stream with the same
  per-key order.
- Per-shard state combines associatively
  (:meth:`~repro.core.collector.CollectorShard.merge`), so aggregate
  statistics equal the serial collector's.

The optional *journal* records every event with a globally unique,
monotonically increasing ticket, assigned while the shard lock is held.
:meth:`drain_journal` briefly acquires **all** shard locks, swaps the
journal buffers out and merges them by ticket: because tickets are only
issued under a shard lock, holding every lock guarantees the drained
batch is a complete prefix of the ticket sequence — the serialized trace
of the concurrent execution.  The background detection thread of
:class:`~repro.core.concurrent.service.RushMonService` consumes this
journal; replaying it through the offline baseline must (and, per the
differential tests, does) reproduce the service's counts exactly.

Sampling before the journal
---------------------------

An operation on an unsampled item derives no edge, so all a detector can
do with its journal record is count it.  With ``journal_sampled_only``
the sampling decision — a pure, lock-free function of ``(key,
sampling_rate, seed)`` — is therefore taken *before* shard grouping,
locks, tickets and the journal: only operations on chosen items are
bookkept and journaled, and the rest ride along as one run-length
record ``(ticket, EV_ELIDED, count, None)`` per batch, appended under a
shard lock the batch takes anyway and added to that shard's
``ops_seen`` under the same lock.  The count is an ordinary journal
event, so it inherits ticket order, :meth:`requeue` and the checkpoint's
pending-journal section; ``ops_seen`` and the consumer's operation
totals keep meaning *every operation offered*.  A caller that can tell
earlier still — the network server, before it builds an ``Operation``
from a decoded record — asks :meth:`ShardedCollector.prefilter` for the
same predicate and hands :meth:`~ShardedCollector.handle_batch` the
chosen operations plus the number it left out (``elided``); everything
after the filter is shared.  ``prefilter`` is the one place that says
when leaving operations out is sound.  The default (every
operation journaled) is what a consumer that needs the complete
serialized execution asks for — the service's ``record_trace`` replay
re-samples it.  At ``sampling_rate=1`` every item is chosen and the two
modes write identical journals.

Lifecycle follows the sample
----------------------------

Under the same condition — ``journal_sampled_only`` and
``sampling_rate > 1`` — a BUU that never touches a chosen item has no
edge, so the detector need not hear of it.  Parking, promoting and
dropping begins is the admission gate's business
(:class:`~repro.core.collector.SampledLifecycle` carries the contract
every front end shares); this collector is its *ticketed-journal sink*.
The gate's lock is taken before any shard lock, never after, and under
it a promoted begin is journaled, with the parked start, before the
promoting operation takes its ticket: no producer can find the BUU
unparked while its begin has no ticket yet.  A promoted begin that a
full journal sheds (``overflow="shed"``) is dropped whole and counted
with the elided ones; one it refuses by raising (a ``"block"`` timeout)
stays parked.  What was dropped since the previous drain reaches the
consumer as one ``EV_ELIDED`` record per drain (no operations, the
count in its fourth field), so the consumer's event total and
:meth:`~ShardedCollector.requeue` account for it exactly as for elided
operations.  The parked starts and the counts are part of
:meth:`~ShardedCollector.snapshot_state`.

Bounded journal and backpressure
--------------------------------

An unbounded journal grows without limit whenever the detector falls
behind the producers, so ``journal_capacity`` bounds it (the budget is
split evenly across shards and counted in journal *records*).  Only an
event that will occupy a record consults it: under
``journal_sampled_only`` an operation on an unsampled item takes no
room, so it is never blocked, never shed and never a reason to degrade.
When a shard's buffer is full, the ``overflow`` policy decides what an
arriving (to-be-journaled) event experiences:

``"block"``
    The producer waits (on the shard's condition variable, released by
    the next drain) up to ``block_timeout`` seconds, then raises
    :class:`JournalBackpressure`.  Nothing is ever lost; producers feel
    the detector's lag directly.
``"shed"``
    The event is dropped *whole* — no bookkeeping, no journal entry, no
    acknowledgement — and counted in the shed counters, so downstream
    estimates remain honest lower bounds over exactly the acknowledged
    prefix (the ``sr=1`` differential invariant is preserved for every
    acknowledged event).
``"degrade"``
    The capacity becomes a soft limit: the event is journaled anyway,
    and the collector adaptively *raises its effective sampling rate*
    (halving the kept-item fraction via a secondary per-item hash
    filter) so passes get cheaper and the journal drains faster — under
    ``journal_sampled_only`` an operation the filter excludes is elided
    like any other unsampled one, so a shift relieves the journal
    itself, not just the detector.  Each shift — up under pressure,
    back down once a drain comes up light — is counted, and
    :attr:`sampling_probability` always reflects the effective
    probability so estimates stay calibrated going forward.

Periodic re-sampling (§5.1) is intentionally unsupported here: a sample
switch must clear every shard atomically, which would need the same
stop-the-world drain on the hot path.  The serial
:class:`~repro.core.collector.DataCentricCollector` retains it.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
import zlib
from typing import Any, Callable, Iterable, Sequence

from repro.core.collector import (CollectorShard, ItemSampler,
                                  SampledLifecycle, _splitmix64)
from repro.core.frontier import key_partition
from repro.core.types import Edge, EdgeStats, Key, Operation, OpType
from repro.obs.metrics import MetricsRegistry

#: Journal event kinds.
EV_OP = "op"
EV_BEGIN = "begin"
EV_COMMIT = "commit"
#: Run-length record of what was left out of a sampled-only journal:
#: ``(ticket, EV_ELIDED, operations, lifecycle events or None)``.
EV_ELIDED = "elided"

#: Valid journal-overflow policies.
OVERFLOW_POLICIES = ("block", "shed", "degrade")

#: Salt for the degrade-mode secondary item filter (must differ from the
#: sampler's salt so the two inclusions are independent).
_DEGRADE_SALT = 0xD1E6_7A5E


class JournalBackpressure(RuntimeError):
    """Raised to a producer when the journal stayed full past the
    ``block_timeout`` under the ``"block"`` overflow policy."""


#: Shared empty edge list for journaled non-sampled operations (consumers
#: only iterate extras, so one immutable tuple serves every such event).
_NO_EDGES: tuple = ()


class ShardJournal:
    """Struct-of-arrays journal buffer for one shard.

    Instead of a list of event tuples, four parallel arrays (tickets,
    kinds, payloads, extras) — batch appends become four C-level
    ``list.extend`` calls instead of N tuple allocations + appends, and
    the drain's swap is four pointer exchanges.  Events materialize back
    into ``(ticket, kind, payload, extra)`` tuples only at drain time,
    outside the shard locks.
    """

    __slots__ = ("tickets", "kinds", "payloads", "extras")

    def __init__(self) -> None:
        self.tickets: list[int] = []
        self.kinds: list[str] = []
        self.payloads: list = []
        self.extras: list = []

    def __len__(self) -> int:
        return len(self.tickets)

    def append(self, ticket: int, kind: str, payload, extra) -> None:
        self.tickets.append(ticket)
        self.kinds.append(kind)
        self.payloads.append(payload)
        self.extras.append(extra)

    def swap_arrays(self) -> tuple[list, list, list, list]:
        """Detach and return the four arrays (caller holds the shard
        lock; zipping back into event tuples happens outside it)."""
        arrays = (self.tickets, self.kinds, self.payloads, self.extras)
        self.tickets = []
        self.kinds = []
        self.payloads = []
        self.extras = []
        return arrays

    def prepend(self, events: list[tuple]) -> None:
        """Splice already-drained event tuples back at the front."""
        self.tickets[:0] = [e[0] for e in events]
        self.kinds[:0] = [e[1] for e in events]
        self.payloads[:0] = [e[2] for e in events]
        self.extras[:0] = [e[3] for e in events]

    def events(self) -> list[tuple]:
        """Materialize the buffered events as tuples (checkpointing)."""
        return list(zip(self.tickets, self.kinds, self.payloads,
                        self.extras))


class _Shard:
    """One lock-protected partition: bookkeeping state + journal buffer.

    ``journal_highwater`` is the deepest this shard's journal has ever
    grown between drains — a plain int updated under the shard lock, so
    the observability export (max over shards) needs no extra locking.
    ``not_full`` is signalled by every drain so blocked producers wake.
    """

    __slots__ = ("lock", "not_full", "state", "journal", "ops_seen",
                 "journal_highwater", "shed", "shed_sampled",
                 "blocked_seconds", "block_timeouts")

    def __init__(self, state: CollectorShard) -> None:
        self.lock = threading.Lock()
        self.not_full = threading.Condition(self.lock)
        self.state = state
        self.journal = ShardJournal()
        self.ops_seen = 0
        self.journal_highwater = 0
        self.shed = 0
        self.shed_sampled = 0
        self.blocked_seconds = 0.0
        self.block_timeouts = 0


def _encode_event(event: tuple) -> list:
    """Checkpoint encoding of one journal event (JSON-friendly)."""
    ticket, kind, payload, extra = event
    if kind == EV_OP:
        op: Operation = payload
        return [ticket, kind, [op.op.value, op.buu, op.key, op.seq],
                [[e.src, e.dst, e.kind.value, e.label, e.seq]
                 for e in extra]]
    return [ticket, kind, payload, extra]


def _decode_event(record: list) -> tuple:
    """Inverse of :func:`_encode_event`."""
    ticket, kind, payload, extra = record
    if kind == EV_OP:
        op = Operation(OpType(payload[0]), payload[1], payload[2],
                       payload[3])
        edges = [Edge(e[0], e[1], _EDGE_TYPES[e[2]], e[3], e[4])
                 for e in extra]
        return (ticket, kind, op, edges)
    return (ticket, kind, payload, extra)


# Local EdgeType lookup (avoids importing the enum call in a tight loop).
from repro.core.types import EdgeType as _EdgeType  # noqa: E402

_EDGE_TYPES = {member.value: member for member in _EdgeType}


class ShardedCollector:
    """Thread-safe data-centric collector over key-hash shards.

    Parameters mirror :class:`~repro.core.collector.DataCentricCollector`
    (``sampling_rate``, ``mob``, ``mob_slots``, ``items``, ``seed``) plus:

    num_shards:
        Number of key-hash partitions (= maximum write parallelism).
    journal:
        Record a ticket-ordered event journal for a background detector
        (see module docstring).  Off by default: a standalone sharded
        collector returns edges to the caller and keeps no history.
    journal_sampled_only:
        Journal only operations on sampled items; the others are counted
        by ``EV_ELIDED`` run-length records (module docstring).  Off by
        default: ``journal=True`` alone records every operation.
    journal_capacity:
        Total buffered-event budget across all shard journals (split
        evenly; each shard gets at least 1).  ``None`` (default) keeps
        the journal unbounded — the pre-backpressure behaviour.
    overflow:
        What a producer experiences when its shard's journal is full:
        ``"block"`` / ``"shed"`` / ``"degrade"`` (module docstring).
    block_timeout:
        Seconds a ``"block"``-policy producer waits before
        :class:`JournalBackpressure` is raised.
    faults:
        Optional :class:`~repro.testing.faults.FaultInjector`; arms the
        ``collector.handle`` and ``journal.drain`` injection points.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`.  When set,
        the collector exports per-thread counters (ops handled, sampled
        hits, edges emitted, cumulative shard-lock wait time) and
        callback gauges (journal depth + high-water mark + fill ratio,
        hit rate, shed totals, degrade state).  Lock wait is the only
        instrumentation with hot-path cost (two ``perf_counter`` calls
        per op) and is skipped when no registry is attached.
    """

    def __init__(
        self,
        sampling_rate: int = 1,
        mob: bool = True,
        items: Iterable[Key] | None = None,
        seed: int = 0,
        mob_slots: int = 2,
        num_shards: int = 8,
        journal: bool = False,
        journal_sampled_only: bool = False,
        journal_capacity: int | None = None,
        overflow: str = "block",
        block_timeout: float = 5.0,
        faults: Any | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if journal_capacity is not None and journal_capacity < 1:
            raise ValueError("journal_capacity must be >= 1 or None")
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, "
                f"got {overflow!r}"
            )
        if block_timeout <= 0:
            raise ValueError("block_timeout must be > 0")
        self.num_shards = num_shards
        # Power-of-two shard counts bucket interned int keys with a mask.
        self._shard_mask = (
            num_shards - 1 if num_shards & (num_shards - 1) == 0 else None
        )
        # The sampler is shared: chosen() is a pure function of
        # (key, salt) — or a frozen materialized set — so concurrent
        # reads need no lock.
        self.sampler = ItemSampler(sampling_rate, seed)
        if items is not None:
            self.sampler.materialize(items)
        self._shards = [
            _Shard(CollectorShard(mob, mob_slots,
                                  random.Random(seed ^ 0x5EED ^ (i * 0x9E37))))
            for i in range(num_shards)
        ]
        self._ticket = itertools.count()
        self._journal = journal
        self._elide = journal and journal_sampled_only
        # Lifecycle follows the sample wherever the sample can exclude a
        # BUU (module docstring).  Its lock orders before shard locks.
        self.lifecycle = SampledLifecycle(self.sampler, self._elide,
                                          threading.Lock())
        #: Elided lifecycle events already handed to a drain.
        self._lifecycle_drained = 0
        self.journal_capacity = journal_capacity
        self.overflow = overflow
        self.block_timeout = block_timeout
        self._shard_capacity = (
            None if journal_capacity is None
            else max(1, journal_capacity // num_shards)
        )
        self._faults = faults
        # Degrade-policy state: the effective per-item keep fraction is
        # 1 / 2**shift on top of the base sample.  Guarded by its own
        # lock (escalation is rare; the hot path reads the plain int).
        self._degrade_lock = threading.Lock()
        self._degrade_shift = 0
        self._degrade_shifts_total = 0
        self._shifted_this_epoch = False
        self.metrics = metrics
        if metrics is not None:
            self._m_ops = metrics.counter(
                "rushmon_collector_ops_total",
                help="operations the sharded collector has handled",
            )
            self._m_sampled = metrics.counter(
                "rushmon_collector_sampled_ops_total",
                help="operations that hit a sampled item (paid bookkeeping)",
            )
            self._m_edges = metrics.counter(
                "rushmon_collector_edges_total",
                help="dependency edges emitted by the sharded collector",
            )
            self._m_lifecycle = metrics.counter(
                "rushmon_collector_lifecycle_events_total",
                help="BUU begin/commit events offered and not shed: "
                     "journaled, elided with their BUU, or still parked",
            )
            metrics.gauge_fn(
                "rushmon_collector_lifecycle_elided_total",
                lambda: float(self.lifecycle.elided),
                help="offered begin/commit events never journaled: their "
                     "BUU committed without an operation on a sampled "
                     "item, or a full journal shed the parked begin "
                     "(counted by the journal's elided records)",
            )
            metrics.gauge_fn(
                "rushmon_collector_lifecycle_parked",
                lambda: float(self.lifecycle.num_parked),
                help="BUUs whose begin is held back until their first "
                     "operation on a sampled item (or their commit)",
            )
            self._m_lock_wait = metrics.counter(
                "rushmon_collector_lock_wait_seconds_total",
                help="cumulative time producer threads spent waiting on "
                     "shard locks",
            )
            metrics.gauge_fn(
                "rushmon_collector_journal_depth",
                lambda: float(sum(len(s.journal) for s in self._shards)),
                help="records currently buffered across all shard journals "
                     "(sampled ops, lifecycle events and run-length counts "
                     "of elided ops; every op when a trace is recorded)",
            )
            metrics.gauge_fn(
                "rushmon_collector_journal_depth_highwater",
                lambda: float(
                    max(s.journal_highwater for s in self._shards)
                ),
                help="deepest any shard journal has grown between drains, "
                     "in records (an elided run is one record)",
            )
            metrics.gauge_fn(
                "rushmon_collector_journal_fill_ratio",
                self._fill_ratio,
                help="buffered events / journal capacity (0 when unbounded)"
                     " — the journal-depth watermark",
            )
            metrics.gauge_fn(
                "rushmon_collector_journal_shed_total",
                lambda: float(self.shed_events),
                help="events dropped whole by the 'shed' overflow policy "
                     "(never acknowledged, so estimates stay honest)",
            )
            metrics.gauge_fn(
                "rushmon_collector_journal_shed_sampled_total",
                lambda: float(self.shed_sampled_events),
                help="shed events that were on sampled items (would have "
                     "contributed bookkeeping)",
            )
            metrics.gauge_fn(
                "rushmon_collector_backpressure_wait_seconds_total",
                lambda: float(
                    sum(s.blocked_seconds for s in self._shards)
                ),
                help="cumulative time producers spent blocked on a full "
                     "journal ('block' overflow policy)",
            )
            metrics.gauge_fn(
                "rushmon_collector_backpressure_timeouts_total",
                lambda: float(sum(s.block_timeouts for s in self._shards)),
                help="producer waits that exceeded block_timeout and "
                     "raised JournalBackpressure",
            )
            metrics.gauge_fn(
                "rushmon_collector_effective_sampling_rate",
                lambda: float(
                    self.sampler.sampling_rate * (1 << self._degrade_shift)
                ),
                help="configured sr times the degrade-policy multiplier",
            )
            metrics.gauge_fn(
                "rushmon_collector_degrade_shifts_total",
                lambda: float(self._degrade_shifts_total),
                help="times the degrade policy changed the effective "
                     "sampling rate (up or down)",
            )
            metrics.gauge_fn(
                "rushmon_collector_sampled_hit_rate",
                self._hit_rate,
                help="fraction of handled operations on sampled items",
            )
        else:
            self._m_ops = None
            self._m_sampled = None
            self._m_edges = None
            self._m_lifecycle = None
            self._m_lock_wait = None

    def _hit_rate(self) -> float:
        seen = self.ops_seen
        return (self.touches / seen) if seen else 0.0

    @property
    def journal_depth(self) -> int:
        """Records currently buffered across every shard journal —
        the instantaneous backlog the next detection pass will drain."""
        return sum(len(s.journal) for s in self._shards)

    def _fill_ratio(self) -> float:
        if self.journal_capacity is None:
            return 0.0
        return self.journal_depth / self.journal_capacity

    # -- partitioning --------------------------------------------------------

    def shard_index(self, key: Key) -> int:
        """The shard owning ``key``.

        Delegates to :func:`repro.core.frontier.key_partition` — the one
        process-stable placement digest, shared with the cluster router
        so "which shard owns this key" has exactly one answer whether
        the shard lives behind a lock in this process or behind a socket
        in a worker process.  (Checkpoints also rely on the stability:
        item bookkeeping is stored per shard, and a restore in a new
        process must look keys up in the same buckets.)
        """
        return key_partition(key, self.num_shards, self._shard_mask)

    # -- sampling (base sample x degrade filter) ------------------------------

    def _chosen(self, key: Key) -> bool:
        if not self.sampler.chosen(key):
            return False
        shift = self._degrade_shift
        if shift == 0:
            return True
        # Process-stable for the same reason as shard_index: the degrade
        # filter's membership must survive checkpoint/restore.
        digest = zlib.crc32(repr(key).encode())
        mixed = _splitmix64(digest ^ _DEGRADE_SALT)
        return mixed % (1 << shift) == 0

    def _per_event(self) -> bool:
        """True while events must be decided one at a time: injection
        points fire per event, a bounded journal applies its overflow
        policy per record (a ``"block"`` producer must never wait for a
        drain while sitting on a shard lock for a whole batch), and the
        degrade filter drops item state per operation."""
        return (self._faults is not None
                or self._shard_capacity is not None
                or bool(self._degrade_shift))

    def prefilter(self) -> Callable[[Key], bool] | None:
        """The predicate ``key -> chosen?`` a caller may apply to
        operations *before* building or handing over anything for them —
        or ``None`` when leaving an operation out early would be unsound.

        With it, a caller passes :meth:`handle_batch` only the
        operations on chosen keys plus the number it left out as
        ``elided``; :meth:`handle_batch` applies the same predicate to
        sequences nobody filtered.  It is ``None`` when the journal must
        hold every operation (no ``journal_sampled_only``: a recorded
        trace is re-sampled by its replay), when every item is chosen
        (``sampling_rate == 1``), and while events are decided one at a
        time (:meth:`_per_event`: armed faults, a bounded journal, a
        degrade shift — whose per-event consumed offsets and secondary
        filter need every operation to arrive)."""
        if self.lifecycle.engaged and not self._per_event():
            return self.lifecycle.lookup
        return None

    # -- overflow handling (caller holds the shard lock) -----------------------

    def _resolve_overflow(self, shard: _Shard, sampled_hint: bool) -> bool:
        """Apply the overflow policy to one arriving event whose shard
        journal is full.  Returns True if the caller may proceed to
        bookkeep + journal the event, False if the event was shed."""
        if self.overflow == "shed":
            shard.shed += 1
            if sampled_hint:
                shard.shed_sampled += 1
            return False
        if self.overflow == "degrade":
            self._escalate_degrade()
            return True  # soft limit: journal it anyway
        # "block": wait for a drain to make room, bounded by the timeout.
        assert self._shard_capacity is not None
        start = time.monotonic()
        deadline = start + self.block_timeout
        while len(shard.journal) >= self._shard_capacity:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                shard.blocked_seconds += time.monotonic() - start
                shard.block_timeouts += 1
                raise JournalBackpressure(
                    f"shard journal stayed full ({self._shard_capacity} "
                    f"events) for {self.block_timeout}s — the detection "
                    f"thread is not draining; raise journal_capacity, "
                    f"lower detect_interval, or use the 'shed'/'degrade' "
                    f"overflow policy"
                )
            shard.not_full.wait(remaining)
        shard.blocked_seconds += time.monotonic() - start
        return True

    def _escalate_degrade(self) -> None:
        """Halve the kept-item fraction (at most once per drain epoch,
        so a burst of overflowing producers escalates one step)."""
        with self._degrade_lock:
            if self._shifted_this_epoch:
                return
            self._shifted_this_epoch = True
            self._degrade_shift += 1
            self._degrade_shifts_total += 1

    def _maybe_recover_degrade(self, drained: int) -> None:
        """Called by drains: step the shift back once load fell to under
        half the capacity (and reopen the once-per-epoch escalation)."""
        with self._degrade_lock:
            self._shifted_this_epoch = False
            if (
                self._degrade_shift > 0
                and self.journal_capacity is not None
                and drained < self.journal_capacity // 2
            ):
                self._degrade_shift -= 1
                self._degrade_shifts_total += 1

    # -- ingestion (any thread) ----------------------------------------------

    def handle(self, op: Operation) -> list[Edge]:
        """Bookkeep one operation under its shard's lock; returns the
        derived edges (empty if the item was not sampled, or if the
        event was shed by the overflow policy — a shed operation is
        *not acknowledged*: no bookkeeping, no journal entry)."""
        if self._faults is not None:
            self._apply_fault("collector.handle")
        chosen = self._chosen(op.key)
        if chosen and self.lifecycle.num_parked:
            self.lifecycle.promote((op,), self._journal_lifecycle)
        shard = self._shards[self.shard_index(op.key)]
        lock_wait = self._m_lock_wait
        if lock_wait is not None:
            waited = time.perf_counter()
            shard.lock.acquire()
            lock_wait.inc(time.perf_counter() - waited)
        else:
            shard.lock.acquire()
        try:
            journaled = self._journal and (chosen or not self._elide)
            if (
                journaled
                and self._shard_capacity is not None
                and len(shard.journal) >= self._shard_capacity
                and not self._resolve_overflow(shard, chosen)
            ):
                return []
            shard.ops_seen += 1
            if chosen:
                edges = shard.state.handle(op)
            else:
                edges = []
                if self._degrade_shift:
                    # The degrade filter may have excluded an item that
                    # was being tracked; drop its state so a later
                    # re-inclusion warms up cleanly instead of deriving
                    # edges from a stale lastWrite.
                    shard.state.drop_item(op.key)
            if journaled:
                shard.journal.append(next(self._ticket), EV_OP, op, edges)
                depth = len(shard.journal)
                if depth > shard.journal_highwater:
                    shard.journal_highwater = depth
            elif self._elide:
                self._journal_elided(shard, 1)
        finally:
            shard.lock.release()
        # Counter cells are per-thread, so these need no lock and can
        # run after the shard lock is released.
        if self._m_ops is not None:
            self._m_ops.inc()
            if chosen:
                self._m_sampled.inc()  # type: ignore[union-attr]
            if edges:
                self._m_edges.inc(len(edges))  # type: ignore[union-attr]
        return edges

    def _journal_elided(self, shard: _Shard, count: int) -> None:
        """Record ``count`` operations left out of the journal (caller
        holds ``shard.lock`` and has added them to ``ops_seen``): the
        shard's trailing ``EV_ELIDED`` record grows in place, or a new
        one is ticketed — so a per-op stream of unsampled operations
        costs one record per drain, not one per op."""
        journal = shard.journal
        if journal.kinds and journal.kinds[-1] == EV_ELIDED:
            journal.payloads[-1] += count
            return
        journal.append(next(self._ticket), EV_ELIDED, count, None)
        depth = len(journal)
        if depth > shard.journal_highwater:
            shard.journal_highwater = depth

    def handle_all(self, ops: Iterable[Operation]) -> list[Edge]:
        edges: list[Edge] = []
        for op in ops:
            edges.extend(self.handle(op))
        return edges

    def handle_batch(self, ops: Iterable[Operation],
                     chunk: int | None = None,
                     elided: int = 0) -> list[Edge]:
        """Batched ingest: group the operations by owning shard and
        acquire each shard's lock **once per batch** instead of once per
        operation (``chunk`` caps how many operations one such round of
        lock holds may bookkeep; longer input takes several rounds).

        Returned edges are grouped by shard (a key lives in exactly one
        shard, so per-key order — the only order bookkeeping depends on
        — is preserved); aggregate counts, journal contents and RNG
        draws are identical to per-op :meth:`handle`.  Journal tickets
        for a shard's group are drawn under that shard's lock, so the
        drain's complete-prefix guarantee holds unchanged.

        When :meth:`prefilter` allows it, the whole input is filtered
        through that predicate first — before grouping, chunking and any
        lock — and only the chosen operations go further; the rest are
        counted by one ``EV_ELIDED`` record.  ``elided`` is how many
        operations the caller already left out with the same predicate
        (the server does, while decoding a frame): they join that count,
        so every total keeps meaning *every operation offered*.  The
        filter is the gate's ``admit``: parked begins are journaled first.

        Falls back to the per-op path while :meth:`_per_event` holds —
        those features make per-event decisions (injection points,
        overflow policy, item drops) that must not be coarsened.
        """
        if not isinstance(ops, (list, tuple)):
            ops = list(ops)
        chosen = self.prefilter()
        if elided and chosen is None:
            raise ValueError(
                "handle_batch(elided=...) needs prefilter() to allow "
                "eliding; this collector must see every operation")
        if chosen is None and self._per_event():
            out: list[Edge] = []
            handle = self.handle
            for op in ops:
                out.extend(handle(op))
            return out
        offered = len(ops) + elided
        head = ops[0] if ops else None
        all_chosen = self.sampler.sampling_rate == 1
        if chosen is not None:
            ops = self.lifecycle.admit(ops, self._journal_lifecycle)
            elided = offered - len(ops)
            all_chosen = True
        out = []
        sampled = 0
        if not ops:
            if elided:
                # No lock to share: take the first offered operation's
                # (shard 0 when the caller left every one out).
                shard = self._shards[
                    0 if head is None else self.shard_index(head.key)]
                with shard.lock:
                    shard.ops_seen += elided
                    self._journal_elided(shard, elided)
        elif chunk is None or len(ops) <= chunk:
            sampled = self._handle_grouped(ops, out, all_chosen, elided)
        else:
            for start in range(0, len(ops), chunk):
                sampled += self._handle_grouped(ops[start:start + chunk],
                                                out, all_chosen, elided)
                elided = 0
        if self._m_ops is not None:
            self._m_ops.inc(offered)
            if sampled:
                self._m_sampled.inc(sampled)  # type: ignore[union-attr]
            if out:
                self._m_edges.inc(len(out))  # type: ignore[union-attr]
        return out

    def _handle_grouped(self, ops: Sequence[Operation], out: list[Edge],
                        all_chosen: bool, elided: int) -> int:
        """One round of :meth:`handle_batch`: ``ops`` grouped by shard,
        each group bookkept (and journaled) under one hold of its
        shard's lock; ``elided`` is counted under the first lock taken.
        Appends the derived edges to ``out`` and returns how many
        operations hit a sampled item."""
        num = self.num_shards
        if num == 1:
            groups: list = [ops]
        else:
            sidx = self.shard_index
            groups = [[] for _ in range(num)]
            for op in ops:
                groups[sidx(op.key)].append(op)
        journaling = self._journal
        chosen = self.sampler.chosen
        ticket = self._ticket
        lock_wait = self._m_lock_wait
        sampled = 0
        for i, group in enumerate(groups):
            if not group:
                continue
            shard = self._shards[i]
            if lock_wait is not None:
                waited = time.perf_counter()
                shard.lock.acquire()
                lock_wait.inc(time.perf_counter() - waited)
            else:
                shard.lock.acquire()
            try:
                shard.ops_seen += len(group) + elided
                state = shard.state
                if journaling:
                    # The journal needs each op's own edge list, so the
                    # shard state is fed per op; the batch still saves
                    # the lock churn and appends the journal arrays in
                    # four C-level extends.
                    handle_one = state.handle
                    extras = []
                    ex_append = extras.append
                    for op in group:
                        if all_chosen or chosen(op.key):
                            edges = handle_one(op)
                            sampled += 1
                            if edges:
                                out.extend(edges)
                            ex_append(edges)
                        else:
                            ex_append(_NO_EDGES)
                    j = shard.journal
                    j.tickets.extend(itertools.islice(ticket, len(group)))
                    j.kinds.extend([EV_OP] * len(group))
                    j.payloads.extend(group)
                    j.extras.extend(extras)
                    if elided:
                        self._journal_elided(shard, elided)
                    depth = len(j)
                    if depth > shard.journal_highwater:
                        shard.journal_highwater = depth
                else:
                    if all_chosen:
                        picked = group
                    else:
                        picked = [op for op in group if chosen(op.key)]
                    sampled += len(picked)
                    if picked:
                        out.extend(state.handle_batch(picked))
                elided = 0
            finally:
                shard.lock.release()
        return sampled

    def _journal_lifecycle(self, buu: int, time: int,
                           kind: str = EV_BEGIN) -> bool:
        """Append one lifecycle record, routed by BUU id so its ticket
        is assigned under some shard lock (placement only affects
        contention, never counts), under the capacity policy of
        journaled operations; ``False`` when the event was shed —
        dropped whole.  The admission gate's ``deliver(buu, start)``."""
        shard = self._shards[
            key_partition(buu, self.num_shards, self._shard_mask)]
        with shard.lock:
            if (
                self._shard_capacity is not None
                and len(shard.journal) >= self._shard_capacity
                and not self._resolve_overflow(shard, False)
            ):
                return False
            shard.journal.append(next(self._ticket), kind, buu, time)
            depth = len(shard.journal)
            if depth > shard.journal_highwater:
                shard.journal_highwater = depth
        return True

    def record_lifecycle(self, kind: str, buu: int, time: int) -> None:
        """Offer a BUU ``begin``/``commit`` event to the admission gate:
        a begin the sample may yet exclude is parked, the commit of a
        BUU still parked is dropped with it; any other is journaled,
        under the capacity policy (if shed, not counted as offered)."""
        if not self._journal:
            return
        gate = self.lifecycle
        held = False
        if gate.engaged:
            with gate.lock:
                held = (gate.begin if kind == EV_BEGIN else gate.commit)(
                    buu, time)
        if not held and not self._journal_lifecycle(buu, time, kind):
            return
        if self._m_lifecycle is not None:
            self._m_lifecycle.inc()

    def record_lifecycle_run(self, kind: str, buus: Sequence[int],
                             times: Sequence[int]) -> None:
        """Offer a run of same-``kind`` lifecycle events, with the
        tickets, order and records of calling :meth:`record_lifecycle`
        once per event — which is what a bounded journal still gets (its
        overflow policy is per record).  Otherwise the gate takes the
        run under one hold of its lock and what it says to deliver goes
        in as one append: one shard lock hold (the first BUU's shard),
        one slice of tickets."""
        if not self._journal or not buus:
            return
        if self._per_event():
            for buu, when in zip(buus, times):
                self.record_lifecycle(kind, buu, when)
            return
        offered = len(buus)
        buus, times = self.lifecycle.run(kind == EV_BEGIN, buus, times)
        if buus:
            shard = self._shards[
                key_partition(buus[0], self.num_shards, self._shard_mask)]
            count = len(buus)
            with shard.lock:
                j = shard.journal
                j.tickets.extend(itertools.islice(self._ticket, count))
                j.kinds.extend([kind] * count)
                j.payloads.extend(buus)
                j.extras.extend(times)
                depth = len(j)
                if depth > shard.journal_highwater:
                    shard.journal_highwater = depth
        if self._m_lifecycle is not None:
            self._m_lifecycle.inc(offered)

    # -- journal draining (detection thread) ----------------------------------

    def drain_journal(self) -> list[tuple]:
        """Swap out all shard journals and return their events merged by
        ticket — a complete prefix of the serialized execution.

        Tickets are only issued while holding a shard lock, so acquiring
        every shard lock (briefly — the swap is a pointer exchange)
        guarantees no ticket issued so far is still in flight.  Blocked
        producers are woken (the swap empties every buffer).

        Lifecycle events elided since the previous drain (module
        docstring) close the batch as one ``(ticket, EV_ELIDED, 0,
        count)`` record, ticketed under the same hold of every lock.
        """
        fault = None
        if self._faults is not None:
            fault = self._apply_fault("journal.drain",
                                      defer=("partial_drain",))
        for shard in self._shards:
            shard.lock.acquire()
        try:
            # The swap is four pointer exchanges per shard; event tuples
            # materialize below, after every lock is released.
            arrays = [shard.journal.swap_arrays() for shard in self._shards]
            for shard in self._shards:
                shard.not_full.notify_all()
            elided = self.lifecycle.elided - self._lifecycle_drained
            if elided:
                self._lifecycle_drained += elided
                elided_ticket = next(self._ticket)
        finally:
            for shard in reversed(self._shards):
                shard.lock.release()
        batches = [list(zip(*a)) for a in arrays if a[0]]
        # Each batch is ticket-sorted (appended in issue order under the
        # lock); tickets are unique, so the merge is a total order.
        merged = list(heapq.merge(*batches))
        self._maybe_recover_degrade(len(merged))
        if elided:
            merged.append((elided_ticket, EV_ELIDED, 0, elided))
        if fault is not None and fault.kind == "partial_drain":
            keep = int(len(merged) * fault.fraction)
            self.requeue(merged[keep:])
            merged = merged[:keep]
        return merged

    def requeue(self, events: list[tuple]) -> None:
        """Put already-drained events (an ascending-ticket suffix) back
        at the *front* of the journal, to be re-drained next pass.

        Used by the service's crash-safe detection pass (events a failed
        pass did not consume) and by partial drains.  Correctness: every
        ticket in ``events`` was issued before any event currently
        buffered, so prepending preserves per-shard ticket order.
        Capacity is intentionally ignored — losing drained events to
        backpressure would break the no-acknowledged-loss guarantee.
        """
        if not events:
            return
        shard = self._shards[0]
        with shard.lock:
            shard.journal.prepend(events)
            depth = len(shard.journal)
            if depth > shard.journal_highwater:
                shard.journal_highwater = depth

    def _apply_fault(self, point: str, defer: tuple = ()):
        """Fire an injection point; applies exception/delay kinds
        inline, returns the fault for kinds the call site handles."""
        fault = self._faults.fire(point)
        if fault is None or fault.kind in defer:
            return fault
        if fault.kind == "delay":
            time.sleep(fault.delay)
            return None
        raise fault.exc_factory()

    # -- checkpoint support ----------------------------------------------------

    def snapshot_state(self) -> dict:
        """A consistent, JSON-friendly snapshot of every shard's
        bookkeeping *and* the not-yet-drained journal events, taken
        under all shard locks (so it is a prefix-consistent cut of the
        ticket order).  Keys must be JSON-serializable (str/int — what
        every workload in this repository uses)."""
        self.lifecycle.lock.acquire()
        for shard in self._shards:
            shard.lock.acquire()
        try:
            # Burning one ticket yields a value strictly greater than
            # every ticket issued so far — the restart point.
            next_ticket = next(self._ticket)
            lifecycle = {**self.lifecycle.to_state(),
                         "drained": self._lifecycle_drained}
            shards = [
                {
                    "ops_seen": shard.ops_seen,
                    "journal_highwater": shard.journal_highwater,
                    "shed": shard.shed,
                    "shed_sampled": shard.shed_sampled,
                    "state": shard.state.to_state(),
                    "journal": [
                        _encode_event(e) for e in shard.journal.events()
                    ],
                }
                for shard in self._shards
            ]
        finally:
            for shard in reversed(self._shards):
                shard.lock.release()
            self.lifecycle.lock.release()
        with self._degrade_lock:
            shift = self._degrade_shift
            shifts_total = self._degrade_shifts_total
        return {
            "num_shards": self.num_shards,
            "next_ticket": next_ticket,
            "sampler": self.sampler.to_state(),
            "degrade_shift": shift,
            "degrade_shifts_total": shifts_total,
            "lifecycle": lifecycle,
            "shards": shards,
        }

    def restore_state(self, state: dict,
                      known: Iterable[int] = ()) -> None:
        """Load a :meth:`snapshot_state` payload into this (freshly
        constructed, identically sharded) collector.  ``known`` names
        the BUUs the restored consumer has already heard of (the
        detector's alive and committed ones): with those of the pending
        journal's lifecycle records they are the ids whose next begin
        must not be parked (:class:`SampledLifecycle`)."""
        if state["num_shards"] != self.num_shards:
            raise ValueError(
                f"checkpoint has {state['num_shards']} shards, "
                f"collector has {self.num_shards}"
            )
        self._ticket = itertools.count(state["next_ticket"])
        self.sampler.load_state(state["sampler"])
        with self._degrade_lock:
            self._degrade_shift = state["degrade_shift"]
            self._degrade_shifts_total = state["degrade_shifts_total"]
        named = set(known)
        for shard, payload in zip(self._shards, state["shards"]):
            with shard.lock:
                shard.ops_seen = payload["ops_seen"]
                shard.journal_highwater = payload["journal_highwater"]
                shard.shed = payload["shed"]
                shard.shed_sampled = payload["shed_sampled"]
                shard.state.load_state(payload["state"])
                journal = ShardJournal()
                for record in payload["journal"]:
                    journal.append(*_decode_event(record))
                shard.journal = journal
                named.update(
                    buu for kind, buu in zip(journal.kinds, journal.payloads)
                    if kind == EV_BEGIN or kind == EV_COMMIT)
        # .get(): documents written before begins were parked.
        lifecycle = state.get("lifecycle",
                              {"parked": (), "elided": 0, "drained": 0})
        self.lifecycle.load_state(lifecycle, named)
        self._lifecycle_drained = lifecycle["drained"]

    # -- aggregate views ------------------------------------------------------

    @property
    def sampling_rate(self) -> int:
        return self.sampler.sampling_rate

    @property
    def sampling_probability(self) -> float:
        """Effective per-item inclusion probability: the base sample
        times the degrade-policy multiplier (1 until a shift happens)."""
        return self.sampler.probability / (1 << self._degrade_shift)

    @property
    def degrade_shift(self) -> int:
        """Current degrade level (kept fraction is 1/2**shift)."""
        return self._degrade_shift

    @property
    def degrade_shifts_total(self) -> int:
        """Lifetime number of effective-sampling-rate switches."""
        return self._degrade_shifts_total

    @property
    def shed_events(self) -> int:
        """Events dropped whole by the 'shed' overflow policy."""
        return sum(shard.shed for shard in self._shards)

    @property
    def shed_sampled_events(self) -> int:
        return sum(shard.shed_sampled for shard in self._shards)

    @property
    def ops_seen(self) -> int:
        return sum(shard.ops_seen for shard in self._shards)

    @property
    def stats(self) -> EdgeStats:
        total = EdgeStats()
        for shard in self._shards:
            total.add(shard.state.stats)
        return total

    @property
    def touches(self) -> int:
        return sum(shard.state.touches for shard in self._shards)

    @property
    def total_reads(self) -> int:
        return sum(shard.state.total_reads for shard in self._shards)

    @property
    def discarded_reads(self) -> int:
        return sum(shard.state.discarded_reads for shard in self._shards)

    @property
    def discard_ratio(self) -> float:
        reads = self.total_reads
        if reads == 0:
            return 0.0
        return self.discarded_reads / reads

    def merged(self) -> CollectorShard:
        """A fresh :class:`CollectorShard` holding the associative merge
        of every shard's state (counters add, item tables union)."""
        combined = CollectorShard()
        for shard in self._shards:
            combined.merge(shard.state)
        return combined
