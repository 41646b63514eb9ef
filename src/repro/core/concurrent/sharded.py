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

The optional *journal* records every operation with its edges and a
globally unique, monotonically increasing ticket, assigned while the
shard lock is held.  :meth:`drain_journal` briefly acquires **all**
shard locks, swaps the journal buffers out and merges them by ticket:
because tickets are only issued under a shard lock, holding every lock
guarantees the drained batch is a complete prefix of the ticket
sequence — the serialized trace of the concurrent execution.

:class:`~repro.core.concurrent.RushMonService` does not collect here: its
producers only journal, and its detection pass collects in ticket order
(:mod:`repro.core.concurrent.journaled`).  This collector is what a
caller that wants its edges back on the producing thread uses.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from typing import Iterable, Sequence

from repro.core.collector import CollectorShard, ItemSampler
from repro.core.frontier import key_partition
from repro.core.types import Edge, EdgeStats, Key, Operation

#: The journal's one record kind: ``(ticket, EV_OP, op, edges)``.
EV_OP = "op"


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


class _Shard:
    """One lock-protected partition: bookkeeping state + journal buffer."""

    __slots__ = ("lock", "state", "journal", "ops_seen")

    def __init__(self, state: CollectorShard) -> None:
        self.lock = threading.Lock()
        self.state = state
        self.journal = ShardJournal()
        self.ops_seen = 0


class ShardedCollector:
    """Thread-safe data-centric collector over key-hash shards.

    Parameters mirror :class:`~repro.core.collector.DataCentricCollector`
    (``sampling_rate``, ``mob``, ``mob_slots``, ``items``, ``seed``) plus:

    num_shards:
        Number of key-hash partitions (= maximum write parallelism).
    journal:
        Record a ticket-ordered journal of every operation and its edges
        (see module docstring).  Off by default: a standalone sharded
        collector returns edges to the caller and keeps no history.
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
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
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
                                  seed ^ 0x5EED ^ (i * 0x9E37)))
            for i in range(num_shards)
        ]
        self._ticket = itertools.count()
        self._journal = journal

    # -- partitioning --------------------------------------------------------

    def shard_index(self, key: Key) -> int:
        """The shard owning ``key``.

        Delegates to :func:`repro.core.frontier.key_partition` — the one
        process-stable placement digest, shared with the cluster router
        so "which shard owns this key" has exactly one answer whether
        the shard lives behind a lock in this process or behind a socket
        in a worker process.
        """
        return key_partition(key, self.num_shards, self._shard_mask)

    # -- ingestion (any thread) ----------------------------------------------

    def handle(self, op: Operation) -> list[Edge]:
        """Bookkeep one operation under its shard's lock; returns the
        derived edges (empty if the item was not sampled)."""
        chosen = self.sampler.chosen(op.key)
        shard = self._shards[self.shard_index(op.key)]
        with shard.lock:
            shard.ops_seen += 1
            edges = shard.state.handle(op) if chosen else []
            if self._journal:
                shard.journal.append(next(self._ticket), EV_OP, op, edges)
        return edges

    def handle_all(self, ops: Iterable[Operation]) -> list[Edge]:
        edges: list[Edge] = []
        for op in ops:
            edges.extend(self.handle(op))
        return edges

    def handle_batch(self, ops: Iterable[Operation],
                     chunk: int | None = None) -> list[Edge]:
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
        """
        if not isinstance(ops, (list, tuple)):
            ops = list(ops)
        out: list[Edge] = []
        if chunk is None or len(ops) <= chunk:
            self._handle_grouped(ops, out)
        else:
            for start in range(0, len(ops), chunk):
                self._handle_grouped(ops[start:start + chunk], out)
        return out

    def _handle_grouped(self, ops: Sequence[Operation],
                        out: list[Edge]) -> None:
        """One round of :meth:`handle_batch`: ``ops`` grouped by shard,
        each group bookkept (and journaled) under one hold of its
        shard's lock, appending the derived edges to ``out``."""
        num = self.num_shards
        if num == 1:
            groups: list = [ops]
        else:
            sidx = self.shard_index
            groups = [[] for _ in range(num)]
            for op in ops:
                groups[sidx(op.key)].append(op)
        all_chosen = self.sampler.sampling_rate == 1
        chosen = self.sampler.chosen
        for i, group in enumerate(groups):
            if not group:
                continue
            shard = self._shards[i]
            with shard.lock:
                shard.ops_seen += len(group)
                state = shard.state
                if self._journal:
                    # The journal needs each op's own edge list, so the
                    # shard state is fed per op; the batch still saves
                    # the lock churn and appends the journal arrays in
                    # four C-level extends.
                    handle_one = state.handle
                    extras = []
                    for op in group:
                        edges: Sequence[Edge] = ()
                        if all_chosen or chosen(op.key):
                            edges = handle_one(op)
                            out.extend(edges)
                        extras.append(edges)
                    j = shard.journal
                    j.tickets.extend(itertools.islice(self._ticket,
                                                      len(group)))
                    j.kinds.extend([EV_OP] * len(group))
                    j.payloads.extend(group)
                    j.extras.extend(extras)
                else:
                    picked = group if all_chosen else [
                        op for op in group if chosen(op.key)]
                    if picked:
                        out.extend(state.handle_batch(picked))

    # -- journal draining ------------------------------------------------------

    def drain_journal(self) -> list[tuple]:
        """Swap out all shard journals and return their events merged by
        ticket — a complete prefix of the serialized execution.

        Tickets are only issued while holding a shard lock, so acquiring
        every shard lock (briefly — the swap is a pointer exchange)
        guarantees no ticket issued so far is still in flight.
        """
        for shard in self._shards:
            shard.lock.acquire()
        try:
            arrays = [shard.journal.swap_arrays() for shard in self._shards]
        finally:
            for shard in reversed(self._shards):
                shard.lock.release()
        # Each batch is ticket-sorted (appended in issue order under the
        # lock); tickets are unique, so the merge is a total order.
        return list(heapq.merge(*(list(zip(*a)) for a in arrays if a[0])))

    # -- aggregate views ------------------------------------------------------

    @property
    def sampling_rate(self) -> int:
        return self.sampler.sampling_rate

    @property
    def sampling_probability(self) -> float:
        return self.sampler.probability

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
        of every shard's state (counters add, item tables union), with
        the shards' ``mob`` and ``mob_slots``."""
        first = self._shards[0].state
        combined = CollectorShard(first.mob, first.mob_slots)
        for shard in self._shards:
            combined.merge(shard.state)
        return combined
