"""Record collectors: from operation streams to dependency-graph edges.

Three collectors, matching the paper's comparison (Fig 18):

- :class:`BaselineCollector` ("US", unsampled) — Algorithm 1.  Full
  per-item bookkeeping (``lastWrite`` + a ``readIDs`` set), every edge
  reported.
- :class:`EdgeSamplingCollector` ("ES") — the strawman of Section 4.2.
  Identical full bookkeeping, but each derived edge is kept with
  probability ``1/sr``.  The point the paper makes — and this class
  demonstrates — is that ES pays the same bookkeeping cost as US.
- :class:`DataCentricCollector` ("DCS") — Section 5: data items are
  sampled up front with probability ``p = 1/sr`` and only sampled items
  pay any bookkeeping.  Optionally uses memory-optimized bookkeeping
  (MOB, Algorithm 2): a single reservoir-sampled read slot replaces the
  ``readIDs`` set, and ``ww`` edges are discarded at the observed
  read-discard ratio to keep edge-type proportions calibrated (§5.2).

Collectors expose ``touches`` — the number of operations that actually
performed bookkeeping — as a machine-independent overhead proxy; the
benches additionally measure wall time.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from repro.core.types import (
    BuuId,
    Edge,
    EdgeColumns,
    EdgeStats,
    EdgeType,
    Key,
    Operation,
    OpType,
)

#: An operation's item.  The sample filters here and in the journal
#: ``compress`` the operations by the sampler's memo probed through it:
#: one C-level pass, no Python frame per operation.
_KEY = itemgetter(2)


@dataclass(slots=True)
class _FullItemState:
    """Per-item auxiliary state for Algorithm 1 (baseline / ES)."""

    last_write: BuuId | None = None
    read_ids: set[BuuId] = field(default_factory=set)


@dataclass(slots=True)
class _MobItemState:
    """Per-item auxiliary state for Algorithm 2 (MOB): a fixed-length
    read array (the paper sizes it by the expected ~2 reads between
    consecutive writes, §5.2) plus the running read count."""

    last_write: BuuId | None = None
    reads: list[BuuId] = field(default_factory=list)
    count: int = 0


class Collector:
    """Base interface: feed operations in visibility order, get edges out."""

    def __init__(self) -> None:
        self.stats = EdgeStats()
        self.touches = 0
        self.ops_seen = 0

    def handle(self, op: Operation) -> list[Edge]:
        raise NotImplementedError

    def handle_all(self, ops: Iterable[Operation]) -> list[Edge]:
        edges: list[Edge] = []
        for op in ops:
            edges.extend(self.handle(op))
        return edges

    def handle_batch(self, ops: Iterable[Operation]) -> list[Edge] | EdgeColumns:
        """Batched :meth:`handle`: feed an iterable of operations, return
        their edges in order.

        This loop over the per-op reference is what the baseline and
        edge-sampling collectors run, returning a ``list[Edge]``;
        :class:`DataCentricCollector` overrides it with a fused loop
        that returns an :class:`~repro.core.types.EdgeColumns` and is
        bit-identical to per-op handling — same edges, counters, and RNG
        draw order — as enforced by the batch-equivalence test suite.
        """
        return self.handle_all(ops)

    @property
    def sampling_probability(self) -> float:
        """Probability that any given edge survives collection (for the
        estimator).  1.0 for the unsampled baseline."""
        return 1.0

    def _emit(self, src: BuuId | None, dst: BuuId, kind: EdgeType, op: Operation,
              out: list[Edge]) -> None:
        """Append an edge unless it is degenerate (no source / self-edge)."""
        if src is None or src == dst:
            return
        self.stats.record(kind)
        out.append(Edge(src, dst, kind, op.key, op.seq))


class BaselineCollector(Collector):
    """Algorithm 1: exact, unsampled edge collection ("US")."""

    def __init__(self) -> None:
        super().__init__()
        self._items: dict[Key, _FullItemState] = {}

    def handle(self, op: Operation) -> list[Edge]:
        self.ops_seen += 1
        self.touches += 1
        state = self._items.get(op.key)
        if state is None:
            state = _FullItemState()
            self._items[op.key] = state
        out: list[Edge] = []
        if op.is_read():
            self._emit(state.last_write, op.buu, EdgeType.WR, op, out)
            state.read_ids.add(op.buu)
        else:
            if not state.read_ids:
                self._emit(state.last_write, op.buu, EdgeType.WW, op, out)
            else:
                for reader in state.read_ids:
                    self._emit(reader, op.buu, EdgeType.RW, op, out)
            state.read_ids.clear()
            state.last_write = op.buu
        return out


class EdgeSamplingCollector(BaselineCollector):
    """Section 4.2's strawman: uniform per-edge sampling ("ES").

    Bookkeeping is *identical* to the baseline — the coin is tossed only
    once the (later) operation reveals the edge, by which time the earlier
    operation's information already had to be recorded.  ``touches``
    therefore equals the baseline's, which is the paper's argument for
    why ES cannot mitigate collector overhead.
    """

    def __init__(self, sampling_rate: int, rng: random.Random | None = None) -> None:
        super().__init__()
        if sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        self.sampling_rate = sampling_rate
        self._rng = rng or random.Random(0)

    @property
    def sampling_probability(self) -> float:
        return 1.0 / self.sampling_rate

    def handle(self, op: Operation) -> list[Edge]:
        edges = super().handle(op)
        if self.sampling_rate == 1:
            return edges
        kept = [e for e in edges if self._rng.random() < self.sampling_probability]
        # stats recorded pre-sampling by the parent; rebuild post-sample
        # counts so downstream reports reflect what was actually emitted.
        for edge in edges:
            if edge not in kept:
                self._unrecord(edge.kind)
        return kept

    def _unrecord(self, kind: EdgeType) -> None:
        if kind is EdgeType.WR:
            self.stats.wr -= 1
        elif kind is EdgeType.WW:
            self.stats.ww -= 1
        else:
            self.stats.rw -= 1


_MASK64 = (1 << 64) - 1

#: Distinct keys the sampler's decision memo and the cluster router's
#: owner cache store at most; past it an answer is computed, not stored,
#: so a monitor over an unbounded key space stops growing.
KEY_CACHE_MAX = 1 << 20


def _splitmix64(x: int) -> int:
    """SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.

    The sampler must include items *independently* — Theorem 5.2's dd/ddd
    inverse weights assume distinct labels are sampled with probability
    ``p**2`` / ``p**3``.  A plain CRC is linear over GF(2) (its low bit
    across related keys is perfectly correlated, which empirically turns
    the sample into an exactly-half split and biases the estimator low),
    so every hash is passed through this non-linear finalizer.
    """
    x &= _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class _DecisionMemo(dict):
    """``key -> chosen?`` memo that computes a missing decision on first
    lookup, so a hit through ``memo[key]`` / ``memo.__getitem__`` is one
    C-level dict probe with no Python frame.  It stores at most
    :data:`KEY_CACHE_MAX` decisions.

    It carries the decision's inputs rather than calling back into its
    :class:`ItemSampler`: the sampler owns the memo, so a reference back
    would make a cycle, and every dropped sampler — holding a decision
    per key it ever saw — would wait for a full cyclic collection."""

    __slots__ = ("sampling_rate", "salt_mix", "chosen")
    sampling_rate: int
    salt_mix: int
    chosen: set[Key] | None

    def __missing__(self, key: Key) -> bool:
        if self.sampling_rate == 1:
            decision = True
        elif self.chosen is not None:
            decision = key in self.chosen
        else:
            # _splitmix64, inlined over the premixed salt.
            x = zlib.crc32(repr(key).encode()) ^ self.salt_mix
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
            x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
            decision = (x ^ (x >> 31)) % self.sampling_rate == 0
        if len(self) < KEY_CACHE_MAX:
            self[key] = decision
        return decision


class ItemSampler:
    """Deterministic membership test for the chosen-item sample (§5.1).

    Each distinct key is included with probability ``p = 1/sr``,
    *independently* across keys (a requirement of the Theorem 5.2
    estimator — see :func:`_splitmix64`).  If the item universe is known
    up front, :meth:`materialize` precomputes the chosen set for O(1)
    membership; otherwise inclusion is decided per key by a salted stable
    hash.  ``reseed`` switches to a fresh independent sample (periodic
    re-sampling, §5.1 "reducing systematic variance").

    :attr:`lookup` is the same predicate as :meth:`chosen` for callers
    that test many keys in a loop (the service's pre-journal filter, the
    server's decode): it is the decision memo's bound ``__getitem__``, so
    a key seen before costs a dict probe.  It stays valid — and is
    emptied — across ``reseed`` / ``load_state`` / ``materialize``.
    """

    def __init__(self, sampling_rate: int, seed: int = 0) -> None:
        if sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        self.sampling_rate = sampling_rate
        self._salt = seed
        self._chosen: set[Key] | None = None
        self._universe: list[Key] | None = None
        # Memo of decisions.  They are pure in (key, salt, sampling_rate,
        # materialized set), so caching never changes one; the memo is
        # emptied, and handed the new inputs, whenever any of them
        # changes (_forget).
        self._memo = _DecisionMemo()
        self._forget()
        self.lookup: Callable[[Key], bool] = self._memo.__getitem__

    @property
    def probability(self) -> float:
        return 1.0 / self.sampling_rate

    def materialize(self, universe: Iterable[Key]) -> None:
        self._universe = list(universe)
        self._resample_materialized()
        self._forget()

    def _resample_materialized(self) -> None:
        assert self._universe is not None
        if self.sampling_rate == 1:
            self._chosen = set(self._universe)
            return
        # Independent Bernoulli(p) per item — NOT a fixed-size sample,
        # which would negatively correlate inclusions and bias E2/E3 low.
        rng = random.Random(self._salt)
        p = self.probability
        self._chosen = {key for key in self._universe if rng.random() < p}

    def reseed(self, new_salt: int) -> None:
        self._salt = new_salt
        if self._universe is not None:
            self._resample_materialized()
        self._forget()

    def chosen(self, key: Key) -> bool:
        if self.sampling_rate == 1:
            return True
        return self._memo[key]

    def _forget(self) -> None:
        """Empty the memo and hand it the decision's current inputs, the
        salt mixed once: ``(digest ^ s) & mask == digest ^ (s & mask)``
        for a 32-bit ``digest``."""
        memo = self._memo
        memo.clear()
        memo.sampling_rate = self.sampling_rate
        memo.salt_mix = self._salt * 0x9E3779B97F4A7C15 & _MASK64
        memo.chosen = self._chosen

    # -- checkpoint support ----------------------------------------------------

    def to_state(self) -> dict:
        """JSON-friendly snapshot; keys must be JSON-serializable."""
        return {
            "sampling_rate": self.sampling_rate,
            "salt": self._salt,
            "universe": self._universe,
            "chosen": None if self._chosen is None else sorted(
                self._chosen, key=repr
            ),
        }

    def load_state(self, state: dict) -> None:
        self.sampling_rate = state["sampling_rate"]
        self._salt = state["salt"]
        self._universe = state["universe"]
        chosen = state["chosen"]
        self._chosen = None if chosen is None else set(chosen)
        self._forget()


class SampledLifecycle:
    """The admission gate: the sample decides which operations, and
    which BUU lifetimes, exist — decided here, once, for every front end.

    An edge only ever points at the BUU issuing the operation, so a BUU
    with no operation on a chosen item has no edge in either direction
    and the detector need never hear of it.  The record walk (behind
    ``RushMon`` and the service's detection pass) and the cluster router
    offer their begins and commits to the gate (:meth:`begin`,
    :meth:`commit`) and their operations to :meth:`admit`; they differ
    only in the *sink* a delivered event goes to (a detector, or
    per-worker buffers).  The contract:

    - **known.**  Only the begin of an id the sink never heard of is
      parked.  ``known`` holds every id whose begin or commit was
      delivered: the detector may hold such an id's commit time (edges
      *out of* a committed vertex with no row are refused, and pruners
      treat it as finished), and only a delivered begin makes the id
      alive again — so its next begin goes straight through.
    - **Unpark after deliver.**  :meth:`admit` keeps the operations on
      chosen items and hands the sink, as ``deliver(buu, start)``, the
      parked begin of each kept operation's BUU ahead of it
      (:meth:`promote`).  A begin is unparked only once the sink took
      it: a sink that raises leaves it parked.
    - **engaged**: can the sample exclude a BUU at all
      (``sampling_rate > 1`` and a sink fed only the sampled
      operations)?  The one predicate for "leaving something out is
      sound"; while false every begin is delivered as it arrives and
      nothing is remembered.
    - **Accounting.**  ``elided`` counts the begin/commit events
      dropped: *offered = delivered + elided + parked* at any instant,
      across :meth:`reset` and a restore (:meth:`load_state`, with
      ``known=``).

    The gate is single-threaded: each front end calls it from one thread
    at a time (the service from its detection pass).  ``parked`` and
    ``known`` change only in this class; the one outside reader is the
    cluster router's fused placement loop (with :meth:`unpark`).
    Soundness: DESIGN §5.
    """

    __slots__ = ("lookup", "engaged", "parked", "known", "elided")

    def __init__(self, sampler: ItemSampler, engaged: bool = True) -> None:
        self.parked: dict[BuuId, int] = {}
        self.known: set[BuuId] = set()
        self.elided = 0
        self.reset(sampler, engaged)

    def reset(self, sampler: ItemSampler, engaged: bool = True) -> None:
        """Start over for a new run under ``sampler``: BUUs still parked
        never commit, so their begins count as elided; nothing is known
        any more."""
        self.elided += len(self.parked)
        self.parked.clear()
        self.known.clear()
        self.lookup = sampler.lookup
        self.engaged = engaged and sampler.sampling_rate > 1

    @property
    def num_parked(self) -> int:
        """How many begins are parked."""
        return len(self.parked)

    def begin(self, buu: BuuId, start: int) -> bool:
        """Park ``buu``'s begin; ``False`` when the caller must deliver
        it now.  A repeated begin folds into the parked one."""
        if not self.engaged or buu in self.known:
            return False
        if buu in self.parked:
            self.elided += 1
        else:
            self.parked[buu] = start
        return True

    def commit(self, buu: BuuId) -> bool:
        """``True`` when ``buu`` is still parked: its begin and this
        commit are both dropped.  ``False``: deliver the commit."""
        if self.parked.pop(buu, None) is not None:
            self.elided += 2
            return True
        if self.engaged:
            self.known.add(buu)
        return False

    def admit(self, ops: Sequence[Operation],
              deliver: Callable[[BuuId, int], object]) -> list[Operation]:
        """The operations of ``ops`` on chosen items, after handing
        ``deliver`` the parked begin of every BUU issuing one.  ``ops``
        is a list or tuple: it is read twice, so a one-shot iterator is
        not accepted."""
        kept = list(compress(ops, map(self.lookup, map(_KEY, ops))))
        if kept and self.parked:
            self.promote(kept, deliver)
        return kept

    def promote(self, ops: Iterable[Operation],
                deliver: Callable[[BuuId, int], object]) -> None:
        """Hand ``deliver(buu, start)`` the parked begin of every BUU
        issuing one of the chosen operations ``ops``, then unpark it."""
        parked = self.parked
        for buu in [op[1] for op in ops if op[1] in parked]:
            start = parked.get(buu)
            if start is not None:  # not twice in ops
                deliver(buu, start)
                self.unpark(buu)

    def unpark(self, buu: BuuId) -> int:
        """``buu``'s parked begin is delivered: now known; its start."""
        self.known.add(buu)
        return self.parked.pop(buu)

    # -- checkpoint support ----------------------------------------------------

    def to_state(self) -> dict:
        """JSON-friendly snapshot (BUU ids must be JSON-serializable).
        ``known`` is not in it: it is what the detector's own snapshot
        and the records still on their way to it name."""
        return {
            "parked": [[buu, start] for buu, start in self.parked.items()],
            "elided": self.elided,
        }

    def load_state(self, state: dict, known: Iterable[BuuId]) -> None:
        """Inverse of :meth:`to_state`; ``known`` names every id the
        restored detector, or a lifecycle record not yet fed to it,
        has heard of."""
        self.parked = {buu: start for buu, start in state["parked"]}
        self.elided = state["elided"]
        self.known = set(known) if self.engaged else set()


class CollectorShard:
    """Mergeable per-shard bookkeeping for data-centric collection.

    One shard owns the Algorithm 1/2 per-item state (``lastWrite``,
    read set or MOB reservoir) for a disjoint subset of the key space,
    plus every counter derived from it.  A :class:`DataCentricCollector`
    drives exactly one shard, and every path collects through one: the
    serial monitor, the service's detection pass and each cluster
    worker.  They run this code, so they cannot drift.

    All state combines associatively across disjoint key ranges —
    :class:`~repro.core.types.EdgeStats` and the scalar counters add,
    item tables union (a key lives in exactly one shard), and MOB
    reservoir slots are per-item so a union preserves them — which is
    what :meth:`merge` implements (the sharded analogue of combining
    Algorithm 2 state).
    """

    def __init__(self, mob: bool = True, mob_slots: int = 2,
                 seed: int = 0) -> None:
        if mob_slots < 1:
            raise ValueError("mob_slots must be >= 1")
        self.mob = mob
        self.mob_slots = mob_slots
        # The reservoir RNG (_rng) is seeded at its first draw: a shard
        # that never draws (no MOB, or no read past a full reservoir and
        # no write on an unread item) never pays for a Mersenne Twister.
        self._seed = seed
        self._generator: random.Random | None = None
        self.stats = EdgeStats()
        self.touches = 0
        # ww-edge calibration (§5.2): ratio of reads MOB discarded.
        self.total_reads = 0
        self.discarded_reads = 0
        self._mob_items: dict[Key, _MobItemState] = {}
        self._full_items: dict[Key, _FullItemState] = {}

    @property
    def discard_ratio(self) -> float:
        """Fraction of observed reads whose rw edge MOB dropped."""
        if self.total_reads == 0:
            return 0.0
        return self.discarded_reads / self.total_reads

    @property
    def num_items(self) -> int:
        return len(self._mob_items) + len(self._full_items)

    def handle(self, op: Operation) -> list[Edge]:
        """Bookkeep one operation on an already-chosen item."""
        self.touches += 1
        return self._handle_mob(op) if self.mob else self._handle_full(op)

    def handle_batch(self, ops: Sequence[Operation]) -> EdgeColumns:
        """Fused :meth:`handle` over a sequence of already-chosen
        operations: their edges, in order, as one
        :class:`~repro.core.types.EdgeColumns`.

        Bit-identical to per-op handling: same RNG draw order (one
        reservoir/discard coin per op, in op order) and the ww discard
        coin reads the *live* discard ratio, not a batch-start snapshot.
        """
        self.touches += len(ops)
        out = EdgeColumns()
        if self.mob:
            self._handle_mob_batch(ops, out)
        else:
            self._handle_full_batch(ops, out)
        return out

    def clear_items(self) -> None:
        """Drop all per-item state (sample switches, §5.1)."""
        self._mob_items.clear()
        self._full_items.clear()

    # -- checkpoint support ----------------------------------------------------

    def to_state(self) -> dict:
        """JSON-friendly snapshot of every counter, item table and the
        MOB reservoir RNG (so a restored shard's reservoir decisions —
        and hence its sampled counts — continue deterministically): the
        seed, and the generator's state once it drew (``None`` before,
        so a shard that never drew writes no generator words).  Item
        keys and BUU ids must be JSON-serializable."""
        rng = None
        if self._generator is not None:
            version, internal, gauss_next = self._generator.getstate()
            rng = [version, list(internal), gauss_next]
        return {
            "mob": self.mob,
            "mob_slots": self.mob_slots,
            "stats": self.stats.as_dict(),
            "touches": self.touches,
            "total_reads": self.total_reads,
            "discarded_reads": self.discarded_reads,
            "seed": self._seed,
            "rng": rng,
            "mob_items": [
                [key, s.last_write, s.reads, s.count]
                for key, s in self._mob_items.items()
            ],
            "full_items": [
                [key, s.last_write, sorted(s.read_ids)]
                for key, s in self._full_items.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`to_state` (onto a fresh shard)."""
        self.mob = state["mob"]
        self.mob_slots = state["mob_slots"]
        stats = state["stats"]
        self.stats = EdgeStats(stats["wr"], stats["ww"], stats["rw"])
        self.touches = state["touches"]
        self.total_reads = state["total_reads"]
        self.discarded_reads = state["discarded_reads"]
        self._seed = state["seed"]
        self._generator = None
        if state["rng"] is not None:
            version, internal, gauss_next = state["rng"]
            self._rng.setstate((version, tuple(internal), gauss_next))
        self._mob_items = {
            key: _MobItemState(last_write, list(reads), count)
            for key, last_write, reads, count in state["mob_items"]
        }
        self._full_items = {
            key: _FullItemState(last_write, set(read_ids))
            for key, last_write, read_ids in state["full_items"]
        }

    @property
    def _rng(self) -> random.Random:
        """The reservoir RNG, ``random.Random(seed)`` built at first use."""
        rng = self._generator
        if rng is None:
            rng = self._generator = random.Random(self._seed)
        return rng

    def merge(self, other: "CollectorShard") -> None:
        """Absorb another shard covering a *disjoint* key range."""
        self.stats.add(other.stats)
        self.touches += other.touches
        self.total_reads += other.total_reads
        self.discarded_reads += other.discarded_reads
        self._mob_items.update(other._mob_items)
        self._full_items.update(other._full_items)

    def _emit(self, src: BuuId | None, dst: BuuId, kind: EdgeType,
              op: Operation, out: list[Edge]) -> None:
        if src is None or src == dst:
            return
        self.stats.record(kind)
        out.append(Edge(src, dst, kind, op.key, op.seq))

    # -- Algorithm 2 (MOB) -------------------------------------------------

    def _handle_mob(self, op: Operation) -> list[Edge]:
        state = self._mob_items.get(op.key)
        if state is None:
            state = _MobItemState()
            self._mob_items[op.key] = state
        out: list[Edge] = []
        if op.is_read():
            self.total_reads += 1
            state.count += 1
            # Reservoir sampling into the fixed-length array: the first
            # `slots` reads fill it; the i-th read thereafter replaces a
            # random slot with probability slots/i (Vitter's Algorithm R).
            if len(state.reads) < self.mob_slots:
                state.reads.append(op.buu)
            elif self._rng.random() < self.mob_slots / state.count:
                state.reads[self._rng.randrange(self.mob_slots)] = op.buu
            self._emit(state.last_write, op.buu, EdgeType.WR, op, out)
        else:
            if state.count == 0:
                # §5.2 calibration: rw edges were thinned, so thin ww
                # edges at the same observed discard ratio.
                if self._rng.random() >= self.discard_ratio:
                    self._emit(state.last_write, op.buu, EdgeType.WW, op, out)
            else:
                self.discarded_reads += state.count - len(state.reads)
                for reader in dict.fromkeys(state.reads):
                    self._emit(reader, op.buu, EdgeType.RW, op, out)
            state.reads = []
            state.count = 0
            state.last_write = op.buu
        return out

    def _handle_mob_batch(self, ops, out: EdgeColumns) -> None:
        items = self._mob_items
        # Bound at the batch's first draw if the RNG is not built yet.
        rng = self._generator
        rng_random = rng_randrange = None
        if rng is not None:
            rng_random, rng_randrange = rng.random, rng.randrange
        slots = self.mob_slots
        stats = self.stats
        add_src, add_dst = out.src.append, out.dst.append
        add_kind, add_label, add_seq = (out.kind.append, out.label.append,
                                        out.seq.append)
        READ = OpType.READ
        WR, WW, RW = EdgeType.WR, EdgeType.WW, EdgeType.RW
        # The running read totals feed the live discard ratio, so they are
        # carried in locals and written back once at the end of the batch —
        # the values observed at each write are identical to per-op handling.
        total_reads = self.total_reads
        discarded_reads = self.discarded_reads
        for op in ops:
            _kind, buu, key, seq = op
            state = items.get(key)
            if state is None:
                state = _MobItemState()
                items[key] = state
            lw = state.last_write
            if _kind is READ:
                total_reads += 1
                count = state.count + 1
                state.count = count
                reads = state.reads
                if len(reads) < slots:
                    reads.append(buu)
                else:
                    if rng_random is None:
                        rng = self._rng
                        rng_random, rng_randrange = rng.random, rng.randrange
                    if rng_random() < slots / count:
                        reads[rng_randrange(slots)] = buu
                if lw is not None and lw != buu:
                    stats.wr += 1
                    add_src(lw)
                    add_dst(buu)
                    add_kind(WR)
                    add_label(key)
                    add_seq(seq)
            else:
                count = state.count
                if count == 0:
                    ratio = discarded_reads / total_reads if total_reads else 0.0
                    if rng_random is None:
                        rng = self._rng
                        rng_random, rng_randrange = rng.random, rng.randrange
                    if rng_random() >= ratio:
                        if lw is not None and lw != buu:
                            stats.ww += 1
                            add_src(lw)
                            add_dst(buu)
                            add_kind(WW)
                            add_label(key)
                            add_seq(seq)
                else:
                    reads = state.reads
                    discarded_reads += count - len(reads)
                    for reader in dict.fromkeys(reads):
                        if reader != buu:
                            stats.rw += 1
                            add_src(reader)
                            add_dst(buu)
                            add_kind(RW)
                            add_label(key)
                            add_seq(seq)
                    state.reads = []
                    state.count = 0
                state.last_write = buu
        self.total_reads = total_reads
        self.discarded_reads = discarded_reads

    # -- full readIDs bookkeeping (DCS without MOB) --------------------------

    def _handle_full(self, op: Operation) -> list[Edge]:
        state = self._full_items.get(op.key)
        if state is None:
            state = _FullItemState()
            self._full_items[op.key] = state
        out: list[Edge] = []
        if op.is_read():
            self.total_reads += 1
            self._emit(state.last_write, op.buu, EdgeType.WR, op, out)
            state.read_ids.add(op.buu)
        else:
            if not state.read_ids:
                self._emit(state.last_write, op.buu, EdgeType.WW, op, out)
            else:
                for reader in state.read_ids:
                    self._emit(reader, op.buu, EdgeType.RW, op, out)
            state.read_ids.clear()
            state.last_write = op.buu
        return out

    def _handle_full_batch(self, ops, out: EdgeColumns) -> None:
        items = self._full_items
        stats = self.stats
        add_src, add_dst = out.src.append, out.dst.append
        add_kind, add_label, add_seq = (out.kind.append, out.label.append,
                                        out.seq.append)
        READ = OpType.READ
        WR, WW, RW = EdgeType.WR, EdgeType.WW, EdgeType.RW
        total_reads = self.total_reads
        for op in ops:
            _kind, buu, key, seq = op
            state = items.get(key)
            if state is None:
                state = _FullItemState()
                items[key] = state
            lw = state.last_write
            if _kind is READ:
                total_reads += 1
                if lw is not None and lw != buu:
                    stats.wr += 1
                    add_src(lw)
                    add_dst(buu)
                    add_kind(WR)
                    add_label(key)
                    add_seq(seq)
                state.read_ids.add(buu)
            else:
                read_ids = state.read_ids
                if not read_ids:
                    if lw is not None and lw != buu:
                        stats.ww += 1
                        add_src(lw)
                        add_dst(buu)
                        add_kind(WW)
                        add_label(key)
                        add_seq(seq)
                else:
                    for reader in read_ids:
                        if reader != buu:
                            stats.rw += 1
                            add_src(reader)
                            add_dst(buu)
                            add_kind(RW)
                            add_label(key)
                            add_seq(seq)
                    read_ids.clear()
                state.last_write = buu
        self.total_reads = total_reads


class DataCentricCollector(Collector):
    """Section 5's collector: data-centric sampling + optional MOB.

    Parameters
    ----------
    sampling_rate:
        The paper's ``sr``; each data item is chosen with ``p = 1/sr``.
    mob:
        Use memory-optimized bookkeeping (Algorithm 2's fixed-length
        reservoir) instead of a full ``readIDs`` set.  Fig 19-22 compare
        both.
    mob_slots:
        Length of the fixed read array.  §5.2 derives that ~2 reads sit
        between consecutive writes in a random r/w mix, so 2 is the
        default; 1 reproduces the single-slot pseudo-code of Algorithm 2
        verbatim (and loses the cycles whose surviving read belongs to
        the writer itself).
    items:
        Optional known item universe for an exact up-front sample.
    resample_interval:
        If set, re-sample the chosen items every this many operations
        (§5.1, "reducing systematic variance").  Item states reset on each
        switch; the empty ``lastWrite`` acts as the warm-up phase.
    engaged:
        Whether :attr:`lifecycle`, the admission gate
        (:class:`SampledLifecycle`), may park the begins its owner offers
        (the serial :class:`~repro.core.monitor.RushMon`'s and the
        service's may; a cluster worker's, behind its router's gate, may
        not).
    """

    def __init__(
        self,
        sampling_rate: int = 1,
        mob: bool = True,
        items: Iterable[Key] | None = None,
        seed: int = 0,
        resample_interval: int | None = None,
        mob_slots: int = 2,
        engaged: bool = False,
    ) -> None:
        # The bookkeeping state lives in a single CollectorShard (the
        # counters the Collector base would set are properties here), so
        # the serial path and the N-shard concurrent path share one
        # implementation.
        self.ops_seen = 0
        self.shard = CollectorShard(mob, mob_slots, seed ^ 0x5EED)
        self.sampler = ItemSampler(sampling_rate, seed)
        if items is not None:
            self.sampler.materialize(items)
        self._resample_interval = resample_interval
        self._resample_epoch = 0
        self._seed = seed
        self.lifecycle = SampledLifecycle(self.sampler, engaged)

    @property
    def mob(self) -> bool:
        return self.shard.mob

    @property
    def mob_slots(self) -> int:
        return self.shard.mob_slots

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
    def sampling_rate(self) -> int:
        return self.sampler.sampling_rate

    @property
    def sampling_probability(self) -> float:
        return self.sampler.probability

    @property
    def discard_ratio(self) -> float:
        """Fraction of observed reads whose rw edge MOB dropped."""
        return self.shard.discard_ratio

    def handle(self, op: Operation) -> list[Edge]:
        self.ops_seen += 1
        edges: list[Edge] = []
        if self.sampler.chosen(op.key):
            edges = self.shard.handle(op)
        if self._resample_interval and self.ops_seen % self._resample_interval == 0:
            self._switch_sample()
        return edges

    def collect(self, ops: list[Operation],
                begin: Callable[[BuuId, int], object]) -> EdgeColumns:
        """One batch record's edges: the gate keeps the operations on
        chosen items, handing ``begin`` each parked begin they
        promote, and one fused :meth:`CollectorShard.handle_batch`
        derives them.  Under ``resample_interval`` they go one at a time
        through :meth:`handle`, so the sample switches where per-op
        handling switches it."""
        if self._resample_interval:
            edges = EdgeColumns()
            gate, chosen = self.lifecycle, self.sampler.chosen
            for op in ops:
                if gate.parked and chosen(op[2]):
                    gate.promote((op,), begin)
                edges.extend(self.handle(op))
            return edges
        self.ops_seen += len(ops)
        if self.sampler.sampling_rate != 1:
            ops = self.lifecycle.admit(ops, begin)
        return self.shard.handle_batch(ops)

    def handle_batch(self, ops: Iterable[Operation]) -> EdgeColumns | list[Edge]:
        """Batched ingest (the DCS fast path): an iterable of operations
        in, their edges out as one :class:`~repro.core.types.EdgeColumns`.

        The sample is one C-level probe of the sampler's decision memo
        per operation, and the chosen subsequence feeds the shard's
        fused loop in one call.  The gate is not asked: an owner whose
        gate parks collects through :meth:`collect`.
        Bit-identical to per-op :meth:`handle`; when periodic
        re-sampling is configured the batch falls back to the per-op
        path, and returns its ``list[Edge]``, so sample switches trigger
        at exactly the same operation indexes.
        """
        if not isinstance(ops, (list, tuple)):
            ops = list(ops)
        if self._resample_interval:
            return self.handle_all(ops)
        self.ops_seen += len(ops)
        if self.sampler.sampling_rate != 1:
            ops = list(compress(ops, map(self.sampler.lookup,
                                         map(_KEY, ops))))
        return self.shard.handle_batch(ops)

    def _switch_sample(self) -> None:
        """Switch to epoch ``e``'s sample, salted by the configured seed
        mixed through :func:`_splitmix64`, so two seeds keep sampling
        different items after a switch.  Seed 0 mixes to 0: its salts
        are ``e * 0x9E3779B1 + 1`` unchanged."""
        self._resample_epoch += 1
        self.sampler.reseed(_splitmix64(self._seed)
                            ^ (self._resample_epoch * 0x9E3779B1 + 1))
        self.shard.clear_items()

    # -- checkpoint support ----------------------------------------------------

    def to_state(self) -> dict:
        """JSON-friendly snapshot of the whole collector — op counter,
        sampler membership, per-item bookkeeping and the MOB reservoir
        RNG — so a restored collector continues *deterministically*
        (the cluster's respawn-and-replay depends on this)."""
        return {
            "ops_seen": self.ops_seen,
            "resample_epoch": self._resample_epoch,
            "sampler": self.sampler.to_state(),
            "shard": self.shard.to_state(),
        }

    def load_state(self, state: dict) -> None:
        """Inverse of :meth:`to_state` (onto an identically configured
        fresh collector)."""
        self.ops_seen = state["ops_seen"]
        self._resample_epoch = state["resample_epoch"]
        self.sampler.load_state(state["sampler"])
        self.shard.load_state(state["shard"])
