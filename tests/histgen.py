"""Operation histories for the tests: builders, random concurrent
histories and lifecycle delivery.

A *history* is a list of :class:`~repro.core.types.Operation` in storage
visibility order — the exact input a collector consumes.  The builders
run BUU programs serially or randomly interleaved; ``random_history``
varies BUU count, key-space size, key skew and read/write mix by seed
for the differential, estimator-unbiasedness and concurrency-stress
tests; ``streamed_history`` holds a fixed number of BUUs open at once,
so it scales to the 10**6-op histories the checker's memory tests use;
histories are delivered with full BUU lifecycle events (``begin``
before a BUU's first operation, ``commit`` after its last) so detector
pruning runs under the same assumptions the simulator guarantees.
``count_consecutive_write_pairs`` is the combinatorial helper behind
Theorem B.1.  :class:`JournalTap` records what a concurrent service's
detection passes drained, for producers whose only common order is the
journal's.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.concurrent.journaled import EV_BEGIN, EV_COMMIT, EV_OPS
from repro.core.types import BuuId, Key, Operation, OpType
from repro.sim.traces import Trace


@dataclass
class BuuProgram:
    """A BUU as a plain sequence of (op type, key) steps."""

    buu: BuuId
    steps: list[tuple[OpType, Key]] = field(default_factory=list)

    def read(self, key: Key) -> "BuuProgram":
        self.steps.append((OpType.READ, key))
        return self

    def write(self, key: Key) -> "BuuProgram":
        self.steps.append((OpType.WRITE, key))
        return self


def program(buu: BuuId, *steps: tuple[str, Key]) -> BuuProgram:
    """Shorthand: ``program(1, ("r", "x"), ("w", "x"))``."""
    prog = BuuProgram(buu)
    for kind, key in steps:
        if kind == "r":
            prog.read(key)
        elif kind == "w":
            prog.write(key)
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return prog


def serial_history(programs: Sequence[BuuProgram]) -> list[Operation]:
    """Execute programs one after another — a serializable history."""
    ops: list[Operation] = []
    seq = 0
    for prog in programs:
        for op_type, key in prog.steps:
            seq += 1
            ops.append(Operation(op_type, prog.buu, key, seq))
    return ops


def interleaved_history(
    programs: Sequence[BuuProgram], rng: random.Random | None = None
) -> list[Operation]:
    """Randomly interleave programs step by step (uniform over merges)."""
    rng = rng or random.Random(0)
    cursors = [0] * len(programs)
    remaining = [len(p.steps) for p in programs]
    ops: list[Operation] = []
    seq = 0
    total = sum(remaining)
    while len(ops) < total:
        # Choose a program weighted by remaining steps: uniform over merges.
        pick = rng.randrange(sum(remaining))
        for idx, count in enumerate(remaining):
            if pick < count:
                break
            pick -= count
        prog = programs[idx]
        op_type, key = prog.steps[cursors[idx]]
        cursors[idx] += 1
        remaining[idx] -= 1
        seq += 1
        ops.append(Operation(op_type, prog.buu, key, seq))
    return ops


def lifecycle_bounds(ops: Iterable[Operation]) -> dict[BuuId, tuple[int, int]]:
    """(start, commit) per BUU: first and last operation sequence numbers."""
    bounds: dict[BuuId, tuple[int, int]] = {}
    for op in ops:
        lo, hi = bounds.get(op.buu, (op.seq, op.seq))
        bounds[op.buu] = (min(lo, op.seq), max(hi, op.seq))
    return bounds


def count_consecutive_write_pairs(ops: Sequence[Operation]) -> int:
    """Number of adjacent (write, write) pairs in a history.

    Theorem B.1: for a uniformly random permutation of n reads and n
    writes, the expectation of this count is (n - 1) / 2 — the fact
    behind MOB's claim that few reads sit between consecutive writes.
    """
    return sum(
        1
        for first, second in zip(ops, ops[1:])
        if first.is_write() and second.is_write()
    )


def random_rw_permutation(
    num_reads: int, num_writes: int, rng: random.Random, key: Key = "d"
) -> list[Operation]:
    """A uniformly random single-item history of reads and writes."""
    kinds = [OpType.READ] * num_reads + [OpType.WRITE] * num_writes
    rng.shuffle(kinds)
    return [Operation(kind, buu=i, key=key, seq=i + 1) for i, kind in enumerate(kinds)]


def skewed_key(rng: random.Random, num_keys: int, skew: float) -> str:
    """Power-law key pick: ``skew=1`` is uniform, larger concentrates
    mass on low indices (hot keys)."""
    return f"k{int(num_keys * (rng.random() ** skew))}"


def random_history(
    seed: int,
    num_buus: int | None = None,
    num_keys: int | None = None,
    ops_per_buu: int | None = None,
    write_frac: float | None = None,
    skew: float | None = None,
) -> list[Operation]:
    """A randomly interleaved multi-BUU history; unspecified parameters
    are drawn from the seed so a seed range sweeps diverse workloads."""
    rng = random.Random(seed)
    num_buus = num_buus if num_buus is not None else rng.choice([20, 50, 90, 140])
    num_keys = num_keys if num_keys is not None else rng.choice([4, 8, 16, 32])
    ops_per_buu = ops_per_buu if ops_per_buu is not None else rng.randrange(2, 6)
    write_frac = write_frac if write_frac is not None else rng.choice([0.3, 0.5, 0.7])
    skew = skew if skew is not None else rng.choice([1.0, 2.0, 3.0])
    programs = []
    for buu in range(num_buus):
        prog = BuuProgram(buu)
        for _ in range(ops_per_buu):
            key = skewed_key(rng, num_keys, skew)
            (prog.write if rng.random() < write_frac else prog.read)(key)
        programs.append(prog)
    return interleaved_history(programs, rng)


def streamed_history(
    seed: int,
    num_ops: int,
    num_keys: int = 1_000,
    active: int = 32,
    ops_per_buu: int = 6,
    write_frac: float = 0.5,
    skew: float = 3.0,
) -> list[Operation]:
    """A long history with bounded concurrency: ``active`` BUUs run at
    once, each issues ``ops_per_buu`` operations on :func:`skewed_key`
    keys, and a fresh BUU takes a slot its predecessor freed.

    Unlike :func:`random_history`, whose BUUs all overlap, this scales
    linearly to millions of operations with a steady conflict density,
    so a per-op cost measured on it does not drift with its length.
    Key names are interned: at 10**6 operations the history holds one
    string per key, not one per operation.
    """
    rng = random.Random(seed)
    slots = [[buu, ops_per_buu] for buu in range(active)]
    next_buu = active
    ops: list[Operation] = []
    for seq in range(1, num_ops + 1):
        slot = slots[rng.randrange(active)]
        kind = OpType.WRITE if rng.random() < write_frac else OpType.READ
        key = sys.intern(skewed_key(rng, num_keys, skew))
        ops.append(Operation(kind, slot[0], key, seq))
        slot[1] -= 1
        if not slot[1]:
            slot[:] = next_buu, ops_per_buu
            next_buu += 1
    return ops


def feed_with_lifecycle(listeners: Iterable, history: Sequence[Operation]) -> None:
    """Deliver ``history`` to listeners with begin/commit lifecycle events
    (begin at a BUU's first op, commit at its last)."""
    listeners = list(listeners)
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun: set[int] = set()
    for i, op in enumerate(history):
        if op.buu not in begun:
            begun.add(op.buu)
            for listener in listeners:
                handler = getattr(listener, "begin_buu", None)
                if handler is not None:
                    handler(op.buu, op.seq)
        for listener in listeners:
            handler = getattr(listener, "on_operation", None)
            if handler is not None:
                handler(op)
        if last_index[op.buu] == i:
            for listener in listeners:
                handler = getattr(listener, "commit_buu", None)
                if handler is not None:
                    handler(op.buu, op.seq)


def count_delivered_lifecycle(monkeypatch) -> None:
    """Make every :class:`~repro.core.detector.CycleDetector` count the
    begin/commit calls it receives (``lifecycle_calls``): what an
    in-process front end *delivered*."""
    from repro.core.detector import CycleDetector

    for name in ("begin_buu", "commit_buu"):
        def counted(self, buu, when, _original=getattr(CycleDetector, name)):
            self.lifecycle_calls = getattr(self, "lifecycle_calls", 0) + 1
            return _original(self, buu, when)
        monkeypatch.setattr(CycleDetector, name, counted)


def assert_lifecycle_reconciles(monitor, offered, delivered=None, shed=0):
    """*offered = delivered + elided + parked (+ shed)* over the
    begin/commit events offered to ``monitor``, whatever its front end;
    returns ``(elided, parked)``.  ``delivered`` defaults to what
    reached the sink: the router's broadcasts, else the calls its
    detector received (:func:`count_delivered_lifecycle`; every
    journaled record, once a window closed)."""
    collector = getattr(monitor, "collector", None)
    gate = (getattr(monitor, "lifecycle", None)
            or getattr(collector, "engine", collector).lifecycle)
    if delivered is None:
        delivered = (monitor.lifecycle_broadcasts
                     if hasattr(monitor, "lifecycle_broadcasts")
                     else getattr(monitor.detector, "lifecycle_calls", 0))
    assert offered == delivered + gate.elided + gate.num_parked + shed
    return gate.elided, gate.num_parked


class JournalTap:
    """What a :class:`~repro.core.concurrent.RushMonService`'s detection
    passes drained from its journal, as a trace.

    Wraps ``service.collector.drain`` and keeps every drained operation,
    begin and commit record keyed by its ticket, so a record a failed
    pass re-queued counts once.  Producers that race without a per-key
    lock have no order but the journal's, so this is their oracle's
    input; a producer that holds one (``ThreadedWorkloadDriver``) or
    feeds one stream records on its own side instead.
    """

    def __init__(self, service) -> None:
        self.records: dict[int, tuple] = {}
        kinds = (EV_OPS, EV_BEGIN, EV_COMMIT)
        drain = service.collector.drain

        def tapped() -> list[tuple]:
            records = drain()
            for record in records:
                if record[1] in kinds:
                    self.records.setdefault(record[0], record)
            return records

        service.collector.drain = tapped

    def trace(self) -> Trace:
        """The drained events as a trace, each stamped with its ticket (a
        batch's operations with consecutive ones)."""
        trace = Trace()
        for ticket, kind, payload, _ in self.records.values():
            if kind == EV_OPS:
                trace.ops.extend(op._replace(seq=ticket + i)
                                 for i, op in enumerate(payload))
            elif kind == EV_BEGIN:
                trace.begins.append((payload, ticket))
            else:
                trace.commits.append((payload, ticket))
        return trace
