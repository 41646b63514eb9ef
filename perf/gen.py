"""Seeded input generator of the performance ledger.

The harness owns its inputs so that no later change to a library helper
can move a benchmark number.  A *stream* is a YCSB-style history:
``active`` BUUs run concurrently, each issues ``ops_per_buu`` reads or
writes (50 % writes) on Zipf(theta) keys and then commits; a fresh BUU
takes the freed slot.  ``seq`` is the position in the stream, so every
key's operations are totally ordered.

Only the stdlib ``random`` module is used: the same seed yields the same
bytes whether or not numpy is installed, and :func:`stream_hash` lets two
runs prove they saw identical inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from array import array
from dataclasses import dataclass

from repro.core.types import Operation, OpType


@dataclass(frozen=True)
class Family:
    """The input properties the monitor's behaviour depends on: conflict
    density (keys, theta) and item-table size (keys)."""

    name: str
    keys: int
    theta: float
    plateau: int
    ops_per_buu: int
    keys_per_buu: int
    active: int


#: Dense conflicts on a small table: ~1 edge per op at sr=1.
HOT = Family("hot", keys=1_000, theta=0.9, plateau=0, ops_per_buu=6,
             keys_per_buu=6, active=32)
#: A table 200x larger, ~5 % of ops on sampled items at sr=20.  BUUs are
#: longer (24 ops on 4 keys, read-modify-write style) so that collection,
#: not BUU lifecycle bookkeeping, is most of the monitor's work, and the
#: plateau spreads the conflicts over some fifty keys instead of one, so
#: that which of them the 1-in-20 sample holds does not decide the whole
#: estimate.
WIDE = Family("wide", keys=200_000, theta=0.99, plateau=50, ops_per_buu=24,
              keys_per_buu=4, active=64)
FAMILIES = {f.name: f for f in (HOT, WIDE)}


@dataclass
class Stream:
    """One producer's history.  ``begins``/``commits`` map a BUU to the
    ``seq`` of its first/last operation (its logical start/commit time)."""

    family: str
    ops: list[Operation]
    begins: dict[int, int]
    commits: dict[int, int]


@dataclass
class Chunk:
    """One ``on_operations`` call with the lifecycle calls around it:
    BUUs whose first op is in the chunk begin before it, BUUs whose last
    op is in it commit after it — the monitor never sees an operation of
    a BUU outside its lifetime."""

    begins: list[tuple[int, int]]
    ops: list[Operation]
    commits: list[tuple[int, int]]


def _zipf_cum_weights(family: Family) -> list[float]:
    """Zipf-Mandelbrot: weight(rank) = 1 / (rank + plateau) ** theta."""
    offset, theta = family.plateau, family.theta
    return list(itertools.accumulate(
        1.0 / ((rank + offset) ** theta)
        for rank in range(1, family.keys + 1)))


def make_stream(family: Family, seed: int, n_ops: int, *, producer: int = 0,
                producers: int = 1) -> Stream:
    """``n_ops`` operations of ``family`` (rounded down to whole BUUs).

    With ``producers`` > 1 the stream is one of several that share the
    key space but not BUU ids (``buu % producers == producer``) and whose
    ``seq`` values interleave without colliding.
    """
    rng = random.Random(f"{family.name}:{seed}:{producer}:{producers}")
    n_buus = n_ops // family.ops_per_buu
    n_ops = n_buus * family.ops_per_buu
    # Rank r maps to key id (r * stride) % keys so that hot keys are not
    # neighbours in key space (and thus not in one shard by accident).
    stride = 7919
    per_buu, reuse = family.ops_per_buu, family.keys_per_buu
    ranks = rng.choices(range(family.keys),
                        cum_weights=_zipf_cum_weights(family),
                        k=n_buus * reuse)
    kinds = rng.choices((OpType.READ, OpType.WRITE), k=n_ops)
    next_buu = itertools.count(producer, producers)
    # slot = [buu id, ops left, index of the BUU's first key in ranks]
    slots = [[next(next_buu), per_buu, i * reuse]
             for i in range(min(family.active, n_buus))]
    started = len(slots)
    picks = rng.choices(range(family.active), k=n_ops)
    ops: list[Operation] = []
    begins: dict[int, int] = {}
    commits: dict[int, int] = {}
    new = tuple.__new__
    keys = family.keys
    for i in range(n_ops):
        slot = slots[picks[i] % len(slots)]
        buu = slot[0]
        seq = i * producers + producer
        if slot[1] == per_buu:
            begins[buu] = seq
        rank = ranks[slot[2] + (per_buu - slot[1]) % reuse]
        ops.append(new(Operation,
                       (kinds[i], buu, (rank * stride) % keys, seq)))
        slot[1] -= 1
        if not slot[1]:
            commits[buu] = seq
            if started < n_buus:
                slot[:] = next(next_buu), per_buu, started * reuse
                started += 1
            else:
                slots.remove(slot)
    return Stream(family.name, ops, begins, commits)


def chunked(stream: Stream, size: int) -> list[Chunk]:
    """Cut ``stream`` into ``size``-op :class:`Chunk` calls."""
    ops, begins, commits = stream.ops, stream.begins, stream.commits
    out = []
    for lo in range(0, len(ops), size):
        part = ops[lo:lo + size]
        first, last = part[0].seq, part[-1].seq
        seen = dict.fromkeys(op.buu for op in part)
        out.append(Chunk(
            [(b, begins[b]) for b in seen if begins[b] >= first],
            part,
            [(b, commits[b]) for b in seen if commits[b] <= last],
        ))
    return out


def merge_round_robin(streams: list[Stream], size: int) -> list[Operation]:
    """The nominal serialized order of several paced producers that each
    submit one ``size``-op chunk per tick: chunk 0 of every producer,
    then chunk 1 of every producer, ...  ``seq`` is rewritten to the
    merged position (the service re-stamps tickets the same way)."""
    merged: list[Operation] = []
    longest = max(len(s.ops) for s in streams)
    for lo in range(0, longest, size):
        for s in streams:
            merged.extend(s.ops[lo:lo + size])
    return [op._replace(seq=i) for i, op in enumerate(merged)]


def stream_hash(streams: list[Stream]) -> str:
    """SHA-256 over every (kind, buu, key, seq) of every stream."""
    digest = hashlib.sha256()
    for s in streams:
        flat = array("q")
        for op in s.ops:
            flat.extend((op.op is OpType.WRITE, op.buu, op.key, op.seq))
        digest.update(flat.tobytes())
    return digest.hexdigest()
