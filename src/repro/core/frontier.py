"""Versioned serialization of a shard's edge frontier and sampler state.

The collector/detector boundary inside one process is a list of
:class:`~repro.core.types.Edge` tuples: the collector derives them, the
detector ingests them.  The moment that boundary crosses a process (the
:mod:`repro.cluster` workers exchange the edges each shard derives so
every worker's live graph stays the full serial graph), the edges need a
wire form that is

- **cheap** — compact positional lists, no per-edge dicts, so a frontier
  of thousands of edges encodes in one ``json.dumps`` pass; and
- **versioned** — a frontier payload carries :data:`FRONTIER_VERSION`,
  so a worker from a newer build refuses an old peer's payload loudly
  instead of misinterpreting it.

An *edge group* is ``(ticket, [edges])``: every edge the collector
derived from the single operation that was assigned global ``ticket``.
Grouping per operation (instead of restamping per edge) keeps each
edge's original ``seq`` — the visibility time the estimator and the
pruners reason about — while the ticket orders the group in the
cluster-wide merge.

Keys and BUU ids must round-trip through the codec (JSON by default),
the same constraint :mod:`repro.net.protocol` imposes on wire events:
ints and strings are safe, tuples are not.

:func:`key_partition` also lives here: the one process-stable key →
partition digest shared by the in-process
:class:`~repro.core.concurrent.sharded.ShardedCollector` and the
cluster router, so "which shard owns this key" has exactly one answer
everywhere.
"""

from __future__ import annotations

import zlib

from repro.core.collector import ItemSampler, _splitmix64
from repro.core.types import Edge, EdgeType, Key

__all__ = [
    "FRONTIER_VERSION",
    "FrontierVersionError",
    "decode_frontier",
    "decode_groups",
    "encode_frontier",
    "encode_groups",
    "key_partition",
]

#: Bump when the frontier wire shape changes; decoders refuse mismatches.
FRONTIER_VERSION = 1

#: Salt folded into the placement digest so partition placement and the
#: sampler's chosen-item decision are *independent* hash streams.  Both
#: start from ``crc32(repr(key))``; without the salt, ``chosen(key)``
#: (digest mixed % sr) and ``key_partition`` (digest mixed % n) are the
#: same value mod gcd(sr, n) — at ``sr == num_workers`` one shard owns
#: exactly the chosen items and ends up doing *all* collection and
#: counting while its peers idle.  Placement never affects counts, only
#: balance, so decorrelating is free.
_PLACEMENT_SALT = 0xA0761D6478BD642F


class FrontierVersionError(RuntimeError):
    """A frontier payload was produced by an incompatible build."""


def key_partition(key: Key, num_partitions: int,
                  mask: int | None = None) -> int:
    """The partition owning ``key`` out of ``num_partitions``.

    Must be stable *across processes*, not just within one — checkpoints
    store item bookkeeping per shard, and the cluster router in one
    process must agree with the worker that owns the shard in another.
    Builtin ``hash()`` is randomized per process (PYTHONHASHSEED), so
    the digest is CRC-of-repr like :meth:`ItemSampler.chosen`.

    Int keys (e.g. interned via :class:`~repro.core.types.KeyInterner`)
    take a fast path: dense ids bucket perfectly with ``id & mask`` when
    ``num_partitions`` is a power of two (pass ``mask = n - 1``),
    skipping the repr+CRC entirely.  Both paths are process-stable;
    partition *placement* never affects counts, only contention.
    """
    if type(key) is int:
        if mask is not None:
            return key & mask
        return _splitmix64(key ^ _PLACEMENT_SALT) % num_partitions
    return _splitmix64(zlib.crc32(repr(key).encode())
                       ^ _PLACEMENT_SALT) % num_partitions


# -- edge records --------------------------------------------------------------


#: Wire value -> enum member (and back): dict lookups instead of the
#: enum value-call / ``.value`` descriptor in the per-edge loops.
_EDGE_TYPES = {member.value: member for member in EdgeType}
_EDGE_WIRE = {member: member.value for member in EdgeType}


def encode_groups(groups) -> list:
    """Encode ``(ticket, [edges])`` groups as positional records."""
    edge_wire = _EDGE_WIRE
    return [[ticket, [[e.src, e.dst, edge_wire[e.kind], e.label, e.seq]
                      for e in edges]]
            for ticket, edges in groups]


def decode_groups(records: list) -> list[tuple[int, list[Edge]]]:
    """Inverse of :func:`encode_groups`."""
    edge_types = _EDGE_TYPES
    return [(ticket, [Edge(r[0], r[1], edge_types[r[2]], r[3], r[4])
                      for r in recs])
            for ticket, recs in records]


# -- frontier payloads ---------------------------------------------------------


def encode_frontier(groups, sampler: ItemSampler | None = None) -> dict:
    """A shard's edge frontier (plus, optionally, its sampler state) as
    one versioned, codec-friendly payload."""
    payload = {"v": FRONTIER_VERSION, "groups": encode_groups(groups)}
    if sampler is not None:
        payload["sampler"] = sampler.to_state()
    return payload


def decode_frontier(payload: dict) -> tuple[list[tuple[int, list[Edge]]],
                                            dict | None]:
    """Decode a frontier payload into ``(groups, sampler_state)``.

    ``sampler_state`` is ``None`` when the sender did not attach one;
    otherwise it feeds :meth:`ItemSampler.load_state` directly.
    """
    version = payload.get("v")
    if version != FRONTIER_VERSION:
        raise FrontierVersionError(
            f"frontier payload version {version!r} != supported "
            f"{FRONTIER_VERSION}; peers must run the same build"
        )
    return decode_groups(payload["groups"]), payload.get("sampler")
