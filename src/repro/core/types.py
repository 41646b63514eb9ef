"""Core value types shared across RushMon components.

The vocabulary follows the paper (Sections 2 and 4): a *BUU* (basic update
unit) is a lightweight transaction identified by an integer id; every BUU
issues a stream of read/write :class:`Operation` objects against named data
items; the collector derives :class:`Edge` objects (``wr``, ``ww``, ``rw``)
from that stream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat
from typing import Hashable, Iterable, Iterator, NamedTuple

#: Type alias for data-item keys.  Any hashable value works; the simulator
#: and workloads use ints and short strings.
Key = Hashable

#: Type alias for BUU identifiers.
BuuId = int


class OpType(enum.Enum):
    """The two storage primitives a BUU may issue."""

    READ = "r"
    WRITE = "w"


class EdgeType(enum.Enum):
    """Dependency-graph edge categories (Section 2.1).

    - ``WR`` (read dependency): the destination read a value the source wrote.
    - ``WW`` (write dependency): the destination overwrote the source's write.
    - ``RW`` (anti-dependency): the destination overwrote a value the source
      read.
    """

    WR = "wr"
    WW = "ww"
    RW = "rw"


#: The parallel edges between one ordered vertex pair: item label -> the
#: type of the edge carrying it.  What ``LiveGraph.edges()`` yields, and
#: how the live graph stores a pair that carries two labels or more.
LabelDict = dict[Key, EdgeType]

#: How the live graph stores a pair that carries one label: a
#: ``(label, kind)`` 2-tuple interned per graph, shared by every pair
#: with that label and kind.
LabelEntry = tuple[Key, EdgeType]

#: One direction of :class:`~repro.core.detector.LiveGraph` adjacency:
#: ``vertex -> neighbour -> LabelEntry | LabelDict``.
Adjacency = dict[BuuId, dict[BuuId, LabelEntry | LabelDict]]


class Operation(NamedTuple):
    """A single read or write applied to shared storage.

    ``seq`` is the logical time at which the operation became visible to
    other workers (the simulator's global step counter).  Operations on the
    same data item are fully ordered by ``seq``, matching the paper's
    assumption in Section 2.1.

    A :class:`~typing.NamedTuple` rather than a frozen dataclass: the
    monitor creates one per event on the hot path, and tuple allocation
    skips both ``__init__`` dispatch and ``object.__setattr__``.
    """

    op: OpType
    buu: BuuId
    key: Key
    seq: int = 0

    def is_read(self) -> bool:
        return self.op is OpType.READ

    def is_write(self) -> bool:
        return self.op is OpType.WRITE


class Edge(NamedTuple):
    """A labelled dependency-graph edge.

    ``label`` is the data item the conflict occurred on.  The estimator
    (Theorem 5.2) classifies cycles by comparing edge labels, so every edge
    carries one.  ``seq`` is the visibility time of the *later* of the two
    conflicting operations, i.e. when the collector learned the edge exists.

    Like :class:`Operation`, a NamedTuple for cheap hot-path allocation;
    use ``edge._replace(seq=...)`` where ``dataclasses.replace`` was used.
    """

    src: BuuId
    dst: BuuId
    kind: EdgeType
    label: Key
    seq: int = 0


class EdgeColumns:
    """A batch of edges as five parallel lists, one per :class:`Edge`
    field: what the collector's fused loops emit and the detector's
    counting loop consumes.

    Appending an edge appends one reference to each column, so a batch
    allocates no container per edge (an ``Edge`` per edge kept thousands
    of tuples alive through young collections, for the cyclic GC to
    scan and promote); :meth:`rows` walks the columns through one
    ``zip``, whose result tuple CPython reuses.  Everyone else sees an
    edge list: a batch iterates as :class:`Edge` objects, has a length
    and compares equal to the list of the same edges.
    """

    __slots__ = ("src", "dst", "kind", "label", "seq")

    def __init__(self) -> None:
        self.src: list[BuuId] = []
        self.dst: list[BuuId] = []
        self.kind: list[EdgeType] = []
        self.label: list[Key] = []
        self.seq: list[int] = []

    def rows(self) -> Iterator[tuple[BuuId, BuuId, EdgeType, Key, int]]:
        """The ``(src, dst, kind, label, seq)`` rows, in order."""
        return zip(self.src, self.dst, self.kind, self.label, self.seq)

    def extend(self, edges: "EdgeColumns | Iterable[Edge]") -> None:
        """Append ``edges`` (columns, or :class:`Edge` rows) in order."""
        if isinstance(edges, EdgeColumns):
            self.src += edges.src
            self.dst += edges.dst
            self.kind += edges.kind
            self.label += edges.label
            self.seq += edges.seq
            return
        for src, dst, kind, label, seq in edges:
            self.src.append(src)
            self.dst.append(dst)
            self.kind.append(kind)
            self.label.append(label)
            self.seq.append(seq)

    def __iter__(self) -> Iterator[Edge]:
        # tuple.__new__ builds each Edge in C; Edge(...) would run the
        # generated __new__, a Python frame per edge (~2.5x the cost).
        return map(tuple.__new__, repeat(Edge), self.rows())  # type: ignore

    def __len__(self) -> int:
        return len(self.src)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EdgeColumns, list)):
            return NotImplemented
        return list(self.rows()) == list(other)


@dataclass(slots=True)
class CycleCounts:
    """Aggregate 2-/3-cycle counts broken down by label class (§5.1).

    A 2-cycle's two edge labels are either the *same* (``ss``) or
    *distinct* (``dd``).  A 3-cycle's three labels are all-same (``sss``),
    exactly-two-same (``ssd``) or all-distinct (``ddd``).  These classes
    are what the unbiased estimator needs.
    """

    ss: int = 0
    dd: int = 0
    sss: int = 0
    ssd: int = 0
    ddd: int = 0

    @property
    def two_cycles(self) -> int:
        """Raw (uncalibrated) number of observed 2-cycles."""
        return self.ss + self.dd

    @property
    def three_cycles(self) -> int:
        """Raw (uncalibrated) number of observed 3-cycles."""
        return self.sss + self.ssd + self.ddd

    def add(self, other: "CycleCounts") -> None:
        self.ss += other.ss
        self.dd += other.dd
        self.sss += other.sss
        self.ssd += other.ssd
        self.ddd += other.ddd

    def copy(self) -> "CycleCounts":
        return CycleCounts(self.ss, self.dd, self.sss, self.ssd, self.ddd)


@dataclass(slots=True)
class EdgeStats:
    """Per-category edge counters reported alongside cycle counts (Fig 23)."""

    wr: int = 0
    ww: int = 0
    rw: int = 0

    @property
    def total(self) -> int:
        return self.wr + self.ww + self.rw

    def record(self, kind: EdgeType) -> None:
        if kind is EdgeType.WR:
            self.wr += 1
        elif kind is EdgeType.WW:
            self.ww += 1
        else:
            self.rw += 1

    def add(self, other: "EdgeStats") -> None:
        self.wr += other.wr
        self.ww += other.ww
        self.rw += other.rw

    def copy(self) -> "EdgeStats":
        return EdgeStats(self.wr, self.ww, self.rw)

    def as_dict(self) -> dict[str, int]:
        return {"wr": self.wr, "ww": self.ww, "rw": self.rw}


@dataclass
class AnomalyReport:
    """One monitoring-window report produced by :class:`~repro.core.monitor.RushMon`.

    ``estimated_2`` / ``estimated_3`` are the unbiased estimates of the
    number of new 2-/3-cycles in the window; ``raw`` holds the sampled
    counts they were derived from; ``edges`` the per-category edge counts.
    """

    window_start: int
    window_end: int
    estimated_2: float
    estimated_3: float
    raw: CycleCounts = field(default_factory=CycleCounts)
    edges: EdgeStats = field(default_factory=EdgeStats)
    operations: int = 0
    #: Raw (sampled, uncalibrated) 2-cycle counts by anomaly pattern —
    #: lost_update / unrepeatable_read / read_skew / write_skew / ...
    patterns: dict = field(default_factory=dict)
    #: Health of the monitor that produced this report: ``"ok"`` in
    #: normal operation, ``"degraded"`` when the concurrent service's
    #: detection supervisor (or the cluster's worker supervisor) has
    #: tripped its circuit breaker (the counts may then lag or
    #: undercount — see repro.core.concurrent.service / repro.cluster).
    health: str = "ok"
    #: Cluster only: worker shard indices whose counts are *missing*
    #: from this window because the shard's circuit breaker tripped
    #: (``health == "degraded"``).  Empty for healthy windows and for
    #: the single-process monitors.
    degraded_shards: tuple = ()

    @property
    def anomalies(self) -> float:
        """Combined anomaly level: total estimated short cycles."""
        return self.estimated_2 + self.estimated_3


class KeyInterner:
    """Bijective mapping from data-item keys to dense small ints.

    The batched fast path interns string keys at the workload boundary so
    every downstream structure — collector item dicts, the sharded
    journal, :class:`~repro.core.detector.LiveGraph` adjacency — hashes
    and compares machine ints instead of strings, and shard bucketing
    degenerates to ``id & mask`` instead of a CRC of ``repr(key)``.

    Ids are assigned in first-seen order, so interning a recorded
    workload is deterministic.  The mapping only grows; ``key_of``
    recovers the original key for reports and debugging.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self) -> None:
        self._ids: dict[Key, int] = {}
        self._keys: list[Key] = []

    def intern(self, key: Key) -> int:
        """Return the dense id for ``key``, assigning one if new."""
        kid = self._ids.get(key)
        if kid is None:
            kid = len(self._keys)
            self._ids[key] = kid
            self._keys.append(key)
        return kid

    def intern_many(self, keys: Iterable[Key]) -> list[int]:
        intern = self.intern
        return [intern(k) for k in keys]

    def key_of(self, kid: int) -> Key:
        """Inverse of :meth:`intern` (raises IndexError for unknown ids)."""
        return self._keys[kid]

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Key) -> bool:
        return key in self._ids

    def to_state(self) -> list[Key]:
        """Checkpointable form: the id -> key table."""
        return list(self._keys)

    def load_state(self, keys: list[Key]) -> None:
        self._keys = list(keys)
        self._ids = {k: i for i, k in enumerate(self._keys)}

