"""Exact, offline isolation-anomaly checking over recorded histories.

This is the repo's independent ground truth — an Elle-style checker
(Kingsbury & Alvaro) that rebuilds the *full* dependency graph of a
history with no sampling, counts every 2-/3-cycle exactly, and names each
cycle per the G-class taxonomy (:mod:`repro.checkers.taxonomy`).

Independence is the point: every correctness claim about the sampled
monitor previously rested on differentials against
:class:`~repro.core.monitor.OfflineAnomalyMonitor`, which shares the
collector (`BaselineCollector`) and the counting code
(:func:`~repro.graph.cycles.count_labelled_short_cycles`) with the code
under test.  This module re-implements both halves from the Section 2.1
*specification* instead of the existing code:

- edge derivation is a per-item scan (group the history by key, walk each
  key's operations in visibility order) rather than the collectors'
  streaming pass — same semantics, different shape;
- cycle counting is deliberately brute force: enumerate label
  combinations edge by edge instead of the inclusion-exclusion algebra
  the production counters use.  Slow and obviously correct, which is
  exactly what an oracle should be.

A disagreement between this checker and the monitor therefore implicates
one implementation, not a shared helper.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.checkers.taxonomy import (
    CYCLE_CLASSES,
    GClass,
    classify_cycle,
)
from repro.core.types import (
    BuuId,
    CycleCounts,
    EdgeStats,
    EdgeType,
    Key,
    Operation,
)


@dataclass(frozen=True)
class CheckerEdge:
    """One labelled dependency edge as the checker derived it."""

    src: BuuId
    dst: BuuId
    kind: EdgeType
    label: Key

    def pretty(self) -> str:
        return f"{self.src} -{self.kind.value}[{self.label}]-> {self.dst}"


@dataclass(frozen=True)
class CycleWitness:
    """A concrete dependency cycle: the labelled edges walking around it."""

    gclass: GClass
    edges: tuple[CheckerEdge, ...]

    def __len__(self) -> int:
        return len(self.edges)

    def pretty(self) -> str:
        out = str(self.edges[0].src)
        for edge in self.edges:
            out += f" -{edge.kind.value}[{edge.label}]-> {edge.dst}"
        return out


@dataclass(frozen=True)
class ReadWitness:
    """One G1a/G1b occurrence: a read that observed a bad write."""

    gclass: GClass
    writer: BuuId
    reader: BuuId
    key: Key
    write_seq: int
    read_seq: int

    def pretty(self) -> str:
        what = ("aborted" if self.gclass is GClass.G1A else "intermediate")
        return (f"read by {self.reader} @{self.read_seq} of {self.key!r} "
                f"observed {what} write by {self.writer} @{self.write_seq}")


@dataclass(frozen=True)
class _Observation:
    """Internal: one read event and the write version it observed."""

    key: Key
    writer: BuuId
    reader: BuuId
    write_seq: int
    read_seq: int


@dataclass
class CheckReport:
    """Everything the exact checker learned about one history.

    ``cycles`` carries the exact 2-/3-cycle counts in the estimator's
    label classes (ss/dd/sss/ssd/ddd) — the numbers the sampled monitor
    must reproduce at ``sr=1`` and estimate unbiasedly at ``sr>1``.
    ``counts`` maps each :class:`~repro.checkers.taxonomy.GClass` to the
    number of occurrences (cycle instances for the cycle-shaped classes,
    read events for G1a/G1b); classes with zero occurrences are absent.
    ``witnesses`` holds up to ``max_witnesses`` minimal (shortest-first)
    concrete witnesses per class.
    """

    operations: int
    buus: int
    aborted: tuple[BuuId, ...]
    edges: EdgeStats
    distinct_edges: int
    cycles: CycleCounts
    counts: dict[GClass, int]
    witnesses: dict[GClass, tuple]
    max_cycle_length: int
    serializable: bool
    serial_order: tuple[BuuId, ...] = ()
    #: True when the graph is cyclic but every cycle is longer than
    #: ``max_cycle_length`` — counts are then a lower bound.
    cycles_beyond_bound: bool = False

    @property
    def anomaly_free(self) -> bool:
        """No cycles (of any length) and no aborted/intermediate reads."""
        return self.serializable and not self.counts

    def detected_classes(self) -> tuple[GClass, ...]:
        return tuple(c for c in GClass if self.counts.get(c, 0) > 0)


def derive_dependency_edges(
    ops: Sequence[Operation],
) -> tuple[list[CheckerEdge], EdgeStats, list[_Observation]]:
    """Derive every wr/ww/rw conflict edge of a history, per item.

    Implements the Section 2.1 rules by scanning each data item's
    operations in visibility (``seq``) order: a read depends on the item's
    latest write (``wr``); a write overwriting a read version
    anti-depends on all its readers (``rw``); a write directly
    overwriting a write with no intervening reads is a write dependency
    (``ww``).  Matches the collectors' Algorithm 1 semantics while
    sharing none of their code.

    Returns the derived edges (duplicates included, as collectors emit
    them), aggregate per-kind stats, and the read observations the
    G1a/G1b analysis needs.
    """
    edges: list[CheckerEdge] = []
    stats = EdgeStats()
    observations: list[_Observation] = []
    by_key: dict[Key, list[Operation]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    for key, key_ops in by_key.items():
        rows = [(o.is_read(), o.buu, o.seq)
                for o in sorted(key_ops, key=lambda o: o.seq)]
        _scan_item(key, rows, edges, stats, observations)
    return edges, stats, observations


def _scan_item(
    key: Key,
    rows: Iterable[tuple[bool, BuuId, int]],
    edges: list[CheckerEdge],
    stats: EdgeStats,
    observations: list["_Observation"],
) -> None:
    """The Section 2.1 per-item rules over one key's ``(is_read, buu,
    seq)`` rows in visibility order."""
    last_writer: BuuId | None = None
    last_write_seq = 0
    readers: dict[BuuId, None] = {}  # insertion-ordered set
    for is_read, buu, seq in rows:
        if is_read:
            if last_writer is not None:
                if last_writer != buu:
                    stats.record(EdgeType.WR)
                    edges.append(
                        CheckerEdge(last_writer, buu, EdgeType.WR, key)
                    )
                observations.append(_Observation(
                    key, last_writer, buu, last_write_seq, seq
                ))
            readers[buu] = None
        else:
            if readers:
                for reader in readers:
                    if reader != buu:
                        stats.record(EdgeType.RW)
                        edges.append(
                            CheckerEdge(reader, buu, EdgeType.RW, key)
                        )
            elif last_writer is not None and last_writer != buu:
                stats.record(EdgeType.WW)
                edges.append(
                    CheckerEdge(last_writer, buu, EdgeType.WW, key)
                )
            readers.clear()
            last_writer = buu
            last_write_seq = seq


class _CheckerGraph:
    """The checker's own labelled multigraph (no shared graph code).

    ``labels[(u, v)]`` maps each parallel edge's item label to its kind;
    a duplicate (src, dst, label) keeps the first kind seen, mirroring
    the live detector's dedup rule so classifications line up.
    """

    def __init__(self, edges: Iterable[CheckerEdge]) -> None:
        self.labels: dict[tuple[BuuId, BuuId], dict[Key, EdgeType]] = {}
        self.out: dict[BuuId, set[BuuId]] = {}
        self.vertices: set[BuuId] = set()
        self.distinct_edges = 0
        for edge in edges:
            self.vertices.add(edge.src)
            self.vertices.add(edge.dst)
            pair = (edge.src, edge.dst)
            labels = self.labels.setdefault(pair, {})
            if edge.label in labels:
                continue
            labels[edge.label] = edge.kind
            self.out.setdefault(edge.src, set()).add(edge.dst)
            self.distinct_edges += 1

    def successors(self, v: BuuId) -> set[BuuId]:
        return self.out.get(v, set())

    def hop(self, u: BuuId, v: BuuId) -> dict[Key, EdgeType]:
        return self.labels.get((u, v), {})


def _count_short_cycles(graph: _CheckerGraph) -> CycleCounts:
    """Exact 2-/3-cycle counts by label class, the brute-force way.

    Every cycle is a choice of one labelled edge per hop; this iterates
    those choices literally (no inclusion-exclusion shortcuts), counting
    ss/dd for 2-cycles and sss/ssd/ddd for 3-cycles.  Each vertex cycle
    is visited once by rooting at its smallest vertex.
    """
    counts = CycleCounts()
    for u in graph.vertices:
        for v in graph.successors(u):
            if v <= u:
                continue
            # 2-cycles u <-> v, rooted at u < v.
            back = graph.hop(v, u)
            if back:
                for la in graph.hop(u, v):
                    for lb in back:
                        if la == lb:
                            counts.ss += 1
                        else:
                            counts.dd += 1
            # 3-cycles u -> v -> w -> u, rooted at the smallest vertex u.
            for w in graph.successors(v):
                if w <= u or w == v:
                    continue
                closing = graph.hop(w, u)
                if not closing:
                    continue
                for la in graph.hop(u, v):
                    for lb in graph.hop(v, w):
                        for lc in closing:
                            distinct = len({la, lb, lc})
                            if distinct == 1:
                                counts.sss += 1
                            elif distinct == 2:
                                counts.ssd += 1
                            else:
                                counts.ddd += 1
    return counts


def _serial_order(graph: _CheckerGraph,
                  all_buus: Iterable[BuuId]) -> tuple[BuuId, ...] | None:
    """A witness equivalent serial order (None when the graph is cyclic)."""
    in_degree: dict[BuuId, int] = {v: 0 for v in all_buus}
    for v in graph.vertices:
        in_degree.setdefault(v, 0)
    for (_, dst), labels in graph.labels.items():
        if labels:
            in_degree[dst] += 1
    ready = [v for v, deg in in_degree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[BuuId] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for succ in graph.successors(v):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(in_degree):
        return None
    return tuple(order)


def _enumerate_vertex_cycles(
    graph: _CheckerGraph, max_length: int
) -> Iterable[tuple[BuuId, ...]]:
    """Yield each vertex-simple directed cycle of length <= max_length
    once (from its smallest vertex), shortest lengths first."""
    by_length: dict[int, list[tuple[BuuId, ...]]] = {
        n: [] for n in range(2, max_length + 1)
    }
    for root in sorted(graph.vertices):
        stack: list[tuple[BuuId, tuple[BuuId, ...]]] = [(root, (root,))]
        while stack:
            current, path = stack.pop()
            for nxt in graph.successors(current):
                if nxt == root:
                    if len(path) >= 2:
                        by_length[len(path)].append(path)
                    continue
                if nxt < root or nxt in path:
                    continue
                if len(path) < max_length:
                    stack.append((nxt, path + (nxt,)))
    for length in range(2, max_length + 1):
        yield from by_length[length]


def _classify_cycles(
    graph: _CheckerGraph,
    max_length: int,
    max_witnesses: int,
    counts: dict[GClass, int],
    witnesses: dict[GClass, list],
) -> None:
    """Count and witness every cycle instance of length <= max_length.

    A vertex cycle with parallel labelled edges yields one instance per
    label choice; each instance is classified independently (a triangle
    can be G1c through its wr labels and G2 through an rw one).
    """
    for path in _enumerate_vertex_cycles(graph, max_length):
        hops = []
        closed = path + (path[0],)
        for a, b in zip(closed, closed[1:]):
            hops.append([
                CheckerEdge(a, b, kind, label)
                for label, kind in graph.hop(a, b).items()
            ])
        for combo in itertools.product(*hops):
            gclass = classify_cycle([edge.kind for edge in combo])
            counts[gclass] = counts.get(gclass, 0) + 1
            bucket = witnesses.setdefault(gclass, [])
            if len(bucket) < max_witnesses:
                bucket.append(CycleWitness(gclass, tuple(combo)))


def check_operations(
    ops: Sequence[Operation],
    *,
    commits: Iterable[BuuId] | Mapping[BuuId, int] | None = None,
    aborted: Iterable[BuuId] | None = None,
    max_cycle_length: int = 4,
    max_witnesses: int = 3,
) -> CheckReport:
    """Exactly check a history for isolation anomalies.

    Parameters
    ----------
    ops:
        The history in visibility order (any order works; operations are
        keyed by ``seq``).
    commits:
        BUUs known to have committed.  When given, BUUs that issued
        operations but never committed are treated as aborted (their
        observed writes are G1a); when omitted entirely, every BUU is
        assumed committed.
    aborted:
        Explicitly aborted BUUs — overrides the commit-set inference.
    max_cycle_length:
        Classify and witness cycles up to this many edges (>= 2).  The
        2-/3-cycle counts in ``report.cycles`` and the ``serializable``
        verdict are exact regardless of this bound.
    max_witnesses:
        Concrete witnesses retained per anomaly class.
    """
    if max_cycle_length < 2:
        raise ValueError("max_cycle_length must be >= 2 (cycles have >= 2 "
                         "edges)")
    if max_witnesses < 0:
        raise ValueError("max_witnesses must be >= 0")
    ops = list(ops)
    touched = {op.buu for op in ops}
    if aborted is not None:
        aborted_set = set(aborted)
    elif commits is not None:
        committed = set(commits)
        aborted_set = touched - committed if committed else set()
    else:
        aborted_set = set()

    edges, stats, observations = derive_dependency_edges(ops)
    graph = _CheckerGraph(edges)
    cycles = _count_short_cycles(graph)
    order = _serial_order(graph, touched)

    counts: dict[GClass, int] = {}
    witnesses: dict[GClass, list] = {}
    _classify_cycles(graph, max_cycle_length, max_witnesses, counts,
                     witnesses)

    # G1a / G1b: read-shaped phenomena, straight from the observations.
    final_write: dict[tuple[Key, BuuId], int] = {}
    for edge_key, seq in _final_writes(ops).items():
        final_write[edge_key] = seq
    for obs in observations:
        if obs.writer == obs.reader:
            continue
        if obs.writer in aborted_set:
            gclass = GClass.G1A
        elif final_write.get((obs.key, obs.writer), obs.write_seq) \
                > obs.write_seq:
            gclass = GClass.G1B
        else:
            continue
        counts[gclass] = counts.get(gclass, 0) + 1
        bucket = witnesses.setdefault(gclass, [])
        if len(bucket) < max_witnesses:
            bucket.append(ReadWitness(gclass, obs.writer, obs.reader,
                                      obs.key, obs.write_seq, obs.read_seq))

    classified = sum(counts.get(c, 0) for c in CYCLE_CLASSES)
    return CheckReport(
        operations=len(ops),
        buus=len(touched),
        aborted=tuple(sorted(aborted_set)),
        edges=stats,
        distinct_edges=graph.distinct_edges,
        cycles=cycles,
        counts=counts,
        witnesses={g: tuple(w) for g, w in witnesses.items()},
        max_cycle_length=max_cycle_length,
        serializable=order is not None,
        serial_order=order or (),
        cycles_beyond_bound=(order is None and classified == 0),
    )


def _final_writes(ops: Sequence[Operation]) -> dict[tuple[Key, BuuId], int]:
    """The seq of each BUU's last write per item (for G1b)."""
    final: dict[tuple[Key, BuuId], int] = {}
    for op in ops:
        if op.is_write():
            key = (op.key, op.buu)
            if op.seq > final.get(key, -1):
                final[key] = op.seq
    return final


def check_trace(trace, *, max_cycle_length: int = 4,
                max_witnesses: int = 3) -> CheckReport:
    """Check a recorded :class:`~repro.sim.traces.Trace`.

    The trace's commit records drive the aborted-BUU inference: a BUU
    with operations but no commit record is treated as aborted (its
    writes were never final — any read of them is a G1a).  Traces
    recorded without lifecycle events check all BUUs as committed.
    """
    commits = [buu for buu, _ in trace.commits]
    return check_operations(
        trace.ops,
        commits=commits if commits else None,
        max_cycle_length=max_cycle_length,
        max_witnesses=max_witnesses,
    )


def exact_cycle_counts(ops: Sequence[Operation]) -> CycleCounts:
    """Just the exact 2-/3-cycle label-class counts of a history — the
    cheap entry point for differential tests against the monitor."""
    edges, _, _ = derive_dependency_edges(ops)
    return _count_short_cycles(_CheckerGraph(edges))
