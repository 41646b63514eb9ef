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
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

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
    OpType,
)

#: The checker's graph: ``hop[u][v]`` maps each item label of the
#: ``u -> v`` dependency to its kind.  ``hop``'s keys are the vertices
#: and ``hop[v]``'s keys are ``v``'s successors.  One-label pairs share
#: their label dict (:func:`_adjacency`), so nothing mutates a label
#: dict after :func:`_adjacency` returns.
_Hops = dict[BuuId, dict[BuuId, dict[Key, EdgeType]]]

_SEQ = attrgetter("seq")


@dataclass(frozen=True, slots=True)
class CheckerEdge:
    """One labelled dependency edge as the checker derived it."""

    src: BuuId
    dst: BuuId
    kind: EdgeType
    label: Key

    def pretty(self) -> str:
        return f"{self.src} -{self.kind.value}[{self.label}]-> {self.dst}"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class _Observation:
    """Internal: one read event and the write version it observed.
    ``overwritten`` is true when the writer wrote the item again later,
    i.e. the read saw an intermediate version (G1b)."""

    key: Key
    writer: BuuId
    reader: BuuId
    write_seq: int
    read_seq: int
    overwritten: bool


@dataclass(slots=True)
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
    """Every wr/ww/rw conflict edge of a history, as lists.

    Returns the derived edges (duplicates included, as collectors emit
    them), aggregate per-kind stats, and the read observations the
    G1a/G1b analysis needs.  The checker itself streams the same edges
    (:func:`_scan`) without materialising them.
    """
    observations: list[_Observation] = []
    edges = [CheckerEdge(*edge) for edge in _scan(ops, observations)]
    stats = EdgeStats()
    for edge in edges:
        stats.record(edge.kind)
    return edges, stats, observations


def _scan(
    ops: Iterable[Operation],
    observations: list[_Observation] | None = None,
) -> Iterator[tuple[BuuId, BuuId, EdgeType, Key]]:
    """Yield every conflict edge as ``(src, dst, kind, label)``, per item.

    Implements the Section 2.1 rules by scanning each data item's
    operations in visibility (``seq``) order: a read depends on the item's
    latest write (``wr``); a write overwriting a read version
    anti-depends on all its readers (``rw``); a write directly
    overwriting a write with no intervening reads is a write dependency
    (``ww``).  Matches the collectors' Algorithm 1 semantics while
    sharing none of their code.  With ``observations``, also records
    each read of a write, with its G1b verdict settled against the
    writer's last write to the same item.
    """
    by_key: dict[Key, list[Operation]] = {}
    for op in ops:
        by_key.setdefault(op.key, []).append(op)
    read, wr, ww, rw = OpType.READ, EdgeType.WR, EdgeType.WW, EdgeType.RW
    for key in list(by_key):
        key_ops = by_key.pop(key)  # freed once its item is scanned
        key_ops.sort(key=_SEQ)
        if observations is not None:
            final = {op.buu: op.seq for op in key_ops if op.op is not read}
        last_writer: BuuId | None = None
        last_write_seq = 0
        readers: dict[BuuId, None] = {}  # insertion-ordered set
        for op_type, buu, _, seq in key_ops:
            if op_type is read:
                if last_writer is not None:
                    if last_writer != buu:
                        yield last_writer, buu, wr, key
                    if observations is not None:
                        observations.append(_Observation(
                            key, last_writer, buu, last_write_seq, seq,
                            final[last_writer] > last_write_seq,
                        ))
                readers[buu] = None
            else:
                if readers:
                    for reader in readers:
                        if reader != buu:
                            yield reader, buu, rw, key
                    readers.clear()
                elif last_writer is not None and last_writer != buu:
                    yield last_writer, buu, ww, key
                last_writer = buu
                last_write_seq = seq


def _adjacency(
    edges: Iterable[tuple[BuuId, BuuId, EdgeType, Key]],
    stats: EdgeStats | None = None,
) -> tuple[_Hops, int]:
    """Fold streamed edges into the checker's own labelled multigraph (no
    shared graph code), and count its distinct labelled edges.

    A duplicate (src, dst, label) keeps the first kind seen, mirroring
    the live detector's dedup rule so classifications line up.
    ``stats``, when given, counts every edge, duplicates included.
    One-label pairs share one ``{label: kind}`` dict per ``(label,
    kind)``, picked by kind identity (``Enum.__hash__`` runs a Python
    frame); a pair that gains a second label is promoted to a fresh one.
    """
    hop: _Hops = {}
    distinct = 0
    wr, rw = EdgeType.WR, EdgeType.RW
    shared: tuple[dict[Key, dict[Key, EdgeType]], ...] = ({}, {}, {})
    for src, dst, kind, label in edges:
        if stats is not None:
            stats.record(kind)
        out = hop.get(src)
        if out is None:
            out = hop[src] = {}
        labels = out.get(dst)
        if labels is None:
            table = shared[0 if kind is wr else 1 if kind is rw else 2]
            entry = table.get(label)
            if entry is None:
                entry = table[label] = {label: kind}
            out[dst] = entry
            if dst not in hop:
                hop[dst] = {}
        elif label in labels:
            continue
        elif len(labels) == 1:
            out[dst] = {**labels, label: kind}
        else:
            labels[label] = kind
        distinct += 1
    return hop, distinct


def _count_short_cycles(hop: _Hops) -> CycleCounts:
    """Exact 2-/3-cycle counts by label class, the brute-force way.

    Every cycle is a choice of one labelled edge per hop; this iterates
    those choices literally (no inclusion-exclusion shortcuts), counting
    ss/dd for 2-cycles and sss/ssd/ddd for 3-cycles.  Each vertex cycle
    is visited once by rooting at its smallest vertex.  The scan yields
    no self-edges, so a successor is never its own vertex.
    """
    counts = CycleCounts()
    for u, out_u in hop.items():
        for v, uv in out_u.items():
            if v <= u:
                continue
            out_v = hop[v]
            # 2-cycles u <-> v, rooted at u < v.
            back = out_v.get(u)
            if back:
                for la in uv:
                    for lb in back:
                        if la == lb:
                            counts.ss += 1
                        else:
                            counts.dd += 1
            # 3-cycles u -> v -> w -> u, rooted at the smallest vertex u.
            for w, vw in out_v.items():
                if w <= u:
                    continue
                closing = hop[w].get(u)
                if not closing:
                    continue
                for la in uv:
                    for lb in vw:
                        for lc in closing:
                            distinct = len({la, lb, lc})
                            if distinct == 1:
                                counts.sss += 1
                            elif distinct == 2:
                                counts.ssd += 1
                            else:
                                counts.ddd += 1
    return counts


def _serial_order(hop: _Hops,
                  all_buus: Iterable[BuuId]) -> tuple[BuuId, ...] | None:
    """A witness equivalent serial order (None when the graph is cyclic).
    Every vertex of ``hop`` is one of ``all_buus``."""
    in_degree = dict.fromkeys(all_buus, 0)
    for out in hop.values():
        for v in out:
            in_degree[v] += 1
    ready = [v for v, deg in in_degree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[BuuId] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for succ in hop.get(v, ()):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(in_degree):
        return None
    return tuple(order)


def _enumerate_vertex_cycles(
    hop: _Hops, max_length: int
) -> Iterable[tuple[BuuId, ...]]:
    """Yield each vertex-simple directed cycle of length <= max_length
    once (from its smallest vertex), in depth-first discovery order."""
    for root in sorted(hop):
        stack: list[tuple[BuuId, tuple[BuuId, ...]]] = [(root, (root,))]
        while stack:
            current, path = stack.pop()
            if len(path) >= max_length:
                # The last hop can only close the cycle.
                if len(path) >= 2 and root in hop[current]:
                    yield path
                continue
            for nxt in hop[current]:
                if nxt == root:
                    if len(path) >= 2:
                        yield path
                    continue
                if nxt < root or nxt in path:
                    continue
                stack.append((nxt, path + (nxt,)))


def _classify_cycles(
    hop: _Hops,
    max_length: int,
    max_witnesses: int,
    counts: dict[GClass, int],
    witnesses: dict[GClass, list],
) -> None:
    """Count and witness every cycle instance of length <= max_length.

    A vertex cycle with parallel labelled edges yields one instance per
    label choice; each instance is classified independently (a triangle
    can be G1c through its wr labels and G2 through an rw one).

    Instances are classified as the search finds them, and only the
    first ``max_witnesses`` of each (class, length) are kept, so memory
    grows with the witnesses, not the cycles.  ``counts``, ``witnesses``
    and their key order then read as if every instance had been visited
    shortest-first, in discovery order within a length.
    """
    # (class, length) -> [count, witnesses], in order of first discovery
    found: dict[tuple[GClass, int], list] = {}
    for path in _enumerate_vertex_cycles(hop, max_length):
        closed = path + (path[0],)
        hops = [
            [CheckerEdge(a, b, kind, label)
             for label, kind in hop[a][b].items()]
            for a, b in zip(closed, closed[1:])
        ]
        for combo in itertools.product(*hops):
            gclass = classify_cycle([edge.kind for edge in combo])
            slot = found.setdefault((gclass, len(path)), [0, []])
            slot[0] += 1
            if len(slot[1]) < max_witnesses:
                slot[1].append(CycleWitness(gclass, tuple(combo)))
    # A stable sort by length keeps discovery order within a length.
    for (gclass, _), (n, kept) in sorted(found.items(),
                                         key=lambda item: item[0][1]):
        counts[gclass] = counts.get(gclass, 0) + n
        bucket = witnesses.setdefault(gclass, [])
        bucket.extend(kept[:max_witnesses - len(bucket)])


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

    stats = EdgeStats()
    observations: list[_Observation] = []
    hop, distinct_edges = _adjacency(_scan(ops, observations), stats)
    cycles = _count_short_cycles(hop)
    order = _serial_order(hop, touched)

    counts: dict[GClass, int] = {}
    witnesses: dict[GClass, list] = {}
    _classify_cycles(hop, max_cycle_length, max_witnesses, counts, witnesses)

    # G1a / G1b: read-shaped phenomena, straight from the observations.
    for obs in observations:
        if obs.writer == obs.reader:
            continue
        if obs.writer in aborted_set:
            gclass = GClass.G1A
        elif obs.overwritten:
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
        distinct_edges=distinct_edges,
        cycles=cycles,
        counts=counts,
        witnesses={g: tuple(w) for g, w in witnesses.items()},
        max_cycle_length=max_cycle_length,
        serializable=order is not None,
        serial_order=order or (),
        cycles_beyond_bound=(order is None and classified == 0),
    )


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
    return _count_short_cycles(_adjacency(_scan(ops))[0])
