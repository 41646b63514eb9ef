"""The real-time cycle detector (det): streaming 2-/3-cycle counting.

The detector maintains a *live* dependency graph — the part that can still
participate in new cycles — and, for every arriving edge, counts the new
2- and 3-cycles that edge closes, classified by label multiset for the
estimator.  Each cycle is attributed to the arrival of its last edge, so
cumulative and windowed counts never double count.

Vertex pruning (:mod:`repro.core.pruning`) operates on the detector's
:class:`LiveGraph`; pruned vertices lose their adjacency but their commit
times are retained (cheap ints) so pruning decisions stay well defined.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView

from repro.core.patterns import PatternCounts, classify_two_cycle
from repro.core.types import (Adjacency, BuuId, CycleCounts, Edge,
                              EdgeColumns, EdgeType, Key, LabelDict,
                              LabelEntry)


class LifecycleOrderError(ValueError):
    """An operation reached the detector after its BUU's commit (and
    before that BUU began again).  Edge refusal is sound only when a
    BUU's operations precede its commit, so such an edge is left out
    loudly: raised once the rest of its batch is applied, with the first
    offender as ``buu`` and the cycles the batch closed (already in the
    detector's totals) as ``counts``."""

    def __init__(self, buu: BuuId, counts: CycleCounts) -> None:
        super().__init__(
            f"BUU {buu!r} issued an operation after its commit; a BUU's "
            f"operations must reach the detector before its commit_buu")
        self.buu = buu
        self.counts = counts


_WR = EdgeType.WR
_RW = EdgeType.RW


def _as_dict(labels: LabelEntry | LabelDict) -> LabelDict:
    """A pair's labels as a dict (a fresh one for a shared entry)."""
    return {labels[0]: labels[1]} if isinstance(labels, tuple) else labels


class LiveGraph:
    """Adjacency + vertex lifetimes for the streaming detector.

    ``out[u][v]`` and ``inc[v][u]`` are *the same* object holding the
    item labels of the parallel edges ``u -> v`` with each edge's type
    (wr/ww/rw, used for anomaly-pattern classification), so a
    neighbourhood walk arrives holding the labels and nothing is keyed
    by a ``(src, dst)`` tuple.  A pair with one label — almost every
    pair — holds an interned ``(label, kind)`` tuple
    (:data:`~repro.core.types.LabelEntry`) shared by every pair with
    that label and kind, so a new pair allocates nothing for its labels;
    a pair that gains a second label is promoted to its own
    ``{label: kind}`` dict (:data:`~repro.core.types.LabelDict`).
    :meth:`edges` and :meth:`edge_labels` read either as a dict, so the
    checkpoint and every reader see the one shape.  A vertex is present iff
    it is a key of ``out``; ``out`` and ``inc`` gain and lose a key
    together, no label dict is ever empty and no self-loop is ever
    stored.  A vertex whose every neighbour was pruned stays present
    with empty rows.

    The intern table is one ``label -> entry`` dict per edge type,
    picked by identity (``kind is EdgeType.WR``, ...; kinds are
    ``EdgeType`` members): hashing an ``EdgeType`` runs the
    Python-level ``Enum.__hash__``.  It holds at most three entries per
    distinct label ever admitted, is never trimmed and is not
    checkpointed — a restore re-interns through :meth:`add_edge`.

    ``starts`` is the one lifecycle structure: the start time of every
    *alive* (started-but-uncommitted) BUU.  ``commits`` holds the commit
    time of every BUU committed and not begun again since — kept after
    pruning (cheap ints): it is what lets the detector refuse an edge
    that would only resurrect a pruned vertex.
    """

    def __init__(self) -> None:
        self.out: Adjacency = {}
        self.inc: Adjacency = {}
        self.starts: dict[BuuId, int] = {}
        self.commits: dict[BuuId, int] = {}
        self.edge_count = 0
        # The intern tables, one per edge type: wr, rw, ww.
        self._entries: tuple[dict[Key, LabelEntry], ...] = ({}, {}, {})

    def _entry(self, label: Key, kind: EdgeType) -> LabelEntry:
        """The shared ``(label, kind)`` entry of a one-label pair."""
        wr, rw, ww = self._entries
        table = wr if kind is _WR else rw if kind is _RW else ww
        entry = table.get(label)
        if entry is None:
            entry = table[label] = (label, kind)
        return entry

    # -- lifecycle -----------------------------------------------------------

    @property
    def alive(self) -> KeysView[BuuId]:
        """The alive BUUs (a read-only view of ``starts``' keys)."""
        return self.starts.keys()

    def begin(self, buu: BuuId, start_time: int) -> None:
        """A BUU still running keeps its first start; one that begins
        again after its commit is uncommitted from here on."""
        self.starts.setdefault(buu, start_time)
        self.commits.pop(buu, None)

    def commit(self, buu: BuuId, commit_time: int) -> None:
        self.commits[buu] = commit_time
        self.starts.pop(buu, None)

    def active_time(self, default: int = 0) -> float:
        """The paper's ``t_active``: earliest start among alive vertices
        (O(alive), once per prune pass)."""
        return float(min(self.starts.values(), default=default))

    def commit_time(self, buu: BuuId) -> float:
        return float(self.commits.get(buu, float("inf")))

    # -- structure -----------------------------------------------------------

    @property
    def present(self) -> KeysView[BuuId]:
        """The vertices in the graph (a read-only view of ``out``'s keys)."""
        return self.out.keys()

    def add_vertex(self, v: BuuId) -> None:
        """Make ``v`` present (idempotent)."""
        if v not in self.out:
            self.out[v] = {}
            self.inc[v] = {}

    def add_edge(self, src: BuuId, dst: BuuId, label: Key,
                 kind: EdgeType = EdgeType.WR) -> bool:
        """Insert an edge; returns False for self-loops and duplicates."""
        if src == dst:
            return False
        self.add_vertex(src)
        row = self.out[src]
        labels = row.get(dst)
        if labels is None:
            self.add_vertex(dst)
            row[dst] = self.inc[dst][src] = self._entry(label, kind)
        elif isinstance(labels, tuple):
            if labels[0] == label:
                return False
            row[dst] = self.inc[dst][src] = {labels[0]: labels[1],
                                             label: kind}
        elif label in labels:
            return False
        else:
            labels[label] = kind
        self.edge_count += 1
        return True

    def edges(self) -> Iterator[tuple[BuuId, BuuId, LabelDict]]:
        """Every connected ordered pair as ``(src, dst, labels)``, the
        labels as a :data:`~repro.core.types.LabelDict` (a fresh one for
        a one-label pair: this is a read path, not the hot one)."""
        for src, row in self.out.items():
            for dst, labels in row.items():
                yield src, dst, _as_dict(labels)

    def edge_labels(self, src: BuuId, dst: BuuId) -> KeysView[Key]:
        """The labels of parallel edges src -> dst (a set-like view)."""
        return _as_dict(self.out.get(src, {}).get(dst, {})).keys()

    def remove_vertices(self, doomed: Iterable[BuuId]) -> None:
        """Unlink every vertex of ``doomed`` (absent ones are skipped)
        together with its edges."""
        out = self.out
        inc = self.inc
        removed = 0
        for v in doomed:
            succs = out.pop(v, None)
            if succs is None:
                continue
            # A neighbour unlinked earlier in this call already deleted
            # its mirror entry here, so every entry left names a vertex
            # that is still present.
            for w, labels in succs.items():
                removed += 1 if isinstance(labels, tuple) else len(labels)
                del inc[w][v]
            for u, labels in inc.pop(v).items():
                removed += 1 if isinstance(labels, tuple) else len(labels)
                del out[u][v]
        self.edge_count -= removed

    def num_vertices(self) -> int:
        return len(self.out)

    def num_edges(self) -> int:
        return self.edge_count


class CycleDetector:
    """Streaming detector counting new 2-/3-cycles per incoming edge.

    Parameters
    ----------
    pruner:
        A pruning strategy from :mod:`repro.core.pruning` (or None).
        Pruning is invoked every ``prune_interval`` edges and on demand
        via :meth:`prune`.
    count_three:
        Disable to count only 2-cycles (cheaper; used by ablations).
    """

    def __init__(self, pruner=None, prune_interval: int = 1000,
                 count_three: bool = True) -> None:
        self.graph = LiveGraph()
        self.counts = CycleCounts()
        self.patterns = PatternCounts()
        self.pruner = pruner
        self.prune_interval = prune_interval
        self.count_three = count_three
        self._edges_since_prune = 0
        self.prune_passes = 0
        #: Edges not inserted (see :meth:`add_edge_batch`).
        self.edges_refused = 0

    # -- BUU lifecycle forwarded to the live graph ---------------------------

    def begin_buu(self, buu: BuuId, start_time: int) -> None:
        self.graph.begin(buu, start_time)

    def commit_buu(self, buu: BuuId, commit_time: int) -> None:
        self.graph.commit(buu, commit_time)

    # -- edge ingestion ------------------------------------------------------

    def add_edge(self, edge: Edge) -> CycleCounts:
        """Ingest one edge; returns the new cycles it closed (also
        accumulated into :attr:`counts`).  The batch of one: the prune
        clock is checked right after the edge."""
        return self.add_edge_batch((edge,))

    def add_edges(self, edges) -> CycleCounts:
        total = CycleCounts()
        for edge in edges:
            total.add(self.add_edge(edge))
        return total

    def add_edge_uncounted(self, edge: Edge) -> bool:
        """Insert one edge into the live graph **without counting** the
        cycles it closes (no :attr:`counts` or pattern mutation).

        This is the cluster's foreign-edge path (:mod:`repro.cluster`):
        every worker mirrors its peers' edges so the graph each worker
        sees is the full serial graph — its *own* edges then close
        exactly the cycles the serial monitor would attribute to them —
        while cycle ownership stays with the worker whose shard derived
        the closing edge: the per-worker counts partition the serial
        ones.  The prune clock advances, and edges are refused or left
        out, exactly as in :meth:`add_edge_batch` (a late edge is
        reported by the worker that derived it), so the graph evolves as
        a serial monitor's does on the same edge order.

        Returns whether the edge was inserted.
        """
        graph = self.graph
        commits = graph.commits
        if edge.dst in commits:
            return False
        if edge.src not in graph.out and edge.src in commits:
            self.edges_refused += 1
            return False
        if not graph.add_edge(edge.src, edge.dst, edge.label, edge.kind):
            return False
        self._edges_since_prune += 1
        if self.pruner is not None and self._edges_since_prune >= self.prune_interval:
            self.prune(now=edge.seq)
        return True

    def add_edge_batch(self, edges: Iterable[Edge] | EdgeColumns) -> CycleCounts:
        """Ingest a batch of edges — an :class:`~repro.core.types.EdgeColumns`
        (walked through one ``zip``, allocating nothing per edge) or any
        iterable of :class:`~repro.core.types.Edge` — and return the new
        cycles they closed as one aggregate: the detector's one counting
        loop.

        Each cycle is counted when its last edge arrives: a new edge
        ``u -> v`` closes a 2-cycle with every label of ``v -> u`` and a
        3-cycle with every label pair of ``v -> w``, ``w -> u``.  Both
        legs' labels of a triangle candidate ``w`` arrive with the
        neighbour (see :class:`LiveGraph`), found by walking the smaller
        of ``out[v]`` / ``inc[u]`` and probing the other; ``w`` is never
        ``u`` or ``v`` because no self-loop is stored.  A new pair takes
        its ``(label, kind)`` entry from the intern table and a second
        label promotes it to a dict, so the loop allocates nothing for a
        one-label pair; the label arithmetic has a case for entry x
        entry (almost every triangle), entry x dict and dict x dict,
        none of which builds a container.

        An edge whose source is committed and has no row is *refused*
        (tallied in :attr:`edges_refused`, nothing else moves): every
        edge points at the BUU issuing the operation, so a committed
        vertex never gains an in-edge, and one without a row would only
        re-enter the graph for the next prune pass to remove it.  That
        needs a BUU's operations to arrive before its commit; an edge
        *into* a committed BUU is left out and, once the rest of the
        batch is applied, raises :class:`LifecycleOrderError`.

        Pattern recording is deferred to one ``Counter.update`` and the
        prune-interval check to the batch boundary.  Deferring pruning
        is count-preserving: safe pruning (§5.3) only removes vertices
        that cannot join future short cycles.
        """
        total = CycleCounts()
        graph = self.graph
        out = graph.out
        inc = graph.inc
        commits = graph.commits
        wr_entries, rw_entries, ww_entries = graph._entries
        count_three = self.count_three
        classify2 = classify_two_cycle
        pending: list = []
        record = pending.append
        added = refused = 0
        last_seq = 0
        late = None
        ss = dd = sss_t = ssd_t = ddd_t = 0
        rows: Iterable[tuple[BuuId, BuuId, EdgeType, Key, int]] = (
            edges.rows() if isinstance(edges, EdgeColumns) else edges)
        for src, dst, kind, label, seq in rows:
            if src == dst:
                continue
            if dst in commits:
                if late is None:
                    late = dst
                continue
            row = out.get(src)
            if row is None:
                if src in commits:
                    refused += 1
                    continue
                row = out[src] = {}
                inc[src] = {}
            labels = row.get(dst)
            if labels is None:
                out_v = out.get(dst)
                if out_v is None:
                    out_v = out[dst] = {}
                    inc[dst] = {}
                # LiveGraph._entry, inlined.
                table = (wr_entries if kind is _WR
                         else rw_entries if kind is _RW else ww_entries)
                entry = table.get(label)
                if entry is None:
                    entry = table[label] = (label, kind)
                row[dst] = inc[dst][src] = entry
            elif isinstance(labels, tuple):
                if labels[0] == label:
                    continue
                row[dst] = inc[dst][src] = {labels[0]: labels[1],
                                            label: kind}
                out_v = out[dst]
            elif label in labels:
                continue
            else:
                labels[label] = kind
                out_v = out[dst]
            added += 1
            last_seq = seq
            if not out_v:
                continue
            # 2-cycles: the new edge pairs with every existing dst->src label.
            back = out_v.get(src)
            if back is not None:
                for back_label, back_kind in (
                        (back,) if isinstance(back, tuple) else back.items()):
                    if back_label == label:
                        ss += 1
                    else:
                        dd += 1
                    record(classify2(kind, label, back_kind, back_label))
            # 3-cycles: src->dst closes triangles with dst->w, w->src.
            # The label arithmetic is symmetric in the two legs, so it
            # does not matter which one the walk yields.
            in_u = inc[src]
            if not in_u or not count_three:
                continue
            if len(out_v) > len(in_u):
                small, large = in_u, out_v
            else:
                small, large = out_v, in_u
            for w, a in small.items():
                b = large.get(w)
                if b is None:
                    continue
                if isinstance(b, tuple):
                    if isinstance(a, tuple):
                        x = a[0]
                        y = b[0]
                        if x == label:
                            if y == label:
                                sss_t += 1
                            else:
                                ssd_t += 1
                        elif y == label or x == y:
                            ssd_t += 1
                        else:
                            ddd_t += 1
                        continue
                    a, b = b, a
                # b is a dict, a an entry or a dict.
                nb = len(b)
                l_in_b = 1 if label in b else 0
                if isinstance(a, tuple):
                    x = a[0]
                    na = 1
                    l_in_a = 1 if x == label else 0
                    common = 1 if x in b else 0
                else:
                    na = len(a)
                    l_in_a = 1 if label in a else 0
                    common = 0
                    for x in a:
                        if x in b:
                            common += 1
                sss = l_in_a * l_in_b
                ssd = (l_in_a * (nb - l_in_b) + l_in_b * (na - l_in_a)
                       + common - sss)
                sss_t += sss
                ssd_t += ssd
                ddd_t += na * nb - sss - ssd
        if pending:
            self.patterns.counts.update(pending)
        self.edges_refused += refused
        if added:
            graph.edge_count += added
            total.ss = ss
            total.dd = dd
            total.sss = sss_t
            total.ssd = ssd_t
            total.ddd = ddd_t
            self.counts.add(total)
            self._edges_since_prune += added
            if (self.pruner is not None
                    and self._edges_since_prune >= self.prune_interval):
                self.prune(now=last_seq)
        if late is not None:
            raise LifecycleOrderError(late, total)
        return total

    # -- maintenance -----------------------------------------------------------

    def prune(self, now: int) -> int:
        """Run the configured pruner; returns vertices removed."""
        self._edges_since_prune = 0
        if self.pruner is None:
            return 0
        self.prune_passes += 1
        return self.pruner.prune(self.graph, now)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices()

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges()
