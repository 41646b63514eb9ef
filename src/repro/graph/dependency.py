"""Labelled dependency-graph structure.

The dependency graph (Section 2.1) has one vertex per BUU and a directed
edge per conflict, labelled with the data item the conflict occurred on.
It is a *labelled multigraph*: two BUUs may be connected by parallel edges
with different labels, and each label combination gives a distinct cycle
(the paper's read-skew example is a 2-cycle whose two edges are on
different items).  Duplicate edges with identical (src, dst, label) are
collapsed — re-reading the same written value adds no new conflict.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.core.types import BuuId, Edge, Key


class DependencyGraph:
    """An explicit, fully materialised dependency graph.

    This is the *offline* structure used by the baseline detector and by
    tests/benches for ground truth.  The real-time detector
    (:mod:`repro.core.detector`) keeps an equivalent incremental structure
    and prunes it; this class favours clarity over speed.
    """

    def __init__(self) -> None:
        # (u, v) -> set of labels for parallel edges u -> v
        self._labels: dict[tuple[BuuId, BuuId], set[Key]] = defaultdict(set)
        self._out: dict[BuuId, set[BuuId]] = defaultdict(set)
        self._vertices: set[BuuId] = set()
        self._edge_count = 0

    def add_vertex(self, v: BuuId) -> None:
        self._vertices.add(v)

    def add_edge(self, edge: Edge) -> bool:
        """Insert an edge; returns False if it was a duplicate or self-loop."""
        return self.add(edge.src, edge.dst, edge.label)

    def add(self, src: BuuId, dst: BuuId, label: Key) -> bool:
        if src == dst:
            return False
        labels = self._labels[(src, dst)]
        if label in labels:
            return False
        labels.add(label)
        self._out[src].add(dst)
        self._vertices.add(src)
        self._vertices.add(dst)
        self._edge_count += 1
        return True

    def add_edges(self, edges: Iterable[Edge]) -> None:
        for edge in edges:
            self.add_edge(edge)

    # -- accessors ---------------------------------------------------------

    @property
    def vertices(self) -> set[BuuId]:
        return self._vertices

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        """Number of labelled edges (parallel labels counted separately)."""
        return self._edge_count

    def successors(self, v: BuuId) -> set[BuuId]:
        return self._out.get(v, set())

    def labels(self, src: BuuId, dst: BuuId) -> set[Key]:
        """Labels of the parallel edges src -> dst (empty set if none)."""
        return self._labels.get((src, dst), set())

    def has_edge(self, src: BuuId, dst: BuuId) -> bool:
        return bool(self._labels.get((src, dst)))

    def edges(self) -> Iterator[tuple[BuuId, BuuId, Key]]:
        for (src, dst), labels in self._labels.items():
            for label in labels:
                yield (src, dst, label)

    def copy(self) -> "DependencyGraph":
        clone = DependencyGraph()
        for src, dst, label in self.edges():
            clone.add(src, dst, label)
        for v in self._vertices:
            clone.add_vertex(v)
        return clone

