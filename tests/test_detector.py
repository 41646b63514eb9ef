"""Tests for the streaming cycle detector against the offline counter."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import CycleDetector, LiveGraph
from repro.core.types import Edge, EdgeType
from repro.graph.cycles import count_labelled_short_cycles
from repro.graph.dependency import DependencyGraph


def make_edges(triples):
    return [Edge(src, dst, EdgeType.WR, label, seq=i)
            for i, (src, dst, label) in enumerate(triples, start=1)]


def random_edge_stream(seed, n, vertices, labels):
    rng = random.Random(seed)
    return make_edges(
        (rng.randrange(vertices), rng.randrange(vertices), rng.randrange(labels))
        for _ in range(n)
    )


class TestLiveGraph:
    def test_duplicate_and_self_edges_rejected(self):
        graph = LiveGraph()
        assert graph.add_edge(1, 2, "x")
        assert not graph.add_edge(1, 2, "x")
        assert not graph.add_edge(1, 1, "x")
        assert graph.add_edge(1, 2, "y")
        assert graph.num_edges() == 2

    def test_remove_vertex_clears_edges(self):
        graph = LiveGraph()
        graph.add_edge(1, 2, "x")
        graph.add_edge(2, 3, "y")
        graph.add_edge(3, 1, "z")
        graph.remove_vertices([2])
        assert graph.num_edges() == 1
        assert graph.edge_labels(3, 1) == {"z"}
        assert not graph.edge_labels(1, 2)

    def test_active_time(self):
        graph = LiveGraph()
        graph.begin(1, 10)
        graph.begin(2, 5)
        assert graph.active_time() == 5.0
        graph.commit(2, 20)
        assert graph.active_time() == 10.0
        graph.commit(1, 25)
        assert graph.active_time(default=99) == 99.0

    def test_commit_time_infinity_while_alive(self):
        graph = LiveGraph()
        graph.begin(1, 0)
        assert graph.commit_time(1) == float("inf")
        graph.commit(1, 7)
        assert graph.commit_time(1) == 7.0


class TestCycleDetectorStreaming:
    def test_two_cycle_counted_once(self):
        det = CycleDetector()
        det.add_edge(Edge(1, 2, EdgeType.WR, "x"))
        new = det.add_edge(Edge(2, 1, EdgeType.RW, "x"))
        assert new.ss == 1
        assert det.counts.ss == 1
        # Re-adding is a duplicate and counts nothing.
        again = det.add_edge(Edge(2, 1, EdgeType.RW, "x"))
        assert again.two_cycles == 0
        assert det.counts.ss == 1

    def test_two_cycle_distinct_labels(self):
        det = CycleDetector()
        det.add_edge(Edge(1, 2, EdgeType.WR, "x"))
        new = det.add_edge(Edge(2, 1, EdgeType.WW, "z"))
        assert (new.ss, new.dd) == (0, 1)

    def test_three_cycle_label_classes(self):
        det = CycleDetector()
        det.add_edge(Edge(1, 2, EdgeType.WR, "x"))
        det.add_edge(Edge(2, 3, EdgeType.WR, "x"))
        new = det.add_edge(Edge(3, 1, EdgeType.WR, "x"))
        assert new.sss == 1

        det2 = CycleDetector()
        det2.add_edge(Edge(1, 2, EdgeType.WR, "x"))
        det2.add_edge(Edge(2, 3, EdgeType.WR, "y"))
        new2 = det2.add_edge(Edge(3, 1, EdgeType.WR, "z"))
        assert new2.ddd == 1

    def test_counts_attributed_to_closing_edge(self):
        det = CycleDetector()
        assert det.add_edge(Edge(1, 2, EdgeType.WR, "x")).two_cycles == 0
        assert det.add_edge(Edge(2, 3, EdgeType.WR, "y")).two_cycles == 0
        closing = det.add_edge(Edge(3, 1, EdgeType.WR, "z"))
        assert closing.three_cycles == 1

    def test_count_three_disabled(self):
        det = CycleDetector(count_three=False)
        det.add_edge(Edge(1, 2, EdgeType.WR, "x"))
        det.add_edge(Edge(2, 3, EdgeType.WR, "x"))
        det.add_edge(Edge(3, 1, EdgeType.WR, "x"))
        assert det.counts.three_cycles == 0
        det.add_edge(Edge(2, 1, EdgeType.WR, "x"))
        assert det.counts.two_cycles == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_offline_exact(self, seed):
        edges = random_edge_stream(seed, n=200, vertices=15, labels=4)
        det = CycleDetector()
        det.add_edges(edges)
        offline = DependencyGraph()
        offline.add_edges(edges)
        exact = count_labelled_short_cycles(offline)
        assert (det.counts.ss, det.counts.dd) == (exact.ss, exact.dd)
        assert (det.counts.sss, det.counts.ssd, det.counts.ddd) == (
            exact.sss,
            exact.ssd,
            exact.ddd,
        )

    @given(st.integers(0, 10**6), st.integers(4, 12), st.integers(5, 120))
    @settings(max_examples=40, deadline=None)
    def test_property_streaming_equals_offline(self, seed, vertices, n):
        edges = random_edge_stream(seed, n=n, vertices=vertices, labels=3)
        det = CycleDetector()
        det.add_edges(edges)
        offline = DependencyGraph()
        offline.add_edges(edges)
        exact = count_labelled_short_cycles(offline)
        assert det.counts.two_cycles == exact.two_cycles
        assert det.counts.three_cycles == exact.three_cycles

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_property_order_invariance(self, seed):
        """Total counts are independent of edge arrival order."""
        edges = random_edge_stream(seed, n=80, vertices=10, labels=3)
        det1 = CycleDetector()
        det1.add_edges(edges)
        shuffled = list(edges)
        random.Random(seed + 1).shuffle(shuffled)
        det2 = CycleDetector()
        det2.add_edges(shuffled)
        assert (det1.counts.ss, det1.counts.dd, det1.counts.sss,
                det1.counts.ssd, det1.counts.ddd) == (
            det2.counts.ss, det2.counts.dd, det2.counts.sss,
            det2.counts.ssd, det2.counts.ddd)
