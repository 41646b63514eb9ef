"""Direct tests for the offline DependencyGraph structure."""

import pytest

from repro.core.types import Edge, EdgeType
from repro.graph.dependency import DependencyGraph


class TestDependencyGraph:
    def test_add_and_query(self):
        graph = DependencyGraph()
        assert graph.add(1, 2, "x")
        assert graph.has_edge(1, 2)
        assert not graph.has_edge(2, 1)
        assert graph.labels(1, 2) == {"x"}
        assert graph.successors(1) == {2}

    def test_rejects_self_loops(self):
        graph = DependencyGraph()
        assert not graph.add(1, 1, "x")
        assert graph.num_edges() == 0

    def test_rejects_duplicate_labels(self):
        graph = DependencyGraph()
        assert graph.add(1, 2, "x")
        assert not graph.add(1, 2, "x")
        assert graph.add(1, 2, "y")
        assert graph.num_edges() == 2

    def test_edges_iteration(self):
        graph = DependencyGraph()
        graph.add(1, 2, "x")
        graph.add(2, 3, "y")
        assert sorted(graph.edges()) == [(1, 2, "x"), (2, 3, "y")]

    def test_add_vertex_without_edges(self):
        graph = DependencyGraph()
        graph.add_vertex(9)
        assert 9 in graph.vertices
        assert graph.num_vertices() == 1
        assert graph.num_edges() == 0

    def test_copy_is_deep(self):
        graph = DependencyGraph()
        graph.add(1, 2, "x")
        graph.add_vertex(7)
        clone = graph.copy()
        graph.add(2, 3, "y")
        assert clone.num_edges() == 1
        assert 7 in clone.vertices
        assert not clone.has_edge(2, 3)

    def test_add_edge_object(self):
        graph = DependencyGraph()
        assert graph.add_edge(Edge(1, 2, EdgeType.RW, "x", 5))
        assert graph.labels(1, 2) == {"x"}

