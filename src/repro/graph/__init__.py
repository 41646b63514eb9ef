"""Dependency-graph substrate: structure, exact cycle counting, generators."""

from repro.graph.dependency import DependencyGraph
from repro.graph.cycles import (
    count_cycles_johnson,
    count_labelled_short_cycles,
    count_simple_cycles_by_length,
    johnson_simple_cycles,
)
from repro.graph.random_graphs import (
    UndirectedGraph,
    directed_gnp,
    expected_k_cycles,
    preferential_attachment_graph,
)

__all__ = [
    "DependencyGraph",
    "count_cycles_johnson",
    "count_labelled_short_cycles",
    "count_simple_cycles_by_length",
    "johnson_simple_cycles",
    "UndirectedGraph",
    "directed_gnp",
    "expected_k_cycles",
    "preferential_attachment_graph",
]
