"""The Section 7.2 synthetic workload.

"The workload iteratively executes BUUs on a graph: each BUU reads one
vertex and its neighbors, performs arithmetic operations on them, and
writes some values back to them."  The graph comes from the Table 1
preferential-attachment generator (parameters V, D, LB); the number of
workers C is a simulator parameter.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.graph.random_graphs import UndirectedGraph, preferential_attachment_graph
from repro.sim.buu import Buu


@dataclass
class GraphWorkloadConfig:
    """Table 1 parameters (scaled; the paper's defaults in comments).

    ``num_vertices`` — paper default 10e6, scaled to simulator size.
    ``average_degree`` — paper default 10.
    ``degree_lower_bound`` — paper default 0.
    ``neighbor_cap`` — cap on neighbours a BUU touches, keeping BUU size
    bounded on heavy-tailed graphs (the paper assumes ~10 ops per BUU).
    ``write_back`` — how many of the read vertices are written back;
    ``None`` (the default) writes back everything that was read, the
    §5.2 "write to the exact same location that has just been read"
    pattern that keeps reads-between-writes small and MOB nearly
    lossless.
    """

    num_vertices: int = 2000
    average_degree: int = 10
    degree_lower_bound: int = 0
    neighbor_cap: int = 8
    write_back: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_vertices < 2:
            raise ValueError("num_vertices must be >= 2")
        if self.neighbor_cap < 1:
            raise ValueError("neighbor_cap must be >= 1")
        if self.write_back is not None and self.write_back < 1:
            raise ValueError("write_back must be >= 1 or None")


class GraphWorkload:
    """BUU factory over a preferential-attachment graph.

    :meth:`buus` yields an endless stream of BUUs, each visiting a random
    vertex: read the vertex and (up to ``neighbor_cap``) neighbours, do
    arithmetic, write back to the vertex and a sample of the read
    neighbours.  Keys are vertex ids.
    """

    def __init__(self, config: GraphWorkloadConfig | None = None,
                 graph: UndirectedGraph | None = None) -> None:
        self.config = config or GraphWorkloadConfig()
        self._rng = random.Random(self.config.seed)
        if graph is not None:
            self.graph = graph
        else:
            self.graph = preferential_attachment_graph(
                self.config.num_vertices,
                self.config.average_degree,
                self.config.degree_lower_bound,
                random.Random(self.config.seed + 1),
            )

    @property
    def items(self) -> range:
        """The key universe (for the monitor's materialized sampler)."""
        return range(self.graph.num_vertices)

    def make_buu(self) -> Buu:
        rng = self._rng
        vertex = rng.randrange(self.graph.num_vertices)
        neighbors = list(self.graph.neighbors(vertex))
        if len(neighbors) > self.config.neighbor_cap:
            neighbors = rng.sample(neighbors, self.config.neighbor_cap)
        reads = [vertex] + neighbors
        if self.config.write_back is None:
            targets = list(reads)
        else:
            write_count = min(self.config.write_back, len(reads))
            extra = rng.sample(neighbors, write_count - 1) if write_count > 1 else []
            targets = [vertex] + extra

        def compute(values: dict) -> dict:
            total = sum((values.get(k) or 0.0) for k in reads)
            mean = total / len(reads)
            return {k: mean + 1.0 for k in targets}

        return Buu(reads=reads, compute=compute)

    def buus(self, count: int) -> Iterator[Buu]:
        for _ in range(count):
            yield self.make_buu()
