"""Asynchronous weakly connected components (§7.1, Fig 10).

Each vertex holds a component label (initially its own id).  A BUU for
vertex v reads v's label and its neighbours' labels and writes the
minimum back to v.  The computation is self-stabilising under weak
isolation (the label is monotonically non-increasing), but out-of-order
execution delays convergence — which is what the experiment correlates
with anomaly counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.graph.random_graphs import UndirectedGraph
from repro.sim.buu import Buu
from repro.sim.scheduler import SimConfig, Simulator


def label_key(vertex: int) -> str:
    """Store key holding vertex's component label."""
    return f"c{vertex}"


def ground_truth_components(graph: UndirectedGraph) -> list[int]:
    """Min vertex id of each vertex's component, via union-find."""
    parent = list(range(graph.num_vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in graph.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    return [find(v) for v in range(graph.num_vertices)]


@dataclass
class WccResult:
    """Outcome of an asynchronous WCC run."""

    buus_to_converge: int | None
    converged: bool
    rounds: int
    estimated_2: float = 0.0
    estimated_3: float = 0.0
    sim_time: int = 0

    def cycles_per_time(self) -> tuple[float, float]:
        t = max(1, self.sim_time)
        return (self.estimated_2 / t, self.estimated_3 / t)


class AsyncWcc:
    """Drives asynchronous WCC on the simulator with a monitor attached."""

    def __init__(self, graph: UndirectedGraph,
                 sim_config: SimConfig | None = None,
                 monitor_config: RushMonConfig | None = None,
                 neighbor_cap: int = 10, seed: int = 0) -> None:
        self.graph = graph
        self.neighbor_cap = neighbor_cap
        self._rng = random.Random(seed)
        self.monitor = RushMon(
            monitor_config or RushMonConfig(sampling_rate=1, mob=False)
        )
        store = {label_key(v): v for v in range(graph.num_vertices)}
        self.simulator = Simulator(
            sim_config or SimConfig(num_workers=8, seed=seed),
            store=store,
            listeners=[self.monitor],
        )
        self._truth = ground_truth_components(graph)

    def vertex_buu(self, vertex: int) -> Buu:
        neighbors = list(self.graph.neighbors(vertex))
        if len(neighbors) > self.neighbor_cap:
            neighbors = self._rng.sample(neighbors, self.neighbor_cap)
        keys = [label_key(vertex)] + [label_key(n) for n in neighbors]

        def compute(values: dict) -> dict:
            labels = [v for v in values.values() if v is not None]
            new = min(labels) if labels else vertex
            return {label_key(vertex): new}

        return Buu(reads=keys, compute=compute, additive=False)

    def is_correct(self) -> bool:
        store = self.simulator.store
        return all(
            store.get(label_key(v)) == self._truth[v]
            for v in range(self.graph.num_vertices)
        )

    def run(self, max_rounds: int = 50) -> WccResult:
        """Supersteps of one BUU per vertex (random order) until correct."""
        buus_total = 0
        converged_at = None
        rounds_used = 0
        for round_index in range(max_rounds):
            rounds_used = round_index + 1
            order = list(range(self.graph.num_vertices))
            self._rng.shuffle(order)
            self.simulator.run(self.vertex_buu(v) for v in order)
            buus_total += len(order)
            if self.is_correct():
                converged_at = buus_total
                break
        e2, e3 = self.monitor.cumulative_estimates()
        return WccResult(
            buus_to_converge=converged_at,
            converged=converged_at is not None,
            rounds=rounds_used,
            estimated_2=e2,
            estimated_3=e3,
            sim_time=self.simulator.now,
        )
