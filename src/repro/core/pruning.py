"""Vertex pruning for the cycle detector (Section 5.3).

Two strategies:

- :class:`EctPruning` — *effective commit time* pruning.  For a committed
  vertex ``v``, ``ect(v)`` is the latest commit time over every vertex
  with a path to ``v`` (including ``v``).  If ``ect(v) < t_active`` (the
  earliest start among alive vertices), no path from any alive vertex to
  ``v`` can ever exist, so ``v`` can never be on a future cycle and is
  removed.  The test is decided exactly, by one forward reachability pass
  from the vertices whose own commit time is ``>= t_active``, so pruning
  is always safe (never removes a vertex that a future cycle could touch).
- :class:`DistancePruning` — a vertex on a future k-cycle must be within
  k-1 hops *from* some alive vertex (the cycle's closing edge lands on an
  alive vertex).  A multi-source BFS from the alive set to depth k-1
  identifies the keepers; every other committed vertex is removed.

The paper's "Both" (``make_pruner("both")``) is the distance pass alone:
alive vertices are ECT seeds, so what ECT removes is committed and
unreachable from every alive vertex — removed by distance too, and on no
path its search walks.  ECT-then-distance leaves the same graph.

All pruners refuse to act when no vertex is alive (there is no defined
``t_active``) — behind a sampling monitor that is "nobody alive that
touched the sample", since a begin only arrives with its BUU's first
operation on a chosen item — and never remove vertices whose lifecycle
was never reported: conservatism over aggressiveness.
"""

from __future__ import annotations

from repro.core.types import BuuId
from repro.core.detector import LiveGraph


class Pruner:
    """Base interface: ``prune`` is the periodic full pass and returns
    the vertices removed.

    Every pruner accumulates ``removed_total`` so observability
    (:mod:`repro.obs`) can report pruning effectiveness per strategy;
    :meth:`removed_by_strategy` returns the breakdown.
    """

    #: Strategy label used in the observability breakdown; subclasses
    #: with a meaningful identity override it.
    strategy: str | None = None

    def __init__(self) -> None:
        self.removed_total = 0

    def prune(self, graph: LiveGraph, now: int) -> int:
        return 0

    def removed_by_strategy(self) -> dict[str, int]:
        """Lifetime vertices removed, keyed by strategy name."""
        if self.strategy is None:
            return {}
        return {self.strategy: self.removed_total}


class NoPruning(Pruner):
    """Keep everything (the paper's "Nothing" configuration)."""


class EctPruning(Pruner):
    """Effective-commit-time pruning (§5.3, Fig 6).

    ``ect(v)`` is the latest commit time over the vertices that can
    reach ``v``, so ``ect(v) < t_active`` iff ``v`` is unreachable from
    every vertex whose own commit time is ``>= t_active`` (alive /
    lifecycle-unknown vertices count as +inf).  One forward reachability
    pass from those "recent" seeds decides prunability exactly.
    """

    strategy = "ect"

    # The paper additionally computes ect incrementally at each commit
    # ("when a BUU finishes ... compute ect_v").  At commit time
    # ect_v >= ct_v = now >= t_active, so the commit-time check can never
    # prune; its value in the paper is pre-computing ect for the periodic
    # pass.  This reproduction folds that maintenance into the periodic
    # pass, so there is no per-commit hook.

    def prune(self, graph: LiveGraph, now: int) -> int:
        if not graph.alive:
            return 0
        t_active = graph.active_time(default=now)
        commits = graph.commits
        out = graph.out
        stack = [v for v in out if v not in commits or commits[v] >= t_active]
        visited = set(stack)
        add = visited.add
        push = stack.append
        while stack:
            for w in out[stack.pop()]:
                if w not in visited:
                    add(w)
                    push(w)
        # Unvisited vertices are committed: they were not seeds.
        doomed = [v for v in out if v not in visited]
        graph.remove_vertices(doomed)
        self.removed_total += len(doomed)
        return len(doomed)


class DistancePruning(Pruner):
    """Distance-based pruning: keep only vertices within ``hops`` of an
    alive vertex (forward direction), where ``hops = max_cycle_len - 1``."""

    strategy = "distance"

    def __init__(self, max_cycle_length: int = 3) -> None:
        super().__init__()
        if max_cycle_length < 2:
            raise ValueError("max_cycle_length must be >= 2")
        self.hops = max_cycle_length - 1

    def prune(self, graph: LiveGraph, now: int) -> int:
        alive = graph.alive
        if not alive:
            return 0
        out = graph.out
        commits = graph.commits
        # Level-synchronous BFS from the alive vertices that have edges
        # (the others are trivially kept: they are not in the graph).
        frontier = reached = alive & out.keys()
        for _ in range(self.hops):
            level: set[BuuId] = set()
            for v in frontier:
                level.update(out[v])
            frontier = level - reached
            if not frontier:
                break
            reached |= frontier
        doomed = [v for v in out if v not in reached and v in commits]
        graph.remove_vertices(doomed)
        self.removed_total += len(doomed)
        return len(doomed)


def make_pruner(name: str, max_cycle_length: int = 3) -> Pruner:
    """Factory used by :class:`~repro.core.config.RushMonConfig`;
    ``"both"`` is the distance pass (see the module docstring)."""
    table = {
        "none": NoPruning,
        "ect": EctPruning,
        "distance": lambda: DistancePruning(max_cycle_length),
        "both": lambda: DistancePruning(max_cycle_length),
    }
    if name not in table:
        raise ValueError(f"unknown pruning strategy {name!r}; options: {sorted(table)}")
    return table[name]()
