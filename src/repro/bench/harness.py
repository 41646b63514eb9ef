"""Shared machinery for the per-figure benchmark harness.

The sampling-quality experiments (Figs 12-23) all follow one pattern:
run a workload once on the simulator, record the *visibility-ordered
operation history*, then replay that identical history through different
collector configurations — so every configuration sees exactly the same
conflicts and differences are attributable to the collector alone, like
the paper's same-workload comparisons.

Overhead is reported the way the paper defines it: collector wall time
relative to the application's own wall time for the same operations
(``t_sr / t_0 - 1`` in §7.2), with the simulator run standing in for the
application.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core.collector import Collector
from repro.core.detector import CycleDetector
from repro.core.estimator import estimate_three_cycles, estimate_two_cycles
from repro.core.pruning import make_pruner
from repro.core.types import CycleCounts, Operation
from repro.sim.scheduler import SimConfig, Simulator
from repro.workloads.graph_workload import GraphWorkload, GraphWorkloadConfig

#: Paper sampling rates swept in every sampling-quality figure.
SAMPLING_RATES = (1, 2, 5, 10, 20, 50, 100)


def scale(base: int, minimum: int = 1) -> int:
    """Apply the REPRO_SCALE multiplier (default 1.0) to a workload size."""
    factor = float(os.environ.get("REPRO_SCALE", "1.0"))
    return max(minimum, int(base * factor))


class HistoryRecorder:
    """Listener that captures the operation stream and BUU lifecycle."""

    def __init__(self) -> None:
        self.ops: list[Operation] = []
        self.begins: list[tuple[int, int]] = []
        self.commits: list[tuple[int, int]] = []

    def on_operation(self, op: Operation) -> None:
        self.ops.append(op)

    def begin_buu(self, buu: int, t: int) -> None:
        self.begins.append((buu, t))

    def commit_buu(self, buu: int, t: int) -> None:
        self.commits.append((buu, t))


@dataclass
class RecordedRun:
    """A workload execution: its history and the application's wall time."""

    ops: list[Operation]
    begins: list[tuple[int, int]]
    commits: list[tuple[int, int]]
    app_seconds: float
    num_items: int


def record_graph_workload(
    num_buus: int,
    num_vertices: int = 2000,
    average_degree: int = 10,
    degree_lower_bound: int = 0,
    num_workers: int = 8,
    seed: int = 0,
    write_latency: int = 0,
    compute_jitter: int = 10,
) -> RecordedRun:
    """Run the §7.2 synthetic workload once and capture its history.

    Default visibility is immediate (write_latency=0): the paper's
    §7.2-7.4 substrate is a shared-memory multicore where writes become
    visible at once and anomalies come from op interleaving alone.
    """
    workload = GraphWorkload(
        GraphWorkloadConfig(
            num_vertices=num_vertices,
            average_degree=average_degree,
            degree_lower_bound=degree_lower_bound,
            seed=seed,
        )
    )
    recorder = HistoryRecorder()
    sim = Simulator(
        SimConfig(num_workers=num_workers, seed=seed,
                  write_latency=write_latency, compute_jitter=compute_jitter),
        listeners=[recorder],
    )
    start = time.perf_counter()
    sim.run(workload.buus(num_buus))
    app_seconds = time.perf_counter() - start
    return RecordedRun(
        ops=recorder.ops,
        begins=recorder.begins,
        commits=recorder.commits,
        app_seconds=app_seconds,
        num_items=num_vertices,
    )


def record_workload_from_buus(buus, num_items: int, num_workers: int = 8,
                              seed: int = 0, write_latency: int = 0,
                              compute_jitter: int = 10,
                              store: dict | None = None) -> RecordedRun:
    """Like :func:`record_graph_workload` for an arbitrary BUU list."""
    recorder = HistoryRecorder()
    sim = Simulator(
        SimConfig(num_workers=num_workers, seed=seed,
                  write_latency=write_latency, compute_jitter=compute_jitter),
        store=store,
        listeners=[recorder],
    )
    start = time.perf_counter()
    sim.run(buus)
    app_seconds = time.perf_counter() - start
    return RecordedRun(recorder.ops, recorder.begins, recorder.commits,
                       app_seconds, num_items)


@dataclass
class CollectorMeasurement:
    """What one collector configuration produced on a recorded history."""

    label: str
    collect_seconds: float
    detect_seconds: float
    edges: int
    raw: CycleCounts
    estimated_2: float
    estimated_3: float
    edge_stats: dict[str, int] = field(default_factory=dict)

    def overhead_percent(self, app_seconds: float) -> float:
        """Collector-only overhead relative to the application."""
        return 100.0 * self.collect_seconds / max(app_seconds, 1e-9)

    def overhead_with_detection_percent(self, app_seconds: float) -> float:
        return 100.0 * (self.collect_seconds + self.detect_seconds) / max(
            app_seconds, 1e-9
        )


def measure_collector(
    collector: Collector,
    run: RecordedRun,
    label: str,
    estimator: str = "dcs",
    pruning: str = "both",
    prune_interval: int = 2000,
) -> CollectorMeasurement:
    """Replay a recorded history through a collector + detector.

    ``estimator`` selects how sampled counts are inverse-weighted:
    ``"dcs"`` uses the Theorem 5.2 label-class estimator, ``"edge"`` the
    independent-edge weights (for the ES comparison).
    """
    # Lifecycle events in time order (begins before commits on ties), so
    # the detector's alive set — and therefore pruning — behaves exactly
    # as it would live.  A begin stamped ``edge.seq`` precedes the edge;
    # a commit does not: the simulator stamps a commit with its last
    # write's time, and a BUU's operations reach the detector before its
    # commit (the precondition of the detector's edge refusal).
    events = sorted(
        [(t, 0, buu) for buu, t in run.begins]
        + [(t, 1, buu) for buu, t in run.commits]
    )

    detector = CycleDetector(pruner=make_pruner(pruning),
                             prune_interval=prune_interval)

    start = time.perf_counter()
    edges = collector.handle_all(run.ops)
    collect_seconds = time.perf_counter() - start

    start = time.perf_counter()
    event_idx = 0
    for edge in edges:
        while event_idx < len(events) and events[event_idx] < (edge.seq, 1):
            t, kind, buu = events[event_idx]
            if kind == 0:
                detector.begin_buu(buu, t)
            else:
                detector.commit_buu(buu, t)
            event_idx += 1
        detector.add_edge(edge)
    detect_seconds = time.perf_counter() - start

    p = collector.sampling_probability
    if estimator == "dcs":
        est2 = estimate_two_cycles(detector.counts, p)
        est3 = estimate_three_cycles(detector.counts, p)
    elif estimator == "edge":
        from repro.core.estimator import (
            estimate_edge_sampled_three_cycles,
            estimate_edge_sampled_two_cycles,
        )

        est2 = estimate_edge_sampled_two_cycles(detector.counts, p)
        est3 = estimate_edge_sampled_three_cycles(detector.counts, p)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")

    return CollectorMeasurement(
        label=label,
        collect_seconds=collect_seconds,
        detect_seconds=detect_seconds,
        edges=len(edges),
        raw=detector.counts.copy(),
        estimated_2=est2,
        estimated_3=est3,
        edge_stats=collector.stats.as_dict(),
    )
