"""Ablation: how often to run the pruning pass.

The periodic prune pass trades its own cost against detection cost: a
tiny interval spends all its time in breadth-first passes over the live
graph; a huge interval lets the live graph grow and 3-cycle detection
slow down.  The sweet spot is broad, which is why the paper can leave it
as "periodically".
"""

import time

from repro.bench.harness import scale
from repro.bench.reporting import emit, format_table
from repro.core.collector import BaselineCollector
from repro.core.detector import CycleDetector
from repro.core.pruning import make_pruner

INTERVALS = (100, 500, 2000, 10**9)  # effectively-never last


def _replay(run, prune_interval):
    events = sorted(
        [(t, 0, buu) for buu, t in run.begins]
        + [(t, 1, buu) for buu, t in run.commits]
    )
    edges = BaselineCollector().handle_all(run.ops)
    detector = CycleDetector(pruner=make_pruner("both"),
                             prune_interval=prune_interval)
    start = time.perf_counter()
    event_idx = 0
    for edge in edges:
        # Begins stamped edge.seq apply first; a commit on that tie waits
        # (it carries its last write's time and must follow that write).
        while event_idx < len(events) and events[event_idx] < (edge.seq, 1):
            t, kind, buu = events[event_idx]
            (detector.begin_buu if kind == 0 else detector.commit_buu)(buu, t)
            event_idx += 1
        detector.add_edge(edge)
    elapsed = time.perf_counter() - start
    return detector, elapsed, len(edges)


def test_ablation_pruning_interval(benchmark, default_run):
    def run():
        rows = []
        outcome = {}
        for interval in INTERVALS:
            detector, elapsed, edges = _replay(default_run, interval)
            rows.append((
                "never" if interval >= 10**9 else interval,
                round(1e9 * elapsed / max(1, edges)),
                detector.num_edges,
                detector.prune_passes,
            ))
            outcome[interval] = (detector, elapsed)
        emit(
            "ablation_pruning_interval",
            format_table(
                "Ablation: pruning interval vs detection cost",
                ["prune every N edges", "ns/edge", "final live edges",
                 "prune passes"],
                rows,
            ),
        )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    # Counts identical across intervals (pruning safety)...
    counts = [d.counts.two_cycles for d, _ in outcome.values()]
    assert len(set(counts)) == 1
    # ...and any pruning keeps the live graph smaller than never-pruning.
    never = outcome[10**9][0]
    assert outcome[500][0].num_edges < never.num_edges
