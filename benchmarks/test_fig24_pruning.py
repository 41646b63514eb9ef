"""Fig 24: effectiveness of vertex pruning.

Paper, on the default synthetic workload:
  (a) pruning overhead per edge (ns) — all pruners cheap;
  (b) number of remaining edges — dis-pruning keeps the live graph flat;
  (c)/(d) per-edge 2-/3-cycle detection time — pruning wins by orders of
  magnitude once the unpruned graph grows.

We replay the same baseline edge stream through four detector
configurations and snapshot per-window cost and live-graph size.  Two
detection-cost figures are reported:

- *streaming ns/edge* — our incremental detector's per-edge cost
  (degree-local, so nearly size-insensitive; pruning buys bounded
  memory rather than speed here);
- *recount ms* — the cost of the paper's detection model, a brute-force
  recount over the stored graph at the end of the run, where pruning
  delivers the orders-of-magnitude win the paper reports.
"""

import time

from repro.bench.harness import scale
from repro.bench.reporting import emit, format_table
from repro.core.collector import BaselineCollector
from repro.core.detector import CycleDetector
from repro.core.pruning import make_pruner
from repro.graph.cycles import count_labelled_short_cycles
from repro.graph.dependency import DependencyGraph

PRUNERS = ["none", "ect", "distance", "both"]


def _brute_force_recount_seconds(detector) -> float:
    """Time the paper's detection model: exact counting over the stored
    (live) graph, as a periodic recount would pay."""
    graph = DependencyGraph()
    for src, dst, labels in detector.graph.edges():
        for label in labels:
            graph.add(src, dst, label)
    start = time.perf_counter()
    count_labelled_short_cycles(graph)
    return time.perf_counter() - start


def _replay(run, pruner_name, checkpoint_every, prune_interval):
    events = sorted(
        [(t, 0, buu) for buu, t in run.begins]
        + [(t, 1, buu) for buu, t in run.commits]
    )
    edges = BaselineCollector().handle_all(run.ops)
    detector = CycleDetector(pruner=make_pruner(pruner_name),
                             prune_interval=prune_interval)
    snapshots = []
    window_start = time.perf_counter()
    event_idx = 0
    for index, edge in enumerate(edges, start=1):
        # Begins stamped edge.seq apply first; a commit on that tie waits
        # (it carries its last write's time and must follow that write).
        while event_idx < len(events) and events[event_idx] < (edge.seq, 1):
            t, kind, buu = events[event_idx]
            if kind == 0:
                detector.begin_buu(buu, t)
            else:
                detector.commit_buu(buu, t)
            event_idx += 1
        detector.add_edge(edge)
        if index % checkpoint_every == 0:
            elapsed = time.perf_counter() - window_start
            snapshots.append(
                {
                    "edges_seen": index,
                    "live_edges": detector.num_edges,
                    "live_vertices": detector.num_vertices,
                    "ns_per_edge": 1e9 * elapsed / checkpoint_every,
                }
            )
            window_start = time.perf_counter()
    return detector, snapshots


def test_fig24_pruning(benchmark, default_run):
    def run():
        checkpoint = scale(2000)
        rows = []
        recount_rows = []
        outcome = {}
        for name in PRUNERS:
            detector, snaps = _replay(default_run, name,
                                      checkpoint_every=checkpoint,
                                      prune_interval=500)
            for snap in snaps:
                rows.append((name, snap["edges_seen"], snap["live_edges"],
                             snap["live_vertices"],
                             round(snap["ns_per_edge"])))
            recount = _brute_force_recount_seconds(detector)
            recount_rows.append((name, detector.num_edges,
                                 round(1000 * recount, 3)))
            outcome[name] = (detector, snaps, recount)
        emit(
            "fig24_pruning",
            format_table(
                "Fig 24(a,b): pruning — live graph size and streaming "
                "per-edge cost (includes pruning work)",
                ["pruning", "edges seen", "live edges", "live vertices",
                 "ns/edge"],
                rows,
            )
            + "\n\n"
            + format_table(
                "Fig 24(c,d): brute-force recount cost over the stored "
                "graph (the paper's detection model)",
                ["pruning", "stored edges", "recount ms"],
                recount_rows,
            ),
        )
        return outcome

    outcome = benchmark.pedantic(run, rounds=1, iterations=1)
    none_det, none_snaps, none_recount = outcome["none"]
    both_det, both_snaps, both_recount = outcome["both"]
    # Pruning must not change the counted anomalies...
    assert both_det.counts.two_cycles == none_det.counts.two_cycles
    assert both_det.counts.three_cycles == none_det.counts.three_cycles
    # ...while keeping the live graph dramatically smaller at the end...
    if none_snaps and both_snaps:
        assert both_snaps[-1]["live_edges"] < none_snaps[-1]["live_edges"]
        assert both_snaps[-1]["live_vertices"] < none_snaps[-1]["live_vertices"]
    # ...which makes the paper's periodic recount orders of magnitude
    # cheaper (their "1000x" claim, at our scale).
    assert both_recount * 20 < none_recount
