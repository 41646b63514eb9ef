"""Wiring helpers: register RushMon component readings on a registry.

Everything here is a callback gauge at zero cost until first read: the
front ends queue these helpers with :meth:`MetricsRegistry.defer
<repro.obs.metrics.MetricsRegistry.defer>`, binding the parts they read,
so the gauges are only registered when a snapshot or scrape first reads
the registry, and from then on read the component's existing counters
and structural properties lazily.  Called directly, a helper registers
at once.  Components are duck-typed (this module must not import
``repro.core`` — core imports ``repro.obs``, and the metrics layer stays
dependency-free).

Real counters and histograms (shard lock wait, detection-pass latency)
live inline where the measured code runs, in
:mod:`repro.core.concurrent` — they need to observe *during* execution,
not at snapshot time.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "instrument_cluster_monitor",
    "instrument_detector",
    "instrument_net_client",
    "instrument_net_server",
    "instrument_serial_monitor",
]

#: Strategies the pruned-vertex breakdown is exported for; ``"both"`` is
#: the distance pass, so its ``ect`` gauge reads 0.
_PRUNE_STRATEGIES = ("ect", "distance")


def instrument_detector(registry: MetricsRegistry, detector: Any) -> None:
    """Export a :class:`~repro.core.detector.CycleDetector`'s live-graph
    size, prune-pass count and per-strategy pruned-vertex totals."""
    registry.gauge_fn(
        "rushmon_detector_live_vertices",
        lambda: float(detector.num_vertices),
        help="vertices currently in the detector's live dependency graph",
    )
    registry.gauge_fn(
        "rushmon_detector_live_edges",
        lambda: float(detector.num_edges),
        help="edges currently in the detector's live dependency graph",
    )
    registry.gauge_fn(
        "rushmon_detector_prune_passes_total",
        lambda: float(detector.prune_passes),
        help="periodic pruning passes run by the detector",
    )
    registry.gauge_fn(
        "rushmon_detector_cycles_total",
        lambda: float(
            detector.counts.two_cycles + detector.counts.three_cycles
        ),
        help="sampled 2-/3-cycles counted since construction",
    )
    registry.gauge_fn(
        "rushmon_detector_edges_refused_total",
        lambda: float(detector.edges_refused),
        help="collected edges not inserted because their source was "
             "committed and absent, so could never close a cycle (offered "
             "= admitted + duplicate + self-loop + refused)",
    )
    pruner = getattr(detector, "pruner", None)
    if pruner is None or not hasattr(pruner, "removed_by_strategy"):
        return
    for strategy in _PRUNE_STRATEGIES:
        registry.gauge_fn(
            f"rushmon_detector_pruned_{strategy}_total",
            lambda s=strategy: float(
                pruner.removed_by_strategy().get(s, 0)
            ),
            help=f"vertices removed by {strategy} pruning since construction",
        )


def instrument_collector(registry: MetricsRegistry, collector: Any) -> None:
    """Export a collector's throughput, hit rate and edge count: the
    serial monitor's collector and the service's journaled one alike
    (anything with ``ops_seen``, ``touches`` and ``stats``)."""

    def hit_rate() -> float:
        seen = collector.ops_seen
        return (collector.touches / seen) if seen else 0.0

    registry.gauge_fn(
        "rushmon_collector_ops_total",
        lambda: float(collector.ops_seen),
        help="operations the collector has observed",
    )
    registry.gauge_fn(
        "rushmon_collector_sampled_ops_total",
        lambda: float(collector.touches),
        help="operations that performed bookkeeping (sampled-item hits)",
    )
    registry.gauge_fn(
        "rushmon_collector_sampled_hit_rate",
        hit_rate,
        help="fraction of observed operations that hit a sampled item",
    )
    registry.gauge_fn(
        "rushmon_collector_edges_total",
        lambda: float(collector.stats.total),
        help="dependency edges emitted by the collector",
    )


def instrument_serial_monitor(registry: MetricsRegistry, collector: Any,
                              detector: Any, reports: list) -> None:
    """Export the serial :class:`~repro.core.monitor.RushMon` facade's
    parts: collector throughput/hit-rate, windows closed, and the
    detector readings.

    Everything is callback-backed, so attaching a registry adds *zero*
    work to the serial hot path — the paper's overhead story is the
    collector's, and the serial monitor keeps it untouched.
    """
    # The callbacks close over the parts, never over the monitor: the
    # monitor owns the registry, and a callback holding the monitor would
    # make every dropped monitor (and its live graph) wait for a full
    # cyclic collection — and a scrape would walk its record buffer from
    # the scraping thread.  ``reports`` is appended to, never rebound.

    instrument_collector(registry, collector)
    registry.gauge_fn(
        "rushmon_monitor_reports_total",
        lambda: float(len(reports)),
        help="monitoring windows closed so far",
    )
    instrument_detector(registry, detector)


def instrument_net_server(registry: MetricsRegistry, server: Any) -> None:
    """Export a :class:`~repro.net.server.RushMonServer`'s connection
    and delivery readings (the server registers its own frame/ack
    counters and ack-latency histogram inline — those must observe
    during execution; everything here is a lazy callback).
    """
    registry.gauge_fn(
        "rushmon_net_connections_current",
        lambda: float(server.connections_current),
        help="client connections currently open",
    )
    registry.gauge_fn(
        "rushmon_net_connections_total",
        lambda: float(server.connections_total),
        help="client connections accepted since start",
    )
    registry.gauge_fn(
        "rushmon_net_sessions_current",
        lambda: float(server.sessions_current),
        help="client sessions the server holds delivery state for",
    )
    registry.gauge_fn(
        "rushmon_net_sessions_evicted_total",
        lambda: float(server.sessions_evicted_total),
        help="idle session-table entries expired by the session TTL",
    )
    registry.gauge_fn(
        "rushmon_net_reconnect_hellos_total",
        lambda: float(server.reconnect_hellos_total),
        help="hello messages that resumed an existing session "
             "(client reconnects, as the server sees them)",
    )
    registry.gauge_fn(
        "rushmon_net_dedup_hits_total",
        lambda: float(server.stats["dedup_hits"]),
        help="replayed batches absorbed by per-session dedup "
             "(reconciles with client retransmits; survives restore)",
    )
    registry.gauge_fn(
        "rushmon_net_batches_accepted_total",
        lambda: float(server.stats["batches_accepted"]),
        help="distinct batches ingested into the collector "
             "(lifetime, survives restore)",
    )
    registry.gauge_fn(
        "rushmon_net_admission_refusals_total",
        lambda: float(server.admission_refusals_total),
        help="connections refused with a typed overloaded error "
             "(admission control at max_connections)",
    )
    registry.gauge_fn(
        "rushmon_net_idle_disconnects_total",
        lambda: float(server.idle_disconnects_total),
        help="connections dropped by the idle deadline",
    )
    registry.gauge_fn(
        "rushmon_net_partial_frame_disconnects_total",
        lambda: float(server.partial_frame_disconnects_total),
        help="connections dropped by the partial-frame (slowloris) "
             "deadline",
    )
    registry.gauge_fn(
        "rushmon_net_write_overflow_disconnects_total",
        lambda: float(server.write_overflow_disconnects_total),
        help="connections dropped at the write-buffer high-watermark "
             "(peer stopped reading its acks)",
    )
    registry.gauge_fn(
        "rushmon_net_drain_forced_total",
        lambda: float(server.drain_forced_total),
        help="connections force-closed at the drain deadline with "
             "work still unflushed",
    )


def instrument_net_client(registry: MetricsRegistry, client: Any) -> None:
    """Export a :class:`~repro.net.client.RushMonClient`'s delivery
    counters and queue state for embedders that host the producer."""
    for name, attr, help_text in (
        ("rushmon_net_client_batches_sent_total", "batches_sent_total",
         "batch frames sent (first sends + retransmits)"),
        ("rushmon_net_client_retransmits_total", "retransmits_total",
         "batch frames re-sent after a reconnect or typed error"),
        ("rushmon_net_client_reconnects_total", "reconnects_total",
         "successful connections after the first"),
        ("rushmon_net_client_acked_batches_total", "acked_batches_total",
         "batches acknowledged by the server"),
        ("rushmon_net_client_shed_events_total", "shed_events_total",
         "events dropped by the client's shed policies (honest loss)"),
        ("rushmon_net_client_refusals_total", "refusals_total",
         "typed overloaded admission refusals received from the server"),
    ):
        registry.gauge_fn(
            name,
            lambda a=attr: float(getattr(client, a)),
            help=help_text,
        )
    registry.gauge_fn(
        "rushmon_net_client_queue_depth",
        lambda: float(client.queue_depth),
        help="events waiting in the client's bounded queue",
    )
    registry.gauge_fn(
        "rushmon_net_client_unacked_batches",
        lambda: float(client.unacked_batches),
        help="batches sent but not yet acknowledged",
    )


def instrument_cluster_monitor(registry: MetricsRegistry,
                               cluster: Any) -> None:
    """Export a :class:`~repro.cluster.ClusterMonitor`'s router-side
    readings.  Worker-internal counters live in the worker processes
    and surface through the merged window reports instead; everything
    observable from the router is a lazy callback gauge, so the
    ingestion hot path pays nothing."""
    registry.gauge_fn(
        "rushmon_cluster_workers",
        lambda: float(cluster.num_workers),
        help="worker processes the cluster routes over",
    )
    registry.gauge_fn(
        "rushmon_cluster_ops_routed_total",
        lambda: float(cluster.ops_routed),
        help="operations ticketed by the router (every operation "
             "offered, whether or not it was shipped to its worker shard)",
    )
    registry.gauge_fn(
        "rushmon_cluster_ops_elided_total",
        lambda: float(cluster.ops_elided),
        help="the subset of ops_routed never shipped: operations on items "
             "outside the DCS sample, sent to their shard as a count only",
    )
    registry.gauge_fn(
        "rushmon_cluster_lifecycle_broadcasts_total",
        lambda: float(cluster.lifecycle_broadcasts),
        help="BUU begin/commit broadcasts made (each goes to every "
             "worker); offered = broadcasts + elided + parked",
    )
    registry.gauge_fn(
        "rushmon_cluster_lifecycle_elided_total",
        lambda: float(cluster.lifecycle.elided),
        help="offered begin/commit events never broadcast: their BUU "
             "committed without an operation on a sampled item",
    )
    registry.gauge_fn(
        "rushmon_cluster_lifecycle_parked",
        lambda: float(cluster.lifecycle.num_parked),
        help="BUUs whose begin the router holds back until their first "
             "operation on a sampled item (or their commit)",
    )
    registry.gauge_fn(
        "rushmon_cluster_router_flushes_total",
        lambda: float(cluster.router_flushes),
        help="route-frame flushes shipped to the worker set",
    )
    registry.gauge_fn(
        "rushmon_cluster_reports_total",
        lambda: float(len(cluster.reports)),
        help="cluster-wide monitoring windows closed so far",
    )
    registry.gauge_fn(
        "rushmon_cluster_degraded",
        lambda: float(len(cluster.degraded_shards)),
        help="shards whose restart circuit breaker has tripped "
             "(0 = healthy; reports carry health=degraded while nonzero)",
    )
    registry.gauge_fn(
        "rushmon_cluster_worker_restarts_total",
        lambda: float(cluster.worker_restarts_total),
        help="worker processes respawned by the supervisor",
    )
    registry.gauge_fn(
        "rushmon_cluster_snapshots_shipped_total",
        lambda: float(cluster.snapshots_shipped),
        help="shard snapshots shipped, CRC-verified and stored",
    )
    registry.gauge_fn(
        "rushmon_cluster_snapshots_rejected_total",
        lambda: float(cluster.snapshots_rejected),
        help="shard snapshots rejected (CRC/format/coverage failures)",
    )
    registry.gauge_fn(
        "rushmon_cluster_replay_frames_total",
        lambda: float(cluster.replay_frames_total),
        help="journaled frames replayed onto respawned workers",
    )
    registry.gauge_fn(
        "rushmon_cluster_frames_dropped_failed_total",
        lambda: float(cluster.frames_dropped_failed),
        help="route frames dropped because the destination shard's "
             "circuit breaker tripped (degraded-mode loss accounting)",
    )
