"""``monitor``: a monitored workload with live observability, through the
in-process service or (``--workers N``) a multi-process cluster."""

from __future__ import annotations

import argparse
import sys
import threading
import time

from repro.checkers import check_trace
from repro.cli import (_DEFAULTS, _add_monitor_args, _counter_buus,
                       _graceful_shutdown, _start_exporter, _usage_errors)
from repro.cluster import ClusterMonitor
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.sim.scheduler import ThreadedWorkloadDriver
from repro.sim.traces import Trace

#: The ``--live`` columns: metric names without their ``rushmon_``.
_WATCHED = (
    "collector_ops_total", "collector_edges_total",
    "service_events_processed_total", "service_passes_total",
    "collector_lifecycle_elided_total", "detector_edges_refused_total",
    "detector_live_vertices", "service_report_age_seconds",
)


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run a monitored workload with live observability: the metrics
    registry of the concurrent service, optionally exported over HTTP
    (``--export-port``) and/or printed periodically (``--live``).

    Ctrl-C and SIGTERM are graceful shutdowns, not crashes: the service
    is stopped (draining the final window, writing a stop-time
    checkpoint when ``--checkpoint`` is given), the final metrics
    snapshot and report are printed, and the process exits 0.
    """
    if args.workers:
        return _run_cluster_monitor(args)

    with _usage_errors(args):
        service = RushMonService(RushMonConfig.from_cli_args(args))
    exporter = None
    if args.export_port is not None:
        exporter = _start_exporter(args, service.metrics)
        print(f"metrics exported at {exporter.url}/metrics "
              f"(JSON at /metrics.json)")

    interrupted = False
    trace = Trace() if args.oracle else None
    try:
        with _graceful_shutdown():
            # Workload construction is interruptible too (it dominates
            # startup for large --buus).  The driver notifies its
            # listeners of an operation under that key's lock, so a
            # recorder listed after the service sees each key's
            # operations in journal order (and none the service
            # refused).
            driver = ThreadedWorkloadDriver(
                [service] if trace is None else [service, trace],
                num_threads=args.threads, seed=args.seed, yield_every=5)
            workload = list(_counter_buus(args.buus, args.keys, args.touch,
                                          args.seed))
            service.start()
            if args.live:
                done = threading.Event()

                def _drive() -> None:
                    try:
                        driver.run(workload)
                    except Exception:
                        pass  # service stopped mid-run (Ctrl-C shutdown)
                    finally:
                        done.set()

                worker = threading.Thread(target=_drive, daemon=True)
                worker.start()
                print("  ".join(_WATCHED))
                while not done.wait(args.interval):
                    snap = service.metrics.snapshot()
                    cells = []
                    for label in _WATCHED:
                        value = snap.get("rushmon_" + label, 0)
                        text = (f"{value:.6g}" if isinstance(value, float)
                                else str(value))
                        cells.append(text.rjust(len(label)))
                    print("  ".join(cells))
                worker.join()
            else:
                driver.run(workload)
    except KeyboardInterrupt:
        interrupted = True
        print("\ninterrupted — stopping service and draining the final "
              "window")
    finally:
        service.stop()
        if args.checkpoint is not None:
            print(f"stop-time checkpoint written to {args.checkpoint}")
        if exporter is not None and (interrupted or not args.hold):
            exporter.stop()

    snap = service.metrics.snapshot()
    if args.json:
        print(service.metrics.render_json())
    else:
        print()
        print("final metrics snapshot:")
        for name in sorted(snap):
            value = snap[name]
            if isinstance(value, dict):
                value = (f"count={value['count']} sum={value['sum']:.6g} "
                         f"max={value['max']:.6g}")
            print(f"  {name} = {value}")
    report = service.latest_report()
    if report is not None:
        print(f"\nlast window: {report.operations} ops, "
              f"est {report.estimated_2:.1f} two-cycles, "
              f"{report.estimated_3:.1f} three-cycles")
    oracle_rc = 0
    if args.oracle:
        oracle_rc = _run_monitor_oracle(args, service, trace)
    if interrupted:
        return 0
    if exporter is not None and args.hold:
        print(f"\nholding exporter at {exporter.url}/metrics — Ctrl-C to stop")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            exporter.stop()
    return oracle_rc


def _run_cluster_monitor(args: argparse.Namespace) -> int:
    """``monitor --workers N``: the same workload against a multi-process
    :class:`~repro.cluster.ClusterMonitor` instead of the in-process
    service.

    The cluster facade owns no metrics registry, journal or checkpoint —
    those live inside the worker processes — so service-only flags are
    ignored with a warning rather than silently changing meaning.
    ``--live`` works: it prints the supervisor's per-shard health view
    (link state + consumed restart budget) alongside router throughput.
    """
    ignored = [flag for flag, given in (
        ("--export-port", args.export_port is not None),
        ("--checkpoint", args.checkpoint is not None),
        ("--oracle", args.oracle),
        ("--journal-capacity", args.journal_capacity is not None),
    ) if given]
    if ignored:
        print(f"cluster mode ignores {', '.join(ignored)} (service-only "
              f"features)", file=sys.stderr)

    with _usage_errors(args):
        cluster = ClusterMonitor(RushMonConfig.from_cli_args(args))
    stop_live = threading.Event()

    def _live_loop() -> None:
        while not stop_live.wait(args.interval):
            shards = cluster.shard_health()
            if not shards:
                continue
            states = " ".join(
                f"{s['index']}:{s['state']}"
                + (f"(r{s['restarts']})" if s["restarts"] else "")
                for s in shards)
            print(f"[live] ops={cluster.ops_routed} "
                  f"flushes={cluster.router_flushes} "
                  f"lifecycle_elided={cluster.lifecycle.elided} "
                  f"shards {states}", file=sys.stderr)

    if args.live:
        threading.Thread(target=_live_loop, daemon=True,
                         name="cluster-live").start()
    t0 = time.perf_counter()
    try:
        with _graceful_shutdown():
            driver = ThreadedWorkloadDriver([cluster],
                                            num_threads=args.threads,
                                            seed=args.seed, yield_every=5)
            workload = list(_counter_buus(args.buus, args.keys, args.touch,
                                          args.seed))
            driver.run(workload)
    except KeyboardInterrupt:
        print("\ninterrupted — closing the final cluster window")
    finally:
        try:
            report = cluster.close_window()
        finally:
            stop_live.set()
            cluster.stop()
    dt = time.perf_counter() - t0
    health = report.health
    if report.degraded_shards:
        health += (" (shards "
                   + ",".join(map(str, report.degraded_shards))
                   + " lost)")
    print(f"cluster: {args.workers} workers, {report.operations} ops in "
          f"the final window ({dt:.2f}s wall), health {health}, "
          f"{cluster.worker_restarts_total} respawns")
    print(f"last window: est {report.estimated_2:.1f} two-cycles, "
          f"{report.estimated_3:.1f} three-cycles")
    return 0


def _run_monitor_oracle(args: argparse.Namespace, service, trace) -> int:
    """``monitor --oracle``: run the trace recorded beside the service
    through the exact checker and report divergence from the live
    monitor.

    At ``sr=1 --no-mob`` the monitor is supposed to be *exact*, so any
    mismatch in the 2-/3-cycle counts is a bug and the exit code says so
    (1).  At ``sr>1`` (or with MOB) the estimate is only unbiased, so
    the oracle reports relative error instead of failing.
    """
    oracle = check_trace(trace)
    classes = ", ".join(f"{g.value}={n}" for g, n in sorted(
        oracle.counts.items(), key=lambda kv: kv[0].value)) or "none"
    print(f"\noracle: exact {oracle.cycles.two_cycles} two-cycles, "
          f"{oracle.cycles.three_cycles} three-cycles; classes: {classes}")
    counts = service.counts()
    e2, e3 = service.cumulative_estimates()
    if args.sampling_rate == 1 and args.no_mob:
        if counts != oracle.cycles:
            print(f"ORACLE DIVERGENCE: monitor counted {counts} but the "
                  f"exact checker found {oracle.cycles}", file=sys.stderr)
            return 1
        print("oracle: monitor counts match the exact checker bit-exactly")
        return 0
    exact2 = oracle.cycles.two_cycles
    exact3 = oracle.cycles.three_cycles
    err2 = abs(e2 - exact2) / exact2 if exact2 else abs(e2)
    err3 = abs(e3 - exact3) / exact3 if exact3 else abs(e3)
    print(f"oracle: estimate rel. error {100 * err2:.1f}% (2-cycles), "
          f"{100 * err3:.1f}% (3-cycles) at sr={args.sampling_rate}")
    return 0


def _monitor_flags(mon: argparse.ArgumentParser) -> None:
    _add_monitor_args(mon)
    mon.add_argument("--live", action="store_true",
                     help="print a metrics snapshot every --interval seconds "
                          "while the workload runs")
    mon.add_argument("--json", action="store_true",
                     help="print the final snapshot as JSON")
    mon.add_argument("--interval", type=float, default=0.5,
                     help="seconds between --live snapshots")
    mon.add_argument("--export-port", type=int, default=None,
                     help="serve Prometheus-style /metrics on this port "
                          "(0 = ephemeral; off unless given)")
    mon.add_argument("--hold", action="store_true",
                     help="keep the exporter serving after the workload "
                          "finishes (Ctrl-C to exit)")
    mon.add_argument("--threads", type=int, default=4)
    # As in quickstart: the toy run is over before 0.05 s passes twice.
    mon.add_argument("--detect-interval", type=float, default=0.02)
    mon.add_argument("--journal-capacity", type=int, default=None,
                     help="bound the detection journal to this many "
                          "buffered events (unbounded when omitted)")
    mon.add_argument("--overflow", default=_DEFAULTS.overflow,
                     choices=RushMonConfig.OVERFLOW_CHOICES,
                     help="what producers experience when the bounded "
                          "journal is full")
    mon.add_argument("--max-restarts", type=int,
                     default=_DEFAULTS.max_restarts,
                     help="consecutive detection failures before the "
                          "circuit breaker marks the service DEGRADED")
    mon.add_argument("--batch-size", type=int,
                     default=_DEFAULTS.batch_size,
                     help="operations per detector feed: a detection "
                          "pass feeds its edges once its records hold "
                          "this many")
    mon.add_argument("--buus", type=int, default=2000)
    mon.add_argument("--keys", type=int, default=64)
    mon.add_argument("--touch", type=int, default=3)
    mon.add_argument("--checkpoint", default=None,
                     help="write a stop-time checkpoint here on graceful "
                          "shutdown (Ctrl-C / SIGTERM included)")
    mon.add_argument("--oracle", action="store_true",
                     help="record the driven trace beside the service and "
                          "run it through the exact checker after the run; "
                          "at sr=1 --no-mob any count divergence exits 1")
    mon.add_argument("--workers", type=int, default=0,
                     help="drive a multi-process ClusterMonitor with this "
                          "many worker processes instead of the in-process "
                          "service (0 = in-process; service-only flags are "
                          "ignored in cluster mode)")
    mon.add_argument("--max-worker-restarts", type=int, default=None,
                     help="cluster mode: respawn attempts per worker shard "
                          "before its circuit breaker trips and reports "
                          "turn DEGRADED")
    mon.add_argument("--replay-journal-capacity", type=int, default=None,
                     help="cluster mode: per-shard replay-journal bound; a "
                          "shard snapshot round runs once a journal reaches "
                          "half of it")
    mon.set_defaults(func=cmd_monitor)


FLAGS = {"monitor": _monitor_flags}
