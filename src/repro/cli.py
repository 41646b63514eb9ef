"""Command-line interface: run monitored workloads and analyze traces.

Usage (after ``pip install -e .``):

    python -m repro quickstart
    python -m repro sweep --knob staleness --values 1,2,5,10
    python -m repro bookstore --latency 500 --purchases 1000
    python -m repro record --out run.jsonl --buus 500
    python -m repro analyze run.jsonl --sampling-rate 5
"""

from __future__ import annotations

import argparse
import random
import sys
from contextlib import contextmanager
from typing import TYPE_CHECKING

# Module level holds what *every* verb needs (the parser reads its
# defaults from RushMonConfig); a verb imports the rest inside its
# ``cmd_*``, so that ``serve`` — whose start-up is time nobody is
# monitoring — loads no simulator, workload, cluster or bench module
# (DESIGN.md §13.2).
from repro.core.config import RushMonConfig

if TYPE_CHECKING:
    from repro.core.monitor import RushMon
    from repro.sim import SimConfig


#: The one place a default lives: every flag that merely repeats a
#: :class:`RushMonConfig` default reads it from here.
_DEFAULTS = RushMonConfig()


@contextmanager
def _usage_errors(args: argparse.Namespace):
    """Wrap the part of a verb that *constructs* its config / monitor /
    service / server.  A ``ValueError`` there is a bad flag value (every
    constructor names the field it refuses), so it is answered like any
    other argparse error: the verb's usage, one ``error:`` line, exit 2.
    A ``ValueError`` raised once the workload runs still propagates."""
    try:
        yield
    except ValueError as exc:
        args.usage_error(str(exc))


def _add_monitor_args(parser: argparse.ArgumentParser,
                      sampling_rate: int | None = 1) -> None:
    """``sampling_rate=None`` leaves the flag's default to
    :class:`RushMonConfig` (``from_cli_args`` fills it in); the toy
    verbs default to 1 because their key spaces (20-64 items) are too
    small for sr=20 to sample anything."""
    effective = sampling_rate or _DEFAULTS.sampling_rate
    parser.add_argument("--sampling-rate", type=int, default=sampling_rate,
                        help=f"item sampling rate sr (p = 1/sr; default "
                             f"{effective})")
    parser.add_argument("--no-mob", action="store_true",
                        help="disable memory-optimized bookkeeping")
    parser.add_argument("--pruning", default=_DEFAULTS.pruning,
                        choices=RushMonConfig.PRUNING_CHOICES)
    parser.add_argument("--seed", type=int, default=0)


def _monitor_from(args: argparse.Namespace) -> RushMon:
    from repro.core.monitor import RushMon

    with _usage_errors(args):
        return RushMon(RushMonConfig.from_cli_args(args))


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threads", type=int, default=0,
                        help="drive the workload from N real threads through "
                             "the concurrent RushMonService (0 = serial)")
    # Not RushMonConfig's 0.05 s: a toy run lasts well under a second.
    parser.add_argument("--detect-interval", type=float, default=0.02,
                        help="seconds between background detection passes")


def _add_sim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=16)
    parser.add_argument("--latency", type=int, default=100,
                        help="write visibility latency (simulator steps)")
    parser.add_argument("--staleness", type=int, default=0,
                        help="staleness bound s (0 = unbounded)")
    parser.add_argument("--jitter", type=int, default=10,
                        help="compute-time jitter between reads and writes")
    parser.add_argument("--isolation", default="none",
                        choices=["none", "serializable", "snapshot"])


def _sim_config(args: argparse.Namespace) -> SimConfig:
    from repro.sim import SimConfig

    return SimConfig(
        num_workers=args.workers,
        write_latency=args.latency,
        staleness_bound=args.staleness or None,
        compute_jitter=args.jitter,
        isolation=args.isolation,
        seed=args.seed,
    )


def _counter_buus(count: int, keys: int, touch: int, seed: int):
    from repro.sim import read_modify_write

    rng = random.Random(seed)
    for _ in range(count):
        picked = rng.sample(range(keys), min(touch, keys))
        yield read_modify_write([f"k{k}" for k in picked],
                                lambda v: (v or 0) + 1)


def _install_sigterm_as_interrupt():
    """Route SIGTERM through the KeyboardInterrupt graceful path.

    Returns the previous handler (pass to :func:`_restore_sigterm`), or
    ``None`` when signals can't be installed here (non-main thread —
    e.g. the in-process CLI tests)."""
    import signal

    def _handler(signum, frame):
        raise KeyboardInterrupt

    try:
        return signal.signal(signal.SIGTERM, _handler)
    except ValueError:
        return None


def _restore_sigterm(previous) -> None:
    import signal

    if previous is not None:
        try:
            signal.signal(signal.SIGTERM, previous)
        except ValueError:
            pass


def _start_exporter(args: argparse.Namespace, registry):
    """``--export-port``: a bound, serving ``/metrics`` endpoint, or the
    verb ends as a usage error carrying the exporter's own message (the
    port is taken).  The HTTP stack is imported here, by the run that
    asked for it."""
    from repro.obs import MetricsExporter

    try:
        return MetricsExporter(registry, port=args.export_port).start()
    except RuntimeError as exc:
        args.usage_error(str(exc))


def _service_quickstart(args: argparse.Namespace) -> int:
    """quickstart --threads N: same workload, real threads, background
    detection via the concurrent RushMonService."""
    from repro.core.concurrent import RushMonService
    from repro.sim.scheduler import ThreadedWorkloadDriver

    with _usage_errors(args):
        service = RushMonService(RushMonConfig.from_cli_args(args))
    # Yield points widen the interleaving space the GIL would otherwise
    # make coarse — without them the toy workload is nearly anomaly-free.
    driver = ThreadedWorkloadDriver([service], num_threads=args.threads,
                                    seed=args.seed, yield_every=5)
    print(f"threads: {args.threads}")
    print("window  ops   est 2-cycles  est 3-cycles  top pattern")
    with service:
        for window in range(args.windows):
            driver.run(list(_counter_buus(args.buus, args.keys, args.touch,
                                          args.seed + window)))
            report = service.close_window()
            if report is None:
                continue
            top = max(report.patterns, key=report.patterns.get) \
                if report.patterns else "-"
            print(f"{window:>6}  {report.operations:>4}  "
                  f"{report.estimated_2:>12.1f}  {report.estimated_3:>12.1f}  "
                  f"{top}")
    e2, e3 = service.cumulative_estimates()
    print(f"\ntotal: {e2:.0f} two-cycles, {e3:.0f} three-cycles "
          f"({service.detector.num_vertices} live vertices after pruning)")
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run a monitored toy workload and print windowed reports."""
    if args.threads > 0:
        return _service_quickstart(args)
    from repro.sim import Simulator

    monitor = _monitor_from(args)
    sim = Simulator(_sim_config(args), listeners=[monitor])
    print("window  ops   est 2-cycles  est 3-cycles  top pattern")
    for window in range(args.windows):
        sim.run(_counter_buus(args.buus, args.keys, args.touch,
                              args.seed + window))
        report = monitor.close_window(sim.now)
        top = max(report.patterns, key=report.patterns.get) \
            if report.patterns else "-"
        print(f"{window:>6}  {report.operations:>4}  "
              f"{report.estimated_2:>12.1f}  {report.estimated_3:>12.1f}  {top}")
    e2, e3 = monitor.cumulative_estimates()
    print(f"\ntotal: {e2:.0f} two-cycles, {e3:.0f} three-cycles "
          f"({monitor.detector.num_vertices} live vertices after pruning)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep one chaos knob and print anomaly estimates per value."""
    from repro.sim import Simulator

    values = [int(v) for v in args.values.split(",")]
    print(f"{args.knob:>10}  est 2-cyc  est 3-cyc  per-kstep")
    for value in values:
        monitor = _monitor_from(args)
        config = _sim_config(args)
        if args.knob == "staleness":
            config.staleness_bound = value or None
        elif args.knob == "latency":
            config.write_latency = value
        elif args.knob == "workers":
            config.num_workers = value
        sim = Simulator(config, listeners=[monitor])
        sim.run(_counter_buus(args.buus, args.keys, args.touch, args.seed))
        e2, e3 = monitor.cumulative_estimates()
        rate = 1000 * (e2 + e3) / max(1, sim.now)
        print(f"{value:>10}  {e2:>9.0f}  {e3:>9.0f}  {rate:>9.2f}")
    return 0


def cmd_bookstore(args: argparse.Namespace) -> int:
    """Run the Fig 11 bookstore and print violations vs anomalies."""
    from repro.workloads.bookstore import Bookstore, BookstoreConfig

    monitor = _monitor_from(args)
    shop = Bookstore(
        BookstoreConfig(num_books=args.books, customers=args.workers,
                        books_per_order=args.order_size,
                        initial_stock=args.stock, seed=args.seed),
        _sim_config(args),
    )
    shop.simulator.subscribe(monitor)
    counter = shop.run(args.purchases)
    e2, e3 = monitor.cumulative_estimates()
    print(f"purchases: {args.purchases}")
    print(f"violation rate: {100 * counter.violation_rate:.2f}%")
    print(f"estimated anomalies: {e2:.0f} two-cycles, {e3:.0f} three-cycles")
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    """Record an execution trace to a JSONL file."""
    from repro.sim import Simulator
    from repro.sim.traces import Trace

    trace = Trace()
    sim = Simulator(_sim_config(args), listeners=[trace])
    sim.run(_counter_buus(args.buus, args.keys, args.touch, args.seed))
    trace.save(args.out)
    print(f"recorded {len(trace.ops)} operations "
          f"({len(trace.commits)} BUUs) to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Replay a trace through the monitor and print exact vs estimated."""
    from repro.core.monitor import OfflineAnomalyMonitor
    from repro.sim.traces import Trace

    trace = Trace.load(args.trace)
    monitor = _monitor_from(args)
    offline = OfflineAnomalyMonitor()
    trace.replay([monitor, offline])
    e2, e3 = monitor.cumulative_estimates()
    exact = offline.exact_counts()
    print(f"operations: {len(trace.ops)}   BUUs: {len(trace.commits)}")
    print(f"exact:     {exact.two_cycles} two-cycles, "
          f"{exact.three_cycles} three-cycles")
    print(f"estimated: {e2:.1f} two-cycles, {e3:.1f} three-cycles "
          f"(sr={args.sampling_rate})")
    patterns = monitor.detector.patterns.as_dict()
    if patterns:
        print("sampled 2-cycle patterns:")
        for name, count in sorted(patterns.items(), key=lambda kv: -kv[1]):
            print(f"  {name}: {count}")
    return 0


#: Human-readable gloss per anomaly class, for ``check`` output.
_GCLASS_GLOSS = {
    "G0": "dirty write",
    "G1a": "aborted read",
    "G1b": "intermediate read",
    "G1c": "circular information flow",
    "G-SI": "write skew",
    "G2": "anti-dependency cycle",
}


def cmd_check(args: argparse.Namespace) -> int:
    """Exact offline isolation check of a recorded trace.

    Rebuilds the full dependency graph (no sampling), reports the exact
    2-/3-cycle counts the monitor estimates, and classifies every cycle
    and bad read into the G-class taxonomy with concrete witnesses.
    Exit 0 iff the history is anomaly-free.
    """
    from repro.checkers import CYCLE_CLASSES, GClass, check_trace
    from repro.sim.traces import Trace

    trace = Trace.load(args.trace)
    report = check_trace(trace, max_cycle_length=args.max_cycle_len,
                         max_witnesses=args.witnesses)
    if args.json:
        import json

        payload = {
            "operations": report.operations,
            "buus": report.buus,
            "aborted": list(report.aborted),
            "edges": {"wr": report.edges.wr, "ww": report.edges.ww,
                      "rw": report.edges.rw,
                      "distinct": report.distinct_edges},
            "cycles": {"two": report.cycles.two_cycles,
                       "three": report.cycles.three_cycles,
                       "ss": report.cycles.ss, "dd": report.cycles.dd,
                       "sss": report.cycles.sss, "ssd": report.cycles.ssd,
                       "ddd": report.cycles.ddd},
            "serializable": report.serializable,
            "anomaly_free": report.anomaly_free,
            "max_cycle_length": report.max_cycle_length,
            "counts": {g.value: n for g, n in sorted(
                report.counts.items(), key=lambda kv: kv[0].value)},
            "witnesses": {g.value: [w.pretty() for w in ws]
                          for g, ws in report.witnesses.items()},
        }
        print(json.dumps(payload, indent=2))
        return 0 if report.anomaly_free else 1

    aborted = f"   aborted: {len(report.aborted)}" if report.aborted else ""
    print(f"operations: {report.operations}   BUUs: {report.buus}{aborted}")
    print(f"edges: wr={report.edges.wr} ww={report.edges.ww} "
          f"rw={report.edges.rw} ({report.distinct_edges} distinct)")
    print(f"exact cycles: {report.cycles.two_cycles} two-cycles "
          f"(ss={report.cycles.ss} dd={report.cycles.dd}), "
          f"{report.cycles.three_cycles} three-cycles "
          f"(sss={report.cycles.sss} ssd={report.cycles.ssd} "
          f"ddd={report.cycles.ddd})")
    if report.serializable:
        print("serializable: yes")
        head = ", ".join(str(b) for b in report.serial_order[:12])
        more = "..." if len(report.serial_order) > 12 else ""
        print(f"witness serial order: {head}{more}")
    else:
        print("serializable: NO")
    if report.counts:
        print(f"anomaly classes (cycles up to length "
              f"{report.max_cycle_length}):")
        for gclass in GClass:
            count = report.counts.get(gclass, 0)
            if not count:
                continue
            gloss = _GCLASS_GLOSS[gclass.value]
            print(f"  {gclass.value} ({gloss}): {count}")
            prefix = ("violating cycle: " if gclass in CYCLE_CLASSES
                      else "")
            for witness in report.witnesses.get(gclass, ()):
                print(f"    {prefix}{witness.pretty()}")
    if report.cycles_beyond_bound:
        print(f"  violating cycle: every cycle is longer than "
              f"--max-cycle-len {report.max_cycle_length} "
              f"(raise it to witness one)")
    if report.anomaly_free:
        print("anomaly-free: yes")
        return 0
    print("anomaly-free: NO")
    return 1


def cmd_monitor(args: argparse.Namespace) -> int:
    """Run a monitored workload with live observability: the metrics
    registry of the concurrent service, optionally exported over HTTP
    (``--export-port``) and/or printed periodically (``--live``).

    Ctrl-C and SIGTERM are graceful shutdowns, not crashes: the service
    is stopped (draining the final window, writing a stop-time
    checkpoint when ``--checkpoint`` is given), the final metrics
    snapshot and report are printed, and the process exits 0.
    """
    import threading
    import time as _time

    from repro.core.concurrent import RushMonService
    from repro.sim.scheduler import ThreadedWorkloadDriver

    if getattr(args, "workers", 0):
        return _run_cluster_monitor(args)

    with _usage_errors(args):
        service = RushMonService(RushMonConfig.from_cli_args(args))
    exporter = None
    if args.export_port is not None:
        exporter = _start_exporter(args, service.metrics)
        print(f"metrics exported at {exporter.url}/metrics "
              f"(JSON at /metrics.json)")

    watched = [
        "rushmon_collector_ops_total",
        "rushmon_collector_edges_total",
        "rushmon_service_events_processed_total",
        "rushmon_service_passes_total",
        "rushmon_collector_lifecycle_elided_total",
        "rushmon_detector_edges_refused_total",
        "rushmon_detector_live_vertices",
        "rushmon_service_report_age_seconds",
    ]
    interrupted = False
    # SIGTERM (systemd stop, `kill`, container teardown) takes the same
    # graceful path as Ctrl-C: raise KeyboardInterrupt in the main
    # thread so the finally below drains, checkpoints and reports.
    previous_sigterm = _install_sigterm_as_interrupt()
    try:
        # Workload construction is interruptible too (it dominates
        # startup for large --buus), so it lives inside the handler.
        # The driver notifies its listeners of an operation under that
        # key's lock, so a recorder listed after the service sees each
        # key's operations in journal order (and none the service
        # refused).
        trace = None
        if args.oracle:
            from repro.sim.traces import Trace

            trace = Trace()
        driver = ThreadedWorkloadDriver(
            [service] if trace is None else [service, trace],
            num_threads=args.threads, seed=args.seed, yield_every=5)
        workload = list(
            _counter_buus(args.buus, args.keys, args.touch, args.seed)
        )
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
            short = [n.replace("rushmon_", "") for n in watched]
            print("  ".join(short))
            while not done.wait(args.interval):
                snap = service.metrics.snapshot()
                cells = []
                for name, label in zip(watched, short):
                    value = snap.get(name, 0)
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
        _restore_sigterm(previous_sigterm)
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
                _time.sleep(1.0)
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
    import threading as _threading
    import time as _time

    from repro.cluster import ClusterMonitor
    from repro.sim.scheduler import ThreadedWorkloadDriver

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
    stop_live = _threading.Event()

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
        _threading.Thread(target=_live_loop, daemon=True,
                          name="cluster-live").start()
    previous_sigterm = _install_sigterm_as_interrupt()
    interrupted = False
    t0 = _time.perf_counter()
    try:
        driver = ThreadedWorkloadDriver([cluster], num_threads=args.threads,
                                        seed=args.seed, yield_every=5)
        workload = list(
            _counter_buus(args.buus, args.keys, args.touch, args.seed)
        )
        driver.run(workload)
    except KeyboardInterrupt:
        interrupted = True
        print("\ninterrupted — closing the final cluster window")
    finally:
        _restore_sigterm(previous_sigterm)
        try:
            report = cluster.close_window()
        finally:
            stop_live.set()
            cluster.stop()
    dt = _time.perf_counter() - t0
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
    from repro.checkers import check_trace

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


def cmd_serve(args: argparse.Namespace) -> int:
    """Run a RushMon server: accept networked clients and monitor their
    streamed BUU events.

    With ``--checkpoint``, the server acknowledges batches only after a
    checkpoint covers them, and an existing checkpoint file is restored
    on startup — so restarting after ``kill -9`` resumes the session
    table and counts without losing acknowledged events or
    double-counting replays.  SIGTERM/Ctrl-C drain gracefully (stop
    accepting, flush acks, final checkpoint) and exit 0.
    """
    import os
    import signal
    import threading

    from repro.core.concurrent import RushMonService
    from repro.net import RushMonServer

    # One config object carries the monitor/service fields AND the
    # serving fields (--max-connections, --idle-timeout, ...), so the
    # restore path still honors the serving flags.
    with _usage_errors(args):
        cfg = RushMonConfig.from_cli_args(args)
        if args.checkpoint is not None and os.path.exists(args.checkpoint):
            service = RushMonService.restore(args.checkpoint)
            print(f"restored state from {args.checkpoint} "
                  f"(events={service.processed_events}, "
                  f"reports={len(service.reports)})", flush=True)
        else:
            # from_cli_args picks up --checkpoint as the config's
            # checkpoint_path; the server owns the group-commit
            # checkpoint schedule (--checkpoint-every).
            service = RushMonService(cfg)
        server = RushMonServer(
            service,
            host=args.host,
            port=args.port,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            max_connections=cfg.max_connections,
            idle_timeout=cfg.idle_timeout,
            drain_timeout=cfg.drain_timeout,
        )
    # The exporter binds first: if its port is taken the verb ends
    # before an ingest socket exists for a client to connect to.
    exporter = None
    if args.export_port is not None:
        exporter = _start_exporter(args, service.metrics)
        print(f"metrics exported at {exporter.url}/metrics", flush=True)
    server.start()

    stop = threading.Event()

    def _handler(signum, frame):
        stop.set()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _handler)
        except ValueError:  # non-main thread (in-process tests)
            pass
    # The parseable line test harnesses and the quickstart grep for —
    # printed once a SIGTERM means "drain", so whoever waits for it may
    # stop the server the moment they have read it:
    print(f"rushmon server listening on {server.host}:{server.port}",
          flush=True)
    try:
        stop.wait()
    finally:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except ValueError:
                pass
        print("draining: no new batches, flushing acknowledgements",
              flush=True)
        server.drain()
        if exporter is not None:
            exporter.stop()
    counts = service.counts()
    print(f"drained. sessions={server.sessions_current} "
          f"batches={server.stats['batches_accepted']} "
          f"events={server.stats['events_ingested']} "
          f"dedup_hits={server.stats['dedup_hits']}")
    print(f"sampled counts: {counts.two_cycles} two-cycles, "
          f"{counts.three_cycles} three-cycles")
    if args.checkpoint is not None:
        print(f"final checkpoint written to {args.checkpoint}")
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    """Stream a simulated workload to a RushMon server over TCP.

    The :class:`~repro.net.RushMonClient` attaches to the simulator as
    an ordinary monitor listener; every event is shipped with delivery
    guarantees (bounded queue, batching, acks, reconnect + replay).
    Exits 0 when every event was acknowledged, 1 otherwise.
    """
    from repro.net import RushMonClient
    from repro.sim import Simulator

    client = RushMonClient(
        args.host, args.port,
        session=args.session,
        batch_size=args.net_batch,
        flush_interval=args.flush_interval,
        queue_capacity=args.queue_capacity,
        overflow=args.net_overflow,
    )
    client.start()
    sim = Simulator(_sim_config(args), listeners=[client])
    sim.run(_counter_buus(args.buus, args.keys, args.touch, args.seed))
    clean = client.close(timeout=args.close_timeout)
    counters = client.counters()
    print(f"emitted {counters['events_enqueued']} events in "
          f"{counters['acked_batches']} acked batches "
          f"(retransmits={counters['retransmits']}, "
          f"reconnects={counters['reconnects']}, "
          f"shed={counters['shed_events']})")
    if not clean:
        print("WARNING: close timed out with unacknowledged events",
              file=sys.stderr)
        return 1
    return 0


def cmd_bench_overhead(args: argparse.Namespace) -> int:
    """Run the monitored-vs-bare overhead harness; ``--quick`` shrinks
    whatever was not given explicitly."""
    from repro.bench.overhead import run_overhead

    with _usage_errors(args):  # --batch-size, before any timing
        RushMonConfig.from_cli_args(args)
    quick = args.quick
    rates = args.rates or ("1,20" if quick else "1,4,20")
    run_overhead(buus=args.buus or (300 if quick else 4000),
                 keys=args.keys or (128 if quick else 1024),
                 threads=args.threads or (2 if quick else 4),
                 repeats=args.repeats or (1 if quick else 3),
                 sampling_rates=[int(v) for v in rates.split(",")],
                 seed=args.seed,
                 batch_size=args.batch_size)
    return 0


def cmd_bench_threads(args: argparse.Namespace) -> int:
    """Run the serial vs. service thread-scaling benchmark."""
    from repro.bench.threads import run_thread_scaling

    with _usage_errors(args):  # --batch-size, before any timing
        RushMonConfig.from_cli_args(args)
    thread_counts = [int(v) for v in args.threads.split(",")]
    run_thread_scaling(
        thread_counts=thread_counts,
        buus=args.buus,
        keys=args.keys,
        touch=args.touch,
        sampling_rate=args.sampling_rate,
        seed=args.seed,
        batch_size=args.batch_size,
    )
    return 0


def cmd_bench_serving(args: argparse.Namespace) -> int:
    """Run the serving soak bench (BENCH_serving.json): open-loop load
    over the event-loop server — max sustainable rate, p50/p99/p999 ack
    latency, typed-refusal behaviour under 2x overload."""
    from repro.bench.serving import run_serving

    return run_serving(
        args.out,
        quick=args.quick,
        update=args.update,
        check=args.check,
        tolerance=args.tolerance,
        seed=args.seed,
    )


def _quickstart_flags(quick: argparse.ArgumentParser) -> None:
    _add_monitor_args(quick)
    _add_sim_args(quick)
    _add_service_args(quick)
    quick.add_argument("--windows", type=int, default=5)
    quick.add_argument("--buus", type=int, default=400)
    quick.add_argument("--keys", type=int, default=20)
    quick.add_argument("--touch", type=int, default=2)
    quick.set_defaults(func=cmd_quickstart)


def _sweep_flags(sweep: argparse.ArgumentParser) -> None:
    _add_monitor_args(sweep)
    _add_sim_args(sweep)
    sweep.add_argument("--knob", default="staleness",
                       choices=["staleness", "latency", "workers"])
    sweep.add_argument("--values", default="1,2,5,10,0",
                       help="comma-separated values (0 = unbounded staleness)")
    sweep.add_argument("--buus", type=int, default=600)
    sweep.add_argument("--keys", type=int, default=40)
    sweep.add_argument("--touch", type=int, default=3)
    sweep.set_defaults(func=cmd_sweep)


def _bookstore_flags(shop: argparse.ArgumentParser) -> None:
    _add_monitor_args(shop)
    _add_sim_args(shop)
    shop.add_argument("--books", type=int, default=60)
    shop.add_argument("--order-size", type=int, default=3)
    shop.add_argument("--stock", type=int, default=3)
    shop.add_argument("--purchases", type=int, default=1000)
    shop.set_defaults(func=cmd_bookstore)


def _record_flags(rec: argparse.ArgumentParser) -> None:
    _add_monitor_args(rec)
    _add_sim_args(rec)
    rec.add_argument("--out", required=True)
    rec.add_argument("--buus", type=int, default=500)
    rec.add_argument("--keys", type=int, default=30)
    rec.add_argument("--touch", type=int, default=3)
    rec.set_defaults(func=cmd_record)


def _analyze_flags(ana: argparse.ArgumentParser) -> None:
    _add_monitor_args(ana)
    ana.add_argument("trace")
    ana.set_defaults(func=cmd_analyze)


def _bench_threads_flags(bench: argparse.ArgumentParser) -> None:
    bench.add_argument("--threads", default="1,2,4,8",
                       help="comma-separated thread counts")
    bench.add_argument("--buus", type=int, default=4000)
    bench.add_argument("--keys", type=int, default=256)
    bench.add_argument("--touch", type=int, default=3)
    bench.add_argument("--sampling-rate", type=int, default=4)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--batch-size", type=int,
                       default=_DEFAULTS.batch_size,
                       help="operations per service ingest batch")
    bench.set_defaults(func=cmd_bench_threads)


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
                     help="most journaled operations per journal record "
                          "(one collector call and one detector feed "
                          "each)")
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


def _serve_flags(srv: argparse.ArgumentParser) -> None:
    _add_monitor_args(srv, sampling_rate=None)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 = ephemeral; the bound port is "
                          "printed on the 'listening on' line)")
    srv.add_argument("--checkpoint", default=None,
                     help="durable state file: restored on startup if it "
                          "exists; batches are acknowledged only once a "
                          "checkpoint covers them")
    srv.add_argument("--checkpoint-every", type=int, default=4,
                     help="group-commit size: checkpoint + ack after this "
                          "many ingested batches")
    srv.add_argument("--export-port", type=int, default=None,
                     help="serve /metrics on this port (0 = ephemeral)")
    srv.add_argument("--detect-interval", type=float, default=None,
                     help=f"seconds between background detection passes "
                          f"(default {_DEFAULTS.detect_interval})")
    srv.add_argument("--journal-capacity", type=int, default=None)
    srv.add_argument("--overflow", default=_DEFAULTS.overflow,
                     choices=RushMonConfig.OVERFLOW_CHOICES)
    srv.add_argument("--max-restarts", type=int,
                     default=_DEFAULTS.max_restarts)
    srv.add_argument("--batch-size", type=int, default=_DEFAULTS.batch_size)
    srv.add_argument("--max-connections", type=int, default=None,
                     help="admission cap on concurrent connections; over "
                          "it, new clients get a typed 'overloaded' error "
                          "with a retry hint (default: unlimited)")
    srv.add_argument("--idle-timeout", type=float, default=None,
                     help=f"seconds of connection silence before disconnect "
                          f"(default {_DEFAULTS.idle_timeout:g}; 0 disables)")
    srv.add_argument("--drain-timeout", type=float, default=None,
                     help=f"hard bound on total graceful-drain seconds "
                          f"(default {_DEFAULTS.drain_timeout:g})")
    # The service records no trace any more; the flag is still accepted
    # (and ignored) because the benchmark harness's serve child passes it.
    srv.add_argument("--no-trace", action="store_true",
                     help=argparse.SUPPRESS)
    srv.set_defaults(func=cmd_serve)


def _emit_flags(emit: argparse.ArgumentParser) -> None:
    _add_sim_args(emit)
    emit.add_argument("--host", default="127.0.0.1")
    emit.add_argument("--port", type=int, required=True)
    emit.add_argument("--session", default=None,
                      help="session id (default: a fresh UUID)")
    emit.add_argument("--buus", type=int, default=400)
    emit.add_argument("--keys", type=int, default=20)
    emit.add_argument("--touch", type=int, default=2)
    emit.add_argument("--seed", type=int, default=0)
    emit.add_argument("--net-batch", type=int, default=64,
                      help="events per wire batch")
    emit.add_argument("--flush-interval", type=float, default=0.05,
                      help="max seconds an event waits for a full batch")
    emit.add_argument("--queue-capacity", type=int, default=8192,
                      help="bounded client queue size")
    emit.add_argument("--net-overflow", default="block",
                      choices=["block", "shed"],
                      help="producer experience when the client queue "
                           "is full")
    emit.add_argument("--close-timeout", type=float, default=10.0,
                      help="seconds to wait for the final acks on close")
    emit.set_defaults(func=cmd_emit)


def _bench_overhead_flags(over: argparse.ArgumentParser) -> None:
    over.add_argument("--quick", action="store_true",
                      help="small workload for smoke runs: 300 BUUs, 128 "
                           "keys, 2 threads, 1 repeat, rates 1,20")
    over.add_argument("--buus", type=int, default=None, help="default 4000")
    over.add_argument("--keys", type=int, default=None, help="default 1024")
    over.add_argument("--threads", type=int, default=None, help="default 4")
    over.add_argument("--repeats", type=int, default=None,
                      help="runs per configuration, the minimum is kept "
                           "(default 3)")
    over.add_argument("--rates", default=None,
                      help="comma-separated sampling rates (default 1,4,20)")
    over.add_argument("--seed", type=int, default=0)
    over.add_argument("--batch-size", type=int,
                      default=_DEFAULTS.batch_size,
                      help="operations per service ingest batch")
    over.set_defaults(func=cmd_bench_overhead)


def _bench_serving_flags(bsrv: argparse.ArgumentParser) -> None:
    bsrv.add_argument("--quick", action="store_true",
                      help="short legs only (what CI runs)")
    bsrv.add_argument("--check", action="store_true",
                      help="fail (exit 1) if the sustained-rate ratio "
                           "regresses beyond --tolerance vs the committed "
                           "baseline")
    bsrv.add_argument("--update", action="store_true",
                      help="rewrite BENCH_serving.json with fresh numbers")
    bsrv.add_argument("--tolerance", type=float, default=0.35,
                      help="allowed fractional regression of the "
                           "machine-independent ratios in --check mode "
                           "(default 0.35; raise on noisy runners)")
    bsrv.add_argument("--seed", type=int, default=0)
    bsrv.add_argument("--out", default="BENCH_serving.json",
                      help="results file (committed at the repo root)")
    bsrv.set_defaults(func=cmd_bench_serving)


def _check_flags(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("trace")
    chk.add_argument("--witnesses", type=int, default=3,
                     help="max witnesses to keep per anomaly class")
    chk.add_argument("--max-cycle-len", type=int, default=4,
                     help="classify cycles up to this many edges "
                          "(2-/3-cycle counts and the serializable "
                          "verdict are exact regardless)")
    chk.add_argument("--json", action="store_true",
                     help="emit the CheckReport as JSON")
    chk.set_defaults(func=cmd_check)


#: Every verb, in ``--help`` order: its one-line help, and the function
#: that adds its flags and its ``cmd_*`` to its subparser.
_VERBS = {
    "quickstart": ("monitor a toy workload", _quickstart_flags),
    "sweep": ("sweep one chaos knob", _sweep_flags),
    "bookstore": ("the Fig 11 bookstore workload", _bookstore_flags),
    "record": ("record an execution trace (JSONL)", _record_flags),
    "analyze": ("replay a trace through the monitor", _analyze_flags),
    "bench-threads": (
        "serial vs. service monitored throughput at 1/2/4/8 threads",
        _bench_threads_flags),
    "monitor": (
        "run a monitored workload with live metrics "
        "(optionally exported over HTTP)",
        _monitor_flags),
    "serve": ("run a RushMon server accepting networked event streams",
              _serve_flags),
    "emit": ("stream a simulated workload to a RushMon server",
             _emit_flags),
    "bench-overhead": (
        "monitored vs. bare wall time (the paper's overhead claim)",
        _bench_overhead_flags),
    "bench-serving": (
        "open-loop serving soak vs the committed BENCH_serving.json "
        "baseline (max sustainable rate, ack-latency percentiles)",
        _bench_serving_flags),
    "check": (
        "exact offline isolation check of a trace (G-class taxonomy)",
        _check_flags),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """Construct the argparse command tree: every verb, or only ``verb``
    (whose flags, defaults and messages are the same either way)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RushMon reproduction: real-time isolation anomaly "
                    "monitoring on a simulated weak-isolation system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if verb is not None:  # the usage line still spells every verb
        sub.metavar = "{" + ",".join(_VERBS) + "}"
    for name, (summary, add_flags) in _VERBS.items():
        if verb is None or name == verb:
            verb_parser = sub.add_parser(name, help=summary)
            add_flags(verb_parser)
            verb_parser.set_defaults(usage_error=verb_parser.error)  # see _usage_errors
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.  It builds only
    the invoked verb's subparser (``serve`` starts ~6 ms sooner); no
    verb, an unknown one or a top-level ``--help`` gets all of them."""
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = build_parser(verb).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
