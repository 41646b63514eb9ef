"""The simulator verbs: ``quickstart``, ``sweep``, ``bookstore``,
``record`` and ``analyze``."""

from __future__ import annotations

import argparse

from repro.cli import (_add_monitor_args, _add_sim_args, _counter_buus,
                       _sim_config, _usage_errors)
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.sim import Simulator
from repro.sim.scheduler import ThreadedWorkloadDriver
from repro.sim.traces import Trace
from repro.workloads.bookstore import Bookstore, BookstoreConfig


def _monitor_from(args: argparse.Namespace) -> RushMon:
    with _usage_errors(args):
        return RushMon(RushMonConfig.from_cli_args(args))


_WINDOW_HEADER = "window  ops   est 2-cycles  est 3-cycles  top pattern"


def _print_window(window: int, report) -> None:
    top = max(report.patterns, key=report.patterns.get) \
        if report.patterns else "-"
    print(f"{window:>6}  {report.operations:>4}  "
          f"{report.estimated_2:>12.1f}  {report.estimated_3:>12.1f}  {top}")


def _print_total(monitor) -> None:
    e2, e3 = monitor.cumulative_estimates()
    print(f"\ntotal: {e2:.0f} two-cycles, {e3:.0f} three-cycles "
          f"({monitor.detector.num_vertices} live vertices after pruning)")


def _service_quickstart(args: argparse.Namespace) -> int:
    """quickstart --threads N: same workload, real threads, background
    detection via the concurrent RushMonService."""
    with _usage_errors(args):
        service = RushMonService(RushMonConfig.from_cli_args(args))
    # Yield points widen the interleaving space the GIL would otherwise
    # make coarse — without them the toy workload is nearly anomaly-free.
    driver = ThreadedWorkloadDriver([service], num_threads=args.threads,
                                    seed=args.seed, yield_every=5)
    print(f"threads: {args.threads}")
    print(_WINDOW_HEADER)
    with service:
        for window in range(args.windows):
            driver.run(list(_counter_buus(args.buus, args.keys, args.touch,
                                          args.seed + window)))
            report = service.close_window()
            if report is not None:
                _print_window(window, report)
    _print_total(service)
    return 0


def cmd_quickstart(args: argparse.Namespace) -> int:
    """Run a monitored toy workload and print windowed reports."""
    if args.threads > 0:
        return _service_quickstart(args)
    monitor = _monitor_from(args)
    sim = Simulator(_sim_config(args), listeners=[monitor])
    print(_WINDOW_HEADER)
    for window in range(args.windows):
        sim.run(_counter_buus(args.buus, args.keys, args.touch,
                              args.seed + window))
        _print_window(window, monitor.close_window(sim.now))
    _print_total(monitor)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep one chaos knob and print anomaly estimates per value."""
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
    trace = Trace()
    sim = Simulator(_sim_config(args), listeners=[trace])
    sim.run(_counter_buus(args.buus, args.keys, args.touch, args.seed))
    trace.save(args.out)
    print(f"recorded {len(trace.ops)} operations "
          f"({len(trace.commits)} BUUs) to {args.out}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Replay a trace through the monitor and print exact vs estimated."""
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


def _quickstart_flags(quick: argparse.ArgumentParser) -> None:
    _add_monitor_args(quick)
    _add_sim_args(quick)
    quick.add_argument("--threads", type=int, default=0,
                       help="drive the workload from N real threads through "
                            "the concurrent RushMonService (0 = serial)")
    # Not RushMonConfig's 0.05 s: a toy run lasts well under a second.
    quick.add_argument("--detect-interval", type=float, default=0.02,
                       help="seconds between background detection passes")
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


FLAGS = {"quickstart": _quickstart_flags, "sweep": _sweep_flags,
         "bookstore": _bookstore_flags, "record": _record_flags,
         "analyze": _analyze_flags}
