"""The ``bench-*`` verbs: thread scaling, monitoring overhead and the
serving soak."""

from __future__ import annotations

import argparse

from repro.bench.overhead import run_overhead
from repro.bench.serving import run_serving
from repro.bench.threads import run_thread_scaling
from repro.cli import _DEFAULTS, _usage_errors
from repro.core.config import RushMonConfig


def cmd_bench_overhead(args: argparse.Namespace) -> int:
    """Run the monitored-vs-bare overhead harness; ``--quick`` shrinks
    whatever was not given explicitly."""
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
    with _usage_errors(args):  # --batch-size, before any timing
        RushMonConfig.from_cli_args(args)
    thread_counts = [int(v) for v in args.threads.split(",")]
    run_thread_scaling(
        thread_counts=thread_counts, buus=args.buus, keys=args.keys,
        touch=args.touch, sampling_rate=args.sampling_rate, seed=args.seed,
        batch_size=args.batch_size)
    return 0


def cmd_bench_serving(args: argparse.Namespace) -> int:
    """Run the serving soak bench (BENCH_serving.json): open-loop load
    over the event-loop server — max sustainable rate, p50/p99/p999 ack
    latency, typed-refusal behaviour under 2x overload."""
    return run_serving(args.out, quick=args.quick, update=args.update,
                       check=args.check, tolerance=args.tolerance,
                       seed=args.seed)


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


FLAGS = {"bench-threads": _bench_threads_flags,
         "bench-overhead": _bench_overhead_flags,
         "bench-serving": _bench_serving_flags}
