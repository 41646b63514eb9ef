"""Command-line interface: run monitored workloads and analyze traces.

Usage (after ``pip install -e .``):

    python -m repro quickstart
    python -m repro sweep --knob staleness --values 1,2,5,10
    python -m repro bookstore --latency 500 --purchases 1000
    python -m repro record --out run.jsonl --buus 500
    python -m repro analyze run.jsonl --sampling-rate 5

Each verb family is one module of this package, holding its verbs'
``cmd_*`` and flags; :data:`_VERBS` names it, and :func:`build_parser`
imports only the family of the verb it builds, so that ``serve`` —
whose start-up is time nobody is monitoring — loads no simulator,
workload, cluster or bench module (DESIGN.md §13.2).  This module keeps
what two or more families share.
"""

from __future__ import annotations

import argparse
import importlib
import random
import signal
import sys
from contextlib import contextmanager

from repro.core.config import RushMonConfig

# An application, not a library surface: the ``rushmon`` script and
# ``python -m repro`` call ``main`` by name, and nothing is re-exported.
__all__: list[str] = []

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


@contextmanager
def _graceful_shutdown():
    """While the block runs, SIGTERM (systemd stop, ``kill``, container
    teardown) and Ctrl-C raise ``KeyboardInterrupt`` in the main thread,
    so a long-running verb has one graceful path: it catches the
    interrupt outside the block and drains, checkpoints and reports.
    The previous handlers are back by then, so a second signal during
    the drain acts as it would have before the verb started.  Off the
    main thread (the in-process CLI tests) nothing is installed."""

    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _interrupt)
        except ValueError:  # not the main thread
            break
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


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


# ``serve`` loads this module but runs no simulator, so the two helpers
# below import ``repro.sim`` when they run, and ``_start_exporter`` the
# HTTP endpoint only for the run that asked for it.


def _sim_config(args: argparse.Namespace):
    from repro.sim import SimConfig

    return SimConfig(num_workers=args.workers, write_latency=args.latency,
                     staleness_bound=args.staleness or None,
                     compute_jitter=args.jitter, isolation=args.isolation,
                     seed=args.seed)


def _counter_buus(count: int, keys: int, touch: int, seed: int):
    from repro.sim import read_modify_write

    rng = random.Random(seed)
    for _ in range(count):
        picked = rng.sample(range(keys), min(touch, keys))
        yield read_modify_write([f"k{k}" for k in picked],
                                lambda v: (v or 0) + 1)


def _start_exporter(args: argparse.Namespace, registry):
    """``--export-port``: a bound, serving ``/metrics`` endpoint, or the
    verb ends as a usage error carrying the exporter's own message (the
    port is taken)."""
    from repro.obs import MetricsExporter

    try:
        return MetricsExporter(registry, port=args.export_port).start()
    except RuntimeError as exc:
        args.usage_error(str(exc))


#: Every verb, in ``--help`` order: its one-line help, and the module of
#: this package whose ``FLAGS[verb]`` adds its flags and its ``cmd_*``.
_VERBS = {
    "quickstart": ("monitor a toy workload", "simulate"),
    "sweep": ("sweep one chaos knob", "simulate"),
    "bookstore": ("the Fig 11 bookstore workload", "simulate"),
    "record": ("record an execution trace (JSONL)", "simulate"),
    "analyze": ("replay a trace through the monitor", "simulate"),
    "bench-threads": (
        "serial vs. service monitored throughput at 1/2/4/8 threads",
        "bench"),
    "monitor": (
        "run a monitored workload with live metrics "
        "(optionally exported over HTTP)",
        "monitor"),
    "serve": ("run a RushMon server accepting networked event streams",
              "serve"),
    "emit": ("stream a simulated workload to a RushMon server", "emit"),
    "bench-overhead": (
        "monitored vs. bare wall time (the paper's overhead claim)",
        "bench"),
    "bench-serving": (
        "open-loop serving soak vs the committed BENCH_serving.json "
        "baseline (max sustainable rate, ack-latency percentiles)",
        "bench"),
    "check": (
        "exact offline isolation check of a trace (G-class taxonomy)",
        "check"),
}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """Construct the argparse command tree: every verb, or only ``verb``
    (whose flags, defaults and messages are the same either way), after
    importing the family modules of the verbs it builds."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RushMon reproduction: real-time isolation anomaly "
                    "monitoring on a simulated weak-isolation system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    if verb is not None:  # the usage line still spells every verb
        sub.metavar = "{" + ",".join(_VERBS) + "}"
    for name, (summary, family) in _VERBS.items():
        if verb is None or name == verb:
            verb_parser = sub.add_parser(name, help=summary)
            module = importlib.import_module(f"{__name__}.{family}")
            module.FLAGS[name](verb_parser)
            verb_parser.set_defaults(usage_error=verb_parser.error)  # see _usage_errors
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.  It builds only
    the invoked verb's subparser, from its family's module alone; no
    verb, an unknown one or a top-level ``--help`` gets all of them."""
    if argv is None:
        argv = sys.argv[1:]
    verb = argv[0] if argv and argv[0] in _VERBS else None
    args = build_parser(verb).parse_args(argv)
    return args.func(args)
