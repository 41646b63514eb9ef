"""``serve``: a RushMon server for networked event streams.  It imports
the service and the server, and no other verb family (DESIGN §13.2)."""

from __future__ import annotations

import argparse
import dataclasses
import os
import threading

from repro.cli import (_DEFAULTS, _add_monitor_args, _graceful_shutdown,
                       _start_exporter, _usage_errors)
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.net import RushMonServer


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
            # checkpoint_path, but the server owns the checkpoint
            # schedule (--checkpoint-every and the final one its drain
            # writes): the service is built without one, as restore()
            # builds it, so stop() writes none of its own.
            service = RushMonService(
                dataclasses.replace(cfg, checkpoint_path=None))
        server = RushMonServer(
            service, host=args.host, port=args.port,
            checkpoint_path=args.checkpoint,
            checkpoint_every=args.checkpoint_every,
            max_connections=cfg.max_connections,
            idle_timeout=cfg.idle_timeout, drain_timeout=cfg.drain_timeout)
    # The exporter binds first: if its port is taken the verb ends
    # before an ingest socket exists for a client to connect to.
    exporter = None
    if args.export_port is not None:
        exporter = _start_exporter(args, service.metrics)
        print(f"metrics exported at {exporter.url}/metrics", flush=True)
    server.start()
    try:
        with _graceful_shutdown():
            # The parseable line test harnesses and the quickstart grep
            # for — printed once a SIGTERM means "drain", so whoever
            # waits for it may stop the server the moment they read it:
            print(f"rushmon server listening on {server.host}:{server.port}",
                  flush=True)
            threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
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


FLAGS = {"serve": _serve_flags}
