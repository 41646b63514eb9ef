"""``emit``: stream a simulated workload to a RushMon server."""

from __future__ import annotations

import argparse
import sys

from repro.cli import _add_sim_args, _counter_buus, _sim_config
from repro.net import RushMonClient
from repro.sim import Simulator


def cmd_emit(args: argparse.Namespace) -> int:
    """Stream a simulated workload to a RushMon server over TCP.

    The :class:`~repro.net.RushMonClient` attaches to the simulator as
    an ordinary monitor listener; every event is shipped with delivery
    guarantees (bounded queue, batching, acks, reconnect + replay).
    Exits 0 when every event was acknowledged, 1 otherwise.
    """
    client = RushMonClient(
        args.host, args.port, session=args.session,
        batch_size=args.net_batch, flush_interval=args.flush_interval,
        queue_capacity=args.queue_capacity, overflow=args.net_overflow)
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


FLAGS = {"emit": _emit_flags}
