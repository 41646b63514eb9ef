"""Networked ingestion: stream BUU events to a RushMon server.

The in-process :class:`~repro.core.concurrent.RushMonService` dies with
its host.  This package detaches the monitor from the monitored system:

- :class:`RushMonServer` — a TCP server wrapping a ``RushMonService``.
  One event-loop thread (:mod:`repro.net.eventloop`) multiplexes
  the connections and feeds the service one call per
  frame, with admission control, per-client fairness and slow-client
  defenses;
  batches are deduplicated per client session and acknowledged only
  once their state is durable in a :mod:`repro.storage.wal`
  checkpoint, so a SIGKILLed server restored from its checkpoint
  resumes without losing an acknowledged batch or double-counting a
  replayed one.
- :class:`RushMonClient` — a monitor-listener facade that batches
  events into a bounded queue and ships them from a background thread,
  with ack deadlines, exponential backoff + full jitter on reconnect
  (honoring the server's ``retry_after`` hint when admission refuses
  it), heartbeats, and replay of unacknowledged batches after a
  reconnect.
- :mod:`repro.net.protocol` — the length-prefixed frame format (JSON or
  packed columns) and message vocabulary both sides speak.

Delivery contract: **at-least-once made effectively-once**.  The client
retransmits anything unacknowledged; the server's per-session
high-water sequence number (persisted in the checkpoint) turns every
replay into either a first delivery or a counted dedup hit — never a
double count.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.net.client import ClientBackpressure, RushMonClient
    from repro.net.protocol import ProtocolError
    from repro.net.server import RushMonServer

# The application that embeds a client loads no server or event loop;
# a server loads no client.
__getattr__ = lazy_exports(globals(), {
    "ClientBackpressure": "repro.net.client",
    "ProtocolError": "repro.net.protocol",
    "RushMonClient": "repro.net.client",
    "RushMonServer": "repro.net.server",
})

__all__ = [
    "ClientBackpressure",
    "ProtocolError",
    "RushMonClient",
    "RushMonServer",
]
