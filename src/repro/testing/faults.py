"""Fault injection for the concurrent monitoring pipeline.

Production isolation checkers treat crash-tolerance as first-class:
Elle runs inside Jepsen's fault-injecting harness, and a monitor that
quietly stops monitoring is worse than none.  This module provides the
controlled-failure half of that story: a :class:`FaultInjector` holds a
set of armed :class:`Fault` descriptions keyed by *injection point*, and
the pipeline calls :meth:`FaultInjector.fire` at those points.  With no
injector attached the pipeline pays a single ``is None`` check.

Injection points wired into the pipeline
----------------------------------------

``collector.handle``
    Entry of every producer call of the service's
    :class:`~repro.core.concurrent.journaled.JournaledCollector`
    (``on_operation(s)``, ``begin_buu``, ``commit_buu``, and
    ``on_records`` — one per network frame), *before* the journal lock
    — a fault here hits the producer thread, and the call journals
    nothing (the server answers ``draining``; the resend is the whole
    frame).
``journal.drain``
    Entry of
    :meth:`~repro.core.concurrent.journaled.JournaledCollector.drain`,
    before the journal is swapped out, so an ``exception`` fault loses
    nothing.  ``partial_drain`` truncates the drained records and
    re-queues the tail (tickets stay ordered).
``detect.pass``
    Start of a :class:`~repro.core.concurrent.service.RushMonService`
    detection pass, before the drain — the supervised-restart path.
``detect.process``
    Before each journal record is consumed, mid-pass — exercises the
    service's re-queue-on-failure crash safety.
``net.accept``
    In :class:`~repro.net.server.RushMonServer`'s accept loop, after a
    connection is accepted but before its reader thread starts — a
    ``disconnect`` fault drops the fresh connection on the floor
    (clients must retry with backoff).
``net.recv``
    Per received chunk in a server reader thread (or, under the event
    loop, per readable-socket wakeup).  ``disconnect`` tears the
    connection down mid-stream; ``corrupt`` flips one byte of the
    chunk before decoding (the framing layer must refuse it, never
    ingest garbage); ``slow-read`` caps the read at one byte, the
    pathological fragmentation the incremental frame reassembly must
    absorb.
``net.select``
    Once per event-loop iteration in :mod:`repro.net.eventloop`, before
    the selector wait.  ``stall`` (or ``delay``) freezes that loop
    thread for ``delay`` seconds — every connection it multiplexes
    stops making progress, which is how the drain-deadline and
    slow-loop tests simulate an overloaded loop; ``slow-read`` makes
    every read of that iteration one byte long.
``net.ack``
    Just before an acknowledgement frame is sent.  ``disconnect``
    closes the connection with the batch ingested but the ack lost —
    forcing the client's retransmit/server-dedup path; ``corrupt``
    flips a byte of the ack frame on the wire.
``cluster.route``
    In the cluster router, per control frame sent to a worker (route,
    flush, snapshot request, detach, reset restore, bye), *before* it is
    journaled or hits the wire.  ``kill_worker`` kills the destination
    worker incarnation at that exact point — the deterministic crash the
    cluster chaos enumeration places at every control frame of a run
    (the supervisor must respawn-and-replay it bit-exactly).
``cluster.exchange``
    In a cluster worker, per edge-frontier broadcast to the peer mesh.
    It fires inside the worker, so it is armed through the incarnation
    factory: an in-process factory hands the worker a
    :class:`FaultInjector` directly.  ``exception`` turns the broadcast
    into a worker-fatal error (exercising the supervisor); ``delay``
    simulates a slow exchange link.
``cluster.snapshot``
    In the cluster router, on receipt of a shard snapshot, before CRC
    verification.  ``corrupt`` flips one byte of the serialized payload
    — the router must *reject* it and keep its previous snapshot, never
    restore a bit-rotted shard.

Fault kinds
-----------

``exception``
    Raise :class:`InjectedFault` (or ``exc_factory()``) at the point.
``delay``
    Sleep ``delay`` seconds at the point (overload simulation).
``partial_drain``
    Only meaningful at ``journal.drain``: hand the caller the first
    ``fraction`` of the drained batch and re-queue the rest.
``disconnect``
    Only meaningful at ``net.*`` points: drop the TCP connection.
``corrupt``
    Only meaningful at ``net.recv`` / ``net.ack`` / ``cluster.snapshot``:
    flip one byte of the data in flight.
``kill_worker``
    Only meaningful at ``cluster.route``: kill the destination worker
    incarnation (SIGKILL for a worker process).
``slow-read``
    Only meaningful at ``net.recv`` / ``net.select``: cap socket reads
    at one byte (slowloris-style trickle, server side).
``stall``
    Only meaningful at ``net.select``: freeze the event-loop thread for
    ``delay`` seconds (a stalled loop, as opposed to ``delay`` at
    ``net.recv`` which slows a single reader thread).

Scheduling: each fault skips its first ``after`` eligible calls, then
fires on every ``every``-th call, at most ``times`` times.  All
bookkeeping is under one lock — firing decisions are serialized, so a
multithreaded run fires exactly the configured number of times.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Fault", "FaultInjector", "InjectedFault", "POINTS"]

#: The injection points the pipeline is instrumented with.
POINTS = (
    "collector.handle",
    "journal.drain",
    "detect.pass",
    "detect.process",
    "net.accept",
    "net.recv",
    "net.ack",
    "net.select",
    "cluster.route",
    "cluster.exchange",
    "cluster.snapshot",
)

#: Fault kinds understood by the call sites.
KINDS = ("exception", "delay", "partial_drain", "disconnect", "corrupt",
         "kill_worker", "slow-read", "stall")


class InjectedFault(RuntimeError):
    """The default exception an ``exception`` fault raises."""


@dataclass
class Fault:
    """One armed fault at one injection point (see module docstring)."""

    point: str
    kind: str = "exception"
    #: Skip this many eligible calls before the fault can fire.
    after: int = 0
    #: Fire on every Nth eligible call (1 = every call).
    every: int = 1
    #: Maximum number of firings; ``None`` means unlimited.
    times: int | None = 1
    #: Seconds to sleep for ``kind="delay"``.
    delay: float = 0.01
    #: Fraction of the batch to keep for ``kind="partial_drain"``.
    fraction: float = 0.5
    #: Factory for the exception ``kind="exception"`` raises.
    exc_factory: Callable[[], BaseException] = field(
        default_factory=lambda: (lambda: InjectedFault("injected fault"))
    )

    def __post_init__(self) -> None:
        if self.point not in POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; options: {POINTS}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; options: {KINDS}"
            )
        if self.kind == "partial_drain" and self.point != "journal.drain":
            raise ValueError("partial_drain only applies to journal.drain")
        if self.kind == "disconnect" and not self.point.startswith("net."):
            raise ValueError("disconnect only applies to net.* points")
        if self.kind == "corrupt" and self.point not in (
                "net.recv", "net.ack", "cluster.snapshot"):
            raise ValueError(
                "corrupt only applies to net.recv / net.ack / "
                "cluster.snapshot")
        if self.kind == "kill_worker" and self.point != "cluster.route":
            raise ValueError("kill_worker only applies to cluster.route")
        if self.kind == "slow-read" and self.point not in (
                "net.recv", "net.select"):
            raise ValueError("slow-read only applies to net.recv / "
                             "net.select")
        if self.kind == "stall" and self.point != "net.select":
            raise ValueError("stall only applies to net.select")
        if self.after < 0 or self.every < 1:
            raise ValueError("after must be >= 0 and every >= 1")
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 or None")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")


class _Armed:
    """Mutable firing state for one armed fault."""

    __slots__ = ("fault", "calls", "fired")

    def __init__(self, fault: Fault) -> None:
        self.fault = fault
        self.calls = 0
        self.fired = 0

    def should_fire(self) -> bool:
        fault = self.fault
        if fault.times is not None and self.fired >= fault.times:
            return False
        self.calls += 1
        eligible = self.calls - fault.after
        if eligible < 1 or eligible % fault.every != 0:
            return False
        self.fired += 1
        return True


class FaultInjector:
    """Thread-safe registry of armed faults, consulted by the pipeline.

    >>> faults = FaultInjector()
    >>> _ = faults.inject(Fault("detect.pass", kind="exception", times=2))
    >>> faults.fire("detect.pass").kind
    'exception'
    """

    def __init__(self) -> None:
        self._armed: dict[str, list[_Armed]] = {}
        self._lock = threading.Lock()
        self.fired_by_point: dict[str, int] = {}

    def inject(self, fault: Fault) -> "FaultInjector":
        """Arm one fault; returns self for chaining."""
        with self._lock:
            self._armed.setdefault(fault.point, []).append(_Armed(fault))
        return self

    def fire(self, point: str) -> Fault | None:
        """Called by the pipeline at ``point``; returns the fault to
        apply this call, or ``None``.  At most one fault fires per call
        (the first armed one whose schedule matches)."""
        with self._lock:
            armed = self._armed.get(point)
            if not armed:
                return None
            for entry in armed:
                if entry.should_fire():
                    self.fired_by_point[point] = (
                        self.fired_by_point.get(point, 0) + 1
                    )
                    return entry.fault
        return None

    def reset(self) -> None:
        """Disarm everything and zero the firing counters."""
        with self._lock:
            self._armed.clear()
            self.fired_by_point.clear()
