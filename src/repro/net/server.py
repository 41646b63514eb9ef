"""The networked RushMon ingestion server.

:class:`RushMonServer` listens on TCP and feeds decoded batches into a
wrapped :class:`~repro.core.concurrent.RushMonService`, one service
call per frame (its journal takes the call whole or refuses it whole).
Connections are multiplexed onto one event-loop thread
(:mod:`repro.net.eventloop` — admission control, per-client fairness,
slow-client defenses), which calls into the handling core here and
runs its group-commit tick.  The **delivery contract** — at-least-once
from the wire, effectively-once into the monitor:

Sessions and sequence numbers
    Each client holds a session id and numbers its batches 1, 2, 3, …
    The server keeps a per-session *high-water* sequence (the last batch
    ingested).  ``seq == high+1`` is ingested; ``seq <= high`` is
    a **dedup hit** (the batch is a replay — re-acknowledged, never
    re-ingested); a gap is a protocol violation (``bad-session``).

Durable acknowledgements
    With a ``checkpoint_path``, batches are acknowledged only after a
    checkpoint covering them has been written (group commit: every
    ``checkpoint_every`` batches, and at least every ``ack_interval``
    seconds while acks are pending).  The session table rides inside the
    service checkpoint (``extra_state``), and the ingest lock is held
    across *batch ingest + high-water update* and across *checkpoint +
    ack flush*, so a checkpoint is always a consistent cut: a batch is
    either fully inside it (events + high-water) or fully absent (and
    then unacknowledged, so the client replays it).  A server SIGKILLed
    mid-stream and :func:`restore`-d therefore loses no acknowledged
    batch and double-counts no replayed one.  Without a checkpoint path
    acks follow ingestion immediately (at-least-once across server
    crashes, effectively-once across reconnects).

Sampling at decode
    At ``sampling_rate > 1``
    (:meth:`~repro.core.concurrent.journaled.JournaledCollector.prefilter`),
    under every overflow policy, a frame's operations on items outside
    the sample are dropped *while it is decoded* — no ``Operation`` is
    built for them — and reach the service as a count (an ops record's
    ``elided``).
    ``events_ingested`` and every total downstream keep counting wire
    events, dropped ones included.

Typed failure propagation
    Journal backpressure (``overflow="block"`` timeouts) and the
    DEGRADED circuit-breaker state surface to clients as typed wire
    errors rather than silent stalls.  A frame is one service call,
    journaled whole or refused whole, so a refused batch has ingested
    nothing and the client's resend is the whole batch.

Graceful drain
    :meth:`drain` (wired to SIGTERM by the ``repro serve`` CLI) stops
    accepting work, flushes pending acknowledgements, stops the service
    (final detection pass) and writes a final checkpoint.

Overload resilience
    ``max_connections`` refuses the connection that tips over the cap
    with a typed ``overloaded`` error carrying a ``retry_after`` hint
    (then pauses accepts until a slot frees); per-connection in-flight
    caps and round-robin dispatch keep one firehose client from starving
    others; idle and partial-frame deadlines plus a write-buffer
    high-watermark drop slowloris/non-reading peers instead of pinning
    buffers.

Fault injection: the ``net.accept``, ``net.recv``, ``net.ack`` and
``net.select`` points (kinds ``disconnect`` / ``delay`` / ``corrupt`` /
``slow-read`` / ``stall`` / ``exception``) let the chaos suite break
the transport deterministically.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.core.concurrent.journaled import (EV_BEGIN, EV_COMMIT, EV_OPS,
                                             JournalBackpressure)
from repro.core.concurrent.service import RushMonService
from repro.net import protocol
from repro.net.eventloop import EventLoop, EventLoopConnection
from repro.net.protocol import ProtocolError
from repro.obs.instrument import instrument_net_server

#: extra_state key the server's durable state lives under.
_EXTRA_KEY = "net"

#: Wire lifecycle tags -> journal record kinds.
_LIFECYCLE = {"b": EV_BEGIN, "c": EV_COMMIT}

#: One owed acknowledgement: (connection, session, seq, received-at).
_Ack = tuple[EventLoopConnection, str, int, float]


class RushMonServer:
    """TCP front end for a :class:`RushMonService` (see module docstring).

    Parameters
    ----------
    service:
        The service to feed.  The server owns the checkpoint cadence, so
        that acknowledgements and durability stay in lockstep.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    checkpoint_path:
        Where durable state goes.  Enables durable acknowledgements;
        when the service was :meth:`~RushMonService.restore`-d from this
        path, the session table (and lifetime wire stats) come back with
        it.  ``None`` acknowledges after ingestion without durability.
    checkpoint_every:
        Group-commit size: a checkpoint (and ack flush) happens after
        this many ingested batches.
    ack_interval:
        Upper bound, in seconds, on how long an ingested batch may wait
        for its group's checkpoint — the event loop's group-commit tick
        flushes stragglers so a quiet stream still gets acknowledged
        promptly.
    drain_timeout:
        Hard bound, in seconds, on the *total* time :meth:`drain` may
        spend waiting (threads, ack flush, write-buffer flush).  Work
        still outstanding at the deadline is cut off and counted in
        :attr:`drain_forced_total`.
    session_ttl:
        Idle seconds after which a session-table entry may be evicted
        (only once its high-water is durable and no live connection or
        pending ack references it).  ``None`` disables eviction — then
        deployments with many short-lived clients should reuse stable
        session ids, or the table (and every checkpoint) grows one
        entry per client run without bound.  A client resuming an
        evicted session starts a fresh sequence space, so the TTL must
        comfortably exceed the longest expected client outage.
    max_connections:
        Admission-control cap on concurrent connections.  The
        connection that tips over the cap receives a
        typed ``overloaded`` error with a ``retry_after`` hint and
        accepts pause until a slot frees.  ``None`` = unlimited.
    idle_timeout:
        Seconds of total silence after which a connection is dropped
        (clients heartbeat every second, so only dead peers trip it).
        ``None`` disables the idle deadline.
    partial_frame_timeout:
        Seconds a peer may take to complete a frame it started — the
        slowloris defense; the clock runs from the frame's first byte.
    inflight_cap:
        Per-connection cap on decoded-but-undispatched messages before
        the loop pauses that connection's reads (fairness: a firehose
        client is throttled by its own backlog).
    write_high_watermark:
        Bytes of unflushed replies (acks/errors) a connection may
        accumulate before it is disconnected for not reading.
    overload_retry_after:
        The ``retry_after`` hint, in seconds, carried by admission
        refusals.
    faults:
        Optional :class:`~repro.testing.faults.FaultInjector` arming the
        ``net.*`` points.
    """

    def __init__(
        self,
        service: RushMonService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 4,
        ack_interval: float = 0.05,
        drain_timeout: float = 5.0,
        session_ttl: float | None = 3600.0,
        max_connections: int | None = None,
        idle_timeout: float | None = 30.0,
        partial_frame_timeout: float = 5.0,
        inflight_cap: int = 8,
        write_high_watermark: int = 1 << 20,
        overload_retry_after: float = 0.5,
        faults=None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1 batches")
        if ack_interval <= 0 or drain_timeout <= 0:
            raise ValueError("ack_interval and drain_timeout must be > 0")
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be > 0 seconds (or None "
                             "to disable idle-session eviction)")
        if max_connections is not None and max_connections < 1:
            raise ValueError("max_connections must be >= 1 connections "
                             "(or None for unlimited)")
        if idle_timeout is not None and idle_timeout <= 0:
            raise ValueError("idle_timeout must be > 0 seconds (or None "
                             "to disable the idle deadline)")
        if partial_frame_timeout <= 0:
            raise ValueError("partial_frame_timeout must be > 0 seconds")
        if inflight_cap < 1:
            raise ValueError("inflight_cap must be >= 1 messages")
        if write_high_watermark < 4096:
            raise ValueError("write_high_watermark must be >= 4096 bytes")
        if overload_retry_after <= 0:
            raise ValueError("overload_retry_after must be > 0 seconds")
        self.service = service
        self.host = host
        self._requested_port = port
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.ack_interval = ack_interval
        self.drain_timeout = drain_timeout
        self.session_ttl = session_ttl
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.partial_frame_timeout = partial_frame_timeout
        self.inflight_cap = inflight_cap
        self.write_high_watermark = write_high_watermark
        self.overload_retry_after = overload_retry_after
        self._faults = faults
        # Delivery state.  _ingest_lock makes (ingest batch + advance
        # high-water) and (checkpoint + flush acks) mutually atomic —
        # the crux of the no-loss/no-double-count guarantee.
        self._ingest_lock = threading.Lock()
        restored = service.extra_state.get(_EXTRA_KEY, {})
        #: session id -> highest batch sequence ingested.
        self._sessions: dict[str, int] = dict(restored.get("sessions", {}))
        #: lifetime wire stats — survive restore so chaos accounting can
        #: reconcile across server incarnations.
        self.stats: dict[str, int] = {
            "batches_accepted": 0, "batches_received": 0,
            "dedup_hits": 0, "events_ingested": 0,
        }
        self.stats.update(restored.get("stats", {}))
        #: per-session high-water covered by the last checkpoint: a
        #: replayed batch at or below it can be re-acked immediately.
        self._durable_high: dict[str, int] = dict(self._sessions)
        #: session id -> last activity (hello or batch), for TTL
        #: eviction; restored sessions start their idle clock now.
        self._session_seen: dict[str, float] = {
            sid: time.monotonic() for sid in self._sessions
        }
        self._pending_acks: list[_Ack] = []
        self._batches_since_commit = 0
        # Transport state.
        self._listener: socket.socket | None = None
        self._connections: set = set()
        self._conn_lock = threading.Lock()
        #: Guards ``write_overflow_disconnects_total``: drain()'s thread
        #: bumps it too when its final acks and byes overflow a buffer.
        #: The loop thread alone bumps the other counters below.
        self._count_lock = threading.Lock()
        self._loop: EventLoop | None = None
        self._draining = False
        self._stopped = False
        self.connections_total = 0
        self.reconnect_hellos_total = 0
        self.sessions_evicted_total = 0
        self.admission_refusals_total = 0
        self.idle_disconnects_total = 0
        self.partial_frame_disconnects_total = 0
        self.write_overflow_disconnects_total = 0
        self.drain_forced_total = 0
        self.errors_sent: dict[str, int] = {}
        registry = service.metrics
        self._m_frames = registry.counter(
            "rushmon_net_frames_total",
            help="wire frames the server decoded",
        )
        self._m_batches = registry.counter(
            "rushmon_net_batches_total",
            help="batch messages received (accepted + dedup + refused)",
        )
        self._m_events = registry.counter(
            "rushmon_net_events_ingested_total",
            help="wire events ingested into the collector",
        )
        self._m_acks = registry.counter(
            "rushmon_net_acks_total",
            help="acknowledgement frames sent",
        )
        self._m_errors = registry.counter(
            "rushmon_net_errors_total",
            help="typed error frames sent to clients",
        )
        self._m_ack_latency = registry.histogram(
            "rushmon_net_ack_latency_seconds",
            help="batch receipt to acknowledgement send",
        )
        registry.defer(instrument_net_server, self)

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "RushMonServer":
        """Bind, listen, and start the service and the loop thread."""
        if self._stopped:
            raise RuntimeError("RushMonServer is stopped; construct a new "
                               "one (restore the checkpoint to resume)")
        if self._listener is not None:
            return self
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self._requested_port))
        listener.listen(1024)
        self._listener = listener
        self.service.start()
        listener.setblocking(False)
        self._loop = EventLoop(self, listener)
        self._loop.start()
        return self

    @property
    def port(self) -> int:
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[1]

    @property
    def connections_current(self) -> int:
        with self._conn_lock:
            return len(self._connections)

    @property
    def sessions_current(self) -> int:
        with self._ingest_lock:
            return len(self._sessions)

    def session_high(self, session: str) -> int:
        """The in-memory high-water sequence for ``session`` (0 if new)."""
        with self._ingest_lock:
            return self._sessions.get(session, 0)

    def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush acknowledgements,
        stop the service (final detection pass) and write the final
        checkpoint.  Idempotent; wired to SIGTERM by ``repro serve``.

        Total wait is bounded by one ``drain_timeout`` deadline shared
        across every step (not per thread/session, which used to let a
        handful of stuck sessions stretch shutdown to N x the timeout).
        Connections cut off at the deadline with work still unflushed
        are counted in :attr:`drain_forced_total`.
        """
        if self._stopped:
            return
        deadline = time.monotonic() + self.drain_timeout
        self._draining = True
        listener, self._listener = self._listener, None
        if listener is not None:
            listener.close()
        # Acknowledge everything already ingested, then retire the
        # service: readers that race a last batch in get a typed
        # "draining" error and their client replays on the next server.
        with self._ingest_lock:
            final_acks = self._commit_locked(force=True)
        for ack in final_acks:
            self._send_ack(*ack)
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.send(protocol.bye())
            except OSError:
                pass
        if self._loop is not None:
            # The loop flushes buffered acks/byes until empty or the
            # deadline, then closes everything; unflushed (or
            # stuck-loop) connections come back as the forced count.
            self.drain_forced_total += self._loop.stop(deadline)
        late = time.monotonic() > deadline
        for conn in connections:
            if conn.alive:
                if late:
                    self.drain_forced_total += 1
                conn.close()
        if not self.service.stopped:
            self.service.stop()
        if self.checkpoint_path is not None:
            with self._ingest_lock:
                self._write_checkpoint_locked()
        self._stopped = True

    stop = drain

    def __enter__(self) -> "RushMonServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # -- fault injection -------------------------------------------------------

    def _fire(self, point: str):
        """Fire a net fault point; handles delay/stall/exception inline
        and returns disconnect/corrupt/slow-read faults to the call
        site."""
        if self._faults is None:
            return None
        fault = self._faults.fire(point)
        if fault is None:
            return None
        if fault.kind in ("delay", "stall"):
            time.sleep(fault.delay)
            return None
        if fault.kind in ("disconnect", "corrupt", "slow-read"):
            return fault
        raise fault.exc_factory()

    # -- message handling ------------------------------------------------------

    def _send_error(self, conn: EventLoopConnection, message: dict) -> None:
        self.errors_sent[message["code"]] = \
            self.errors_sent.get(message["code"], 0) + 1
        self._m_errors.inc()
        try:
            conn.send(message)
        except OSError:
            pass

    def _handle(self, conn: EventLoopConnection, message: dict) -> bool:
        """Dispatch one message; returns False to close the connection."""
        kind = message.get("type")
        if kind == "batch":
            return self._handle_batch(conn, message)
        if kind == "hello":
            session = str(message.get("session", ""))
            if not session:
                self._send_error(conn, protocol.error(
                    "bad-session", "hello without a session id",
                    retriable=False,
                ))
                return False
            conn.session = session
            with self._ingest_lock:
                high = self._sessions.setdefault(session, 0)
                self._session_seen[session] = time.monotonic()
                if message.get("resume", 0) or high:
                    self.reconnect_hellos_total += 1
            try:
                conn.send(protocol.welcome(session, high,
                                           self.service.health))
            except OSError:
                return False  # peer vanished between hello and welcome
            return True
        if kind == "ping":
            try:
                conn.send(protocol.pong(message.get("nonce", 0)))
            except OSError:
                return False
            return True
        if kind == "bye":
            return False
        self._send_error(conn, protocol.error(
            "bad-frame", f"unknown message type {kind!r}", retriable=True,
        ))
        return False

    def _handle_batch(self, conn: EventLoopConnection, message: dict) -> bool:
        received = time.monotonic()
        self._m_batches.inc()
        wire_session = str(message.get("session", "") or "")
        session = conn.session or wire_session
        seq = message.get("seq")
        if not session or not isinstance(seq, int) or seq < 1:
            self._send_error(conn, protocol.error(
                "bad-frame", "batch without session/seq", retriable=False,
            ))
            return False
        if conn.session and wire_session and wire_session != conn.session:
            # A batch stamped with a different session than the hello is
            # a client bug; sequencing it under the hello's session would
            # silently corrupt that session's sequence space.
            self._send_error(conn, protocol.error(
                "bad-session",
                f"batch stamped session {wire_session!r} on a connection "
                f"that helloed as {conn.session!r}",
                retriable=False, seq=seq,
            ))
            return False
        if self._draining:
            self._send_error(conn, protocol.error(
                "draining", "server is draining; replay on the next server",
                retriable=True, seq=seq,
            ))
            return True
        # An *empty* batch (a shed policy emptied it) carries nothing,
        # so it is accepted even while DEGRADED — refusing it forever
        # would wedge the session's sequence space.
        if self.service.degraded and message.get("events"):
            conn.refused_high = max(conn.refused_high, seq)
            self._send_error(conn, protocol.error(
                "degraded", "detection circuit breaker tripped; the "
                "service is DEGRADED and not accepting wire batches",
                retriable=True, seq=seq,
            ))
            return True
        acks: list[_Ack] = []
        with self._ingest_lock:
            keep, error = self._sequence_batch_locked(
                conn, session, seq, message, received, acks)
        # Socket writes happen only after the ingest lock is released: a
        # slow client socket must never stall ingestion for every other
        # session.  Durability was established under the lock; losing an
        # ack here only means a replay, which dedups.
        for ack in acks:
            self._send_ack(*ack)
        if error is not None:
            self._send_error(conn, error)
        return keep

    def _sequence_batch_locked(
        self,
        conn: EventLoopConnection,
        session: str,
        seq: int,
        message: dict,
        received: float,
        acks: list[_Ack],
    ) -> tuple[bool, dict | None]:
        """Sequence/ingest one batch; caller holds the ingest lock.

        Appends acks to flush (after the caller releases the lock) to
        ``acks`` and returns ``(keep_connection, error_message_or_None)``
        — no socket I/O happens here.
        """
        self.stats["batches_received"] += 1
        self._session_seen[session] = time.monotonic()
        high = self._sessions.setdefault(session, 0)
        if seq <= high:
            # Replay of an already-ingested batch: count it, never
            # re-ingest.  If a checkpoint already covers it the ack
            # can go out immediately; otherwise it joins the batch's
            # original commit group.
            self.stats["dedup_hits"] += 1
            if self.checkpoint_path is None \
                    or seq <= self._durable_high.get(session, 0):
                acks.append((conn, session, seq, received))
            else:
                self._pending_acks.append((conn, session, seq, received))
            return True, None
        if seq != high + 1:
            if conn.refused_high > high:
                # Pipelined behind a refused batch: the gap is ours.
                # This batch is now refused too — remember it, so
                # batches pipelined behind *it* stay retriable even
                # after the earlier refusals are re-accepted.
                conn.refused_high = max(conn.refused_high, seq)
                return True, protocol.error(
                    "backpressure",
                    f"batch {high + 1} was refused and not yet "
                    f"resent; resend {seq} after it",
                    retriable=True, seq=seq,
                )
            return False, protocol.error(
                "bad-session",
                f"sequence gap: expected {high + 1}, got {seq}",
                retriable=False, seq=seq,
            )
        # Operations on items outside the monitor's sample are dropped
        # while decoding (at sampling_rate > 1).
        try:
            events = protocol.decode_events(
                message.get("events", []),
                self.service.collector.prefilter())
        except ProtocolError as exc:
            return False, protocol.error(
                "bad-frame", f"malformed batch events: {exc}",
                retriable=False, seq=seq,
            )
        try:
            ingested = self._ingest_locked(events)
        except JournalBackpressure as exc:
            conn.refused_high = max(conn.refused_high, seq)
            return True, protocol.error(
                "backpressure", str(exc), retriable=True, seq=seq,
            )
        except RuntimeError:
            conn.refused_high = max(conn.refused_high, seq)
            return True, protocol.error(
                "draining", "the service refused the batch (stopped or "
                "failing); replay it", retriable=True, seq=seq,
            )
        self._sessions[session] = seq
        self.stats["batches_accepted"] += 1
        self.stats["events_ingested"] += ingested
        self._m_events.inc(ingested)
        self._batches_since_commit += 1
        if self.checkpoint_path is None:
            acks.append((conn, session, seq, received))
        else:
            self._pending_acks.append((conn, session, seq, received))
            if self._batches_since_commit >= self.checkpoint_every:
                acks.extend(self._commit_locked())
        return True, None

    def _ingest_locked(self, events: list[tuple]) -> int:
        """Feed decoded events to the service in one call;
        returns how many wire events that was (an ``("e", n)`` entry —
        ``n`` operations the decode left out — counts ``n``).  Each run
        of consecutive operations becomes one ops record, each begin or
        commit one lifecycle record."""
        records: list[tuple] = []
        ops: list = []
        elided = 0
        count = len(events)
        for event in events:
            tag = event[0]
            if tag == "op":
                ops.append(event[1])
            elif tag == "e":
                elided += event[1]
                count += event[1] - 1
            else:
                if ops or elided:
                    records.append((EV_OPS, ops, elided))
                    ops, elided = [], 0
                records.append((_LIFECYCLE[tag], event[1], event[2]))
        if ops or elided:
            records.append((EV_OPS, ops, elided))
        self.service.on_records(records)
        return count

    # -- durability / acknowledgement -----------------------------------------

    def _write_checkpoint_locked(self) -> None:
        """Checkpoint the service with the session table embedded;
        caller holds the ingest lock, so the cut is batch-consistent."""
        self.service.extra_state = {_EXTRA_KEY: {
            "sessions": dict(self._sessions),
            "stats": dict(self.stats),
        }}
        self.service.checkpoint(self.checkpoint_path)
        self._durable_high = dict(self._sessions)

    def _commit_locked(
        self, force: bool = False,
    ) -> list[_Ack]:
        """Group commit: persist state and *return* the acks now covered
        by it.  Caller holds the ingest lock and must send the returned
        acks after releasing it — one slow client socket must not hold
        the global ingest lock hostage."""
        if not self._pending_acks and not (force and self._batches_since_commit):
            self._batches_since_commit = 0
            return []
        if self.checkpoint_path is not None:
            self._write_checkpoint_locked()
        pending, self._pending_acks = self._pending_acks, []
        self._batches_since_commit = 0
        return pending

    def _send_ack(self, conn: EventLoopConnection, session: str, seq: int,
                  received: float) -> None:
        corrupt = False
        try:
            fault = self._fire("net.ack")
        except Exception:
            conn.close()
            return
        if fault is not None:
            if fault.kind == "disconnect":
                # The batch is ingested (and possibly durable) but the
                # ack is lost with the connection: the client replays
                # and the replay dedups — the invariant the chaos suite
                # reconciles.
                conn.close()
                return
            corrupt = True
        try:
            conn.send(protocol.ack(session, seq), corrupt=corrupt)
        except OSError:
            return
        self._m_acks.inc()
        self._m_ack_latency.observe(time.monotonic() - received)

    def _commit_tick(self) -> float:
        """The loop's group-commit tick; returns when the next is due.

        Bounds ack latency: acks that have waited ``ack_interval`` are
        flushed even when the stream goes quiet mid-group, and the next
        tick is due when the oldest still-pending ack will have waited
        that long.  Doubles as the session-table janitor (idle-session
        eviction)."""
        now = time.monotonic()
        due = now + self.ack_interval
        pending: list[_Ack] = []
        with self._ingest_lock:
            if self._pending_acks:
                oldest_due = self._pending_acks[0][3] + self.ack_interval
                if oldest_due <= now:
                    pending = self._commit_locked()
                else:
                    due = oldest_due
        for ack in pending:
            self._send_ack(*ack)
        self._evict_idle_sessions()
        return due

    def _evict_idle_sessions(self) -> None:
        """Expire session-table entries idle past ``session_ttl``.

        Eviction is safe only once a session's high-water is durable
        (always true without a checkpoint path, where acks imply
        nothing survives a crash anyway) and no live connection or
        pending ack references it —
        otherwise a long-lived server grows one entry (and a bigger
        checkpoint) per client run, forever.
        """
        if self.session_ttl is None or not self._sessions:
            return
        now = time.monotonic()
        with self._conn_lock:
            live = {c.session for c in self._connections if c.session}
        with self._ingest_lock:
            referenced = {item[1] for item in self._pending_acks}
            for sid in list(self._sessions):
                if sid in live or sid in referenced:
                    continue
                if now - self._session_seen.get(sid, now) < self.session_ttl:
                    continue
                high = self._sessions[sid]
                if self.checkpoint_path is not None \
                        and high > self._durable_high.get(sid, 0):
                    continue  # not yet checkpointed: keep until durable
                del self._sessions[sid]
                self._durable_high.pop(sid, None)
                self._session_seen.pop(sid, None)
                self.sessions_evicted_total += 1
