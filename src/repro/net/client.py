"""The networked RushMon ingestion client.

:class:`RushMonClient` is a monitor-listener facade (the same
``on_operation`` / ``begin_buu`` / ``commit_buu`` surface the in-process
monitors expose) that ships events to a :class:`~repro.net.server.
RushMonServer` from a background sender thread:

- producers enqueue into a **bounded queue** (``overflow="block"`` with
  a timeout raising :class:`ClientBackpressure`, or ``"shed"`` with
  honest drop counters);
- the sender frames the queue into numbered batches, keeps everything
  unacknowledged in sequence order, and **replays it all after a
  reconnect** — the server's per-session dedup turns replays into
  effectively-once delivery;
- an **ack deadline** on the oldest unacknowledged batch forces a
  reconnect when the server goes silent, which funnels every
  retransmission through the single replay path;
- reconnects use **exponential backoff with full jitter**; idle
  connections exchange **heartbeats** so a dead peer is noticed before
  the next batch;
- typed server errors are obeyed: ``backpressure`` pauses-and-resends
  (or sheds, per policy) the same sequence number, ``degraded`` follows
  the ``on_degraded`` policy, ``draining`` triggers a reconnect so the
  stream resumes against the restarted server, and an ``overloaded``
  admission refusal is honored by sleeping the server's ``retry_after``
  hint (capped at ``backoff_max``, jittered) before the next connect
  instead of hammering the exponential-backoff path — refusals are
  counted in :attr:`refusals_total`.
"""

from __future__ import annotations

import itertools
import random
import socket
import threading
import time
import uuid

from repro.core.types import Operation
from repro.net import protocol
from repro.net.protocol import FrameReader, ProtocolError, encode_frame

__all__ = ["ClientBackpressure", "RushMonClient"]

#: Wake-up granularity of the sender loop, seconds.
_TICK = 0.02


class ClientBackpressure(RuntimeError):
    """The client's bounded queue stayed full past ``block_timeout``."""


class _Batch:
    __slots__ = ("seq", "events", "sends", "last_sent")

    def __init__(self, seq: int, events: list) -> None:
        self.seq = seq
        self.events = events
        self.sends = 0
        self.last_sent = 0.0


class RushMonClient:
    """Stream BUU events to a RushMon server (see module docstring).

    Parameters
    ----------
    host / port:
        The server address.
    session:
        Session id; defaults to a fresh UUID.  Reusing an id across
        client restarts resumes its sequence space **only** if the new
        client also replays from the old one's state — normally let it
        default.
    batch_size / flush_interval:
        A batch ships when ``batch_size`` events are waiting or the
        oldest queued event is ``flush_interval`` seconds old.
    queue_capacity / overflow / block_timeout:
        Producer-side bounded queue.  ``overflow="block"`` makes
        producers wait up to ``block_timeout`` seconds (then raises
        :class:`ClientBackpressure`); ``"shed"`` drops the newest event
        and counts it in :attr:`shed_events_total`.
    ack_timeout:
        Deadline on the oldest unacknowledged batch; when it lapses the
        connection is presumed bad and torn down for a replaying
        reconnect.
    backoff_base / backoff_max:
        Reconnect backoff: sleep ``uniform(0, min(backoff_max,
        backoff_base * 2**attempt))`` (full jitter).
    heartbeat_interval:
        Idle time before a ping is sent; a peer silent for
        ``heartbeat_interval + ack_timeout`` is torn down.
    on_degraded:
        Reaction to a ``degraded`` server error: ``"block"`` (pause and
        resend the batch until the breaker clears) or ``"shed"`` (drop
        the batch's events, advance the sequence, count the loss).
    on_backpressure:
        Reaction to a ``backpressure`` server error: ``"block"``
        (pause, then resend the same sequence — the server resumes from
        its recorded partial offset) or ``"shed"`` (as above).
    codec:
        ``protocol.CODEC_JSON`` (default) or ``protocol.CODEC_COLUMNAR``
        (packed column batches: 21 bytes per event, one ``struct``
        unpack per column); anything else raises ``ValueError``.
    seed:
        Seeds the jitter RNG — lets chaos tests make backoff
        deterministic.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        session: str | None = None,
        batch_size: int = 64,
        flush_interval: float = 0.05,
        queue_capacity: int = 8192,
        overflow: str = "block",
        block_timeout: float = 5.0,
        ack_timeout: float = 2.0,
        connect_timeout: float = 1.0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        heartbeat_interval: float = 1.0,
        on_degraded: str = "block",
        on_backpressure: str = "block",
        codec: int = protocol.CODEC_JSON,
        seed: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if overflow not in ("block", "shed"):
            raise ValueError("overflow must be 'block' or 'shed', "
                             f"got {overflow!r}")
        for name, policy in (("on_degraded", on_degraded),
                             ("on_backpressure", on_backpressure)):
            if policy not in ("block", "shed"):
                raise ValueError(f"{name} must be 'block' or 'shed', "
                                 f"got {policy!r}")
        for name, value in (("flush_interval", flush_interval),
                            ("block_timeout", block_timeout),
                            ("ack_timeout", ack_timeout),
                            ("connect_timeout", connect_timeout),
                            ("backoff_base", backoff_base),
                            ("backoff_max", backoff_max),
                            ("heartbeat_interval", heartbeat_interval)):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value!r}")
        if codec not in (protocol.CODEC_JSON, protocol.CODEC_COLUMNAR):
            # An unencodable codec would fail inside the sender thread's
            # connect, which retries forever and reports nothing.
            raise ValueError("codec must be protocol.CODEC_JSON or "
                             f"protocol.CODEC_COLUMNAR, got {codec!r}")
        self.host = host
        self.port = port
        self.session = session or uuid.uuid4().hex
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.queue_capacity = queue_capacity
        self.overflow = overflow
        self.block_timeout = block_timeout
        self.ack_timeout = ack_timeout
        self.connect_timeout = connect_timeout
        self.backoff_base = backoff_base
        self.backoff_max = backoff_max
        self.heartbeat_interval = heartbeat_interval
        self.on_degraded = on_degraded
        self.on_backpressure = on_backpressure
        self.codec = codec
        self._rng = random.Random(seed)
        # Producer -> sender queue of wire event records.
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._settled = threading.Condition(self._lock)
        self._queue: list = []
        self._queue_oldest = 0.0
        # Sequence state (sender thread only, read under _lock for
        # flush/metrics).
        self._next_seq = itertools.count(1)
        self._pending: list[_Batch] = []
        self.acked_high = 0
        self._closing = False
        self._stop = threading.Event()
        self._fatal: str | None = None
        # Counters (ints under _lock or sender-thread-only; reconciled
        # against server-side dedup stats by the chaos suite).
        self.batches_sent_total = 0
        self.retransmits_total = 0
        self.reconnects_total = 0
        self.acked_batches_total = 0
        self.events_enqueued_total = 0
        self.shed_events_total = 0
        self.shed_batches_total = 0
        self.backpressure_errors_total = 0
        self.degraded_errors_total = 0
        self.heartbeats_total = 0
        self.refusals_total = 0
        #: The server's retry_after hint from the last ``overloaded``
        #: refusal; used (and cleared) by the next connect's sleep.
        self._retry_after_hint: float | None = None
        self._thread: threading.Thread | None = None
        self._sock: socket.socket | None = None
        self._ever_connected = False
        self._reader = FrameReader()

    # -- producer surface (monitor-listener protocol) --------------------------

    def start(self) -> "RushMonClient":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="rushmon-net-sender", daemon=True,
            )
            self._thread.start()
        return self

    def on_operation(self, op: Operation) -> None:
        self._enqueue(protocol.wire_op(op))

    def on_operations(self, ops) -> None:
        for op in ops:
            self._enqueue(protocol.wire_op(op))

    def begin_buu(self, buu: int, start_time: int = 0) -> None:
        self._enqueue(protocol.wire_begin(buu, start_time))

    def commit_buu(self, buu: int, commit_time: int = 0) -> None:
        self._enqueue(protocol.wire_commit(buu, commit_time))

    def _enqueue(self, record: list) -> None:
        if self._thread is None:
            self.start()
        with self._space:
            if self._closing:
                raise RuntimeError("RushMonClient is closed")
            if self._fatal is not None:
                raise RuntimeError(f"RushMonClient failed: {self._fatal}")
            if len(self._queue) >= self.queue_capacity:
                if self.overflow == "shed":
                    self.shed_events_total += 1
                    return
                deadline = time.monotonic() + self.block_timeout
                while len(self._queue) >= self.queue_capacity:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closing:
                        raise ClientBackpressure(
                            f"client queue stayed at capacity "
                            f"({self.queue_capacity}) for "
                            f"{self.block_timeout:.3f}s; the server is not "
                            f"keeping up — slow the producer, raise "
                            f"queue_capacity, or use overflow='shed'"
                        )
                    self._space.wait(remaining)
                    if self._fatal is not None:
                        raise RuntimeError(
                            f"RushMonClient failed: {self._fatal}")
            if not self._queue:
                self._queue_oldest = time.monotonic()
            self._queue.append(record)
            self.events_enqueued_total += 1

    # -- introspection ---------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._queue)

    @property
    def unacked_batches(self) -> int:
        with self._lock:
            return len(self._pending)

    def counters(self) -> dict[str, int]:
        """A snapshot of the delivery counters, for logs and tests."""
        with self._lock:
            return {
                "batches_sent": self.batches_sent_total,
                "retransmits": self.retransmits_total,
                "reconnects": self.reconnects_total,
                "acked_batches": self.acked_batches_total,
                "events_enqueued": self.events_enqueued_total,
                "shed_events": self.shed_events_total,
                "shed_batches": self.shed_batches_total,
                "backpressure_errors": self.backpressure_errors_total,
                "degraded_errors": self.degraded_errors_total,
                "heartbeats": self.heartbeats_total,
                "refusals": self.refusals_total,
            }

    # -- completion ------------------------------------------------------------

    def flush(self, timeout: float = 10.0) -> bool:
        """Block until every enqueued event is acknowledged (or shed).

        Returns True on success, False on timeout.  Raises if the
        client hit a fatal protocol error.
        """
        deadline = time.monotonic() + timeout
        with self._settled:
            while self._queue or self._pending:
                if self._fatal is not None:
                    raise RuntimeError(f"RushMonClient failed: {self._fatal}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._settled.wait(remaining)
        return self._fatal is None

    def close(self, timeout: float = 10.0) -> bool:
        """Flush, say goodbye, and stop the sender thread.

        Returns True if everything was acknowledged before ``timeout``.
        """
        thread = self._thread
        if thread is None:
            with self._lock:
                self._closing = True
            return not self._queue
        try:
            clean = self.flush(timeout)
        except RuntimeError:
            clean = False
        with self._space:
            self._closing = True
            self._space.notify_all()
        self._stop.set()
        thread.join(timeout)
        return clean and not thread.is_alive()

    def __enter__(self) -> "RushMonClient":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- sender thread ---------------------------------------------------------

    def _run(self) -> None:
        attempt = 0
        last_recv = last_sent = time.monotonic()
        while not self._stop.is_set():
            if self._fatal is not None:
                self._drop_socket()
                with self._settled:
                    self._settled.notify_all()
                    self._space.notify_all()
                self._stop.wait(_TICK)
                continue
            if self._sock is None:
                if not self._connect(attempt):
                    attempt += 1
                    continue
                attempt = 0
                last_recv = last_sent = time.monotonic()
            now = time.monotonic()
            try:
                for _ in range(8):  # drain several due batches per tick
                    if not self._send_ready(now):
                        break
                    last_sent = now
                advanced = self._receive()
                if advanced:
                    last_recv = time.monotonic()
                now = time.monotonic()
                # Ack deadline: the server has our batch but we have no
                # acknowledgement — presume the connection bad and take
                # the replay path.
                with self._lock:
                    oldest = self._pending[0] if self._pending else None
                if oldest is not None and oldest.sends > 0 \
                        and now - oldest.last_sent > self.ack_timeout:
                    self._reconnect("ack deadline lapsed")
                    continue
                if oldest is None and now - last_recv > \
                        self.heartbeat_interval + self.ack_timeout:
                    self._reconnect("heartbeat deadline lapsed")
                    continue
                if now - last_sent > self.heartbeat_interval \
                        and now - last_recv > self.heartbeat_interval:
                    self._send_frame(protocol.ping(int(now * 1000)))
                    self.heartbeats_total += 1
                    last_sent = now
            except (OSError, ProtocolError) as exc:
                self._reconnect(f"transport error: {exc!r}")
                continue
            if self._closing_and_settled():
                break
        # Orderly goodbye (best effort).
        if self._sock is not None:
            try:
                self._sock.sendall(encode_frame(protocol.bye(), self.codec))
            except OSError:
                pass
        self._drop_socket()

    def _closing_and_settled(self) -> bool:
        with self._settled:
            if self._closing and not self._queue and not self._pending:
                self._settled.notify_all()
                return True
            # Wake flush() opportunistically; acks notify too, but a
            # notify here costs nothing and covers the shed paths.
            if not self._queue and not self._pending:
                self._settled.notify_all()
            return False

    # -- connection management -------------------------------------------------

    def _connect(self, attempt: int) -> bool:
        if attempt > 0:
            hint, self._retry_after_hint = self._retry_after_hint, None
            if hint is not None:
                # An admission refusal told us when capacity may be
                # back: honor it (capped, jittered) instead of the
                # generic exponential backoff.
                delay = min(self.backoff_max, hint) \
                    * self._rng.uniform(0.75, 1.25)
            else:
                delay = self._rng.uniform(
                    0.0,
                    min(self.backoff_max, self.backoff_base * 2 ** attempt))
            if self._stop.wait(delay):
                return False
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout)
        except OSError:
            return False
        sock.settimeout(_TICK)
        self._reader = FrameReader()
        try:
            sock.sendall(encode_frame(
                protocol.hello(self.session, self.acked_high), self.codec))
            welcome = self._await_welcome(sock)
        except (OSError, ProtocolError):
            sock.close()
            return False
        if welcome is None:
            sock.close()
            return False
        if welcome.get("type") == "error":
            sock.close()
            if welcome.get("code") == "overloaded":
                self.refusals_total += 1
                hint = welcome.get("retry_after")
                self._retry_after_hint = float(hint) if hint else None
            return False
        self._sock = sock
        if self._ever_connected:
            self.reconnects_total += 1
        self._ever_connected = True
        # Replay everything unacknowledged, oldest first.  The server's
        # welcome `high` may exceed acked_high (ingested but the ack was
        # lost) — we still resend those batches rather than trusting
        # `high` as an ack: the server dedups them, and the counters
        # (client retransmits vs server dedup hits) stay reconcilable.
        with self._lock:
            pending = list(self._pending)
        try:
            for batch in pending:
                self._send_batch(batch)
        except (OSError, ProtocolError):
            # A replay into a dead/saturated connection must not escape
            # and kill the sender thread — drop the socket and report
            # failure so the normal backoff path retries the connect
            # (and with it the whole replay).
            self._drop_socket()
            return False
        return True

    def _await_welcome(self, sock: socket.socket) -> dict | None:
        """The server's first message: a welcome, or a typed error
        (e.g. an ``overloaded`` admission refusal) for the caller to
        inspect.  ``None`` on timeout/EOF."""
        deadline = time.monotonic() + self.connect_timeout
        while time.monotonic() < deadline:
            if self._stop.is_set():
                return None
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return None
            if not data:
                return None
            for message in self._reader.feed(data):
                if message.get("type") in ("welcome", "error"):
                    return message
        return None

    def _reconnect(self, reason: str) -> None:
        self._drop_socket()

    def _drop_socket(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    # -- sending ---------------------------------------------------------------

    def _send_frame(self, message: dict) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("not connected")
        sock.sendall(encode_frame(message, self.codec))

    def _send_batch(self, batch: _Batch) -> None:
        if batch.sends > 0:
            self.retransmits_total += 1
        self._send_frame(protocol.batch(self.session, batch.seq,
                                        batch.events))
        batch.sends += 1
        batch.last_sent = time.monotonic()
        self.batches_sent_total += 1

    def _send_ready(self, now: float) -> bool:
        """Form and send at most one batch from the queue."""
        with self._lock:
            if not self._queue:
                return False
            due = (len(self._queue) >= self.batch_size
                   or self._closing
                   or now - self._queue_oldest >= self.flush_interval)
            if not due:
                return False
            events = self._queue[:self.batch_size]
            del self._queue[:self.batch_size]
            if self._queue:
                self._queue_oldest = now
            batch = _Batch(next(self._next_seq), events)
            self._pending.append(batch)
            self._space.notify_all()
        self._send_batch(batch)
        return True

    # -- receiving -------------------------------------------------------------

    def _receive(self) -> bool:
        sock = self._sock
        if sock is None:
            return False
        try:
            data = sock.recv(65536)
        except socket.timeout:
            return False
        if not data:
            raise OSError("server closed the connection")
        got = False
        for message in self._reader.feed(data):
            got = True
            self._handle(message)
        return got

    def _handle(self, message: dict) -> None:
        kind = message.get("type")
        if kind == "ack":
            self._handle_ack(int(message.get("seq", 0)))
        elif kind == "error":
            self._handle_error(message)
        elif kind in ("pong", "welcome"):
            pass
        elif kind == "bye":
            raise OSError("server said bye")

    def _handle_ack(self, seq: int) -> None:
        with self._settled:
            if seq > self.acked_high:
                self.acked_high = seq
            while self._pending and self._pending[0].seq <= seq:
                self._pending.pop(0)
                self.acked_batches_total += 1
            if not self._pending and not self._queue:
                self._settled.notify_all()

    def _handle_error(self, message: dict) -> None:
        code = message.get("code")
        seq = message.get("seq")
        if code == "backpressure":
            self.backpressure_errors_total += 1
            self._shed_or_pause(seq, self.on_backpressure)
        elif code == "degraded":
            self.degraded_errors_total += 1
            self._shed_or_pause(seq, self.on_degraded)
        elif code == "draining":
            # The server is shutting down; reconnect (with backoff)
            # until its replacement appears, then replay.
            raise OSError("server draining")
        elif code == "overloaded":
            # Admission control refused us; remember the hint so the
            # reconnect sleeps what the server asked for.
            self.refusals_total += 1
            hint = message.get("retry_after")
            self._retry_after_hint = float(hint) if hint else None
            raise OSError("server overloaded")
        elif code == "bad-frame":
            if message.get("retriable", False):
                raise OSError("server reported a bad frame")
            self._set_fatal(message)
        else:  # bad-session or unknown: unrecoverable protocol state
            self._set_fatal(message)

    def _set_fatal(self, message: dict) -> None:
        with self._settled:
            self._fatal = (f"server error [{message.get('code')}] "
                           f"{message.get('message')}")
            self._settled.notify_all()
            self._space.notify_all()

    def _shed_or_pause(self, seq, policy: str) -> None:
        """React to a server refusal of batch ``seq`` (which ingested
        none of it).

        ``block``: wait a jittered beat, then resend the same sequence
        number.  ``shed``: drop the batch's events but still resend the
        (now empty) sequence number so the session stays gap-free; the
        loss is counted, never silent.
        """
        with self._lock:
            batch = next((b for b in self._pending if b.seq == seq), None)
        if batch is None:
            return
        if policy == "shed":
            with self._lock:
                if batch.events:
                    self.shed_batches_total += 1
                    self.shed_events_total += len(batch.events)
                batch.events = []
        else:
            delay = self._rng.uniform(self.backoff_base,
                                      2 * self.backoff_base)
            if self._stop.wait(delay):
                return
        self._send_batch(batch)
