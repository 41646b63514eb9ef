"""The ``selectors``-based event-loop transport of the RushMon server.

Every connection is multiplexed onto one :class:`EventLoop` thread:
non-blocking sockets, per-connection bounded read/write buffers, and
incremental frame reassembly via :class:`~repro.net.protocol.FrameReader`.
(A thread per connection caps capacity at the OS thread count and
leaves overload behaviour implicit: a blocking ``sendall`` under a slow
peer, one stack per idle connection.  A pool of loop threads buys no
parallelism under the GIL, only lock handoffs and wake-ups.)  The loop
also owns the listener and runs the server's group-commit tick.  The
*delivery contract* — sessions, sequencing, dedup, durable acks — lives
in ``RushMonServer._handle``, which the loop calls straight into; the
sr=1 differential in ``tests/test_serving.py`` pins the whole path
against the offline monitor.

What the transport provides:

Admission control
    ``max_connections`` caps concurrent connections.  The connection
    that tips over the cap is told so with a typed ``overloaded`` wire
    error carrying a ``retry_after`` hint, then closed — and the
    listener is *deregistered* (accept-pause) until a slot frees, so an
    overloaded server stops doing accept work entirely instead of
    refusing in a hot loop.

Per-client fairness
    Decoded messages land in a per-connection ``pending`` queue and are
    dispatched round-robin, one message per connection per turn, under
    a per-iteration budget.  A connection with ``inflight_cap`` pending
    messages has its read interest paused until the dispatcher drains
    it — a firehose client is throttled by its own backlog and cannot
    starve a trickle client sharing the loop.

Slow-client defenses
    A connection that starts a frame must finish it within
    ``partial_frame_timeout`` (slowloris defense: the deadline runs
    from the frame's *first* byte, so trickling one byte per second
    does not reset it).  A connection silent past ``idle_timeout`` is
    dropped (clients heartbeat every second, so only dead peers trip
    it).  A peer that stops reading until ``write_high_watermark``
    bytes of acks/errors pile up is disconnected rather than allowed
    to pin server memory — it reconnects and replays, which dedups.

Graceful close
    A server-initiated close (bad-frame, bad-session, bye) first
    flushes the connection's pending write buffer — the typed error
    the handler just queued must reach the peer — then closes, with a
    short deadline so an unreachable peer cannot hold the slot.

Fault injection: the ``net.select`` point fires once per loop
iteration (``stall``/``delay`` freeze the loop thread, ``slow-read``
caps every read of that iteration at one byte); ``net.recv`` fires per
read, ``net.accept`` per accepted connection and ``net.ack`` (in the
server) per acknowledgement.
"""

from __future__ import annotations

import collections
import selectors
import socket
import threading
import time

from repro._lazy import logger
from repro.net import protocol
from repro.net.protocol import FrameReader, ProtocolError, encode_frame

__all__ = ["EventLoop", "EventLoopConnection"]

#: Selector data tags for the two non-connection registrations.
_WAKE = object()
_ACCEPT = object()

#: Seconds a server-initiated close may spend flushing its final
#: frames (the typed error the peer is owed) before a hard close.
CLOSE_FLUSH_TIMEOUT = 1.0

#: Messages dispatched per loop iteration, across all connections —
#: bounds how long one iteration can starve the selector.
DISPATCH_BUDGET = 128

#: Bytes per ``recv`` (1 under a ``slow-read`` fault).
_RECV_SIZE = 65536

#: Seconds between deadline sweeps (idle / partial-frame / closing).
_SWEEP_INTERVAL = 0.1


class EventLoopConnection:
    """One multiplexed client connection (non-blocking socket).

    The ``RushMonServer`` handling core only touches ``send``,
    ``close``, ``session``, ``codec``, ``alive`` and ``refused_high``.
    :meth:`send` never blocks: frames are appended to a bounded write
    buffer that the loop flushes when the socket accepts them.
    """

    __slots__ = (
        "sock", "loop", "wlock", "reader", "session", "codec", "alive",
        "refused_high", "wbuf", "pending", "last_activity",
        "partial_since", "closing", "close_deadline", "reads_paused",
        "queued", "want_write", "registered",
    )

    def __init__(self, sock: socket.socket, loop: "EventLoop") -> None:
        self.sock = sock
        self.loop = loop
        self.wlock = threading.Lock()
        self.reader = FrameReader()
        self.session: str | None = None
        self.codec = protocol.CODEC_JSON
        self.alive = True
        # Highest sequence this connection has refused (backpressure /
        # degraded).  TCP preserves order, so while the session high is
        # below this watermark an apparent sequence gap is the refusal's
        # fault, not the client's — such batches get retriable refusals
        # instead of a fatal bad-session.  A single boolean is not
        # enough: accepting the resend of one refused batch must not
        # forget that later refused batches are still outstanding.
        self.refused_high = 0
        self.wbuf = bytearray()
        self.pending: collections.deque = collections.deque()
        self.last_activity = time.monotonic()
        #: When the current partial frame started (0.0 = no partial).
        self.partial_since = 0.0
        self.closing = False
        self.close_deadline = 0.0
        self.reads_paused = False
        #: True while sitting in the loop's round-robin ready queue.
        self.queued = False
        self.want_write = False
        self.registered = False

    def send(self, message: dict, *, corrupt: bool = False) -> None:
        """Queue one frame for the loop to flush (thread-safe:
        :meth:`~repro.net.server.RushMonServer.drain` queues its final
        acks and byes from its caller's thread).
        Never blocks and never raises — write failures surface as a
        disconnect at flush time, which the client handles by
        reconnecting and replaying."""
        frame = encode_frame(message, self.codec)
        if corrupt:
            index = len(frame) // 2
            frame = frame[:index] + bytes([frame[index] ^ 0x40]) \
                + frame[index + 1:]
        self.loop.enqueue_write(self, frame)

    def close(self) -> None:
        self.alive = False
        self.loop.schedule_destroy(self)


class EventLoop(threading.Thread):
    """The server's one transport thread: a selector multiplexing the
    listener and every connection, plus a wake pipe and a cross-thread
    op queue (selector registration happens only on the loop thread).

    Between selects it dispatches, sweeps deadlines and runs the
    server's group-commit tick; an idle select sleeps until the nearer
    of the sweep and the tick.  Admission control lives here too: over
    ``max_connections`` the tipping connection gets a typed
    ``overloaded`` refusal (with a ``retry_after`` hint) and accepts
    pause until a slot frees.
    """

    def __init__(self, server, listener: socket.socket) -> None:
        super().__init__(name="rushmon-net-loop", daemon=True)
        self._server = server
        self._selector = selectors.DefaultSelector()
        rsock, wsock = socket.socketpair()
        rsock.setblocking(False)
        wsock.setblocking(False)
        self._rsock, self._wsock = rsock, wsock
        self._selector.register(rsock, selectors.EVENT_READ, _WAKE)
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, _ACCEPT)
        self._accepts_paused = False
        self._conns: set[EventLoopConnection] = set()
        #: Round-robin dispatch queue: connections with pending
        #: messages, one message served per turn.
        self._ready: collections.deque = collections.deque()
        self._ops: collections.deque = collections.deque()
        self._pending_total = 0
        self._stop_requested = False
        self._stop_deadline = 0.0
        self._next_sweep = 0.0
        self._next_tick = 0.0
        #: Connections closed at shutdown with unflushed writes.
        self._forced_closes = 0

    # -- cross-thread entry points --------------------------------------------

    def _wake(self) -> None:
        try:
            self._wsock.send(b"\x00")
        except OSError:
            pass

    def _post(self, fn) -> None:
        self._ops.append(fn)
        self._wake()
        if self._stop_requested and not self.is_alive():
            # The loop is gone; run inline so sockets still get closed.
            self._run_ops()

    def enqueue_write(self, conn: EventLoopConnection, frame: bytes) -> None:
        if not conn.alive:
            return
        server = self._server
        with conn.wlock:
            conn.wbuf.extend(frame)
            overflow = len(conn.wbuf) > server.write_high_watermark
        if overflow and not conn.closing:
            # The peer stopped reading and let our replies pile up:
            # drop it rather than pin server memory.  It reconnects
            # and replays, which dedups.
            with server._count_lock:
                server.write_overflow_disconnects_total += 1
            conn.alive = False
            self.schedule_destroy(conn)
            return
        if threading.current_thread() is self:
            self._flush(conn)
        else:
            self._post(lambda: self._flush(conn))

    def schedule_destroy(self, conn: EventLoopConnection) -> None:
        if threading.current_thread() is self:
            self._destroy(conn)
        else:
            self._post(lambda: self._destroy(conn))

    def stop(self, deadline: float) -> int:
        """Stop the loop (flush-only, then close); returns how many
        connections were force-closed — unflushed writes, or every
        connection when the loop fails to exit by ``deadline`` (e.g.
        frozen by a ``net.select`` stall fault)."""
        self._stop_deadline = deadline
        self._stop_requested = True
        self._wake()
        self.join(max(0.05, deadline - time.monotonic()))
        if not self.is_alive():
            return self._forced_closes
        # The loop thread is stuck; reclaim its connections from here.
        # Each one is a forced close.
        server = self._server
        stuck = list(self._conns)
        for conn in stuck:
            conn.alive = False
            try:
                conn.sock.close()
            except OSError:
                pass
            with server._conn_lock:
                server._connections.discard(conn)
        return len(stuck)

    # -- the loop --------------------------------------------------------------

    def run(self) -> None:
        server = self._server
        while not self._stop_requested:
            slow = False
            try:
                fault = server._fire("net.select")
            except Exception:
                # An `exception` fault must not kill the loop thread —
                # every connection it multiplexes would go dark.
                fault = None
            if fault is not None and fault.kind == "slow-read":
                slow = True
            if self._pending_total or self._ops:
                timeout = 0.0
            else:
                timeout = min(self._next_sweep, self._next_tick) \
                    - time.monotonic()
            try:
                events = self._selector.select(max(timeout, 0.0))
            except OSError:
                events = []
            for key, mask in events:
                tag = key.data
                if tag is _WAKE:
                    try:
                        while self._rsock.recv(4096):
                            pass
                    except OSError:
                        pass
                elif tag is _ACCEPT:
                    self._on_accept()
                else:
                    if mask & selectors.EVENT_WRITE:
                        self._flush(tag)
                    if mask & selectors.EVENT_READ and tag.alive \
                            and not tag.closing:
                        self._on_readable(tag, slow)
            self._run_ops()
            self._dispatch()
            now = time.monotonic()
            if now >= self._next_sweep:
                self._next_sweep = now + _SWEEP_INTERVAL
                self._sweep(now)
            if now >= self._next_tick:
                self._next_tick = server._commit_tick()
        self._shutdown()

    def _run_ops(self) -> None:
        ops = self._ops
        while ops:
            try:
                fn = ops.popleft()
            except IndexError:
                break
            try:
                fn()
            except Exception:
                logger(__name__).exception("event-loop op failed")

    # -- accept / admission ----------------------------------------------------

    def _on_accept(self) -> None:
        """Drain the accept queue."""
        server = self._server
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, socket.timeout):
                return
            except OSError:
                return  # listener closed by drain()
            try:
                fault = server._fire("net.accept")
            except Exception:
                sock.close()
                continue
            if fault is not None:  # disconnect
                sock.close()
                continue
            maxc = server.max_connections
            with server._conn_lock:
                current = len(server._connections)
            if maxc is not None and current >= maxc:
                # Refuse THIS connection with the typed error first,
                # then pause accepts — the tipping client learns why
                # instead of hanging in the backlog.
                self._refuse(sock)
                self._pause_accepts()
                return
            # Acks are small frames written behind the client's bulk
            # data; with Nagle on, a pipelined client's acks lock one
            # send interval behind.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
            conn = EventLoopConnection(sock, self)
            try:
                self._selector.register(sock, selectors.EVENT_READ, conn)
            except (KeyError, ValueError, OSError):
                sock.close()
                continue
            conn.registered = True
            self._conns.add(conn)
            with server._conn_lock:
                server._connections.add(conn)
            server.connections_total += 1

    def _refuse(self, sock: socket.socket) -> None:
        server = self._server
        server.admission_refusals_total += 1
        server.errors_sent["overloaded"] = \
            server.errors_sent.get("overloaded", 0) + 1
        server._m_errors.inc()
        message = protocol.error(
            "overloaded",
            "connection refused: server is at max_connections",
            retriable=True, retry_after=server.overload_retry_after,
        )
        # Best effort, never blocking: the refusal frame is tiny and
        # fits the fresh socket's send buffer; a peer that cannot even
        # take that just sees the close.
        try:
            sock.setblocking(False)
            sock.send(encode_frame(message, protocol.CODEC_JSON))
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _pause_accepts(self) -> None:
        if self._accepts_paused:
            return
        self._accepts_paused = True
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError, OSError):
            pass

    def _maybe_resume_accepts(self) -> None:
        server = self._server
        if not self._accepts_paused or server._draining:
            return
        maxc = server.max_connections
        if maxc is not None:
            with server._conn_lock:
                if len(server._connections) >= maxc:
                    return
        self._accepts_paused = False
        try:
            self._selector.register(
                self._listener, selectors.EVENT_READ, _ACCEPT)
        except (KeyError, ValueError, OSError):
            pass

    # -- read / dispatch / write ----------------------------------------------

    def _on_readable(self, conn: EventLoopConnection, slow: bool) -> None:
        server = self._server
        try:
            data = conn.sock.recv(1 if slow else _RECV_SIZE)
        except BlockingIOError:
            return
        except OSError:
            self._destroy(conn)
            return
        if not data:
            self._destroy(conn)
            return
        now = time.monotonic()
        conn.last_activity = now
        trickle = False
        try:
            fault = server._fire("net.recv")
        except Exception:
            self._destroy(conn)
            return
        if fault is not None:
            if fault.kind == "disconnect":
                self._destroy(conn)
                return
            if fault.kind == "corrupt":
                index = len(data) // 2
                data = data[:index] + bytes([data[index] ^ 0x40]) \
                    + data[index + 1:]
            elif fault.kind == "slow-read":
                trickle = True
        try:
            if trickle:
                # Pathological fragmentation: feed the chunk one byte
                # at a time through the incremental reassembly.
                messages: list = []
                for i in range(len(data)):
                    messages.extend(conn.reader.feed(data[i:i + 1]))
            else:
                messages = list(conn.reader.feed(data))
        except ProtocolError as exc:
            server._send_error(conn, protocol.error(
                "bad-frame", f"undecodable frame: {exc}", retriable=True,
            ))
            self._start_close(conn)
            return
        for message in messages:
            server._m_frames.inc()
            conn.pending.append(message)
            self._pending_total += 1
        if conn.pending and not conn.queued:
            conn.queued = True
            self._ready.append(conn)
        # Slowloris deadline: runs from the partial frame's FIRST byte
        # — more trickled bytes must not push it out.
        if conn.reader.pending_bytes:
            if not conn.partial_since:
                conn.partial_since = now
        else:
            conn.partial_since = 0.0
        if len(conn.pending) >= server.inflight_cap \
                and not conn.reads_paused:
            conn.reads_paused = True
            self._set_interest(conn)

    def _dispatch(self) -> None:
        """Round-robin: one pending message per connection per turn,
        bounded by ``DISPATCH_BUDGET`` per loop iteration."""
        server = self._server
        ready = self._ready
        budget = DISPATCH_BUDGET
        while ready and budget > 0:
            conn = ready.popleft()
            if not conn.alive or conn.closing or not conn.pending:
                conn.queued = False
                continue
            message = conn.pending.popleft()
            self._pending_total -= 1
            budget -= 1
            try:
                keep = server._handle(conn, message)
            except Exception:
                logger(__name__).exception(
                    "handler failed; dropping connection")
                keep = False
            if not keep:
                conn.queued = False
                self._start_close(conn)
                continue
            if conn.pending:
                ready.append(conn)
            else:
                conn.queued = False
            if conn.reads_paused and conn.alive and not conn.closing \
                    and len(conn.pending) < server.inflight_cap:
                conn.reads_paused = False
                self._set_interest(conn)

    def _flush(self, conn: EventLoopConnection) -> None:
        if not conn.alive:
            return
        with conn.wlock:
            buf = conn.wbuf
            while buf:
                try:
                    sent = conn.sock.send(buf)
                except BlockingIOError:
                    break
                except OSError:
                    del buf[:]
                    conn.want_write = False
                    self._destroy(conn)
                    return
                del buf[:sent]
            conn.want_write = bool(buf)
        self._set_interest(conn)
        if conn.closing and not conn.want_write:
            self._destroy(conn)

    def _set_interest(self, conn: EventLoopConnection) -> None:
        """Recompute this connection's selector mask from its state
        (loop thread only — selectors are not thread-safe)."""
        if not conn.alive:
            return
        mask = 0
        if not conn.closing and not conn.reads_paused:
            mask |= selectors.EVENT_READ
        if conn.want_write:
            mask |= selectors.EVENT_WRITE
        try:
            if mask and conn.registered:
                self._selector.modify(conn.sock, mask, conn)
            elif mask:
                self._selector.register(conn.sock, mask, conn)
                conn.registered = True
            elif conn.registered:
                self._selector.unregister(conn.sock)
                conn.registered = False
        except (KeyError, ValueError, OSError):
            pass

    # -- close paths -----------------------------------------------------------

    def _start_close(self, conn: EventLoopConnection) -> None:
        """Server-initiated close: stop reading, flush the write buffer
        (the typed error the handler just queued), then close — with a
        deadline so an unreachable peer cannot hold the slot."""
        if not conn.alive or conn.closing:
            return
        conn.closing = True
        conn.close_deadline = time.monotonic() + CLOSE_FLUSH_TIMEOUT
        if conn.pending:
            self._pending_total -= len(conn.pending)
            conn.pending.clear()
        self._flush(conn)  # destroys immediately when already empty

    def _destroy(self, conn: EventLoopConnection) -> None:
        conn.alive = False
        if conn.registered:
            try:
                self._selector.unregister(conn.sock)
            except (KeyError, ValueError, OSError):
                pass
            conn.registered = False
        try:
            conn.sock.close()
        except OSError:
            pass
        if conn in self._conns:
            self._conns.discard(conn)
            self._pending_total -= len(conn.pending)
            conn.pending.clear()
            server = self._server
            with server._conn_lock:
                server._connections.discard(conn)
            self._maybe_resume_accepts()

    def _sweep(self, now: float) -> None:
        """Deadline pass: closing flushes, partial frames, idle peers."""
        server = self._server
        for conn in list(self._conns):
            if not conn.alive:
                self._destroy(conn)
                continue
            if conn.closing:
                if now >= conn.close_deadline:
                    self._destroy(conn)
                continue
            if conn.partial_since and now - conn.partial_since \
                    >= server.partial_frame_timeout:
                server.partial_frame_disconnects_total += 1
                self._destroy(conn)
                continue
            if server.idle_timeout is not None \
                    and now - conn.last_activity >= server.idle_timeout:
                server.idle_disconnects_total += 1
                self._destroy(conn)

    def _shutdown(self) -> None:
        """Flush-only drain: no more reads or dispatch, just push out
        buffered acks/byes until empty or the drain deadline, then
        close everything (unflushed closes count as forced)."""
        deadline = self._stop_deadline
        while time.monotonic() < deadline:
            self._run_ops()
            busy = False
            for conn in list(self._conns):
                with conn.wlock:
                    pending = conn.alive and bool(conn.wbuf)
                if pending:
                    self._flush(conn)
                    with conn.wlock:
                        busy = busy or bool(conn.wbuf)
            if not busy:
                break
            time.sleep(0.01)
        for conn in list(self._conns):
            with conn.wlock:
                unflushed = bool(conn.wbuf)
            if unflushed:
                self._forced_closes += 1
            self._destroy(conn)
        self._run_ops()
        try:
            self._selector.close()
        except OSError:
            pass
        for sock in (self._rsock, self._wsock):
            try:
                sock.close()
            except OSError:
                pass
