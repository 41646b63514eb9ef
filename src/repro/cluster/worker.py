"""One cluster worker process: a key-range shard of collector+detector.

Why every worker is bit-exact
-----------------------------

The serial :class:`~repro.core.monitor.RushMon` applies one totally
ordered event stream to one collector and one detector.  The cluster
reproduces that execution *redundantly*: every worker's detector sees
**every** edge of the cluster-wide stream, in the global ticket order
the router assigned — its own edges through the counting path
(:meth:`CycleDetector.add_edge_batch` via the window tracker) and its
peers' edges through :meth:`CycleDetector.add_edge_uncounted` — plus every
lifecycle event (broadcast by the router).  Hence each worker's live
graph evolves exactly like the serial monitor's.

What is *partitioned* is attribution.  Collection is data-centric: all
operations on a key are routed to the key's owner, so the owner derives
exactly the edges the serial collector would derive for those keys
(bookkeeping is per item, :class:`ItemSampler` is pure in the key, and
the per-key operation order equals the serial order).  The same purity
lets the router take the sampling decision itself: operations on items
outside the sample never travel — the owner learns only how many there
were (a ``route`` frame's ``elided`` count) and adds that to
``collector.ops_seen`` and the open window's operation count, which is
everything the serial collector would have done with them.  The
worker's collector still runs its own membership test on whatever does
arrive, so a frame journaled by an older router or a mis-routed
operation is harmless.  A new cycle is
counted at the instant its *last* edge (in ticket order) enters the
graph — and that edge was derived by exactly one worker, which is the
only worker that inserts it through the counting path.  So the
per-worker :class:`CycleCounts` (and pattern and edge-stat tallies)
partition the serial monitor's counts exactly, and summing them — the
router's job — recovers the serial numbers bit for bit.  At ``sr = 1``
the sum therefore matches the exact offline checkers too.

(The one caveat is MOB: its reservoir uses one collector-level RNG, so
per-worker draw *order* differs from the serial interleaving.  Each
worker still runs a faithful Algorithm 2 over its keys — estimates stay
unbiased — but bit-for-bit differentials pin ``mob=False``.)

The merge
---------

A worker's engine is the serial monitor's and the service's: one
:class:`~repro.core.monitor.RecordWalk`, built from the config (its
admission gate never parks: the router's gate already has), walking
ticket-ordered records and closing the window at its collector's
sampling probability.  Three ingredients keep the redundant executions
in lockstep:

- **Records.**  The router stamps every event with a globally unique,
  monotone ticket.  A ``route`` frame becomes the worker's records: its
  begins and commits, and ``(ticket, EV_EDGES, 0, edges)`` for each
  operation that derived edges (collected in one fused batch, each edge
  carrying its operation's ticket and real ``seq``), which it also
  broadcasts.  A peer's groups become ``(ticket, EV_EDGES, 1, edges)``:
  the third slot is the ownership column (0 counts, 1 does not).
- **Watermarks.**  Every ``route`` batch carries the router's ticket
  high-water mark; after processing a batch the worker broadcasts its
  freshly derived edge groups — and that watermark — to all peers (an
  empty broadcast is a pure watermark advance, so idle shards never
  stall busy ones).
- **One sort, one walk.**  Each stream's queue is complete up to its
  watermark, so a record with ticket ``t`` is walked only once *every*
  stream's watermark is ``>= t``.  The records up to the minimum
  watermark, sorted by ticket, are walked in one go: a cycle whose
  edges come from two workers is counted by the owner of its closing
  edge only if every earlier edge is already in its graph.

A ``flush`` barrier closes the loop: the worker broadcasts its final
watermark, waits until the merge has drained every ticket up to the
barrier, and replies with raw, summable window components (estimator
linearity over item-disjoint shards, Theorem 5.2 — the router adds raw
counts *then* estimates, which at a shared sampling probability equals
summing per-shard estimates).

Self-healing
------------

The worker carries three mechanisms the router's supervisor builds
respawn-and-replay on (see :mod:`repro.cluster.monitor`):

- **Snapshot shipping.**  ``snap-request(high)`` is a barrier that
  replies with the shard's full state instead of a report: the worker
  drains its merge to ``high`` (everything at or below ``high`` is
  applied; groups from beyond the barrier may still sit pending, and
  a restore's ``resume=high`` redial re-delivers them) and ships
  collector + detector + window state in a CRC-guarded
  :func:`repro.storage.wal.encode_shard_snapshot` document.  Operation
  counts (a frame's operations and its ``elided`` count) are applied
  when their frame is handled, so a snapshot holds
  exactly those of the frames it covers (``route_high``); the replayed
  suffix brings the rest, and a covered frame delivered again is
  dropped by the session-sequence check before its count is read.
- **The broadcast journal.**  Every edge-frontier broadcast is recorded
  (mark + encoded frame) in a bounded deque *before* it touches any
  socket, so a peer dying mid-send loses nothing recoverable.  When a
  respawned peer redials with ``peer-hello(resume=H)``, the journal
  suffix with marks ``> H`` is replayed onto the fresh link — under the
  same lock broadcasts take, so replay and live traffic cannot
  interleave out of order — before the link goes live.  A resume the
  trimmed journal can no longer cover is refused with ``resume-nack``
  (the supervisor then burns a restart attempt and, past the breaker,
  degrades).
- **Ticket dedup.**  Each peer stream tracks the highest group ticket
  it has enqueued (``seen``).  Group tickets within one peer's stream
  are strictly increasing, so dropping groups with ticket ``<= seen``
  makes journal replays and a respawned peer's re-broadcasts exactly
  idempotent.

Joining
-------

Every engine a worker runs is built by ``restore`` — the first control
message of every incarnation, and the whole of an in-place reset.  The
worker installs the snapshot (or a fresh engine at ``base_mark``), dials
every peer the message names with ``peer-hello(resume=baseline)``, and
replies ``restore-ok``; the router then replays its journal past the
restore point.  At start the router restores workers in index order
naming only peers already joined, so worker *i* dials every *j < i* at
``resume=0`` — one link per pair; a respawned worker dials every live
peer; a reset names none and keeps the links it has.

A single reader thread owns the control link: it applies ``detach(j)``
(drop a breaker-tripped shard ``j`` from the merge gating, so the
survivors keep counting without it) the moment it arrives and queues
everything else, in order, for the control loop.  A control loop
waiting in a barrier drain for the dead shard's watermark is exactly
the one that needs the ``detach`` — queued behind the barrier's own
``flush`` it would never be read.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from bisect import bisect_right
from collections import deque
from operator import itemgetter

from repro.cluster import messages as msg
from repro.core.concurrent.journaled import EV_BEGIN, EV_COMMIT, EV_EDGES
from repro.core.config import RushMonConfig
from repro.core.frontier import decode_frontier
from repro.core.monitor import RecordWalk
from repro.core.types import Operation, OpType
from repro.net.protocol import FrameReader, ProtocolError, encode_frame
from repro.storage import wal
from repro.testing.faults import FaultInjector

__all__ = ["ClusterWorker", "no_delay", "recv_message"]

_RECV = 1 << 16

_TICKET = itemgetter(0)

#: Wire tag -> record kind: an operation's type, or a lifecycle kind.
_KINDS = {**{member.value: member for member in OpType},
          "b": EV_BEGIN, "c": EV_COMMIT}


def no_delay(sock: socket.socket) -> socket.socket:
    """Turn Nagle's algorithm off on a cluster link (every one of them,
    both ends).  ``flush``, ``ack`` and watermark-only ``edges`` frames
    are tens of bytes written behind bulk data; coalescing them would
    make each barrier wait out the peer's delayed ACK."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def recv_message(sock: socket.socket, reader: FrameReader) -> dict:
    """Block until one complete message arrives on ``sock``.

    Messages already buffered in ``reader`` are drained first; a peer
    closing mid-message raises :class:`ConnectionError`.  Used for the
    lock-step handshakes (hello / restore / peer-hello) on both ends.
    """
    for message in reader.feed(b""):
        return message
    while True:
        data = sock.recv(_RECV)
        if not data:
            raise ConnectionError("peer closed during handshake")
        for message in reader.feed(data):
            return message


def _decode_route(events: list) -> tuple[list[Operation], list[tuple]]:
    """A route frame's operations — each carrying its wire record
    ``[kind, buu, key, seq, ticket]`` in its ``seq`` slot — and its
    lifecycle records, validated whole before anything is collected."""
    ops: list[Operation] = []
    lifecycle: list[tuple] = []
    try:
        for record in events:
            kind = _KINDS[record[0]]
            if kind is EV_BEGIN or kind is EV_COMMIT:
                _, buu, when, ticket = record
                lifecycle.append((ticket, kind, buu, when))
            else:
                _, buu, key, _, _ = record
                ops.append(Operation(kind, buu, key, record))
    except (LookupError, TypeError, ValueError) as exc:
        raise ProtocolError("malformed event record in route batch") \
            from exc
    return ops, lifecycle


class _PeerStream:
    """Pending edge records and the ticket watermark of one peer.

    ``seen`` is the highest group ticket ever *enqueued* from this peer
    — the dedup horizon that makes replayed broadcasts idempotent.
    ``detached`` marks a breaker-tripped shard whose frozen watermark
    must no longer gate the merge.
    """

    __slots__ = ("pending", "mark", "seen", "detached")

    def __init__(self) -> None:
        self.pending: list = []
        self.mark = 0
        self.seen = 0
        self.detached = False


class ClusterWorker:
    """The engine and event loop of one worker process.

    Runs single-threaded collection (the control loop owns the
    collector) with per-peer reader threads feeding the merge; all
    merge state — pending queues, watermarks, detector, window — is
    guarded by one condition variable, which the flush barrier also
    waits on.  A persistent acceptor thread keeps the exchange
    listener open for the worker's whole life so peers can join at
    any time, and a control reader thread feeds the control loop.
    Every socket the worker opens or accepts is registered, so
    :meth:`close` ends the incarnation's traffic in one call.
    """

    #: Seconds to wait for a handshake message and for barrier drains.
    handshake_timeout = 30.0
    barrier_timeout = 120.0

    def __init__(self, index: int, num_workers: int,
                 config: RushMonConfig,
                 faults: FaultInjector | None = None) -> None:
        self.index = index
        self.num_workers = num_workers
        self._faults = faults
        self._merge = threading.Condition()
        self._local: list = []
        self._local_mark = 0
        self._peers = {j: _PeerStream() for j in range(num_workers)
                       if j != index}
        self._peer_socks: dict[int, socket.socket] = {}
        self._route_high = 0
        # Broadcast journal: (mark, encoded frame) in send order, bounded
        # by the config's replay window.  _bcast_trimmed is the highest
        # mark ever dropped — the oldest resume still serviceable.
        self._bcast_lock = threading.Lock()
        self._bcast_journal: deque = deque()
        self._bcast_trimmed = 0
        # Control-socket writes come from the control loop, peer-fatal
        # paths and (replies aside) nowhere else; serialize them so an
        # err frame never interleaves into an ack mid-frame.
        self._control_lock = threading.Lock()
        # Every socket this incarnation owns; refused once closed.
        self._sockets_lock = threading.Lock()
        self._sockets: set = set()
        self._closed = False
        self._build_engine(config)

    def _own(self, sock: socket.socket) -> socket.socket:
        """Register ``sock`` for :meth:`close`; a worker already closed
        refuses (and closes) it."""
        with self._sockets_lock:
            if not self._closed:
                self._sockets.add(sock)
                return sock
        sock.close()
        raise OSError(f"worker {self.index} is closed")

    def _drop(self, sock: socket.socket) -> None:
        with self._sockets_lock:
            self._sockets.discard(sock)
        sock.close()

    def close(self) -> None:
        """Shut every socket this worker owns — control link, exchange
        listener, peer links, joins in flight — and release a barrier
        drain, so the incarnation sends nothing more.  Idempotent."""
        with self._sockets_lock:
            self._closed = True
            sockets, self._sockets = self._sockets, set()
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        with self._merge:
            self._merge.notify_all()

    def _build_engine(self, config: RushMonConfig) -> None:
        """(Re)build the engine — a walk and its collector, detector and
        window; merge state survives a rebuild (tickets and watermarks
        stay monotone across resets)."""
        self.config = config
        self._walk = walk = RecordWalk(config, engaged=False)
        self.collector, self.detector, self.window = (
            walk.collector, walk.detector, walk.window)
        #: The first BUU one of whose operations arrived after its
        #: commit; every barrier reply carries it from then on (the
        #: router raises it).
        self._lifecycle_error = None
        self._local.clear()
        for stream in self._peers.values():
            stream.pending.clear()

    # -- the N-stream merge (callers hold self._merge) -----------------------

    def _advance_locked(self) -> None:
        """Walk every record that can no longer be preceded.

        Key invariant: each stream's queue is *complete up to its
        watermark* — edge records travel in the same message as the
        mark that covers them, and a route batch's records all precede
        its ``high``.  So the safe frontier is simply ``g = min(mark
        over all streams)``, and the records up to ``g``, sorted by
        ticket, *are* the serial order.  Detached shards (circuit
        breaker tripped) no longer gate ``g``; whatever they delivered
        before dying still merges in ticket order.
        """
        g = self._local_mark
        for stream in self._peers.values():
            if not stream.detached and stream.mark < g:
                g = stream.mark
        ready: list = []
        for pending in (self._local,
                        *(stream.pending for stream in self._peers.values())):
            cut = bisect_right(pending, g, key=_TICKET)
            ready += pending[:cut]
            del pending[:cut]
        ready.sort(key=_TICKET)
        walk = self._walk
        walk.walk(ready)
        if walk.late is not None and self._lifecycle_error is None:
            # The edge is left out, here and by every peer.  Keep
            # merging — the peers gate on this worker's marks — and let
            # the next barrier tell the caller.
            self._lifecycle_error = walk.late.buu

    def _drained_locked(self, high: int) -> bool:
        """True once every ticket ``<= high`` has been applied.

        A barrier promises nothing about tickets *beyond* it: while a
        respawned worker replays its journaled control stream, the
        surviving peers' resume replays deliver edge groups from far
        past the replayed barrier, and those legitimately sit pending
        until the local mark catches back up.  Requiring globally empty
        queues here would deadlock that replay — the control loop would
        block in this drain, pinning the local mark, which is exactly
        what those future groups are waiting on.  So: marks must cover
        ``high`` and nothing at or below ``high`` may remain pending;
        later groups may.  (Queues are ticket-ordered per stream, so
        the head ticket decides.)
        """
        if self._local_mark < high:
            return False
        if self._local and self._local[0][0] <= high:
            return False
        for stream in self._peers.values():
            if not stream.detached and stream.mark < high:
                return False
            if stream.pending and stream.pending[0][0] <= high:
                return False
        return True

    def _drain_to(self, high: int, what: str) -> None:
        """A barrier's prelude: raise the local mark to ``high``,
        broadcast it, and wait until the merge has applied every ticket
        ``<= high``.  A shard whose breaker trips meanwhile is released
        by its ``detach``, which the control reader applies while this
        waits."""
        with self._merge:
            if high > self._local_mark:
                self._local_mark = high
            self._advance_locked()
            self._merge.notify_all()
        self._broadcast([], high)
        deadline = time.monotonic() + self.barrier_timeout
        with self._merge:
            while not self._drained_locked(high):
                if self._closed:
                    raise ConnectionError(
                        f"worker {self.index}: closed during {what}")
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise RuntimeError(
                        f"worker {self.index}: {what} at ticket {high} "
                        f"timed out after {self.barrier_timeout}s "
                        f"(a peer stalled or died)"
                    )
                self._merge.wait(remaining)

    # -- control-loop handlers ----------------------------------------------

    def _send_control(self, frame: bytes) -> None:
        with self._control_lock:
            self._control.sendall(frame)

    def _handle_route(self, message: dict) -> None:
        seq = message["seq"]
        if seq <= self._route_high:
            # Duplicate delivery: re-ack, don't re-ingest — the same
            # high-water dedup the net server applies to batches.
            self._send_control(encode_frame(msg.cluster_ack(
                self._route_high)))
            return
        if seq != self._route_high + 1:
            raise ProtocolError(
                f"route sequence gap: got {seq}, expected "
                f"{self._route_high + 1}"
            )
        ops, records = _decode_route(message["events"])
        high = message["high"]
        elided = message.get("elided", 0)
        if not isinstance(elided, int) or elided < 0:
            raise ProtocolError(f"malformed elided count {elided!r}")
        groups = self._collect(ops)
        records += [(ticket, EV_EDGES, 0, edges) for ticket, edges in groups]
        records.sort(key=_TICKET)
        with self._merge:
            # Operations the router's sampler kept off the wire: the
            # collector would have counted and dropped them.
            self.collector.ops_seen += elided
            self.window.observe_operations(len(ops) + elided)
            self._local += records
            if high > self._local_mark:
                self._local_mark = high
            self._advance_locked()
            self._merge.notify_all()
        self._route_high = seq
        self._broadcast(groups, high)
        self._send_control(encode_frame(msg.cluster_ack(seq)))

    def _collect(self, ops: list[Operation]) -> list:
        """Collect a frame's operations in one fused ``handle_batch``;
        their edges as ``(ticket, [edges])``, one group per operation
        that derived any.  An edge's ``seq`` slot holds its operation's
        wire record (:func:`_decode_route`), which consecutive edges of
        one operation share; the record's ``seq`` goes back in."""
        edges = self.collector.handle_batch(ops)
        wires = edges.seq
        edges.seq = [wire[3] for wire in wires]
        groups: list = []
        last = group = None
        for wire, edge in zip(wires, edges):
            if wire is last:
                group.append(edge)
            else:
                last, group = wire, [edge]
                groups.append((wire[4], group))
        return groups

    def _broadcast(self, groups: list, mark: int) -> None:
        """Journal one edge-frontier broadcast, then fan it out.

        The journal append happens *before* any send and under the same
        lock resume replays take, so (a) a broadcast a dead peer never
        received is still replayable, and (b) a freshly resumed link
        sees the journal suffix and then live frames in exact order.  A
        send failing on one link (the peer died) drops that link only;
        the supervisor owns the recovery.
        """
        if self._faults is not None:
            fault = self._faults.fire("cluster.exchange")
            if fault is not None:
                if fault.kind == "delay":
                    time.sleep(fault.delay)
                elif fault.kind == "exception":
                    raise fault.exc_factory()
        if self.num_workers == 1:
            return
        frame = encode_frame(msg.edges(self.index, groups, mark))
        capacity = self.config.replay_journal_capacity
        with self._bcast_lock:
            journal = self._bcast_journal
            journal.append((mark, frame))
            while len(journal) > capacity:
                trimmed_mark, _ = journal.popleft()
                if trimmed_mark > self._bcast_trimmed:
                    self._bcast_trimmed = trimmed_mark
            dead = []
            for j, sock in self._peer_socks.items():
                try:
                    sock.sendall(frame)
                except OSError:
                    dead.append(j)
            for j in dead:
                self._drop(self._peer_socks.pop(j))

    def _handle_flush(self, message: dict) -> None:
        self._drain_to(message["high"], "barrier")
        with self._merge:
            if message["window"]:
                report = self._walk.close(message.get("now", 0))
                reply = msg.report_reply(report, self.detector.counts)
            else:
                reply = msg.synced(self.detector.counts)
            if self._lifecycle_error is not None:
                reply["error"] = self._lifecycle_error
        self._send_control(encode_frame(reply))

    def _handle_snap_request(self, message: dict) -> None:
        """A snapshot barrier: drain to ``high`` exactly like a flush
        (every stream's mark reaches ``high``, every queue empties — the
        merge state serializes to nothing), then ship the shard state."""
        high = message["high"]
        self._drain_to(high, "snapshot barrier")
        with self._merge:
            payload = {
                "index": self.index,
                "high": high,
                "route_high": self._route_high,
                "collector": self.collector.to_state(),
                "detector": wal.encode_detector_state(self.detector),
                "window": wal.encode_window_state(self.window),
                "lifecycle_error": self._lifecycle_error,
            }
        self._send_control(encode_frame(msg.snap(
            wal.encode_shard_snapshot(payload))))

    def _handle_detach(self, message: dict) -> None:
        """Shard ``j``'s circuit breaker tripped: stop gating the merge
        on its frozen watermark (its already-delivered groups still
        merge in order) and drop its link."""
        j = message["index"]
        stream = self._peers.get(j)
        if stream is None:
            return
        with self._merge:
            stream.detached = True
            self._advance_locked()
            self._merge.notify_all()
        with self._bcast_lock:
            sock = self._peer_socks.pop(j, None)
        if sock is not None:
            self._drop(sock)

    # -- peer exchange --------------------------------------------------------

    def _start_peer_loop(self, j: int, sock: socket.socket,
                         reader: FrameReader) -> None:
        threading.Thread(
            target=self._peer_loop, args=(j, sock, reader),
            daemon=True, name=f"peer-{self.index}-{j}",
        ).start()

    def _peer_loop(self, j: int, sock: socket.socket,
                   reader: FrameReader) -> None:
        """Apply one peer link's ``edges``.  Frames that arrived with
        the ``peer-hello`` are already in ``reader`` and are applied
        before the first ``recv`` — waiting on the socket first would
        leave them unread until the peer's next broadcast, and a
        barrier needing their mark would wedge."""
        stream = self._peers[j]
        data = b""
        try:
            while True:
                for message in reader.feed(data):
                    if message["type"] == "edges":
                        groups, _ = decode_frontier(message["frontier"])
                        with self._merge:
                            if groups:
                                # Group tickets in one peer's stream are
                                # strictly increasing, so everything at
                                # or below the dedup horizon is a replay
                                # duplicate.
                                seen = stream.seen
                                fresh = [(ticket, EV_EDGES, 1, edges)
                                         for ticket, edges in groups
                                         if ticket > seen]
                                if fresh:
                                    stream.pending += fresh
                                    stream.seen = fresh[-1][0]
                            if message["mark"] > stream.mark:
                                stream.mark = message["mark"]
                            self._advance_locked()
                            self._merge.notify_all()
                    elif message["type"] == "resume-nack":
                        self._fatal(
                            f"worker {self.index}: peer {j} cannot replay "
                            f"broadcasts past mark {message['resume']} "
                            f"(journal trimmed to {message['trimmed']})"
                        )
                        return
                    elif message["type"] == "bye":
                        return
                data = sock.recv(_RECV)
                if not data:
                    return
        except (OSError, ValueError):
            return  # torn down mid-recv during shutdown

    def _fatal(self, text: str) -> None:
        """Report a fatal condition detected off the control loop and
        tear the control link down so the supervisor takes over."""
        try:
            self._send_control(encode_frame(msg.err(text)))
        except OSError:
            pass
        try:
            self._control.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _accept_peers(self) -> None:
        """Lifetime acceptor for the exchange listener: every inbound
        link is a joining peer's ``peer-hello(resume=H)`` (journal
        suffix replayed, link swapped in under the broadcast lock)."""
        while True:
            try:
                sock = self._listener.accept()[0]
            except OSError:
                return  # listener closed at teardown
            try:
                self._own(no_delay(sock)).settimeout(self.handshake_timeout)
                reader = FrameReader()
                hello = recv_message(sock, reader)
                if hello["type"] != "peer-hello" or "resume" not in hello:
                    raise ProtocolError(f"expected peer-hello, got {hello!r}")
                sock.settimeout(None)
                self._attach_resumed_peer(
                    hello["index"], hello["resume"], sock, reader)
            except (OSError, ConnectionError, ProtocolError):
                self._drop(sock)

    def _attach_resumed_peer(self, j: int, resume: int,
                             sock: socket.socket,
                             reader: FrameReader) -> None:
        """Bring a joining peer's fresh link up to date and go live.

        Holding ``_bcast_lock`` across replay + install means no live
        broadcast can slip between the journal suffix and the first
        frame sent post-install — the peer sees one gapless, in-order
        stream (its dedup horizon absorbs any overlap)."""
        with self._bcast_lock:
            if self._bcast_trimmed > resume:
                try:
                    sock.sendall(encode_frame(msg.resume_nack(
                        self.index, resume, self._bcast_trimmed)))
                finally:
                    self._drop(sock)
                return
            for mark, frame in self._bcast_journal:
                if mark > resume:
                    sock.sendall(frame)
            old = self._peer_socks.get(j)
            self._peer_socks[j] = sock
        if old is not None:
            self._drop(old)
        self._start_peer_loop(j, sock, reader)

    # -- joining ---------------------------------------------------------------

    def _handle_restore(self, message: dict) -> None:
        """Build the engine, dial the peers named, reply ``restore-ok``.

        With a snapshot, the engine resumes bit-exactly at the snapshot
        barrier's ticket; without one (a start, a reset, or a respawn's
        full-replay fallback) it starts fresh at ``base_mark`` and the
        router replays everything since.  Either way every stream starts
        at the baseline — anything at or below it is already inside the
        restored state, so ``seen`` starts there too and replayed peer
        broadcasts dedup cleanly.
        """
        config = RushMonConfig(**message["config"])
        base = message["base_mark"]
        document = message["snapshot"]
        with self._merge:
            self._build_engine(config)
            if document is not None:
                payload = wal.decode_shard_snapshot(document)
                self.collector.load_state(payload["collector"])
                wal.decode_detector_state(self.detector, payload["detector"])
                wal.decode_window_state(self.window, payload["window"])
                self._lifecycle_error = payload.get("lifecycle_error")
                base = payload["high"]
            self._local_mark = base
            detached = set(message["detached"])
            for j, stream in self._peers.items():
                stream.mark = base
                stream.seen = base
                # Sticky: a detach the control reader applied while this
                # (reset) restore sat queued must survive it.
                stream.detached = stream.detached or j in detached
        self._route_high = message["route_high"]
        with self._bcast_lock:
            self._bcast_journal.clear()
            self._bcast_trimmed = base
        for j, port in enumerate(message["ports"]):
            # None: a peer that joins later dials us, a reset keeps the
            # link it has, and a failed shard stays detached.
            if port is not None and j != self.index and j not in detached:
                self._dial_peer(j, port, base)
        self._send_control(encode_frame(msg.restore_ok(self.index)))

    def _dial_peer(self, j: int, port: int, resume: int) -> None:
        """One dial: the router names only peers that are ``up``, and a
        peer's exchange listener opened before its ``worker-hello``."""
        sock = self._own(no_delay(socket.create_connection(
            ("127.0.0.1", port), timeout=self.handshake_timeout)))
        sock.settimeout(None)
        sock.sendall(encode_frame(msg.peer_hello(self.index, resume=resume)))
        with self._bcast_lock:
            self._peer_socks[j] = sock
        self._start_peer_loop(j, sock, FrameReader())

    # -- lifecycle -------------------------------------------------------------

    def run(self, host: str, port: int) -> None:
        """Connect to the router, join on its ``restore``, serve until
        ``bye``."""
        self._listener = self._own(socket.create_server(("127.0.0.1", 0)))
        threading.Thread(target=self._accept_peers, daemon=True,
                         name=f"accept-{self.index}").start()
        self._control = self._own(no_delay(socket.create_connection(
            (host, port), timeout=self.handshake_timeout)))
        try:
            self._control.sendall(encode_frame(msg.worker_hello(
                self.index, self._listener.getsockname()[1])))
            reader = FrameReader()
            self._control.settimeout(self.handshake_timeout)
            first = recv_message(self._control, reader)
            if first["type"] != "restore":
                raise ProtocolError(
                    f"expected restore, got {first['type']!r}")
            self._handle_restore(first)
            self._control.settimeout(None)
            self._serve(reader)
        except Exception as exc:
            try:
                self._send_control(encode_frame(msg.err(
                    f"worker {self.index}: {exc!r}")))
            except OSError:
                pass
            raise
        finally:
            self.close()

    def _serve(self, reader: FrameReader) -> None:
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        threading.Thread(target=self._read_control, args=(reader, inbox),
                         daemon=True, name=f"control-{self.index}").start()
        handlers = {
            "route": self._handle_route,
            "flush": self._handle_flush,
            "snap-request": self._handle_snap_request,
            "restore": self._handle_restore,
        }
        while True:
            message = inbox.get()
            if isinstance(message, ProtocolError):
                raise message
            if message["type"] == "bye":
                return
            handler = handlers.get(message["type"])
            if handler is None:
                raise ProtocolError(
                    f"unexpected control message {message['type']!r}")
            handler(message)

    def _read_control(self, reader: FrameReader,
                      inbox: queue.SimpleQueue) -> None:
        """The control link's only reader: applies ``detach`` on
        arrival and queues every other message, in order, for
        :meth:`_serve`.  EOF (the router vanished, or :meth:`_fatal`
        shut the link) queues a ``bye``; a corrupt frame queues its
        :class:`ProtocolError`."""
        data = b""
        try:
            while True:
                for message in reader.feed(data):
                    if message["type"] == "detach":
                        self._handle_detach(message)
                    else:
                        inbox.put(message)
                data = self._control.recv(_RECV)
                if not data:
                    break
        except ProtocolError as exc:
            inbox.put(exc)
            return
        except OSError:
            pass
        inbox.put(msg.bye())

