"""The :class:`ClusterMonitor` facade: N worker processes, one monitor.

From the caller's side this is just another
:class:`~repro.core.api.AnomalyMonitor` — the same lifecycle verbs, the
same ``close_window()`` / ``reports`` / ``cumulative_estimates()``
surface the serial monitor and the threaded service expose, driven by
one :class:`~repro.core.config.RushMonConfig` (``num_workers``,
``cluster_batch``).  Behind the facade:

- **Routing.**  Every event gets a global, monotone *ticket*.
  Operations go to the worker owning their key
  (:func:`~repro.core.frontier.key_partition` — the same placement
  digest the in-process sharded collector uses); BUU begin/commit
  events are broadcast to every worker, because lifecycle state is
  graph-global.  Sampling is decided here, at the one place every key
  is already looked up: the router holds the same
  :class:`~repro.core.collector.ItemSampler` the workers' collectors
  hold (pure in ``(key, sampling_rate, seed)``), and an operation on an
  item outside the sample takes its ticket but is never buffered — it
  is counted against its owning shard and the count rides in that
  shard's next frame as one integer (``elided``).  Tickets stay event
  ordinals, so watermarks, journals and snapshots are unaffected; at
  ``sampling_rate=1`` nothing is elided and no frame carries the
  field.  Lifecycle follows the sample through the admission gate
  every front end shares (:class:`~repro.core.collector.SampledLifecycle`,
  which carries the park / promote / drop contract); the sink here is a
  broadcast.  A promoted begin takes a fresh ticket just below its
  promoting operation's, because a record carrying the ticket of the
  original call would arrive behind watermarks that have already passed
  it; a dropped begin/commit pair is counted, never ticketed.  Events
  buffer per worker and ship as ``route`` frames
  over the :mod:`repro.net.protocol` framing, with the net layer's
  sequence/cumulative-ack session per link (so worker delivery is
  effectively once and a bounded ack window provides backpressure).
- **Exchange.**  Workers forward the edges they derive to every peer
  (see :mod:`repro.cluster.worker`), so each worker's live graph is the
  full serial graph and cross-shard transactions close cycles exactly
  as they would serially.
- **Aggregation.**  ``close_window()`` runs a flush barrier and *sums*
  the per-worker raw window components — cycle counts, edge stats,
  operation counts, pattern tallies — then estimates once from the
  summed raw counts.  Theorem 5.2's estimator is linear in the counts
  and the shards are item-disjoint, so this equals the serial
  monitor's estimate exactly (bit-exactly at any ``sr`` with
  ``mob=False``; the ``sr=1`` differential pins it against the exact
  checkers).

Joining
-------

The router owns no process: each worker *incarnation* comes from a
factory (:mod:`repro.cluster.process`) as a handle with ``kill()``,
``join()`` and an exit ``sentinel``.  Incarnations start lazily, on
first ingestion.  Every worker engine is built by ``restore`` (see
:mod:`repro.cluster.worker`) — at start (all spawned at once, restored
in index order), at respawn and at an in-place
:meth:`ClusterMonitor.reset` — so the recovery handshake runs on every
cluster start.  A join waits on the listener and the incarnation's
sentinel together: one that dies before its ``worker-hello`` fails the
attempt at once.

Supervision: respawn-and-replay
-------------------------------

A real-time monitor that dies with one lost process is worse than none,
so worker death is a handled state, not an exception.  A dead worker's
control link reads EOF; its reader thread hands the link to a
supervisor thread, which brings the shard back bit-exactly:

- **Journal-then-send.**  Every ``route`` and ``flush`` frame is
  appended to a per-link replay journal *before* it touches the wire,
  so a frame lost to a dying socket is never lost to the protocol —
  and neither are the elided-operation counts, which exist nowhere but
  inside those frames.
  While a link is down, ingestion keeps journaling (and the cluster
  keeps accepting events); the supervisor replays the journal onto the
  respawned worker.  Route replay is idempotent (workers dedup on the
  session sequence) and replayed flush frames rebuild the worker's
  window state; their surplus replies are counted and discarded by the
  reader (``flush`` ordinals vs. barrier replies already consumed).
- **Snapshot shipping.**  A snapshot round runs whenever some link's
  journal reaches half of ``replay_journal_capacity``; it barriers
  every worker with ``snap-request`` and stores each shard's
  CRC-guarded state (see :func:`repro.storage.wal.encode_shard_snapshot`).
  A verified snapshot empties that link's journal — the journal is
  exactly the suffix past the last verified snapshot, which is all a
  respawned worker needs after restoring it.  A corrupt snapshot
  (:mod:`repro.testing.faults` point ``cluster.snapshot``) is rejected
  and the previous one kept; with no verified snapshot at all the
  respawn falls back to a full journal replay from the reset baseline.
- **The circuit breaker.**  ``max_worker_restarts`` respawn attempts
  per shard; past it the shard is *failed*: survivors get ``detach``
  (its frozen watermark stops gating their merges), its routed frames
  are dropped with the counts they carry (counted), and reports carry
  ``health="degraded"`` plus the missing shard indices in
  ``degraded_shards`` — the anomaly signal narrows instead of dying.
  A survivor applies ``detach`` the moment it arrives, so a barrier in
  flight when the breaker trips completes without the lost shard.
  Only the supervisor thread trips breakers and respawns, one link at
  a time, so a ``restore`` never misses a ``detach``.
  :meth:`reset` on a degraded cluster tears everything down and starts
  a fresh, healthy one.

The supervisor never takes the monitor's ingestion lock (a barrier
blocks holding it, and recovery is what unblocks the barrier); all
supervisor↔ingestion coordination goes through per-link condition
variables and a small supervisor-state lock.
"""

from __future__ import annotations

import queue
import selectors
import socket
import threading
import time
from dataclasses import asdict
from typing import Iterable

from repro.cluster import messages as msg
from repro.cluster.process import WorkerProcess
from repro.cluster.worker import no_delay, recv_message
from repro.core.collector import KEY_CACHE_MAX, ItemSampler, SampledLifecycle
from repro.core.config import RushMonConfig
from repro.core.detector import LifecycleOrderError
from repro.core.estimator import estimate_three_cycles, estimate_two_cycles
from repro.core.frontier import key_partition
from repro.core.types import (
    AnomalyReport,
    BuuId,
    CycleCounts,
    EdgeStats,
    Operation,
    OpType,
)
from repro.net.protocol import FrameReader, ProtocolError, encode_frame
from repro.obs.instrument import instrument_cluster_monitor
from repro.obs.metrics import MetricsRegistry
from repro.storage import wal
from repro.testing.faults import FaultInjector

__all__ = ["ClusterMonitor"]

_RECV = 1 << 16

#: Enum member -> wire tag, avoiding the (slow) enum ``.value``
#: descriptor in the per-operation routing loop.
_OP_WIRE = {member: member.value for member in OpType}

#: Barrier-latency buckets (seconds): sub-millisecond to the timeout.
_BARRIER_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 15.0,
                    60.0, 120.0)

#: Respawn-time buckets (seconds): a worker's cold start (~0.1 s, most of
#: it imports) up to the handshake timeout.
_RESPAWN_BUCKETS = (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0)


class _WorkerLink:
    """The router's view of one worker incarnation chain.

    ``state`` is the supervisor's per-link machine — ``up`` (live),
    ``down`` (dead, awaiting the supervisor), ``respawning`` (the
    supervisor owns it) and ``failed`` (circuit breaker tripped;
    terminal until :meth:`ClusterMonitor.reset`).  ``gen`` increments
    per incarnation so a stale reader thread can never mark a fresh
    incarnation dead.  ``cond`` guards every mutable field below it;
    ``wlock`` serializes raw socket writes (ingestion, barriers, the
    supervisor and replay may interleave frames otherwise).
    """

    def __init__(self, index: int) -> None:
        self.index = index
        #: The current incarnation (see :mod:`repro.cluster.process`).
        self.handle = None
        self.sock: socket.socket | None = None
        self.reader = FrameReader()
        self.port: int | None = None
        self.wlock = threading.Lock()
        self.cond = threading.Condition()
        # -- guarded by cond -------------------------------------------
        self.state = "down"
        self.gen = 0
        self.send_seq = 0
        self.acked = 0
        self.down_reason: str | None = None
        #: Replay journal: ("route", seq, frame, None) and
        #: ("flush", None, frame, ordinal) entries in exact send order.
        #: Emptied whenever a snapshot is verified — the journal IS the
        #: suffix past the last restore point.
        self.journal: list[tuple] = []
        #: Session seq already covered when the journal was last
        #: emptied *without* a snapshot (start / reset baseline).
        self.journal_base_seq = 0
        #: Flush frames journaled / barrier replies consumed — their
        #: difference over the replayed suffix is how many replayed
        #: barrier replies the reader must discard.
        self.flush_seq = 0
        self.flush_replies_consumed = 0
        self.discard_replies = 0
        #: Last verified shard snapshot (encoded document) and the
        #: session seq it covers.
        self.snapshot: dict | None = None
        self.snapshot_route_high = 0
        # -- unguarded -------------------------------------------------
        self.replies: queue.Queue = queue.Queue()
        self.error: str | None = None


class ClusterMonitor:
    """Multi-process sharded monitor behind the AnomalyMonitor surface.

    >>> from repro.core.config import RushMonConfig
    >>> from repro.cluster import ClusterMonitor
    >>> mon = ClusterMonitor(RushMonConfig(sampling_rate=1, mob=False,
    ...                                    num_workers=2))

    feed it like any monitor, ``close_window()`` for a cluster-wide
    report, and ``stop()`` (or use it as a context manager) when done.

    Sized by ``config.num_workers``; ``config.cluster_batch`` bounds
    per-worker buffering between route flushes (every flush ships a
    frame to *every* worker — empty frames advance the cross-worker
    watermarks, so one hot shard cannot stall the merge on cold ones).
    Worker death is supervised (see the module docstring): the cluster
    respawns-and-replays up to ``config.max_worker_restarts`` times per
    shard and degrades instead of raising past that.
    """

    #: Route frames in flight per worker before ingestion blocks.  The
    #: product ``ack_window * cluster_batch`` bounds the backlog a
    #: barrier must drain while the router idles, so keep it modest.
    ack_window = 8
    #: Seconds allowed for a worker's spawn, hello and restore.
    handshake_timeout = 60.0
    #: Seconds allowed for a flush/query/reset barrier — this must also
    #: cover a respawn-and-replay happening mid-barrier.
    barrier_timeout = 120.0

    def __init__(self, config: RushMonConfig | None = None,
                 metrics: MetricsRegistry | None = None,
                 faults: FaultInjector | None = None,
                 spawn=WorkerProcess) -> None:
        self.config = config or RushMonConfig()
        if self.config.resample_interval is not None:
            raise ValueError(
                "resample_interval is serial-only: cluster workers cannot "
                "re-pick sampled items in lockstep (each worker sees only "
                "its own shard's operations)"
            )
        self.num_workers = self.config.num_workers
        n = self.num_workers
        self._mask = (n - 1) if n & (n - 1) == 0 else None
        self.reports: list[AnomalyReport] = []
        self._lock = threading.RLock()
        self._links: list[_WorkerLink] = []
        self._listener: socket.socket | None = None
        self._started = False
        self._stopped = False
        self._ticket = 0
        self._now = 0
        self._window_start = 0
        self._buffers: list[list] = [[] for _ in range(n)]
        #: Length of the longest buffer (a broadcast grows every buffer
        #: by one, an operation grows one) — the O(1) fullness test.
        self._fullest = 0
        #: The workers' own DCS membership test, taken where every key
        #: is already looked up: key -> ``owner`` for a sampled item,
        #: ``~owner`` for one whose operations are counted, not shipped.
        self._sampler = ItemSampler(self.config.sampling_rate,
                                    self.config.seed)
        self._owners: dict = {}
        #: Per-shard operations ticketed but never shipped (cumulative),
        #: and the same as of the last route frame — the difference
        #: rides in the next frame as ``elided``.
        self._elided = [0] * n
        self._elided_sent = [0] * n
        #: The admission gate (its sink: a broadcast); ``.elided``
        #: counts the begin/commit events it spared every worker.
        self.lifecycle = SampledLifecycle(self._sampler)
        self.ops_routed = 0
        self.lifecycle_broadcasts = 0
        self.router_flushes = 0
        #: Router-side fault injector (``cluster.route`` /
        #: ``cluster.snapshot`` points).
        self.faults = faults
        #: The incarnation factory: ``spawn(index, num_workers, host,
        #: port, config_dict)`` -> handle (:mod:`repro.cluster.process`).
        self._spawn_incarnation = spawn
        # -- supervision state (guarded by _sup_lock, not _lock: the
        # supervisor must never contend with a blocked barrier) --------
        self._sup_lock = threading.Lock()
        self._degraded: set[int] = set()
        self._restarts = [0] * n
        self._config_dict = asdict(self.config)
        self._base_mark = 0
        self._sup_thread: threading.Thread | None = None
        self._sup_stop: threading.Event | None = None
        self._sup_queue: queue.Queue | None = None
        self.worker_restarts_total = 0
        self.snapshots_shipped = 0
        self.snapshots_rejected = 0
        self.snapshot_rounds = 0
        self.replay_frames_total = 0
        self.frames_dropped_failed = 0
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._barrier_hist = self.metrics.histogram(
            "rushmon_cluster_barrier_seconds",
            help="wall time of cluster flush barriers (includes any "
                 "respawn-and-replay a barrier rode out)",
            buckets=_BARRIER_BUCKETS,
        )
        self._respawn_hist = self.metrics.histogram(
            "rushmon_cluster_respawn_seconds",
            help="wall time of successful worker respawns: process spawn, "
                 "handshake, restore and journal replay until the link is "
                 "live again (the shard's unmonitored time; failed attempts "
                 "are counted in worker_restarts_total only)",
            buckets=_RESPAWN_BUCKETS,
        )
        self.metrics.defer(instrument_cluster_monitor, self)

    # -- lifecycle -------------------------------------------------------------

    def _ensure_started_locked(self) -> None:
        if self._started:
            return
        if self._stopped:
            raise RuntimeError("ClusterMonitor is stopped")
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._links = [_WorkerLink(i) for i in range(self.num_workers)]
        self._sup_stop = threading.Event()
        self._sup_queue = queue.Queue()
        joining: dict = {}
        try:
            for link in self._links:
                self._spawn(link, self._listener)
            handles = [link.handle for link in self._links]
            for _ in self._links:
                sock, reader, hello = self._accept_hello(self._listener,
                                                         handles)
                joining[hello["index"]] = (sock, reader, hello["port"])
            # A start is a restore from the empty baseline, in index
            # order: each worker dials the ones already up.
            for link in self._links:
                self._restore_link(link, *joining.pop(link.index))
        except Exception:
            for sock, _, _ in joining.values():
                sock.close()
            self._teardown_locked()
            raise
        self._sup_thread = threading.Thread(
            target=self._supervise,
            args=(self._sup_stop, self._sup_queue),
            daemon=True, name="rushmon-cluster-supervisor",
        )
        self._sup_thread.start()
        self._started = True

    def _spawn(self, link: _WorkerLink, listener: socket.socket) -> None:
        host, port = listener.getsockname()
        with self._sup_lock:
            config_dict = self._config_dict
        link.handle = self._spawn_incarnation(
            link.index, self.num_workers, host, port, config_dict)

    def _accept_hello(self, listener: socket.socket, handles: list
                      ) -> tuple[socket.socket, FrameReader, dict]:
        """Accept one ``worker-hello``.  Waits on the listener and the
        joining incarnations' exit sentinels together: an incarnation
        that dies before it dials fails the wait at once."""
        with selectors.DefaultSelector() as waiting:
            waiting.register(listener, selectors.EVENT_READ)
            for handle in handles:
                waiting.register(handle.sentinel, selectors.EVENT_READ,
                                 handle)
            ready = [key.data for key, _ in
                     waiting.select(self.handshake_timeout)]
        if not ready:
            raise TimeoutError(f"no worker-hello within "
                               f"{self.handshake_timeout}s")
        if None not in ready:   # the listener is the key without data
            raise RuntimeError(f"cluster worker {ready[0].index} exited "
                               f"before its worker-hello")
        sock = no_delay(listener.accept()[0])
        try:
            sock.settimeout(self.handshake_timeout)
            reader = FrameReader()
            hello = recv_message(sock, reader)
            if hello["type"] != "worker-hello":
                raise ProtocolError(
                    f"expected worker-hello, got {hello['type']!r}")
        except Exception:
            sock.close()
            raise
        return sock, reader, hello

    def _restore_frame(self, link: _WorkerLink, ports: list) -> bytes:
        """The ``restore`` that builds ``link``'s engine: the router's
        config, ticket baseline and failed shards, the link's restore
        point (last verified snapshot, else the journal baseline) and
        the exchange ``ports`` to dial."""
        with self._sup_lock:
            config_dict = self._config_dict
            base_mark = self._base_mark
            detached = sorted(self._degraded)
        with link.cond:
            snapshot = link.snapshot
            route_high = (link.snapshot_route_high if snapshot is not None
                          else link.journal_base_seq)
        return encode_frame(msg.restore(config_dict, ports, route_high,
                                        base_mark, snapshot, detached))

    def _restore_link(self, link: _WorkerLink, sock: socket.socket,
                      reader: FrameReader, port: int) -> None:
        """Join one fresh worker incarnation: ``restore`` naming the
        exchange ports of every link up, ``restore-ok``, install, then
        replay the journal suffix and go live."""
        try:
            ports = []
            for other in self._links:
                with other.cond:
                    ports.append(port if other is link else
                                  other.port if other.state == "up" else None)
            sock.sendall(self._restore_frame(link, ports))
            reply = recv_message(sock, reader)
            if reply["type"] == "err":
                raise RuntimeError(
                    f"cluster worker {link.index} failed to restore: "
                    f"{reply['message']}")
            if reply["type"] != "restore-ok":
                raise ProtocolError(
                    f"expected restore-ok, got {reply['type']!r}")
            sock.settimeout(None)
        except Exception:
            sock.close()
            raise
        with link.cond:
            link.sock = sock
            link.reader = reader
            link.port = port
            link.gen += 1
            gen = link.gen
        self._replay_link(link, gen)

    def _reader_loop(self, link: _WorkerLink, sock: socket.socket,
                     reader: FrameReader, gen: int,
                     sup_queue: queue.Queue) -> None:
        while True:
            try:
                data = sock.recv(_RECV)
            except OSError:
                data = b""
            if not data:
                self._link_down(link, gen, "control connection closed",
                                sup_queue)
                return
            for message in reader.feed(data):
                kind = message["type"]
                if kind == "ack":
                    with link.cond:
                        if message["seq"] > link.acked:
                            link.acked = message["seq"]
                        link.cond.notify_all()
                elif kind == "err":
                    self._link_down(link, gen, message["message"], sup_queue)
                    return
                else:
                    with link.cond:
                        if link.discard_replies > 0:
                            # Surplus reply to a *replayed* flush (the
                            # original was consumed by a barrier before
                            # the worker died); drop it.
                            link.discard_replies -= 1
                            continue
                    link.replies.put(message)

    def _link_down(self, link: _WorkerLink, gen: int, reason: str,
                   sup_queue: queue.Queue) -> None:
        """Transition a live link to ``down`` and wake the supervisor.
        Generation-guarded: a stale incarnation's reader noticing its
        own (already replaced) socket die is a no-op."""
        with link.cond:
            if gen != link.gen or link.state != "up":
                return
            link.state = "down"
            link.down_reason = reason
            link.cond.notify_all()
        sup_queue.put(link)

    def _send_if_up(self, link: _WorkerLink, frame: bytes, what: str,
                    journal: tuple | None = None) -> int | None:
        """Send ``frame`` if ``link`` is ``up``; a failed send marks it
        down.  Returns the incarnation it went to, ``None`` if it went
        nowhere.  ``journal`` is appended under the same hold of
        ``link.cond`` that decides liveness, so a journaled frame lands
        either in the range a replay sends or after the link is up to
        send it here — never in both, never in neither.

        Every control frame passes the ``cluster.route`` fault point
        here, before it is journaled."""
        if self.faults is not None:
            fault = self.faults.fire("cluster.route")
            if fault is not None:
                self._apply_route_fault(link, fault)
        with link.cond:
            if journal is not None:
                link.journal.append(journal)
            if link.state != "up":
                return None
            gen, sock = link.gen, link.sock
        try:
            with link.wlock:
                sock.sendall(frame)
        except OSError:
            self._link_down(link, gen, f"{what} send failed",
                            self._sup_queue)
            return None
        return gen

    def stop(self) -> None:
        """Shut the cluster down: orderly ``bye``, then join (and, past
        a grace period, kill) the worker incarnations.  Idempotent; a
        stopped monitor refuses further ingestion."""
        with self._lock:
            self._stopped = True
            if self._started:
                self._started = False
                self._teardown_locked()

    def _teardown_locked(self) -> None:
        if self._sup_stop is not None:
            self._sup_stop.set()
        if self._sup_queue is not None:
            self._sup_queue.put(None)
        # Shut the listener before joining the supervisor: a respawn
        # waiting for a hello aborts immediately instead of timing out.
        if self._listener is not None:
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
            self._listener = None
        frame = encode_frame(msg.bye())
        for link in self._links:
            self._send_if_up(link, frame, "bye")
        if self._sup_thread is not None:
            self._sup_thread.join(timeout=5.0)
            self._sup_thread = None
        for link in self._links:
            if link.handle is not None:
                link.handle.join(timeout=5.0)
            self._end_incarnation(link)

    def __enter__(self) -> "ClusterMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- supervision -----------------------------------------------------------

    def _supervise(self, stop: threading.Event,
                   sup_queue: queue.Queue) -> None:
        """The supervisor loop: respawn the links the readers report
        dead."""
        while True:
            link = sup_queue.get()
            if link is None or stop.is_set():
                return
            self._respawn(link, stop)

    def _end_incarnation(self, link: _WorkerLink) -> None:
        """Close ``link``'s control socket and kill its incarnation."""
        if link.sock is not None:
            try:
                link.sock.close()
            except OSError:
                pass
        if link.handle is not None:
            link.handle.kill()
            link.handle.join(timeout=5.0)

    def _respawn(self, link: _WorkerLink, stop: threading.Event) -> None:
        """Bring one dead link back, retrying until it sticks or the
        circuit breaker trips."""
        while not stop.is_set():
            # Claim and budget check are one step: ``respawning`` always
            # means an attempt the budget paid for.
            with link.cond:
                if link.state != "down":
                    return
                reason = link.down_reason or "unknown"
                with self._sup_lock:
                    tripped = (self._restarts[link.index]
                               >= self.config.max_worker_restarts)
                    if not tripped:
                        self._restarts[link.index] += 1
                        self.worker_restarts_total += 1
                if not tripped:
                    link.state = "respawning"
            if tripped:
                self._fail_link(link, reason)
                return
            began = time.monotonic()
            try:
                self._spawn_and_restore(link)
                self._respawn_hist.observe(time.monotonic() - began)
                return
            except Exception as exc:
                if stop.is_set():
                    return
                with link.cond:
                    link.state = "down"
                    link.down_reason = f"respawn attempt failed: {exc!r}"

    def _spawn_and_restore(self, link: _WorkerLink) -> None:
        """One respawn attempt: spawn, then join like any start.  A
        failed attempt's incarnation is ended by whatever comes next —
        the next attempt, the breaker, or the teardown."""
        self._end_incarnation(link)
        listener = self._listener
        if listener is None:
            raise RuntimeError("cluster is shutting down")
        self._spawn(link, listener)
        sock, reader, hello = self._accept_hello(listener, [link.handle])
        if hello["index"] != link.index:
            sock.close()
            raise ProtocolError(f"unexpected respawn hello {hello!r}")
        self._restore_link(link, sock, reader, hello["port"])

    def _replay_link(self, link: _WorkerLink, gen: int) -> None:
        """Replay the journal suffix onto a restored link, then flip it
        to ``up``.  The reader starts first (the worker's acks and any
        genuine barrier replies must drain during replay); the state
        flip happens under the link condition after the journal is
        confirmed drained, so an ingestion append always lands either
        in the replayed range or after the link sends for itself."""
        with link.cond:
            consumed = link.flush_replies_consumed
            link.discard_replies = sum(
                1 for entry in link.journal
                if entry[0] == "flush" and entry[3] <= consumed)
            sock = link.sock
            reader = link.reader
        threading.Thread(
            target=self._reader_loop,
            args=(link, sock, reader, gen, self._sup_queue), daemon=True,
            name=f"rushmon-cluster-reader-{link.index}.{gen}").start()
        sent = 0
        while True:
            with link.cond:
                if sent >= len(link.journal):
                    link.state = "up"
                    link.down_reason = None
                    link.cond.notify_all()
                    break
                batch = list(link.journal[sent:])
            for entry in batch:
                with link.wlock:
                    sock.sendall(entry[2])
                sent += 1
        self.replay_frames_total += sent

    def _fail_link(self, link: _WorkerLink, last_failure: str) -> None:
        """Trip the circuit breaker of a link whose restart budget is
        spent: the shard is gone for good (until a reset).  Survivors
        stop gating their merges on it, waiters are released, and
        reports degrade instead of raising."""
        reason = (f"restart budget exhausted "
                  f"({self.config.max_worker_restarts}); last failure: "
                  f"{last_failure}")
        with self._sup_lock:
            self._degraded.add(link.index)
        with link.cond:
            link.state = "failed"
            link.error = reason
            link.down_reason = reason
            link.journal.clear()
            link.snapshot = None
            link.cond.notify_all()
        # Release a barrier blocked on this shard's reply.
        link.replies.put({"type": "failed"})
        frame = encode_frame(msg.detach(link.index))
        for other in self._links:
            if other is not link:
                self._send_if_up(other, frame, "detach")
        self._end_incarnation(link)

    @property
    def ops_elided(self) -> int:
        """Operations ticketed (they are in ``ops_routed``) but never
        shipped: their item is outside the DCS sample, so the owning
        worker only ever needed their count."""
        return sum(self._elided)

    @property
    def degraded_shards(self) -> tuple:
        """Indices of shards whose circuit breaker has tripped."""
        with self._sup_lock:
            return tuple(sorted(self._degraded))

    def shard_health(self) -> list[dict]:
        """Per-shard supervisor view (for live displays): link state,
        consumed restart budget, the shard's operations the router
        ticketed without shipping (unsampled items) and the lifecycle
        events it was spared (a broadcast skips every shard alike)."""
        with self._sup_lock:
            restarts = list(self._restarts)
        out = []
        for link in self._links:
            with link.cond:
                out.append({
                    "index": link.index,
                    "state": link.state,
                    "restarts": restarts[link.index],
                    "ops_elided": self._elided[link.index],
                    "lifecycle_elided": self.lifecycle.elided,
                })
        return out

    # -- ingestion (MonitorListener) -------------------------------------------

    def _time(self, explicit: int | None) -> int:
        if explicit is not None:
            self._now = max(self._now, explicit)
            return explicit
        return self._now

    def _next_ticket(self) -> int:
        self._ticket += 1
        return self._ticket

    def begin_buu(self, buu: BuuId, start_time: int | None = None) -> None:
        with self._lock:
            self._ensure_started_locked()
            when = self._time(start_time)
            if not self.lifecycle.begin(buu, when):
                self._broadcast_locked(
                    msg.wire_begin(buu, when, self._next_ticket()))

    def commit_buu(self, buu: BuuId, commit_time: int | None = None) -> None:
        with self._lock:
            self._ensure_started_locked()
            when = self._time(commit_time)
            if not self.lifecycle.commit(buu):
                self._broadcast_locked(
                    msg.wire_commit(buu, when, self._next_ticket()))

    def _broadcast_locked(self, record: list) -> None:
        """Append one lifecycle record — the same list, it is only ever
        encoded — to every worker's buffer."""
        for buffer in self._buffers:
            buffer.append(record)
        self._fullest += 1
        self.lifecycle_broadcasts += 1
        self._route_if_full_locked()

    def _place(self, key) -> int:
        """The owning worker of ``key``, signed by the DCS decision:
        ``owner`` for a sampled item, ``~owner`` for one whose operations
        are ticketed and counted but never shipped."""
        owner = key_partition(key, self.num_workers, self._mask)
        return owner if self._sampler.chosen(key) else ~owner

    def on_operation(self, op: Operation) -> None:
        self.on_operations((op,))

    def on_operations(self, ops: Iterable[Operation]) -> None:
        with self._lock:
            self._ensure_started_locked()
            buffers = self._buffers
            owners = self._owners
            elided = self._elided
            op_wire = _OP_WIRE
            # The gate's parked set has this one outside reader: split
            # into passes, the loop ran at 1.64 M vs 2.33 M ops/s.
            parked = self.lifecycle.parked
            unpark = self.lifecycle.unpark
            promoted = 0
            now = self._now
            ticket = self._ticket
            for op in ops:
                seq = op.seq
                if seq > now:
                    now = seq
                ticket += 1
                key = op.key
                owner = owners.get(key)
                if owner is None:
                    owner = self._place(key)
                    if len(owners) < KEY_CACHE_MAX:
                        owners[key] = owner
                if owner >= 0:
                    if parked and op.buu in parked:
                        # Promotion: the begin takes this ticket in
                        # every worker's stream, the operation the
                        # next one.
                        record = msg.wire_begin(
                            op.buu, unpark(op.buu), ticket)
                        for buffer in buffers:
                            buffer.append(record)
                        ticket += 1
                        promoted += 1
                    buffers[owner].append(
                        [op_wire[op.op], op.buu, key, seq, ticket])
                else:
                    elided[~owner] += 1
            self.ops_routed += ticket - self._ticket - promoted
            self.lifecycle_broadcasts += promoted
            self._ticket = ticket
            self._now = now
            self._fullest = max(map(len, buffers))
            self._route_if_full_locked()

    # -- routing ---------------------------------------------------------------

    def _route_if_full_locked(self) -> None:
        if self._fullest >= self.config.cluster_batch:
            self._flush_buffers_locked()
            self._maybe_snapshot_locked()

    def _flush_buffers_locked(self) -> None:
        """Ship every per-worker buffer, and every count of operations
        elided since the last flush, as one route frame per worker.
        All-or-none: even an empty buffer ships (an empty frame carries
        the ticket high-water mark, which peers need to advance the
        merge)."""
        if not self._fullest and self._elided == self._elided_sent:
            return
        for link, events, count, sent in zip(
                self._links, self._buffers, self._elided, self._elided_sent):
            self._send_route(link, events, count - sent)
        self._buffers = [[] for _ in range(self.num_workers)]
        self._fullest = 0
        self._elided_sent = list(self._elided)
        self.router_flushes += 1

    def _send_route(self, link: _WorkerLink, events: list,
                    elided: int) -> None:
        """Journal-then-send one route frame.

        A ``failed`` shard's frames are dropped, elided counts and all
        (counted — the honest accounting of degraded mode).  A
        ``down``/``respawning`` link journals without sending: the
        supervisor's replay delivers.
        Backpressure applies only to live links (a down link's acks
        are frozen; its backlog is bounded by the respawn, which never
        waits on this lock)."""
        with link.cond:
            if link.state == "failed":
                self.frames_dropped_failed += 1
                return
            if link.state == "up" and \
                    link.send_seq - link.acked >= self.ack_window:
                deadline = time.monotonic() + self.barrier_timeout
                while (link.state == "up"
                       and link.send_seq - link.acked >= self.ack_window):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise RuntimeError(
                            f"cluster worker {link.index} stopped acking "
                            f"route frames (backpressure timeout)")
                    link.cond.wait(remaining)
                if link.state == "failed":
                    self.frames_dropped_failed += 1
                    return
            link.send_seq += 1
            seq = link.send_seq
        frame = encode_frame(msg.route(seq, self._ticket, events, elided))
        self._send_if_up(link, frame, "route",
                         journal=("route", seq, frame, None))

    def _apply_route_fault(self, link: _WorkerLink, fault) -> None:
        if fault.kind == "kill_worker":
            link.handle.kill()
        elif fault.kind == "delay":
            time.sleep(fault.delay)
        elif fault.kind == "exception":
            raise fault.exc_factory()

    # -- snapshot rounds -------------------------------------------------------

    def _maybe_snapshot_locked(self) -> None:
        """Run a snapshot round whenever some link's journal reaches
        half its capacity (journal pressure — the bound that keeps
        'bounded per-shard replay journal' honest)."""
        threshold = max(1, self.config.replay_journal_capacity // 2)
        if any(len(link.journal) >= threshold for link in self._links):
            self._snapshot_round_locked()

    def _snapshot_round_locked(self) -> None:
        """Barrier every live worker with ``snap-request`` and store the
        verified snapshots.  Aborted (retried at the next flush) while
        any shard is mid-respawn; a shard dying mid-round just keeps
        its previous snapshot."""
        high = self._ticket
        targets = []
        for link in self._links:
            with link.cond:
                if link.state == "failed":
                    continue
                if link.state != "up":
                    return  # respawn in flight; retry later
            targets.append(link)
        if not targets:
            return
        self.snapshot_rounds += 1
        frame = encode_frame(msg.snap_request(high))
        gens = [self._send_if_up(link, frame, "snap-request")
                for link in targets]
        for link, gen in zip(targets, gens):
            # Snapshot requests are not journaled: only the incarnation
            # asked can answer.
            reply = None if gen is None else self._await_reply(link, gen)
            if reply is None:
                continue  # died mid-round; previous snapshot stands
            if reply["type"] != "snap":
                raise ProtocolError(
                    f"expected snap from worker {link.index}, got "
                    f"{reply['type']!r}")
            document = reply["document"]
            if self.faults is not None:
                fault = self.faults.fire("cluster.snapshot")
                if fault is not None and fault.kind == "corrupt":
                    document = dict(document)
                    document["crc"] = document.get("crc", 0) ^ 1
            try:
                payload = wal.decode_shard_snapshot(document)
            except wal.CheckpointError:
                self.snapshots_rejected += 1
                continue  # keep the previous verified snapshot
            with link.cond:
                if payload["route_high"] != link.send_seq:
                    # Defensive: a snapshot that does not cover the
                    # full session prefix must never become a restore
                    # point (replay would double-apply).
                    self.snapshots_rejected += 1
                    continue
                link.snapshot = document
                link.snapshot_route_high = payload["route_high"]
                # The journal was exactly the frames this snapshot now
                # covers (the round runs under the ingestion lock, so
                # nothing was appended since the drain).
                link.journal.clear()
            self.snapshots_shipped += 1

    # -- barriers --------------------------------------------------------------

    def _barrier(self, window: bool, end: int = 0) -> list[tuple[int, dict]]:
        """Flush-and-wait on every non-failed worker; returns
        ``(index, reply)`` pairs in worker order (failed shards are
        skipped — degraded mode).  Callers hold the lock and have
        flushed buffers.  Flush frames are journaled like routes, so a
        worker dying mid-barrier re-executes the flush after its
        respawn and the barrier rides the recovery out instead of
        raising."""
        frame = encode_frame(msg.flush(self._ticket, window, end))
        start = time.monotonic()
        waiting = []
        for link in self._links:
            with link.cond:
                if link.state == "failed":
                    continue
                link.flush_seq += 1
                entry = ("flush", None, frame, link.flush_seq)
            self._send_if_up(link, frame, "flush", journal=entry)
            waiting.append(link)
        replies = []
        for link in waiting:
            reply = self._await_reply(link)
            if reply is None:
                continue  # breaker tripped mid-barrier
            with link.cond:
                link.flush_replies_consumed += 1
            replies.append((link.index, reply))
        self._barrier_hist.observe(time.monotonic() - start)
        return replies

    def _counted_barrier(self, window: bool, end: int = 0) -> list:
        """A barrier whose replies are about to be reported: raises what
        a worker's detector rejected — an operation that reached it
        after its BUU's commit leaves its counts short until a
        :meth:`reset`."""
        replies = self._barrier(window, end)
        for _, reply in replies:
            if "error" in reply:
                raise LifecycleOrderError(reply["error"], CycleCounts())
        return replies

    def _await_reply(self, link: _WorkerLink,
                     gen: int | None = None) -> dict | None:
        """One reply from ``link``; ``None`` once the link is failed.
        Without ``gen`` (a barrier: its ``flush`` is journaled) this is
        patient across a respawn-and-replay; with it only that
        incarnation can answer, so ``None`` once it is gone."""
        deadline = time.monotonic() + self.barrier_timeout
        while True:
            with link.cond:
                if link.state == "failed" or gen is not None and (
                        link.state != "up" or link.gen != gen):
                    return None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(
                    f"cluster worker {link.index} did not reach the "
                    f"barrier within {self.barrier_timeout}s")
            try:
                reply = link.replies.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            if reply.get("type") == "failed":
                return None
            return reply

    # -- reporting (AnomalyMonitor) --------------------------------------------

    @property
    def sampling_probability(self) -> float:
        return 1.0 / self.config.sampling_rate

    def close_window(self, now: int | None = None) -> AnomalyReport:
        """Close the cluster-wide window: barrier every worker at the
        current ticket, sum their raw window components, estimate once
        from the sum (Theorem 5.2 linearity over item-disjoint shards).
        With breaker-tripped shards the report carries
        ``health="degraded"`` and names them in ``degraded_shards`` —
        their keys' counts are missing, everything else is live."""
        with self._lock:
            self._ensure_started_locked()
            end = self._time(now)
            self._flush_buffers_locked()
            replies = self._counted_barrier(window=True, end=end)
            raw = CycleCounts()
            edges = EdgeStats()
            operations = 0
            patterns: dict = {}
            for _, reply in replies:
                raw.add(CycleCounts(**reply["raw"]))
                edges.add(EdgeStats(**reply["edges"]))
                operations += reply["ops"]
                for pattern, count in reply["patterns"].items():
                    patterns[pattern] = patterns.get(pattern, 0) + count
            degraded = self.degraded_shards
            p = self.sampling_probability
            report = AnomalyReport(
                window_start=self._window_start,
                window_end=end,
                estimated_2=estimate_two_cycles(raw, p),
                estimated_3=estimate_three_cycles(raw, p),
                raw=raw,
                edges=edges,
                operations=operations,
                patterns=patterns,
                health="degraded" if degraded else "ok",
                degraded_shards=degraded,
            )
            self._window_start = end
            self.reports.append(report)
            return report

    def latest_report(self) -> AnomalyReport | None:
        """The most recently closed window's report (``None`` if no
        window has been closed yet)."""
        with self._lock:
            return self.reports[-1] if self.reports else None

    def counts(self) -> CycleCounts:
        """Cluster-wide cumulative detector counts (a ``synced`` barrier
        that leaves the current window open; failed shards' counts are
        missing — degraded mode)."""
        with self._lock:
            self._ensure_started_locked()
            self._flush_buffers_locked()
            total = CycleCounts()
            for _, reply in self._counted_barrier(window=False):
                total.add(CycleCounts(**reply["counts"]))
            return total

    def cumulative_estimates(self) -> tuple[float, float]:
        """Unbiased (E2, E3) over everything observed since construction
        (or the last :meth:`reset`)."""
        total = self.counts()
        p = self.sampling_probability
        return (estimate_two_cycles(total, p),
                estimate_three_cycles(total, p))

    # -- harness hooks ---------------------------------------------------------

    def reset(self, config: RushMonConfig) -> None:
        """Rebuild every worker's engine with ``config`` — differential
        and bench harnesses reuse one spawned cluster across runs,
        amortizing the process-spawn cost.

        On a *healthy* cluster this is in-place: tickets and watermarks
        stay monotone, replay journals and snapshots are cleared (the
        reset is the new replay baseline).  On a cluster with any dead
        or breaker-tripped shard — before the reset or during it — it is
        a full restart: workers torn down and respawned lazily, restart
        budgets and degraded state wiped — which is how a degraded
        cluster is *recovered*."""
        with self._lock:
            if config.num_workers != self.num_workers:
                raise ValueError(
                    f"reset cannot change num_workers "
                    f"({self.num_workers} -> {config.num_workers}); "
                    f"start a new ClusterMonitor instead")
            if config.resample_interval is not None:
                raise ValueError("resample_interval is serial-only")
            if self._started and not self._reset_in_place_locked(config):
                self._teardown_locked()
                self._started = False
                self._links = []
                self._ticket = 0
            if (config.sampling_rate, config.seed) != (
                    self.config.sampling_rate, self.config.seed):
                # The decision is pure in (key, sampling_rate, seed):
                # re-decide every key, exactly as the workers' rebuilt
                # collectors will.
                self._sampler = ItemSampler(config.sampling_rate, config.seed)
                self._owners = {}
            # BUUs of the run that ends here never commit: their parked
            # begins are dropped, counted as elided.
            self.lifecycle.reset(self._sampler)
            self.config = config
            with self._sup_lock:
                self._config_dict = asdict(config)
                if not self._started:
                    self._base_mark = 0
                    self._degraded = set()
                    self._restarts = [0] * self.num_workers
            self.reports = []
            self._now = 0
            self._window_start = 0
            self._buffers = [[] for _ in range(self.num_workers)]
            self._fullest = 0
            self._elided_sent = list(self._elided)

    def _all_up(self) -> bool:
        for link in self._links:
            with link.cond:
                if link.state != "up":
                    return False
        return True

    def _reset_in_place_locked(self, config: RushMonConfig) -> bool:
        """A barrier, then every link restored from nothing at the
        barrier ticket, keeping its links (no ports).  ``False`` when a
        shard is down or goes down on the way — the caller's full
        restart then discards whatever was half reset."""
        if not self._all_up():
            return False
        self._flush_buffers_locked()
        self._barrier(window=False)
        if not self._all_up():
            return False
        # Publish the new baseline before the workers rebuild, so a
        # respawn racing the reset restores the post-reset world.
        with self._sup_lock:
            self._config_dict = asdict(config)
            self._base_mark = self._ticket
        no_ports = [None] * self.num_workers
        gens = []
        for link in self._links:
            with link.cond:
                link.journal.clear()
                link.journal_base_seq = link.send_seq
                link.snapshot = None
                link.snapshot_route_high = 0
            gens.append(self._send_if_up(
                link, self._restore_frame(link, no_ports), "restore"))
        for link, gen in zip(self._links, gens):
            reply = None if gen is None else self._await_reply(link, gen)
            if reply is None:
                return False
            if reply["type"] != "restore-ok":
                raise ProtocolError(
                    f"expected restore-ok, got {reply['type']!r}")
        return True
