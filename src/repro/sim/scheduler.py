"""Discrete-event simulator of a weak-isolation multi-worker system.

This is the reproduction's substitute for the paper's 32/128-core EC2
machines.  ``C`` logical workers execute BUUs with *no isolation*: the
scheduler advances one worker by one operation per step, chosen by a
seeded RNG, so reads and writes of concurrent BUUs interleave freely.
Three knobs shape the chaos, mirroring the paper's experiments:

- ``write_latency`` — a write becomes visible (applied to the store)
  only ``write_latency`` steps after it is issued, modelling asynchronous
  communication.  A worker *does not wait*: it issues its writes and
  moves on to the next BUU, so reads get staler as latency grows.
- ``staleness_bound`` — the paper's ``s``, with stale-synchronous-
  parallel semantics: a worker may not *start* a new BUU while ``s`` or
  more of its own BUUs are still uncommitted (writes not yet visible).
  ``s = 1`` degenerates to synchronous execution (each BUU's effects are
  visible before the worker's next BUU); ``None`` is fully asynchronous.
  Larger ``s`` lets a worker pipeline deeper, so its later reads race
  its own and others' pending writes — exactly the paper's staleness
  pathology.
- ``sync_frequency`` — the Figure 2 barrier: after every
  ``sync_frequency × C`` BUU completions a global barrier drains every
  in-flight BUU and pending write before anyone proceeds.

Every *visible* operation (reads at issue time, writes at apply time) is
forwarded to subscribed listeners in a single global order — exactly the
stream the paper's collector observes inside the storage layer.  BUU
``begin``/``commit`` events are forwarded too (commit fires when the
BUU's last write becomes visible, the paper's definition of commit time),
for the detector's pruning.

Listeners are typed against the
:class:`~repro.core.api.MonitorListener` protocol; dispatch remains
``getattr``-based so partial listeners (e.g. metrics probes that only
care about operations) keep working.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.core.api import MonitorListener
from repro.core.types import BuuId, Key, Operation, OpType
from repro.sim.buu import Buu


@dataclass
class SimConfig:
    """Simulator knobs (see module docstring)."""

    num_workers: int = 32
    write_latency: int = 0
    staleness_bound: int | None = None
    sync_frequency: int | None = None
    compute_jitter: int = 0
    isolation: str = "none"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.write_latency < 0:
            raise ValueError("write_latency must be >= 0")
        if self.compute_jitter < 0:
            raise ValueError("compute_jitter must be >= 0")
        if self.staleness_bound is not None and self.staleness_bound < 1:
            raise ValueError("staleness_bound must be >= 1 or None")
        if self.isolation not in ("none", "serializable", "snapshot"):
            raise ValueError(
                'isolation must be "none", "serializable" or "snapshot"'
            )
        if self.sync_frequency is not None and self.sync_frequency < 1:
            raise ValueError("sync_frequency must be >= 1 or None")


class _Inflight:
    """A BUU whose writes are issued but not yet all visible."""

    __slots__ = ("pending", "done_issuing", "worker", "writes")

    def __init__(self, worker: int) -> None:
        self.pending = 0
        self.done_issuing = False
        self.worker = worker
        # Buffered (key, value, additive) writes, installed atomically
        # at commit under snapshot isolation.
        self.writes: list[tuple[Key, Any, bool]] = []


class _WorkerState:
    """Execution state of one logical worker."""

    __slots__ = ("index", "buu", "buu_id", "read_cursor", "write_queue",
                 "values", "writes_issued", "writes_applied", "jitter_left",
                 "own_uncommitted", "snapshot_time")

    def __init__(self, index: int) -> None:
        self.index = index
        self.buu: Buu | None = None
        self.buu_id: BuuId = -1
        self.read_cursor = 0
        self.write_queue: list[tuple[Key, Any]] | None = None
        self.values: dict[Key, Any] = {}
        self.writes_issued = 0
        self.writes_applied = 0
        self.jitter_left = 0
        self.own_uncommitted = 0
        self.snapshot_time = 0

    @property
    def idle(self) -> bool:
        return self.buu is None



class Simulator:
    """Resumable discrete-event execution engine.

    Call :meth:`run` with a batch of BUUs (assigned to idle workers in
    order); call it again with more BUUs to continue — the clock, pending
    writes and listener streams persist, which is how iterative workloads
    (ASGD rounds, WCC supersteps) are driven.  Each :meth:`run` drains
    all pending writes before returning, so the store a caller inspects
    between runs is fully up to date.
    """

    def __init__(
        self,
        config: SimConfig,
        store: dict[Key, Any] | None = None,
        listeners: Iterable[MonitorListener] | None = None,
    ) -> None:
        self.config = config
        self.store: dict[Key, Any] = store if store is not None else {}
        self.listeners: list[MonitorListener] = list(listeners or [])
        self._rng = random.Random(config.seed)
        self._workers = [_WorkerState(i) for i in range(config.num_workers)]
        # (apply_time, tiebreak, buu, key, value, worker index, additive)
        self._apply_heap: list[tuple[int, int, BuuId, Key, Any, int, bool]] = []
        self._heap_tiebreak = 0
        self._inflight: dict[BuuId, _Inflight] = {}
        self._locks: dict[Key, BuuId] = {}
        # Version history per key, kept only under snapshot isolation:
        # list of (visible_at, value) in apply order, plus the value each
        # key held before its first recorded version.
        self._versions: dict[Key, list[tuple[int, Any]]] = {}
        self._base_values: dict[Key, Any] = {}
        self.now = 0
        self.buus_completed = 0
        self.buus_started = 0
        self._next_buu_id = 0
        self._since_barrier = 0

    # -- listener fan-out ------------------------------------------------------

    def subscribe(self, listener: MonitorListener) -> None:
        self.listeners.append(listener)

    def _notify_op(self, op: Operation) -> None:
        for listener in self.listeners:
            handler = getattr(listener, "on_operation", None)
            if handler is not None:
                handler(op)

    def _notify_begin(self, buu: BuuId) -> None:
        for listener in self.listeners:
            handler = getattr(listener, "begin_buu", None)
            if handler is not None:
                handler(buu, self.now)

    def _notify_commit(self, buu: BuuId) -> None:
        for listener in self.listeners:
            handler = getattr(listener, "commit_buu", None)
            if handler is not None:
                handler(buu, self.now)

    # -- main loop ---------------------------------------------------------------

    def run(self, buus: Iterable[Buu]) -> int:
        """Execute ``buus`` to completion; returns BUUs committed."""
        queue = list(buus)
        queue.reverse()  # pop from the end
        completed_before = self.buus_completed
        while True:
            self._apply_due_writes()
            if queue:
                for worker in self._workers:
                    if not worker.idle or not queue:
                        continue
                    if not self._can_start(worker, queue[-1]):
                        continue
                    self._start_buu(worker, queue.pop())
            runnable = [w for w in self._workers if not w.idle]
            if runnable:
                worker = runnable[self._rng.randrange(len(runnable))]
                self.now += 1
                self._step_worker(worker)
                if (
                    self.config.sync_frequency is not None
                    and self._since_barrier
                    >= self.config.sync_frequency * self.config.num_workers
                ):
                    self._barrier_drain()
                continue
            if self._apply_heap:
                # Everyone blocked (or idle) but writes are in flight:
                # advance the clock to the next visibility event.
                self.now = max(self.now + 1, self._apply_heap[0][0])
                continue
            if queue:
                continue
            break
        self._barrier_drain()
        return self.buus_completed - completed_before

    # -- worker micro-steps ---------------------------------------------------

    def _start_buu(self, worker: _WorkerState, buu: Buu) -> None:
        worker.buu = buu
        worker.buu_id = self._next_buu_id
        self._next_buu_id += 1
        worker.read_cursor = 0
        worker.write_queue = None
        worker.values = {}
        worker.own_uncommitted += 1
        worker.snapshot_time = self.now
        self._inflight[worker.buu_id] = _Inflight(worker.index)
        if self.config.isolation == "serializable":
            for key in self._lock_set(buu):
                self._locks[key] = worker.buu_id
        self.buus_started += 1
        self._notify_begin(worker.buu_id)

    def _can_start(self, worker: _WorkerState, buu: Buu) -> bool:
        """Admission gate: the stale-synchronous bound, plus — under the
        serializable isolation controller (Fig 4) — conservative 2PL:
        every key the BUU touches must be unlocked.  Acquiring all locks
        up front is deadlock-free; it assumes writes target keys that
        were read (or declared in ``writes_hint``), which holds for every
        workload in this repository."""
        bound = self.config.staleness_bound
        if bound is not None and worker.own_uncommitted >= bound:
            return False
        if self.config.isolation == "serializable":
            for key in self._lock_set(buu):
                if key in self._locks:
                    return False
        return True

    @staticmethod
    def _lock_set(buu: Buu):
        return set(buu.reads) | set(buu.writes_hint)

    def _step_worker(self, worker: _WorkerState) -> None:
        buu = worker.buu
        assert buu is not None
        if worker.jitter_left > 0:
            # Variable "compute time" between the read and write phases:
            # desynchronises otherwise-identical workers, like real
            # gradient computations of varying cost.
            worker.jitter_left -= 1
            return
        if worker.read_cursor < len(buu.reads):
            key = buu.reads[worker.read_cursor]
            worker.read_cursor += 1
            if self.config.isolation == "snapshot":
                worker.values[key] = self._read_snapshot(
                    key, worker.snapshot_time
                )
            else:
                worker.values[key] = self.store.get(key)
            self._notify_op(Operation(OpType.READ, worker.buu_id, key, self.now))
            if worker.read_cursor == len(buu.reads):
                if self.config.compute_jitter:
                    worker.jitter_left = self._rng.randrange(
                        self.config.compute_jitter + 1
                    )
                self._prepare_writes(worker)
            return
        if worker.write_queue is None:
            self._prepare_writes(worker)
        assert worker.write_queue is not None
        if worker.write_queue:
            key, value = worker.write_queue.pop(0)
            worker.writes_issued += 1
            record = self._inflight[worker.buu_id]
            record.pending += 1
            if self.config.write_latency == 0:
                self._apply_write(worker.buu_id, key, value, worker.index,
                                  buu.additive)
            else:
                self._heap_tiebreak += 1
                heapq.heappush(
                    self._apply_heap,
                    (self.now + self.config.write_latency, self._heap_tiebreak,
                     worker.buu_id, key, value, worker.index, buu.additive),
                )
        if not worker.write_queue:
            # All operations issued: the worker moves on; the BUU commits
            # when its last write becomes visible.
            record = self._inflight[worker.buu_id]
            record.done_issuing = True
            self._maybe_commit(worker.buu_id)
            worker.buu = None
            worker.write_queue = None

    def _prepare_writes(self, worker: _WorkerState) -> None:
        buu = worker.buu
        assert buu is not None
        worker.write_queue = list(buu.run_compute(worker.values).items())

    # -- write visibility -------------------------------------------------------

    def _apply_write(self, buu: BuuId, key: Key, value: Any, widx: int,
                     additive: bool = False) -> None:
        record = self._inflight[buu]
        if self.config.isolation == "snapshot":
            # True SI: the write has *arrived* but is buffered; the whole
            # BUU installs atomically at commit.
            record.writes.append((key, value, additive))
        else:
            if additive:
                self.store[key] = (self.store.get(key) or 0) + value
            else:
                self.store[key] = value
            self._notify_op(Operation(OpType.WRITE, buu, key, self.now))
        worker = self._workers[widx]
        worker.writes_applied += 1
        record.pending -= 1
        self._maybe_commit(buu)

    def _maybe_commit(self, buu: BuuId) -> None:
        record = self._inflight.get(buu)
        if record is None or not record.done_issuing or record.pending > 0:
            return
        del self._inflight[buu]
        if self.config.isolation == "snapshot":
            # Install all of this BUU's writes at one timestamp: a
            # snapshot either sees the whole BUU or none of it.
            for key, value, additive in record.writes:
                if key not in self._versions:
                    self._base_values[key] = self.store.get(key)
                    self._versions[key] = []
                if additive:
                    self.store[key] = (self.store.get(key) or 0) + value
                else:
                    self.store[key] = value
                self._versions[key].append((self.now, self.store[key]))
                self._notify_op(Operation(OpType.WRITE, buu, key, self.now))
        self._workers[record.worker].own_uncommitted -= 1
        if self._locks:
            held = [key for key, owner in self._locks.items() if owner == buu]
            for key in held:
                del self._locks[key]
        self._notify_commit(buu)
        self.buus_completed += 1
        self._since_barrier += 1

    def _read_snapshot(self, key: Key, as_of: int) -> Any:
        """The value of ``key`` as of time ``as_of`` (snapshot isolation).

        Keys written before the simulator entered snapshot mode have only
        their current value, which acts as version zero.
        """
        versions = self._versions.get(key)
        if not versions:
            return self.store.get(key)
        value = None
        found = False
        for visible_at, candidate in versions:
            if visible_at <= as_of:
                value = candidate
                found = True
            else:
                break
        if found:
            return value
        # Every recorded version is newer than the snapshot: fall back to
        # the value the key held before its first recorded write.
        return self._base_values.get(key)

    def _apply_due_writes(self) -> None:
        while self._apply_heap and self._apply_heap[0][0] <= self.now:
            _, _, buu, key, value, widx, additive = heapq.heappop(self._apply_heap)
            self._apply_write(buu, key, value, widx, additive)

    def _barrier_drain(self) -> None:
        """Global barrier: finish all in-flight BUUs, flush all writes."""
        self._since_barrier = 0
        while any(not w.idle for w in self._workers) or self._apply_heap:
            self._apply_due_writes()
            runnable = [w for w in self._workers if not w.idle]
            if runnable:
                worker = runnable[self._rng.randrange(len(runnable))]
                self.now += 1
                self._step_worker(worker)
            elif self._apply_heap:
                self.now = max(self.now + 1, self._apply_heap[0][0])
            else:
                break


class ThreadedWorkloadDriver:
    """Execute BUUs on N *real* OS threads against a shared store.

    Where :class:`Simulator` interleaves logical workers under a seeded
    RNG, this driver produces genuine concurrency: each thread runs its
    share of the BUU list against one shared dict with no isolation, so
    the anomalies the monitor sees come from actual races.  It exists to
    drive the concurrent monitoring service
    (:class:`~repro.core.concurrent.RushMonService`) — or any listener
    implementing the simulator's protocol — from many threads at once.

    Two invariants make the emitted operation stream a valid collector
    input:

    - **Per-key visibility order.**  Store access and listener
      notification for a key happen atomically under a striped per-key
      lock, so every listener observes the operations on one key in the
      exact order the store applied them (the §2.1 contract).  Keys in
      different stripes proceed fully in parallel.
    - **Lifecycle order.**  ``begin`` precedes all of a BUU's operations
      and ``commit`` follows its last write (thread program order), which
      is what detector pruning assumes.

    ``seq`` values come from one atomic global counter; they are
    monotone per key and per BUU but are *not* a serialization of the
    whole run — the service re-stamps events with journal tickets, and
    the serial :class:`~repro.core.monitor.RushMon` only requires per-key
    order.

    ``yield_every`` forces a ``time.sleep(0)`` context-switch point on
    average every that-many operations (per-thread seeded RNG), widening
    the space of interleavings the GIL would otherwise make coarse —
    useful for stress tests hunting ordering bugs.
    """

    def __init__(
        self,
        listeners: Iterable[MonitorListener] | None = None,
        num_threads: int = 4,
        store: dict[Key, Any] | None = None,
        lock_stripes: int = 64,
        seed: int = 0,
        yield_every: int | None = None,
        join_timeout: float = 120.0,
    ) -> None:
        if num_threads < 1:
            raise ValueError("num_threads must be >= 1")
        if lock_stripes < 1:
            raise ValueError("lock_stripes must be >= 1")
        if yield_every is not None and yield_every < 1:
            raise ValueError("yield_every must be >= 1 or None")
        self.listeners: list[MonitorListener] = list(listeners or [])
        self.num_threads = num_threads
        self.store: dict[Key, Any] = store if store is not None else {}
        self.seed = seed
        self.yield_every = yield_every
        self.join_timeout = join_timeout
        self._stripes = [threading.Lock() for _ in range(lock_stripes)]
        self._ids = itertools.count()
        self._clock = itertools.count(1)
        self._counter_lock = threading.Lock()
        self.buus_completed = 0
        self.ops_emitted = 0

    def subscribe(self, listener: MonitorListener) -> None:
        self.listeners.append(listener)

    def _stripe(self, key: Key) -> threading.Lock:
        return self._stripes[hash(key) % len(self._stripes)]

    # -- execution -------------------------------------------------------------

    def run(self, buus: Iterable[Buu]) -> int:
        """Round-robin ``buus`` across the threads, run them all, and
        return the number completed.  Re-raises the first worker error;
        raises ``RuntimeError`` if a thread fails to finish within
        ``join_timeout`` seconds (deadlock guard)."""
        batch: Sequence[Buu] = list(buus)
        chunks = [batch[i::self.num_threads] for i in range(self.num_threads)]
        errors: list[BaseException] = []
        threads = [
            threading.Thread(
                target=self._worker,
                args=(chunk, self.seed ^ (index * 0x9E3779B1), errors),
                name=f"workload-{index}",
                daemon=True,
            )
            for index, chunk in enumerate(chunks)
            if chunk
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + self.join_timeout
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                raise RuntimeError(
                    f"worker {thread.name} did not finish within "
                    f"{self.join_timeout}s (deadlock?)"
                )
        if errors:
            raise errors[0]
        return len(batch)

    def _worker(self, chunk: Sequence[Buu], seed: int,
                errors: list[BaseException]) -> None:
        rng = random.Random(seed)
        yield_p = 1.0 / self.yield_every if self.yield_every else 0.0
        completed = 0
        ops = 0
        try:
            for buu in chunk:
                ops += self._execute(buu, rng, yield_p)
                completed += 1
        except BaseException as exc:
            errors.append(exc)
        finally:
            with self._counter_lock:
                self.buus_completed += completed
                self.ops_emitted += ops

    def _execute(self, buu: Buu, rng: random.Random, yield_p: float) -> int:
        buu_id = next(self._ids)
        self._notify("begin_buu", buu_id, next(self._clock))
        values: dict[Key, Any] = {}
        ops = 0
        for key in buu.reads:
            with self._stripe(key):
                values[key] = self.store.get(key)
                self._notify_op(
                    Operation(OpType.READ, buu_id, key, next(self._clock))
                )
            ops += 1
            if yield_p and rng.random() < yield_p:
                time.sleep(0)
        for key, value in buu.run_compute(values).items():
            with self._stripe(key):
                if buu.additive:
                    self.store[key] = (self.store.get(key) or 0) + value
                else:
                    self.store[key] = value
                self._notify_op(
                    Operation(OpType.WRITE, buu_id, key, next(self._clock))
                )
            ops += 1
            if yield_p and rng.random() < yield_p:
                time.sleep(0)
        self._notify("commit_buu", buu_id, next(self._clock))
        return ops

    # -- listener fan-out -------------------------------------------------------

    def _notify_op(self, op: Operation) -> None:
        for listener in self.listeners:
            handler = getattr(listener, "on_operation", None)
            if handler is not None:
                handler(op)

    def _notify(self, method: str, buu: BuuId, when: int) -> None:
        for listener in self.listeners:
            handler = getattr(listener, method, None)
            if handler is not None:
                handler(buu, when)
