"""The concurrent RushMon monitoring service.

:class:`RushMonService` is the threaded counterpart of the serial
:class:`~repro.core.monitor.RushMon` facade.  Producer threads call the
standard listener protocol (``on_operation(s)`` / ``begin_buu`` /
``commit_buu``, or ``on_records`` for a whole network frame) and only
*append*: a call lands in the journal whole or not at all, in one
GIL-atomic list operation that takes no lock on an unbounded journal
(:class:`~repro.core.concurrent.journaled.JournaledCollector`).
Collection and cycle detection run on a *background thread* that wakes
every ``detect_interval`` seconds, drains the journal (ticketing what
landed, in the order it landed), walks it in ticket order with the
serial monitor's engine (:class:`~repro.core.monitor.RecordWalk`:
lifecycle records through the admission gate, each batch through its
collector — the journal's ``engine`` — and its edges into the pruned
detector), closes a monitoring window and publishes the resulting
:class:`~repro.core.types.AnomalyReport` as an atomic snapshot (a single
reference swap — readers never see a torn report).  This is the paper's
log-parser deployment (§4.1), with the journal as the log.

Because the pass consumes the journal in ticket order, the detection
path is literally a serial RushMon run over the journal; the only
concurrency-sensitive code is the journal's append and settle, and
per-key bookkeeping order is ticket order by construction.  The
dependency graph depends only on each key's operation order and each
BUU's program order, so a recorder that sees a key's operations in the
order they were journaled (a producer that holds a per-key lock across
the call, as :class:`~repro.sim.scheduler.ThreadedWorkloadDriver` does)
sees the same graph.  That is the invariant the differential, stress
and chaos tests pin: at ``sr=1`` the service must report exactly what
:class:`~repro.core.monitor.OfflineAnomalyMonitor` computes from the
events the journal acknowledged.

Fault tolerance
---------------

The detection thread is **supervised**: an exception in a detection pass
is caught, logged and counted, the unconsumed suffix of the drained
records is re-queued (nothing acknowledged is lost), and a replacement
thread is spawned after an exponential backoff
(``restart_backoff * 2**(failures-1)``, capped at ``max_backoff``).  A
*completed* pass resets the failure streak; ``max_restarts`` consecutive
failures trip a circuit breaker: the service enters an explicit
``DEGRADED`` state — visible in :meth:`latest_report` (``health ==
"degraded"``), in :meth:`health`, and as ``rushmon_service_degraded 1``
on ``/metrics`` — and the collector sheds every producer call whole
from then on, bounded journal or not, so producers can never block on
(or pile records up for) a detector that is not coming back.  A
degraded service keeps accepting (and shedding) events and keeps
serving its last reports; it never silently pretends to monitor.

One error is a bad *record*, not a failed pass: an operation journaled
after its BUU's commit (:class:`~repro.core.detector.LifecycleOrderError`)
is consumed with the rest of the journal, its window is published with
``health == "degraded"`` (a lower bound), and only then is the error
raised — the supervisor counts and logs it, nothing is re-queued, and
the next pass starts behind it.

Crash recovery: :meth:`checkpoint` persists the collector bookkeeping,
pending journal records, detector graph/counts and open-window state through
:mod:`repro.storage.wal` (atomic write, CRC); :meth:`restore` rebuilds a
service from the file and resumes exactly where the snapshot was cut.
With ``checkpoint_path`` set, :meth:`stop` writes one after its final
drain.

Lifecycle: ``stop()`` is **terminal and idempotent** — it joins the
detection thread, runs one final drain pass (so every event acknowledged
before ``stop()`` is reflected in the final counts) and freezes the
service.  After ``stop()``, ingestion and ``close_window()`` raise
``RuntimeError``; the report accessors keep working.  A service that was
never started still supports inline ``close_window()`` (the serial-style
usage the API-conformance tests exercise).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, replace
from typing import Iterable, Sequence

from repro._lazy import logger
from repro.core.concurrent.journaled import (EV_BEGIN, EV_COMMIT, EV_EDGES,
                                             EV_OPS, JournaledCollector)
from repro.core.config import RushMonConfig
from repro.core.detector import LifecycleOrderError
from repro.core.monitor import RecordWalk
from repro.core.types import AnomalyReport, BuuId, CycleCounts, Key, Operation
from repro.obs.instrument import instrument_detector
from repro.obs.metrics import MetricsRegistry
from repro.storage import wal

#: ``on_operation``'s record of an operation on an unsampled item.
_ELIDED_ONE = (EV_OPS, (), 1)


class RushMonService:
    """Thread-safe RushMon monitor with supervised background detection.

    Parameters
    ----------
    config:
        The single construction path: one validated
        :class:`~repro.core.config.RushMonConfig` carrying both the
        monitor tunables (``sampling_rate`` …) and the service tunables
        (``detect_interval``, the
        ``journal_capacity``/``overflow``/``block_timeout``
        backpressure knobs, the ``max_restarts``/``restart_backoff``/
        ``max_backoff`` supervision schedule, ``batch_size`` (operations
        per detector feed of a pass) and ``checkpoint_path`` — see the
        config's docstring for each).
        ``resample_interval`` is **unsupported** (a sample switch would
        have to reach the producers' pre-journal filter and the pass at
        one ticket); passing one raises ``ValueError`` rather than
        silently dropping the setting.  Use the serial
        :class:`~repro.core.monitor.RushMon` for periodic re-sampling.
    items:
        Optional known item universe for an exact up-front sample.
    faults:
        Optional :class:`~repro.testing.faults.FaultInjector`; arms the
        ``detect.pass`` / ``detect.process`` points here and the
        collector's points (chaos tests only — with no injector the
        pipeline pays a single ``is None`` check).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to export into; a
        private registry is created when omitted, so ``service.metrics``
        is always live.  Beyond the collector/detector signals, the
        service exports pass latency, report age, thread liveness, and
        the fault-tolerance set: failure/restart totals, the current
        failure streak, checkpoint count and the ``degraded`` flag.
    """

    def __init__(
        self,
        config: RushMonConfig | None = None,
        *,
        items: Iterable[Key] | None = None,
        faults=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or RushMonConfig()
        if self.config.resample_interval is not None:
            raise ValueError(
                "RushMonConfig.resample_interval is not supported by "
                "RushMonService: switching the item sample atomically "
                "would have to reach every producer's pre-journal filter "
                "at one ticket.  Use the serial RushMon monitor, or set "
                "resample_interval=None."
            )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The instruments the pass writes are created first: creating one
        # is a read of the registry, which would run the gauge
        # registrations queued below.
        self._m_pass_seconds = self.metrics.histogram(
            "rushmon_service_pass_seconds",
            help="wall-clock duration of detection passes",
        )
        self._m_close_lag = self.metrics.gauge(
            "rushmon_service_window_close_lag_seconds",
            help="duration of the last pass that closed a window "
                 "(journal drain + detector feed + window close)",
        )
        self._m_drain = self.metrics.gauge(
            "rushmon_service_drain_seconds",
            help="duration of the final drain pass run by stop()",
        )
        self._faults = faults
        self._walk = walk = RecordWalk(self.config, items)
        self.collector = JournaledCollector(
            walk.collector,
            journal_capacity=self.config.journal_capacity,
            overflow=self.config.overflow,
            block_timeout=self.config.block_timeout,
            faults=faults,
            metrics=self.metrics,
        )
        self.detector = walk.detector
        self.reports: list[AnomalyReport] = []
        self._latest: AnomalyReport | None = None
        self._pass_lock = threading.Lock()
        self._lifecycle_lock = threading.Lock()
        self._stop_event = threading.Event()
        self._stopped = False
        self._thread: threading.Thread | None = None
        self._degraded = False
        self.last_error: BaseException | None = None
        self.detect_failures = 0
        self.detect_restarts = 0
        self._consecutive_failures = 0
        self.processed_events = 0
        self.passes = 0
        self.checkpoints_written = 0
        self._checkpoint_path = self.config.checkpoint_path
        self._latest_published_at: float | None = None
        #: Opaque embedder state (e.g. ``repro.net`` session tables)
        #: carried inside checkpoints so it shares their atomicity —
        #: either the whole cut (service + extra) persists, or none.
        self.extra_state: dict = {}
        self.metrics.defer(self._register_metrics)
        self.metrics.defer(instrument_detector, self.detector)

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Export the service's own health/progress signals (queued on
        the registry, so it runs on the registry's first read)."""
        registry.gauge_fn(
            "rushmon_service_events_processed_total",
            lambda: float(self.processed_events),
            help="events consumed by the detection path; a run-length "
                 "record of elided ops counts by its length, so this "
                 "equals the events ingested once the journal is drained",
        )
        registry.gauge_fn(
            "rushmon_service_passes_total",
            lambda: float(self.passes),
            help="detection passes run (including empty ones)",
        )
        registry.gauge_fn(
            "rushmon_service_reports_total",
            lambda: float(len(self.reports)),
            help="monitoring windows closed and published",
        )
        registry.gauge_fn(
            "rushmon_service_report_age_seconds",
            self._report_age,
            help="seconds since the last report was published "
                 "(-1 before the first report)",
        )
        registry.gauge_fn(
            "rushmon_service_detection_thread_alive",
            lambda: 1.0 if self.running else 0.0,
            help="1 while the background detection thread is running",
        )
        registry.gauge_fn(
            "rushmon_service_detect_failures_total",
            lambda: float(self.detect_failures),
            help="detection passes that raised (caught by the supervisor)",
        )
        registry.gauge_fn(
            "rushmon_service_detect_restarts_total",
            lambda: float(self.detect_restarts),
            help="detection-thread restarts performed by the supervisor",
        )
        registry.gauge_fn(
            "rushmon_service_consecutive_detect_failures",
            lambda: float(self._consecutive_failures),
            help="current failure streak (a completed pass resets it; "
                 "exceeding max_restarts trips the circuit breaker)",
        )
        registry.gauge_fn(
            "rushmon_service_degraded",
            lambda: 1.0 if self._degraded else 0.0,
            help="1 once the detection circuit breaker has tripped "
                 "(reports carry health='degraded'; the collector sheds "
                 "every producer call)",
        )
        registry.gauge_fn(
            "rushmon_service_checkpoints_total",
            lambda: float(self.checkpoints_written),
            help="state checkpoints written",
        )

    def _report_age(self) -> float:
        published = self._latest_published_at
        if published is None:
            return -1.0
        return time.monotonic() - published

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RushMonService":
        """Spawn the background detection thread (idempotent while
        running; a stopped service cannot be restarted — restore a
        checkpoint or construct a new one)."""
        with self._lifecycle_lock:
            if self._stopped:
                raise RuntimeError(
                    "RushMonService is stopped and cannot be restarted; "
                    "construct a new service or RushMonService.restore() "
                    "a checkpoint"
                )
            if self._thread is not None and self._thread.is_alive():
                return self
            self._stop_event.clear()
            self._spawn_locked()
        return self

    def _spawn_locked(self, initial_delay: float = 0.0) -> None:
        """Start a detection thread; caller holds ``_lifecycle_lock``."""
        thread = threading.Thread(
            target=self._run, args=(initial_delay,),
            name="rushmon-detector", daemon=True,
        )
        self._thread = thread
        thread.start()

    def stop(self, drain: bool = True) -> AnomalyReport | None:
        """Stop the service — **terminal and idempotent**.  Joins the
        detection thread and, with ``drain`` (default), runs one final
        pass so every event acknowledged before ``stop()`` is reflected
        in the final counts (skipped when the breaker has tripped: a
        degraded detector's state is not trustworthy enough to publish
        one more window).  Returns the last published report.  After
        this, ingestion and ``close_window()`` raise ``RuntimeError``.

        A producer call that returned before ``stop()`` began is in the
        final counts.  A call racing it is refused whole, or lands: in
        the final counts, or after the final drain, left in the journal.
        """
        with self._lifecycle_lock:
            first = not self._stopped
            self._stopped = True
            self._stop_event.set()
        if not first:
            return self._latest
        # A failing detection thread may have handed off to a freshly
        # spawned replacement between our event-set and now; join until
        # the current handle is dead (the event stops further spawns).
        while True:
            with self._lifecycle_lock:
                thread = self._thread
            if (
                thread is None
                or not thread.is_alive()
                or thread is threading.current_thread()
            ):
                break
            thread.join()
        late = None
        if drain and not self._degraded:
            started = time.perf_counter()
            try:
                self._detect_pass()
            except BaseException as exc:
                self.last_error = exc
                self.detect_failures += 1
                logger(__name__).error(
                    "final drain pass failed on stop()", exc_info=exc)
                if not isinstance(exc, LifecycleOrderError):
                    raise
                late = exc  # that pass ran to its end: checkpoint first
            finally:
                self._m_drain.set(time.perf_counter() - started)
        if self._checkpoint_path is not None:
            self.checkpoint(self._checkpoint_path)
        if late is not None:
            raise late
        return self._latest

    def __enter__(self) -> "RushMonService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def stopped(self) -> bool:
        return self._stopped

    @property
    def degraded(self) -> bool:
        """True once the detection circuit breaker has tripped."""
        return self._degraded

    @property
    def health(self) -> str:
        """``"ok"`` or ``"degraded"`` — stamped onto every report."""
        return "degraded" if self._degraded else "ok"

    # -- supervision (detection thread) ----------------------------------------

    def _run(self, initial_delay: float = 0.0) -> None:
        try:
            if initial_delay and self._stop_event.wait(initial_delay):
                return
            while not self._stop_event.wait(self.config.detect_interval):
                self._detect_pass()
                # A pass that ran to completion ends the failure streak.
                self._consecutive_failures = 0
        except BaseException as exc:
            self._handle_thread_failure(exc)

    def _handle_thread_failure(self, exc: BaseException) -> None:
        """Runs on the dying detection thread: count, log, and either
        spawn a backed-off replacement or trip the circuit breaker."""
        self.last_error = exc
        self.detect_failures += 1
        self._consecutive_failures += 1
        streak = self._consecutive_failures
        config = self.config
        if streak > config.max_restarts:
            logger(__name__).error(
                "detection pass failed %d times consecutively "
                "(max_restarts=%d); circuit breaker tripped — service "
                "is DEGRADED", streak, config.max_restarts, exc_info=exc,
            )
            self._trip_breaker()
            return
        backoff = min(
            config.restart_backoff * (2 ** (streak - 1)), config.max_backoff
        )
        logger(__name__).warning(
            "detection pass failed (streak %d/%d), restarting detection "
            "thread in %.3fs: %r", streak, config.max_restarts, backoff, exc,
            exc_info=exc,
        )
        with self._lifecycle_lock:
            if self._stop_event.is_set():
                return  # stop() won the race; no replacement
            self.detect_restarts += 1
            self._spawn_locked(initial_delay=backoff)

    def _trip_breaker(self) -> None:
        """Enter the explicit DEGRADED state: mark health, make the
        degradation visible through ``latest_report()`` immediately, and
        make the collector shed every producer call, so producers can
        never block on, or fill memory for, a detector that is not coming
        back."""
        self._degraded = True
        self.collector.shed_all()
        latest = self._latest
        if latest is not None:
            marker = replace(latest, health="degraded")
        else:
            marker = AnomalyReport(
                window_start=self._walk.window.window_start,
                window_end=self._walk.clock,
                estimated_2=0.0,
                estimated_3=0.0,
                health="degraded",
            )
        # Published as the atomic latest snapshot but NOT appended to
        # self.reports: it is a re-stamped marker, not a closed window,
        # and the reports list must stay a partition of processed events.
        self._latest = marker
        self._latest_published_at = time.monotonic()

    # -- producer-side listener protocol (any thread) --------------------------

    @staticmethod
    def _refuse() -> None:
        """What a producer call meets once the service is stopped (each
        tests ``_stopped`` itself, sparing every producer call a method
        call)."""
        raise RuntimeError(
            "RushMonService is stopped — it no longer accepts "
            "events; construct a new service (or restore() a "
            "checkpoint) to resume monitoring"
        )

    def on_operation(self, op: Operation) -> None:
        """Observe one read/write (thread-safe; it is journaled, and
        collected and detected by the background pass).  As in
        ``RushMon.on_operation``, an operation on an unsampled item is
        probed here and only counted: the pass adds it to the journal's
        run-length ``elided`` total, never a record."""
        if self._stopped:
            self._refuse()
        collector = self.collector
        chosen = collector.prefilter()
        if chosen is None or chosen(op[2]):
            collector.append((EV_OPS, (op,), 0))
        else:
            collector.append(_ELIDED_ONE)

    def on_operations(self, ops: Iterable[Operation]) -> None:
        """Observe a sequence of operations: one journal record, whatever
        its length, sampled and collected as one batch by the pass.  On
        an unbounded journal the caller's thread only copies the batch;
        a bounded one leaves the unsampled operations out first."""
        if self._stopped:
            self._refuse()
        self.collector.append((EV_OPS, list(ops), 0))

    def begin_buu(self, buu: BuuId, start_time: int = 0) -> None:
        if self._stopped:
            self._refuse()
        self.collector.append((EV_BEGIN, buu, start_time))

    def commit_buu(self, buu: BuuId, commit_time: int = 0) -> None:
        if self._stopped:
            self._refuse()
        self.collector.append((EV_COMMIT, buu, commit_time))

    def on_records(self, records: Sequence[tuple]) -> None:
        """Observe the events of one call — a network frame — journaled
        whole or not at all: ``(EV_OPS, ops, elided)`` and ``(EV_BEGIN |
        EV_COMMIT, buu, time)`` records, in order, as
        :meth:`JournaledCollector.offer` takes them (``elided`` counts
        operations the caller already left out with
        ``collector.prefilter()``'s predicate, as the server does while
        decoding; operations left in are sampled by the pass, or before
        the journal when it is bounded).  A call the overflow policy
        refuses (``JournalBackpressure``) or a fault interrupts has
        journaled nothing, so it may be offered again."""
        if self._stopped:
            self._refuse()
        self.collector.offer(records)

    # -- detection (background thread, or close_window() caller) ----------------

    def _fire_fault(self, point: str) -> None:
        fault = self._faults.fire(point)
        if fault is None:
            return
        if fault.kind == "delay":
            time.sleep(fault.delay)
        else:
            raise fault.exc_factory()

    def _detect_pass(self) -> AnomalyReport | None:
        """Drain the journal, walk it into the detector
        (:class:`~repro.core.monitor.RecordWalk`: collection and detection
        in ticket order, begins and commits stamped with their tickets),
        close the walk's window.  Serialized by ``_pass_lock`` so
        an explicit ``close_window()`` cannot interleave with the
        background thread.  Once the journal is drained,
        :attr:`processed_events` equals the events acknowledged.

        Crash safety: if the pass raises, the walk's edges not yet fed
        are re-queued as one ``EV_EDGES`` record, followed by every
        record it did not consume (ticket order preserved), before the
        exception propagates to the supervisor — so a failed pass loses
        no acknowledged record and never collects one twice, and feeding
        the edges again is idempotent (the live graph deduplicates
        edges).  With a fault injector armed, the walk takes one record
        at a time and ``detect.process`` fires ahead of every record.

        An operation journaled after its BUU's commit (a misordered
        producer) costs that operation's edges and nothing else: the
        pass consumes every record, publishes the window with health
        ``"degraded"`` — its counts are a lower bound — and then raises
        the detector's :class:`~repro.core.detector.LifecycleOrderError`
        to its caller (the supervisor, for the background thread), so
        one bad record is loud but never blocks the journal.
        """
        with self._pass_lock:
            started = time.perf_counter()
            armed = self._faults is not None
            if armed:
                self._fire_fault("detect.pass")
            collector = self.collector
            records = collector.drain()
            walk = self._walk
            walk.consumed = walk.events = 0
            try:
                if armed:
                    for at in range(len(records)):
                        self._fire_fault("detect.process")
                        walk.walk(records[at:at + 1])
                else:
                    walk.walk(records)
            except BaseException:
                unfed = walk.unfed()
                collector.requeue(
                    ([(walk.clock, EV_EDGES, 0, unfed)] if unfed else [])
                    + records[walk.consumed:])
                raise
            finally:
                self.processed_events += walk.events
                self.passes += 1
            if not records:
                self._m_pass_seconds.observe(time.perf_counter() - started)
                return None
            late, walk.late = walk.late, None
            report = walk.close(
                walk.clock, self.health if late is None else "degraded")
            self.reports.append(report)
            self._latest = report  # atomic reference swap
            self._latest_published_at = time.monotonic()
            elapsed = time.perf_counter() - started
            self._m_pass_seconds.observe(elapsed)
            self._m_close_lag.set(elapsed)
            if late is not None:
                raise late
            return report

    def close_window(self, now: int | None = None) -> AnomalyReport | None:
        """Synchronously run one detection pass, closing the current
        monitoring window; returns its report (``None`` if no events
        were pending).  The canonical
        :class:`~repro.core.api.AnomalyMonitor` verb.

        ``now`` is accepted for protocol compatibility and ignored: the
        service's clock is the journal ticket order, not caller time.
        Raises ``RuntimeError`` after :meth:`stop` — the final drain has
        already run and there is nothing left to close.
        """
        if self._stopped:
            raise RuntimeError(
                "RushMonService is stopped — stop() already drained the "
                "final window; read latest_report()/reports instead of "
                "calling close_window()"
            )
        return self._detect_pass()

    # -- checkpoint / restore ----------------------------------------------------

    def checkpoint(self, path: str | None = None) -> str:
        """Write a crash-consistent snapshot of the whole service —
        collector bookkeeping, pending journal events, detector graph
        and counts, open-window state and published reports — to
        ``path`` (default: the configured ``checkpoint_path``) via
        :func:`repro.storage.wal.save_checkpoint`.

        Taken under the pass lock, with the journal cut under the journal
        lock, so the cut is a consistent prefix of the ticket order: every
        event is either in the snapshot's detector state, in its pending
        journal, or was ingested after the cut.
        """
        target = path if path is not None else self._checkpoint_path
        if target is None:
            raise ValueError(
                "no checkpoint path: pass one or construct the service "
                "with checkpoint_path="
            )
        with self._pass_lock:
            payload = {
                "config": asdict(self.config),
                "collector": self.collector.snapshot_state(),
                "detector": wal.encode_detector_state(self.detector),
                "window": wal.encode_window_state(self._walk.window),
                "reports": [wal.encode_report(r) for r in self.reports],
                "clock": self._walk.clock,
                "processed_events": self.processed_events,
                "passes": self.passes,
                "extra": self.extra_state,
            }
        wal.save_checkpoint(target, payload)
        self.checkpoints_written += 1
        return target

    @classmethod
    def restore(
        cls,
        path: str,
        *,
        metrics: MetricsRegistry | None = None,
        faults=None,
        checkpoint_path: str | None = None,
    ) -> "RushMonService":
        """Rebuild a service from a :meth:`checkpoint` file and resume
        where the snapshot was cut: restored pending journal events are
        consumed by the next detection pass, window counts continue from
        the open window, and cumulative counts match an uninterrupted
        run over the same event stream.  The returned service is *not*
        started — call :meth:`start` (or drive it inline)."""
        payload = wal.load_checkpoint(path)
        # Checkpointing is re-armed by restore()'s own argument, not by
        # whatever path the snapshotted service had.
        config = RushMonConfig(**{**payload["config"],
                                  "checkpoint_path": checkpoint_path})
        service = cls(config, faults=faults, metrics=metrics)
        wal.decode_detector_state(service.detector, payload["detector"])
        graph = service.detector.graph
        service.collector.restore_state(
            payload["collector"], known=graph.starts.keys() | graph.commits)
        wal.decode_window_state(service._walk.window, payload["window"])
        service.reports = [wal.decode_report(r) for r in payload["reports"]]
        service._latest = service.reports[-1] if service.reports else None
        service._walk.clock = payload["clock"]
        service.processed_events = payload["processed_events"]
        service.passes = payload["passes"]
        service.extra_state = payload["extra"]
        return service

    # -- consumer-side views ---------------------------------------------------

    def latest_report(self) -> AnomalyReport | None:
        """The most recently published window report (atomic snapshot:
        reports are immutable once published, and this is a single
        reference read).  Once the circuit breaker has tripped, the
        returned report carries ``health == "degraded"``."""
        return self._latest

    def counts(self) -> CycleCounts:
        """Cumulative sampled cycle counts over the service's lifetime."""
        with self._pass_lock:
            return self.detector.counts.copy()

    def cumulative_estimates(self) -> tuple[float, float]:
        """Unbiased (E2, E3) over everything processed so far."""
        return self._walk.estimates(self.counts())
