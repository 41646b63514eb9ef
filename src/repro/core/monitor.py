"""The monitor engine, the RushMon facade and the offline baseline monitor.

:class:`RecordWalk` is the engine every real-time front end holds: built
from one :class:`~repro.core.config.RushMonConfig`, it owns a
:class:`~repro.core.collector.DataCentricCollector`, a pruned
:class:`~repro.core.detector.CycleDetector` and a :class:`WindowTracker`,
walks ticket-ordered records through them and closes windows at its
collector's sampling probability.  :class:`RushMon` buffers the stream
it is fed as records and walks them with one, exposing windowed,
estimator-corrected anomaly reports — the real-time monitor of
Section 5.

:class:`OfflineAnomalyMonitor` is the Section 4 baseline: full Algorithm 1
collection into an explicit dependency graph, counted exactly after the
fact.  It is the ground truth the benches compare against.

Both (plus the concurrent :class:`~repro.core.concurrent.RushMonService`)
implement the unified :class:`~repro.core.api.AnomalyMonitor` surface —
``begin_buu``/``commit_buu``/``on_operation(s)`` for ingestion and
``close_window()``/``latest_report()``/``reports``/
``cumulative_estimates()`` for reporting — so drivers and callers never
branch on monitor flavour.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable

from repro.core.collector import BaselineCollector, DataCentricCollector
from repro.core.concurrent.journaled import (EV_BEGIN, EV_COMMIT, EV_EDGES,
                                             EV_OPS)
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector, LifecycleOrderError
from repro.core.estimator import estimate_three_cycles, estimate_two_cycles
from repro.core.pruning import make_pruner
from repro.core.types import (
    AnomalyReport,
    BuuId,
    CycleCounts,
    EdgeColumns,
    EdgeStats,
    EdgeType,
    Key,
    Operation,
)
from repro.obs.instrument import instrument_serial_monitor
from repro.obs.metrics import MetricsRegistry

_SEQ = itemgetter(3)


def _keep_all(key: Key) -> bool:
    """The buffer's sample probe when every operation must be recorded."""
    return True


class WindowTracker:
    """Accumulates one monitoring window's raw counts and closes it into
    an :class:`~repro.core.types.AnomalyReport`.

    Shared by the serial :class:`RushMon` facade and the concurrent
    :class:`~repro.core.concurrent.RushMonService`, so windowing and
    report construction have exactly one implementation.  The tracker
    owns no locking; callers serialize access (RushMon is
    single-threaded, the service feeds it only from its detection
    thread).
    """

    def __init__(self, detector: CycleDetector, start: int = 0) -> None:
        self.detector = detector
        self.raw = CycleCounts()
        self.edges = EdgeStats()
        self.ops = 0
        self.window_start = start
        # The detector's lifetime pattern tally at the window's start, a
        # plain dict copied in C: ``close`` reports the difference.
        self._pattern_snapshot = dict(detector.patterns.counts)

    def observe_operations(self, count: int) -> None:
        self.ops += count

    def observe_edges(self, edges: EdgeColumns) -> None:
        """Feed a run of collected edges to the detector in one batch,
        window-attributed.  The kinds are tallied with ``list.count``, an
        identity scan that never calls the Python-level
        ``Enum.__hash__``.  A
        :class:`~repro.core.detector.LifecycleOrderError` passes through
        with the batch consumed and its cycles attributed; any other
        error from the detector leaves the window as it was, so the
        batch can be fed again."""
        if not edges:
            return
        late = None
        try:
            counts = self.detector.add_edge_batch(edges)
        except LifecycleOrderError as error:
            late, counts = error, error.counts
        kinds = edges.kind
        stats = self.edges
        stats.wr += kinds.count(EdgeType.WR)
        stats.ww += kinds.count(EdgeType.WW)
        stats.rw += kinds.count(EdgeType.RW)
        self.raw.add(counts)
        if late is not None:
            raise late

    def close(self, end: int, probability: float,
              health: str = "ok") -> AnomalyReport:
        """Close the current window and return its report; the tracker
        resets and the next window starts at ``end``.  ``health`` is
        stamped onto the report so a degraded concurrent service cannot
        publish a window that looks healthy."""
        est2 = estimate_two_cycles(self.raw, probability)
        est3 = estimate_three_cycles(self.raw, probability)
        current = self.detector.patterns.counts
        before = self._pattern_snapshot.get
        window_patterns = {
            pattern.value: count - before(pattern, 0)
            for pattern, count in current.items()
            if count > before(pattern, 0)
        }
        rep = AnomalyReport(
            window_start=self.window_start,
            window_end=end,
            estimated_2=est2,
            estimated_3=est3,
            raw=self.raw.copy(),
            edges=self.edges.copy(),
            operations=self.ops,
            patterns=window_patterns,
            health=health,
        )
        self.raw = CycleCounts()
        self.edges = EdgeStats()
        self.ops = 0
        self.window_start = end
        self._pattern_snapshot = dict(current)
        return rep


def _gather(parts: list) -> EdgeColumns:
    """Several records' edges as new columns, never merged into a part."""
    edges = EdgeColumns()
    for part in parts:
        edges.extend(part)
    return edges


class RecordWalk:
    """The monitor engine: the one consumer of ticket-ordered records,
    walking them into its :attr:`collector` and its :attr:`window`'s
    :attr:`detector`, all three built from one
    :class:`~repro.core.config.RushMonConfig` (``items`` seeds the
    sample; ``engaged`` lets the admission gate park, as it may behind
    :class:`RushMon` and the service's detection pass, and may not
    behind a cluster router's gate).  Three front ends hold one: the
    serial :class:`RushMon` walks its record buffer, the service's
    detection pass its drained journal (whose
    :class:`~repro.core.concurrent.journaled.JournaledCollector` shares
    :attr:`collector` as its ``engine``), and every cluster worker its
    merged streams (:mod:`repro.cluster.worker`).  :meth:`close` and
    :meth:`estimates` scale by the collector's sampling probability, the
    one place a front end reads it.

    A begin or commit goes to the admission gate (``collector.lifecycle``)
    and, unless it parks or drops it, to the detector, stamped with the
    record's time.  A batch's operations go through ``collector.collect``
    and, with its ``elided`` count, join the window's operations.  The
    edges of consecutive records form a *run*, fed to one
    :meth:`CycleDetector.add_edge_batch` through the window once its
    records hold ``batch_size`` operations (as journaled or buffered,
    before ``collect`` thins them), at every begin or commit
    record (delivered, parked or dropped alike), and before anything
    else reaches the detector: a begin the gate promotes, or an
    uncounted edge.  An ``EV_EDGES`` record's ``owner`` 0 joins the run
    and 1 is inserted uncounted, so each cycle is counted once, by the
    owner of its closing edge.

    ``consumed`` counts the records taken (a batch once collected, a
    begin or commit once the detector took it) and ``events`` the events
    they stand for, also when :meth:`walk` raises; :meth:`unfed` then
    hands back the run not yet fed.  ``clock`` is the last ticket taken
    and ``late`` the first
    :class:`~repro.core.detector.LifecycleOrderError`, after which the
    walk goes on: the detector applied every edge but the late ones.
    """

    def __init__(self, config: RushMonConfig,
                 items: Iterable[Key] | None = None,
                 engaged: bool = True) -> None:
        self.collector = DataCentricCollector(
            sampling_rate=config.sampling_rate,
            mob=config.mob,
            items=items,
            seed=config.seed,
            resample_interval=config.resample_interval,
            engaged=engaged,
        )
        self.detector = CycleDetector(
            pruner=make_pruner(config.pruning),
            prune_interval=config.prune_interval,
            count_three=config.count_three_cycles,
        )
        self.window = WindowTracker(self.detector)
        self.batch_size = config.batch_size
        self.run: list = []
        self.run_ops = 0
        self.clock = 0
        self.consumed = 0
        self.events = 0
        self.late: LifecycleOrderError | None = None

    def close(self, end: int, health: str = "ok") -> AnomalyReport:
        """Close the window at ``end``, scaled by the collector's
        sampling probability (:meth:`WindowTracker.close`)."""
        return self.window.close(end, self.collector.sampling_probability,
                                 health)

    def estimates(self, raw: CycleCounts) -> tuple[float, float]:
        """Unbiased (E2, E3) for ``raw`` at the collector's sampling
        probability."""
        p = self.collector.sampling_probability
        return estimate_two_cycles(raw, p), estimate_three_cycles(raw, p)

    def walk(self, records: Iterable[tuple]) -> None:
        """Feed ``records`` (ascending tickets), then flush the run."""
        collector = self.collector
        gate = collector.lifecycle
        # A gate that is not engaged parks nothing, so it is not asked.
        engaged = gate.engaged
        window = self.window
        detector = window.detector
        uncounted = detector.add_edge_uncounted
        run = self.run
        flush = self.flush
        size = self.batch_size
        consumed, events, clock = self.consumed, self.events, self.clock
        try:
            for ticket, kind, payload, extra in records:
                if kind == EV_BEGIN:
                    if run:
                        flush()
                    if not (engaged and gate.begin(payload, extra)):
                        detector.begin_buu(payload, extra)
                    events += 1
                    clock = ticket
                elif kind == EV_COMMIT:
                    if run:
                        flush()
                    if not (engaged and gate.commit(payload)):
                        detector.commit_buu(payload, extra)
                    events += 1
                    clock = ticket
                elif kind == EV_OPS:
                    n = len(payload)
                    if n:
                        edges = collector.collect(payload, self._begin)
                        if edges:
                            run.append(edges)
                        self.run_ops += n
                        clock = ticket + n - 1
                    else:
                        clock = ticket
                    window.observe_operations(n + extra)
                    events += n + extra
                    if self.run_ops >= size:
                        # Taken before the run is fed: a feed that fails
                        # hands back the edges, not the batch.
                        consumed += 1
                        flush()
                        continue
                elif kind == EV_EDGES:
                    if payload:
                        if run:
                            flush()
                        for edge in extra:
                            uncounted(edge)
                    else:
                        run.append(extra)
                consumed += 1
            flush()
        finally:
            self.consumed, self.events, self.clock = consumed, events, clock

    def _begin(self, buu: BuuId, start: int) -> None:
        if self.run:
            self.flush()
        self.window.detector.begin_buu(buu, start)

    def flush(self) -> None:
        """Feed the run to the detector, window-attributed: a run of one
        columnar part as it is, anything else gathered into new
        columns."""
        self.run_ops = 0
        run = self.run
        if not run:
            return
        edges = run[0]
        if len(run) > 1 or not isinstance(edges, EdgeColumns):
            edges = _gather(run)
        try:
            self.window.observe_edges(edges)
        except LifecycleOrderError as late:
            if self.late is None:
                self.late = late
        run.clear()

    def unfed(self) -> EdgeColumns | None:
        """Take the run a failed walk did not feed, as new columns."""
        edges = _gather(self.run) if self.run else None
        self.run.clear()
        self.run_ops = 0
        return edges


class RushMon:
    """Real-time isolation anomalies monitor.

    Feed it the lifecycle and operation stream of your BUUs:

    >>> mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
    >>> mon.begin_buu(1, 0); mon.begin_buu(2, 0)
    >>> from repro.core.types import Operation, OpType
    >>> for op in [Operation(OpType.READ, 1, "x", 1),
    ...            Operation(OpType.READ, 2, "x", 2),
    ...            Operation(OpType.WRITE, 1, "x", 3),
    ...            Operation(OpType.WRITE, 2, "x", 4)]:
    ...     mon.on_operation(op)
    >>> mon.commit_buu(1, 5); mon.commit_buu(2, 5)
    >>> report = mon.close_window()
    >>> report.estimated_2  # the classic lost update: one 2-cycle
    1.0

    The monitor is a record buffer and a :class:`RecordWalk`, the engine
    behind the service's detection pass and every cluster worker, built
    from its config.  A begin or
    commit only appends ``(0, EV_BEGIN | EV_COMMIT, buu, time)`` (list
    order is walk order, so the ticket slot holds 0).  An operation
    joins the open ``EV_OPS`` record if one probe of the sample keeps
    it, else bumps that record's ``elided`` count; under
    ``resample_interval`` every operation joins.  A batch is appended
    as one record and walked at once.  The buffer is also walked at
    ``batch_size`` records or open operations and before every read of
    state (:meth:`close_window`, :meth:`estimates`,
    :meth:`cumulative_estimates`, :attr:`detector`, :attr:`collector`);
    metrics gauges read the state of the last walk.  The ingest or close
    call whose walk meets an operation fed after its BUU's commit
    raises that :class:`~repro.core.detector.LifecycleOrderError` once
    the walk is done; a read never raises, so the error waits for the
    next call that walks.
    """

    def __init__(
        self,
        config: RushMonConfig | None = None,
        items: Iterable[Key] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config = config or RushMonConfig()
        self._walker = walker = RecordWalk(config, items)
        self._size = config.batch_size
        self._records: list[tuple] = []
        self._ops: list[Operation] = []
        self._elided = 0
        lookup = walker.collector.sampler.lookup
        self._keep = (lookup if config.sampling_rate > 1
                      and not config.resample_interval else _keep_all)
        self._now = 0
        self.reports: list[AnomalyReport] = []
        # Observability is callback-only on the serial path, and its
        # gauges are registered on the registry's first read: every
        # reading is pulled from the parts' counters at snapshot time.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.defer(instrument_serial_monitor, walker.collector,
                           walker.detector, self.reports)

    # -- ingestion: append, walk a batch ---------------------------------------

    # A shared helper would add a call to every lifecycle event.  Only a
    # commit checks the buffer's bound: every BUU that begins commits.

    def begin_buu(self, buu: BuuId, start_time: int | None = None) -> None:
        if start_time is None:
            start_time = self._now
        elif start_time > self._now:
            self._now = start_time
        if self._ops:
            self._seal()
        self._records.append((0, EV_BEGIN, buu, start_time))

    def commit_buu(self, buu: BuuId, commit_time: int | None = None) -> None:
        if commit_time is None:
            commit_time = self._now
        elif commit_time > self._now:
            self._now = commit_time
        if self._ops:
            self._seal()
        records = self._records
        records.append((0, EV_COMMIT, buu, commit_time))
        if len(records) >= self._size:
            self._walk_and_raise()

    def on_operation(self, op: Operation) -> None:
        """Observe one read/write in its storage visibility order."""
        if op[3] > self._now:
            self._now = op[3]
        if self._keep(op[2]):
            ops = self._ops
            ops.append(op)
            if len(ops) >= self._size:
                self._walk_and_raise()
        else:
            self._elided += 1

    def on_operations(self, ops: Iterable[Operation]) -> None:
        """Batched :meth:`on_operation`: one record, walked at once — one
        fused collector pass, one detector batch, the same counts."""
        if not isinstance(ops, (list, tuple)):
            ops = list(ops)
        if not ops:
            return
        last = max(map(_SEQ, ops))
        if last > self._now:
            self._now = last
        if self._ops:
            self._seal()
        self._records.append((0, EV_OPS, ops, 0))
        self._walk_and_raise()

    def _seal(self) -> None:
        # Elided operations never reach the collector: count them here.
        self._records.append((0, EV_OPS, self._ops, self._elided))
        self._walker.collector.ops_seen += self._elided
        self._ops = []
        self._elided = 0

    def _walk(self) -> None:
        """Walk the buffer; a record the walk raises on goes with it."""
        if self._ops or self._elided:
            self._seal()
        elif not self._records:
            return
        walker = self._walker
        try:
            walker.walk(self._records)
        finally:
            del self._records[:walker.consumed + 1]
            walker.consumed = 0

    def _walk_and_raise(self) -> None:
        self._walk()
        late, self._walker.late = self._walker.late, None
        if late is not None:
            raise late

    @property
    def detector(self) -> CycleDetector:
        self._walk()
        return self._walker.detector

    @property
    def collector(self) -> DataCentricCollector:
        self._walk()
        return self._walker.collector

    # -- reporting ---------------------------------------------------------------

    def estimates(self, raw: CycleCounts | None = None) -> tuple[float, float]:
        """Unbiased (E2, E3) for ``raw`` (default: the current window)."""
        if raw is None:
            self._walk()
            raw = self._walker.window.raw
        return self._walker.estimates(raw)

    def close_window(self, now: int | None = None) -> AnomalyReport:
        """Close the current monitoring window and return its anomaly
        report.  The canonical :class:`~repro.core.api.AnomalyMonitor`
        verb; the next window starts where this one ended."""
        self._walk_and_raise()
        if now is not None and now > self._now:
            self._now = now
        end = self._now if now is None else now
        rep = self._walker.close(end)
        self.reports.append(rep)
        return rep

    def latest_report(self) -> AnomalyReport | None:
        """The most recently closed window's report (``None`` if no
        window has been closed yet)."""
        return self.reports[-1] if self.reports else None

    def cumulative_estimates(self) -> tuple[float, float]:
        """Unbiased (E2, E3) over everything observed since construction."""
        return self.estimates(self.detector.counts)


class OfflineAnomalyMonitor:
    """Section 4's baseline: exact, offline anomaly counting.

    Collects every edge with Algorithm 1 into an explicit dependency
    graph; :meth:`exact_counts` runs the exact labelled cycle counter.
    Too slow for real-time use — which is the paper's premise — but the
    ground truth for every accuracy comparison.

    Implements the full :class:`~repro.core.api.AnomalyMonitor` surface:
    lifecycle events are recorded (the exact counter does not need them,
    but drivers deliver one stream to every monitor flavour), and
    :meth:`close_window` materializes an exact
    :class:`~repro.core.types.AnomalyReport` for the cycles and
    operations that arrived since the previous close (``estimated_`` ==
    raw, since ``p = 1``).
    """

    def __init__(self) -> None:
        # Imported lazily: repro.graph depends on repro.core.types, so a
        # module-level import from the core package would be circular.
        from repro.graph.dependency import DependencyGraph

        self.collector = BaselineCollector()
        self.graph = DependencyGraph()
        self.reports: list[AnomalyReport] = []
        self.begins: dict[BuuId, int] = {}
        self.commits: dict[BuuId, int] = {}
        self._now = 0
        self._window_start = 0
        self._window_ops = 0
        self._counted = CycleCounts()
        self._edges_snapshot = EdgeStats()

    # -- ingestion (MonitorListener) -----------------------------------------

    def begin_buu(self, buu: BuuId, start_time: int | None = None) -> None:
        when = self._now if start_time is None else start_time
        self.begins.setdefault(buu, when)
        self._now = max(self._now, when)

    def commit_buu(self, buu: BuuId, commit_time: int | None = None) -> None:
        when = self._now if commit_time is None else commit_time
        self.commits[buu] = when
        self._now = max(self._now, when)

    def on_operation(self, op: Operation) -> None:
        self._now = max(self._now, op.seq)
        self._window_ops += 1
        for edge in self.collector.handle(op):
            self.graph.add_edge(edge)

    def on_operations(self, ops: Iterable[Operation]) -> None:
        for op in ops:
            self.on_operation(op)

    # -- exact counting --------------------------------------------------------

    def exact_counts(self) -> CycleCounts:
        from repro.graph.cycles import count_labelled_short_cycles

        return count_labelled_short_cycles(self.graph)

    # -- reporting (AnomalyMonitor) --------------------------------------------

    def close_window(self, now: int | None = None) -> AnomalyReport:
        """Close the current window: exact cycle/edge/operation deltas
        since the previous close, as an :class:`AnomalyReport`.

        Runs the exact counter over the full graph (O(graph) — this is
        the offline baseline; windowing exists for API parity, not
        speed).
        """
        end = self._time(now)
        cumulative = self.exact_counts()
        raw = CycleCounts(
            ss=cumulative.ss - self._counted.ss,
            dd=cumulative.dd - self._counted.dd,
            sss=cumulative.sss - self._counted.sss,
            ssd=cumulative.ssd - self._counted.ssd,
            ddd=cumulative.ddd - self._counted.ddd,
        )
        stats = self.collector.stats
        edges = EdgeStats(
            wr=stats.wr - self._edges_snapshot.wr,
            ww=stats.ww - self._edges_snapshot.ww,
            rw=stats.rw - self._edges_snapshot.rw,
        )
        rep = AnomalyReport(
            window_start=self._window_start,
            window_end=end,
            estimated_2=float(raw.two_cycles),
            estimated_3=float(raw.three_cycles),
            raw=raw,
            edges=edges,
            operations=self._window_ops,
        )
        self.reports.append(rep)
        self._counted = cumulative
        self._edges_snapshot = stats.copy()
        self._window_start = end
        self._window_ops = 0
        return rep

    def latest_report(self) -> AnomalyReport | None:
        """The most recently closed window's report (``None`` if none)."""
        return self.reports[-1] if self.reports else None

    def cumulative_estimates(self) -> tuple[float, float]:
        """Exact lifetime (2-cycles, 3-cycles) as floats — the offline
        baseline's "estimate" is the ground truth (``p = 1``)."""
        counts = self.exact_counts()
        return float(counts.two_cycles), float(counts.three_cycles)

    def _time(self, explicit: int | None) -> int:
        if explicit is not None:
            self._now = max(self._now, explicit)
            return explicit
        return self._now
