"""Chaos tests: fault injection against the concurrent service.

Every test here drives the pipeline with a
:class:`~repro.testing.faults.FaultInjector` armed and then checks the
fault-tolerance contract of :class:`~repro.core.concurrent.RushMonService`:

- detection failures are supervised (caught, logged, counted, the thread
  restarted with backoff) rather than silently killing monitoring;
- no event the collector *acknowledged* is ever lost — after the dust
  settles, the ``sr=1`` differential against the offline baseline still
  holds bit-exactly;
- overload policies fail loudly (``block``) or honestly (``shed`` is
  counted), never silently;
- a persistent failure trips the circuit breaker into an explicit
  DEGRADED state visible in ``latest_report()`` and on ``/metrics``.

Marked ``chaos`` so CI can run the suite standalone (``-m chaos``); the
tests are small enough to ride in the default tier-1 run too.
"""

import logging
import random
import time

import pytest

from repro.core.concurrent import JournalBackpressure, RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.sim.scheduler import ThreadedWorkloadDriver
from repro.sim.traces import Trace
from repro.testing import Fault, FaultInjector, InjectedFault

from tests.histgen import JournalTap
from tests.test_concurrent_stress import _workload

pytestmark = pytest.mark.chaos


def _ops(count, num_keys, seed):
    """A deterministic single-threaded operation stream."""
    rng = random.Random(seed)
    return [
        Operation(
            OpType.READ if rng.random() < 0.5 else OpType.WRITE,
            buu=rng.randrange(count // 4 + 1),
            key=f"k{rng.randrange(num_keys)}",
            seq=i,
        )
        for i in range(count)
    ]


def _service(faults=None, **kwargs):
    kwargs.setdefault("detect_interval", 0.003)
    return RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=42, **kwargs),
        faults=faults,
    )


def _driven(service, **kwargs):
    """A real-thread driver into ``service`` with a trace recorded beside
    it: the driver notifies its listeners of an operation under that
    key's lock, so the trace holds each key's operations in journal
    order.  Returns ``(driver, trace)``."""
    trace = Trace()
    driver = ThreadedWorkloadDriver([service, trace], join_timeout=60.0,
                                    **kwargs)
    return driver, trace


def _assert_sr1_differential(service, acked):
    """The chaos invariant: the offline baseline over every operation the
    service acknowledged (``acked``, recorded on the producer side, each
    key's in journal order) reproduces the service's counts exactly —
    faults may slow or shed, never corrupt."""
    replayed = OfflineAnomalyMonitor()
    replayed.on_operations(acked)
    assert replayed.exact_counts() == service.counts()


def test_supervised_restart_preserves_differential(caplog):
    """Three injected detection-pass crashes: the supervisor restarts the
    thread each time (logged + counted + exported) and the final counts
    still match the offline replay for every acknowledged event."""
    faults = FaultInjector().inject(
        Fault("detect.pass", kind="exception", times=3)
    )
    service = _service(
        faults, max_restarts=10, restart_backoff=0.001, max_backoff=0.01
    )
    workload = _workload(120, 32, 3, seed=5)
    driver, trace = _driven(service, num_threads=4, seed=5,
                            yield_every=7)
    with caplog.at_level(logging.WARNING,
                         logger="repro.core.concurrent.service"):
        with service:
            driver.run(workload)
            # Wait for the *restarts*, not just the fired faults: stop()
            # would otherwise race the supervisor's respawn and win.
            deadline = time.monotonic() + 10.0
            while service.detect_restarts < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
    assert faults.fired_by_point["detect.pass"] == 3
    assert service.detect_failures == 3
    assert service.detect_restarts == 3
    assert not service.degraded
    assert any("restarting detection thread" in r.message
               for r in caplog.records)

    # The restart counter is visible on the metrics surface.
    snap = service.metrics.snapshot()
    assert snap["rushmon_service_detect_restarts_total"] == 3.0
    assert snap["rushmon_service_detect_failures_total"] == 3.0
    assert snap["rushmon_service_degraded"] == 0.0

    # Nothing acknowledged was lost across the crashes.
    assert service.processed_events == (
        driver.ops_emitted + 2 * driver.buus_completed
    )
    _assert_sr1_differential(service, trace.ops)
    assert service.counts().two_cycles > 0  # the run was not vacuous


def test_mid_pass_crash_requeues_unconsumed_suffix():
    """A crash in the middle of a batch re-queues the unconsumed suffix:
    the next pass picks it up in ticket order and the totals match an
    uninterrupted run."""
    faults = FaultInjector().inject(
        Fault("detect.process", kind="exception", after=25, times=1)
    )
    service = _service(faults)
    tap = JournalTap(service)
    ops = _ops(200, 16, seed=9)
    for op in ops:
        service.on_operation(op)
    with pytest.raises(InjectedFault):
        service.close_window()
    assert service.processed_events == 25  # the consumed prefix
    # The journal still holds the rest; a clean pass finishes the job.
    service.close_window()
    assert service.processed_events == len(ops)
    assert [op for _, _, (op,), _ in tap.records.values()] == ops
    _assert_sr1_differential(service, ops)


def test_partial_drain_requeues_tail_in_ticket_order():
    """A partial drain hands the detector only a prefix; the re-queued
    tail is consumed by later passes with ticket order intact."""
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="partial_drain", fraction=0.3, times=2)
    )
    service = _service(faults)
    tap = JournalTap(service)
    ops = _ops(300, 24, seed=11)
    for op in ops:
        service.on_operation(op)
    for _ in range(4):  # enough passes to drain through both faults
        service.close_window()
    assert service.processed_events == len(ops)
    # The drains, in order, handed over every ticket once and in order.
    tickets = list(tap.records)
    assert tickets == sorted(tickets) and len(tickets) == len(ops)
    _assert_sr1_differential(service, ops)


def test_drain_delay_fault_loses_nothing():
    """Injected latency in the drain path slows windows down but the
    differential still holds exactly."""
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="delay", delay=0.004, times=3)
    )
    service = _service(faults)
    workload = _workload(100, 24, 3, seed=21)
    driver, trace = _driven(service, num_threads=4, seed=21,
                            yield_every=5)
    with service:
        driver.run(workload)
    assert service.processed_events == (
        driver.ops_emitted + 2 * driver.buus_completed
    )
    _assert_sr1_differential(service, trace.ops)


def test_shed_overflow_is_counted_never_silent():
    """'shed' drops whole events when the journal is full — but every
    drop is counted, nothing acknowledged is lost, and the differential
    holds over exactly the acknowledged prefix."""
    service = _service(journal_capacity=8, overflow="shed")
    ops = _ops(500, 16, seed=33)
    acked = []
    for op in ops:  # no detection running: the tiny journal must overflow
        shed = service.collector.shed_events
        service.on_operation(op)
        if service.collector.shed_events == shed:
            acked.append(op)
    shed = service.collector.shed_events
    assert shed > 0
    # Conservation: every submitted op was either acknowledged or shed.
    assert service.collector.ops_seen + shed == len(ops)
    snap = service.metrics.snapshot()
    assert snap["rushmon_collector_journal_shed_total"] == float(shed)
    service.close_window()
    assert service.processed_events == service.collector.ops_seen \
        == len(acked)
    _assert_sr1_differential(service, acked)


def test_block_overflow_raises_backpressure_to_producer():
    """'block' with a dead detector fails the producer loudly after the
    timeout instead of buffering without bound or dropping silently."""
    service = _service(
        journal_capacity=4, overflow="block", block_timeout=0.05
    )
    acked = []
    with pytest.raises(JournalBackpressure, match="journal"):
        for op in _ops(50, 8, seed=1):
            service.on_operation(op)
            acked.append(op)
    assert service.metrics.snapshot()[
        "rushmon_collector_backpressure_timeouts_total"
    ] >= 1.0
    # Draining relieves the pressure; ingestion works again.
    service.close_window()
    acked.append(Operation(OpType.WRITE, 999, "fresh", 1))
    service.on_operation(acked[-1])
    service.close_window()
    _assert_sr1_differential(service, acked)


def test_circuit_breaker_degraded_state_is_visible_everywhere():
    """A persistent detection fault exhausts max_restarts: the service
    goes DEGRADED — visible via latest_report() health, the Prometheus
    exposition, and the collector's switch to shed — while producers
    remain unblocked."""
    faults = FaultInjector().inject(
        Fault("detect.pass", kind="exception", times=None)
    )
    service = _service(
        faults, max_restarts=2, restart_backoff=0.001, max_backoff=0.01,
        journal_capacity=32, overflow="block", block_timeout=30.0,
    )
    service.start()
    deadline = time.monotonic() + 10.0
    while not service.degraded and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.degraded
    assert service.health == "degraded"
    assert service.detect_failures == 3  # initial + max_restarts retries
    assert service.detect_restarts == 2

    report = service.latest_report()
    assert report is not None and report.health == "degraded"

    prom = service.metrics.render_prometheus()
    assert "rushmon_service_degraded 1" in prom
    snap = service.metrics.snapshot()
    assert snap["rushmon_service_degraded"] == 1.0
    assert snap["rushmon_service_detect_restarts_total"] == 2.0

    # Producers must not block on the dead detector: the collector was
    # switched to shed-on-overflow, so flooding far past the journal
    # capacity returns promptly instead of waiting out block_timeout.
    started = time.monotonic()
    for op in _ops(200, 8, seed=3):
        service.on_operation(op)
    assert time.monotonic() - started < 5.0
    assert service.collector.overflow == "shed"
    assert service.collector.shed_events > 0

    assert service.stop() is service.latest_report()
    assert service.latest_report().health == "degraded"

