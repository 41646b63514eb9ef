"""Shared conformance tests for the unified AnomalyMonitor surface.

One parametrized suite drives the serial :class:`RushMon`, the
concurrent :class:`RushMonService` (unstarted — ``close_window`` runs
the detection pass inline), the multi-process :class:`ClusterMonitor`
(two real worker processes) and the exact
:class:`OfflineAnomalyMonitor` through the *protocol only*: lifecycle
events, operations, window closes, report access.  If a monitor flavour
drifts from the contract in :mod:`repro.core.api`, this file is where
it fails.
"""

import dataclasses
import inspect

import pytest

from repro.cluster import ClusterMonitor
from repro.core.api import AnomalyMonitor, MonitorListener
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.core.types import AnomalyReport, Operation, OpType


def _serial():
    return RushMon(RushMonConfig(sampling_rate=1, mob=False))


def _service():
    # Unstarted: no background thread; close_window() drains inline.
    return RushMonService(RushMonConfig(sampling_rate=1, mob=False))


def _offline():
    return OfflineAnomalyMonitor()


#: Clusters spawned by the factory below, stopped after each test (the
#: workers are daemon processes, but tests should not leak them).
_SPAWNED_CLUSTERS: list[ClusterMonitor] = []


def _cluster():
    monitor = ClusterMonitor(
        RushMonConfig(sampling_rate=1, mob=False, num_workers=2))
    _SPAWNED_CLUSTERS.append(monitor)
    return monitor


@pytest.fixture(autouse=True)
def _stop_spawned_clusters():
    yield
    while _SPAWNED_CLUSTERS:
        _SPAWNED_CLUSTERS.pop().stop()


MONITORS = [
    pytest.param(_serial, id="serial"),
    pytest.param(_service, id="service"),
    pytest.param(_cluster, id="cluster"),
    pytest.param(_offline, id="offline"),
]


def _lost_update(monitor):
    """The classic lost update — one ss 2-cycle — through the protocol."""
    monitor.begin_buu(1, 0)
    monitor.begin_buu(2, 0)
    monitor.on_operations([
        Operation(OpType.READ, 1, "x", 1),
        Operation(OpType.READ, 2, "x", 2),
    ])
    monitor.on_operation(Operation(OpType.WRITE, 1, "x", 3))
    monitor.on_operation(Operation(OpType.WRITE, 2, "x", 4))
    monitor.commit_buu(1, 5)
    monitor.commit_buu(2, 5)


@pytest.mark.parametrize("make", MONITORS)
def test_satisfies_protocols(make):
    monitor = make()
    assert isinstance(monitor, MonitorListener)
    assert isinstance(monitor, AnomalyMonitor)


@pytest.mark.parametrize("make", MONITORS)
def test_fresh_monitor_has_no_reports(make):
    monitor = make()
    assert monitor.reports == []
    assert monitor.latest_report() is None


@pytest.mark.parametrize("make", MONITORS)
def test_lost_update_detected_through_protocol_only(make):
    monitor = make()
    _lost_update(monitor)
    report = monitor.close_window()
    assert isinstance(report, AnomalyReport)
    assert report.estimated_2 == 1.0  # p = 1: estimate is exact
    assert report.operations == 4
    assert monitor.reports == [report]
    assert monitor.latest_report() is report
    e2, _ = monitor.cumulative_estimates()
    assert e2 == 1.0


@pytest.mark.parametrize("make", MONITORS)
def test_windows_partition_the_stream(make):
    monitor = make()
    _lost_update(monitor)
    first = monitor.close_window()
    # Second window: no conflicts at all.
    monitor.begin_buu(10, 6)
    monitor.on_operation(Operation(OpType.WRITE, 10, "y", 7))
    monitor.commit_buu(10, 8)
    second = monitor.close_window()
    assert first.estimated_2 == 1.0
    assert second.estimated_2 == 0.0
    assert second.operations == 1
    assert len(monitor.reports) == 2
    assert monitor.latest_report() is second
    # Cumulative view still sees everything.
    assert monitor.cumulative_estimates()[0] == 1.0


def test_serial_report_alias_is_gone():
    """close_window() is the one verb; the report() alias (deprecated
    since the unified API landed) no longer exists."""
    with pytest.raises(AttributeError):
        _serial().report()


def test_service_flush_alias_is_gone():
    with pytest.raises(AttributeError):
        _service().flush()


def test_service_construction_kwargs_are_gone():
    """Service tunables travel in the config only."""
    with pytest.raises(TypeError, match="num_shards"):
        RushMonService(RushMonConfig(sampling_rate=1, mob=False),
                       num_shards=2)


def test_config_surface():
    """The whole option surface, spelled out: a new RushMonConfig field
    or RushMonService parameter has to be added here, in review."""
    assert {f.name for f in dataclasses.fields(RushMonConfig)} == {
        "sampling_rate", "mob", "pruning", "prune_interval",
        "resample_interval", "count_three_cycles", "seed",
        "num_shards", "detect_interval", "journal_capacity", "overflow",
        "block_timeout", "max_restarts", "restart_backoff", "max_backoff",
        "batch_size", "checkpoint_path",
        "num_workers", "cluster_batch", "max_worker_restarts",
        "replay_journal_capacity",
        "max_connections", "idle_timeout", "drain_timeout",
    }
    assert list(inspect.signature(RushMonService.__init__).parameters) == [
        "self", "config", "items", "faults", "metrics"]


def test_config_is_the_single_construction_path():
    """Every service tunable is settable through RushMonConfig alone."""
    config = RushMonConfig(sampling_rate=1, mob=False, journal_capacity=9,
                           detect_interval=1.5, batch_size=64,
                           max_restarts=2)
    service = RushMonService(config)
    assert service.collector.journal_capacity == 9
    assert service.detect_interval == 1.5
    assert service.batch_size == service.collector.batch_size == 64
    assert service.max_restarts == 2


def test_service_rejects_resample_interval():
    """The service must refuse — not silently drop — the serial-only
    resample_interval knob (it cannot re-pick items across shards)."""
    with pytest.raises(ValueError, match="resample_interval"):
        RushMonService(RushMonConfig(sampling_rate=4, resample_interval=100))


def test_drivers_accept_any_monitor_flavour():
    """The threaded driver types against MonitorListener; all three
    flavours slot in without branching."""
    from repro.sim.scheduler import ThreadedWorkloadDriver

    monitors = [_serial(), _offline()]
    driver = ThreadedWorkloadDriver(monitors, num_threads=1, seed=0)
    from repro.sim.buu import read_modify_write

    driver.run([read_modify_write(["a", "b"], lambda v: (v or 0) + 1)])
    for monitor in monitors:
        assert monitor.close_window().operations == 4


def test_only_the_admission_gate_touches_its_parked_and_known_sets():
    """Structure guard: ``parked`` / ``known`` belong to
    ``SampledLifecycle`` (``core/collector.py``).  The cluster router's
    fused placement loop may *read* them; no other module under
    ``src/repro`` names them at all, so a front end cannot grow its own
    copy of the park / promote / drop protocol."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    owner, reader = root / "core" / "collector.py", root / "cluster" / "monitor.py"
    mutators = {"add", "clear", "discard", "pop", "popitem", "remove",
                "setdefault", "update", "difference_update",
                "intersection_update", "symmetric_difference_update"}
    offences = []
    for path in sorted(root.rglob("*.py")):
        if path == owner:
            continue
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute)
                    and node.attr in ("parked", "known")):
                continue
            above = parents[node]
            written = (
                not isinstance(node.ctx, ast.Load)
                or (isinstance(above, ast.Subscript) and above.value is node
                    and not isinstance(above.ctx, ast.Load))
                or (isinstance(above, ast.Attribute)
                    and above.attr in mutators
                    and isinstance(parents[above], ast.Call)
                    and parents[above].func is above)
                or (isinstance(above, ast.AugAssign) and above.target is node))
            if written or path != reader:
                offences.append(f"{path.relative_to(root)}:{node.lineno} "
                                f"{'writes' if written else 'reads'} "
                                f".{node.attr}")
    assert not offences, offences
