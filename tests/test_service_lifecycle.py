"""Lifecycle edge cases: stop semantics, construction validation, and
operational error messages (exporter port conflicts).

These pin the "fails loudly with an actionable message" half of the
fault-tolerance contract — misuse and misconfiguration raise clear
errors instead of deadlocking, silently dropping events, or surfacing a
bare OSError.
"""

import itertools
import threading
import time

import pytest

from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.types import Operation, OpType
from repro.obs import MetricsExporter, MetricsRegistry
from repro.testing import Fault


def _service(**kwargs):
    kwargs.setdefault("num_shards", 2)
    return RushMonService(RushMonConfig(sampling_rate=1, mob=False, **kwargs))


# -- stop() terminality ------------------------------------------------------

def test_double_stop_is_idempotent():
    svc = _service()
    svc.start()
    svc.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    first = svc.stop()
    assert svc.stopped
    assert svc.stop() is first  # no error, same latest report


def test_a_call_that_returned_before_stop_is_in_the_final_counts():
    """A producer keeps calling while ``stop()`` runs.  Every call that
    returned before ``stop()`` began is in the final counts; a racing
    call either landed — in the counts, or left in the journal after the
    final drain — or was refused whole."""
    svc = _service(detect_interval=0.002)
    svc.start()
    returned = []
    refused = threading.Event()

    def produce():
        try:
            for buu in itertools.count(1):
                svc.begin_buu(buu, 0)
                returned.append(buu)
                svc.on_operation(Operation(OpType.WRITE, buu, buu % 7, buu))
                returned.append(buu)
                svc.on_operations([Operation(OpType.READ, buu, buu % 5, buu)])
                returned.append(buu)
                svc.commit_buu(buu, 0)
                returned.append(buu)
        except RuntimeError:
            refused.set()

    producer = threading.Thread(target=produce)
    producer.start()
    time.sleep(0.05)
    before = len(returned)
    svc.stop()
    producer.join(10.0)
    assert refused.is_set()
    assert before > 0
    assert before <= svc.processed_events
    assert svc.processed_events + svc.collector.journal_depth == len(returned)
    # Calls alternate begin, op, ops, commit: every landed op is seen.
    assert svc.collector.ops_seen == sum(
        1 for i in range(len(returned)) if i % 4 in (1, 2))


def test_close_window_after_stop_raises_clear_error():
    svc = _service()
    svc.start()
    svc.stop()
    with pytest.raises(RuntimeError, match="stop\\(\\) already drained"):
        svc.close_window()
    with pytest.raises(RuntimeError, match="no longer accepts"):
        svc.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    with pytest.raises(RuntimeError, match="no longer accepts"):
        svc.begin_buu(1, 0)


def test_start_after_stop_refused():
    svc = _service()
    svc.start()
    svc.stop()
    with pytest.raises(RuntimeError, match="cannot be restarted"):
        svc.start()


def test_unstarted_service_supports_inline_close_window():
    """The serial-style usage (never start(), drive close_window()
    inline) must keep working — the API-conformance contract."""
    svc = _service()
    svc.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    svc.on_operation(Operation(OpType.WRITE, 2, "x", 2))
    report = svc.close_window()
    assert report is not None and report.operations == 2
    assert report.health == "ok"


def test_stop_without_start_runs_final_drain():
    svc = _service()
    svc.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    report = svc.stop()
    assert report is not None and report.operations == 1


# -- exporter port conflicts --------------------------------------------------

def test_exporter_port_already_bound_is_actionable():
    registry = MetricsRegistry()
    first = MetricsExporter(registry).start()
    try:
        second = MetricsExporter(registry, port=first.port)
        with pytest.raises(RuntimeError) as excinfo:
            second.start()
        message = str(excinfo.value)
        assert f"127.0.0.1:{first.port}" in message
        assert "port=0" in message  # tells the user the fix
        assert not second.running
    finally:
        first.stop()


# -- RushMonConfig validation -------------------------------------------------

@pytest.mark.parametrize("kwargs, match", [
    ({"sampling_rate": 0}, "sampling_rate must be >= 1"),
    ({"sampling_rate": -3}, "sampling_rate must be >= 1"),
    ({"sampling_rate": 2.5}, "sampling_rate must be an int"),
    ({"sampling_rate": True}, "sampling_rate must be an int"),
    ({"prune_interval": 0}, "prune_interval must be > 0"),
    ({"prune_interval": "soon"}, "prune_interval must be an int"),
    ({"resample_interval": 0}, "resample_interval must be >= 1"),
    ({"resample_interval": -1}, "resample_interval must be >= 1"),
    ({"pruning": "aggressive"}, "pruning must be one of"),
    ({"seed": "entropy"}, "seed must be an int"),
    ({"num_shards": 0}, "num_shards must be an integer >= 1"),
    ({"journal_capacity": 0}, "journal_capacity must be an integer >= 1"),
    ({"overflow": "nope"}, "overflow must be one of"),
    ({"overflow": "degrade"}, r"one of \('block', 'shed'\), got 'degrade'"),
    ({"block_timeout": -1}, "block_timeout must be > 0"),
])
def test_config_validation_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        RushMonConfig(**kwargs)


def test_config_accepts_valid_edges():
    RushMonConfig(sampling_rate=1, prune_interval=1, resample_interval=1)
    RushMonConfig(resample_interval=None, pruning="none")


# -- service construction validation ------------------------------------------

@pytest.mark.parametrize("kwargs, match", [
    ({"detect_interval": 0}, "detect_interval"),
    ({"journal_capacity": 0}, "journal_capacity"),
    ({"overflow": "panic"}, "overflow"),
    ({"block_timeout": 0}, "block_timeout"),
    ({"max_restarts": -1}, "max_restarts"),
    ({"restart_backoff": 0}, "restart_backoff"),
])
def test_service_validation_rejects_bad_values(kwargs, match):
    with pytest.raises(ValueError, match=match):
        _service(**kwargs)


# -- fault descriptor validation ----------------------------------------------

@pytest.mark.parametrize("kwargs, match", [
    ({"point": "collector.nowhere"}, "unknown injection point"),
    ({"point": "detect.pass", "kind": "meltdown"}, "unknown fault kind"),
    ({"point": "detect.pass", "kind": "partial_drain"},
     "only applies to journal.drain"),
    ({"point": "detect.pass", "after": -1}, "after must be"),
    ({"point": "detect.pass", "every": 0}, "every >= 1"),
    ({"point": "detect.pass", "times": 0}, "times must be"),
    ({"point": "journal.drain", "kind": "partial_drain", "fraction": 1.5},
     "fraction"),
])
def test_fault_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        Fault(**kwargs)
