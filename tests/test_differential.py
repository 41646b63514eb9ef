"""Differential tests: every unsampled real-time path must match the
Section 4 offline baseline bit-exactly.

Elle and IsoPredict validate their checkers against histories with known
ground truth; here the ground truth is
:class:`~repro.core.monitor.OfflineAnomalyMonitor` (full Algorithm 1
collection + exact labelled cycle counting), and the paths under test
are the serial monitor, the sharded collector, and the concurrent
service — all at ``sr=1, mob=False``, across ~50 seeded random traces
varying BUU count, key skew and op mix.
"""

import pytest

from repro.core.collector import DataCentricCollector
from repro.core.concurrent import RushMonService, ShardedCollector
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector
from repro.core.monitor import OfflineAnomalyMonitor, RushMon

from tests.histgen import feed_with_lifecycle, random_history

SEEDS = range(50)


def exact_counts(history):
    offline = OfflineAnomalyMonitor()
    offline.on_operations(history)
    return offline.exact_counts()


@pytest.mark.parametrize("seed", SEEDS)
def test_rushmon_sr1_matches_offline(seed):
    """Serial RushMon at sr=1 (with default pruning) is exact."""
    history = random_history(seed)
    exact = exact_counts(history)
    monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False))
    feed_with_lifecycle([monitor], history)
    assert monitor.detector.counts == exact
    e2, e3 = monitor.cumulative_estimates()
    assert e2 == exact.two_cycles
    assert e3 == exact.three_cycles


@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_collector_sr1_matches_offline(seed):
    """ShardedCollector + detector reproduce the exact counts."""
    history = random_history(seed)
    exact = exact_counts(history)
    collector = ShardedCollector(sampling_rate=1, mob=False, num_shards=4)
    detector = CycleDetector()
    for op in history:
        for edge in collector.handle(op):
            detector.add_edge(edge)
    assert detector.counts == exact


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_service_sr1_matches_offline(seed):
    """RushMonService (flush-driven, no background thread) is exact."""
    history = random_history(seed)
    exact = exact_counts(history)
    service = RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, num_shards=4),
    )
    feed_with_lifecycle([service], history)
    service.close_window()
    assert service.counts() == exact


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_sharded_equals_serial_collector(seed):
    """Same ops, same sampler, mob off: the sharded collector derives the
    identical edge sequence and aggregate stats as the serial one —
    the 'one bookkeeping implementation' invariant."""
    history = random_history(seed)
    serial = DataCentricCollector(sampling_rate=1, mob=False)
    sharded = ShardedCollector(sampling_rate=1, mob=False, num_shards=4)
    serial_edges = serial.handle_all(history)
    sharded_edges = sharded.handle_all(history)
    assert serial_edges == sharded_edges
    assert sharded.stats == serial.stats
    assert sharded.touches == serial.touches
    assert sharded.ops_seen == serial.ops_seen
    merged = sharded.merged()
    assert merged.num_items == serial.shard.num_items
    assert merged.total_reads == serial.total_reads


@pytest.mark.parametrize("sr", [2, 4])
def test_sharded_equals_serial_collector_sampled(sr):
    """The equivalence holds under item sampling too (shared sampler,
    same chosen set)."""
    history = random_history(11, num_buus=120, num_keys=32)
    serial = DataCentricCollector(sampling_rate=sr, mob=False, seed=3)
    sharded = ShardedCollector(sampling_rate=sr, mob=False, seed=3,
                               num_shards=8)
    assert serial.handle_all(history) == sharded.handle_all(history)
    assert sharded.touches == serial.touches
