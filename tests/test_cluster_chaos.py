"""Cluster chaos suite: worker crashes, respawn-and-replay, degradation.

The self-healing claim is differential, like everything else in this
repo: a cluster whose worker was **SIGKILLed mid-stream** must, after
the supervisor's respawn-and-replay, produce ``sr=1`` reports that are
*bit-exact* against an unharmed single-process monitor on the same
history.  The kill is deterministic — the ``cluster.route`` fault point
fires ``kill_worker`` on a configured route-frame send — so every seed
exercises the same crash site on every run.

Beyond the differential: the restart-storm test drives repeated kills
into the ``max_worker_restarts`` circuit breaker and asserts the facade
*degrades* (``health="degraded"``, ``degraded_shards``, the
``rushmon_cluster_degraded`` gauge) instead of raising; the
snapshot-corruption tests flip CRC bits at the ``cluster.snapshot``
point and assert rejected snapshots never become restore points (the
full-journal fallback keeps the differential exact); and the reset test
recovers a degraded cluster back to healthy, bit-exact operation.

The sampled cases rerun the kill at ``sr=20``/``mob=False``, where most
operations never leave the router and reach their shard only as
``elided`` counts inside the journaled route frames: the respawned
cluster's windows must still equal the serial monitor's — operation
counts included — on the snapshot-restore and the full-journal-replay
path alike.

Tier-1 runs the smoke seeds; the full ``>= 10`` seed x {2, 4} worker
sweep and the 30-round death-then-barrier loop carry the ``oracle`` mark (CI's cluster-chaos job runs it via
``-m cluster``, which overrides the default ``-m 'not oracle'``).
"""

from __future__ import annotations

import time

import pytest

from repro.checkers import exact_cycle_counts
from repro.cluster import ClusterMonitor
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.storage.wal import CheckpointError, decode_shard_snapshot, \
    encode_shard_snapshot
from repro.testing.faults import Fault, FaultInjector

from tests.histgen import feed_with_lifecycle
from tests.test_checkers_differential import monitor_counts, workload_history
from tests.test_cluster import _feed_windowed, _sampled_history

pytestmark = pytest.mark.cluster

CHAOS_FULL_SEEDS = range(10)
CHAOS_SMOKE_SEEDS = (0, 7)
WORKER_COUNTS = (2, 4)


def _chaos_config(workers: int, seed: int, **overrides) -> RushMonConfig:
    """sr=1/no-MOB (the bit-exact regime) with a small route batch so a
    modest history produces many flushes — many deterministic crash
    sites for the ``cluster.route`` fault to pick from."""
    defaults = dict(sampling_rate=1, mob=False, seed=seed,
                    num_workers=workers, cluster_batch=16)
    defaults.update(overrides)
    return RushMonConfig(**defaults)


def _assert_chaos_bit_exact(cluster: ClusterMonitor, seed: int) -> None:
    """The acceptance differential: the harmed cluster against an
    unharmed serial monitor and the independent exact checker."""
    history = workload_history("ycsb", seed)
    serial = monitor_counts(history, seed=seed)
    feed_with_lifecycle([cluster], history)
    assert cluster.counts() == serial.detector.counts \
        == exact_cycle_counts(history)
    assert cluster.cumulative_estimates() == serial.cumulative_estimates()
    report = cluster.close_window()
    assert report == serial.close_window()
    assert report.health == "ok"
    assert report.degraded_shards == ()


def _run_kill_case(workers: int, seed: int, **config_overrides) -> None:
    faults = FaultInjector()
    # Fires on one mid-stream route-frame send: SIGKILL its destination
    # worker.  (``after`` is scaled so snapshots/journals have content
    # by the time the crash lands.)
    faults.inject(Fault("cluster.route", kind="kill_worker",
                        after=4 * workers, times=1))
    cluster = ClusterMonitor(_chaos_config(workers, seed,
                                           **config_overrides),
                             faults=faults)
    try:
        _assert_chaos_bit_exact(cluster, seed)
        assert faults.fired_by_point.get("cluster.route", 0) == 1, \
            "the kill never fired — the workload produced too few flushes"
        assert cluster.worker_restarts_total >= 1
        assert all(entry["state"] == "up"
                   for entry in cluster.shard_health())
        # Recovery time is a number: spawn -> restore-ok -> link live.
        respawn = cluster.metrics.snapshot()["rushmon_cluster_respawn_seconds"]
        assert 1 <= respawn["count"] <= cluster.worker_restarts_total
        assert 0 < respawn["max"] < cluster.handshake_timeout
    finally:
        cluster.stop()


@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
@pytest.mark.parametrize("seed", CHAOS_SMOKE_SEEDS)
def test_sigkill_respawn_bit_exact_smoke(workers, seed):
    """Tier-1 subset of the kill differential (journal-replay path:
    no snapshot rounds forced, default capacity means none trigger)."""
    _run_kill_case(workers, seed)


@pytest.mark.oracle
@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
@pytest.mark.parametrize("seed", CHAOS_FULL_SEEDS)
def test_sigkill_respawn_bit_exact_full_sweep(workers, seed):
    """The acceptance sweep: >= 10 seeds x {2, 4} workers."""
    _run_kill_case(workers, seed)


@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
def test_sigkill_respawn_from_snapshot(workers):
    """Same differential, but with snapshot rounds on every router
    flush the respawn restores from a shipped snapshot + short replay
    instead of a full journal replay."""
    faults = FaultInjector()
    faults.inject(Fault("cluster.route", kind="kill_worker",
                        after=6 * workers, times=1))
    cluster = ClusterMonitor(_chaos_config(workers, seed=3,
                                           snapshot_interval=1),
                             faults=faults)
    try:
        _assert_chaos_bit_exact(cluster, seed=3)
        assert faults.fired_by_point.get("cluster.route", 0) == 1
        assert cluster.worker_restarts_total >= 1
        assert cluster.snapshots_shipped >= workers, \
            "snapshot shipping never ran before the kill"
    finally:
        cluster.stop()


@pytest.mark.parametrize("snapshot_interval", (1, None),
                         ids=["snapshot-restore", "journal-replay"])
@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
def test_sigkill_respawn_sampled_counts_survive_replay(workers,
                                                       snapshot_interval):
    """sr=20: the dead worker's share of the unsampled operations
    exists only as ``elided`` integers in route frames.  Whether the
    respawn restores a snapshot (counts inside the window state, the
    covered frames deduplicated by session sequence) or replays the
    whole journal (counts re-applied frame by frame), every window
    equals the serial monitor's and the operation counts add up to
    exactly what was offered — nothing lost, nothing applied twice."""
    faults = FaultInjector()
    faults.inject(Fault("cluster.route", kind="kill_worker",
                        after=6 * workers, times=1))
    config = _chaos_config(workers, seed=4, sampling_rate=20,
                           snapshot_interval=snapshot_interval)
    history = _sampled_history(5)
    serial = RushMon(config)
    want = _feed_windowed(serial, history, "on_operation", 3)
    cluster = ClusterMonitor(config, faults=faults)
    try:
        got = _feed_windowed(cluster, history, "on_operations", 3)
        assert got == want
        assert sum(report.operations for report in got) == len(history)
        assert cluster.counts() == serial.detector.counts
        assert 0 < cluster.ops_elided < len(history)
        # Lifecycle followed the sample across the kill as well: begins
        # promoted before it are in the snapshot or the replayed frames.
        assert cluster.lifecycle.elided > 0 == cluster.lifecycle.num_parked
        assert faults.fired_by_point.get("cluster.route", 0) == 1, \
            "the kill never fired — the workload produced too few flushes"
        assert cluster.worker_restarts_total >= 1
        assert all(entry["state"] == "up"
                   for entry in cluster.shard_health())
        if snapshot_interval is None:
            assert cluster.snapshots_shipped == 0
        else:
            assert cluster.snapshots_shipped >= workers, \
                "snapshot shipping never ran before the kill"
    finally:
        cluster.stop()


def test_restart_storm_trips_breaker_into_degraded_mode():
    """Two deaths against a one-respawn budget: the first is respawned,
    the second trips the breaker and the facade *degrades* — reports
    keep flowing with ``health`` and ``degraded_shards`` honest, the
    gauge goes up, and routed frames for the lost shard are counted as
    dropped, never silently lost."""
    faults = FaultInjector()
    # The 5th route send targets shard 0 (sends alternate 0,1 per
    # flush): SIGKILL it mid-stream; the budget covers this one.
    faults.inject(Fault("cluster.route", kind="kill_worker",
                        after=4, times=1))
    cluster = ClusterMonitor(_chaos_config(2, seed=0,
                                           max_worker_restarts=1),
                             faults=faults)
    try:
        history = workload_history("ycsb", 0)
        feed_with_lifecycle([cluster], history)
        assert cluster.close_window().health == "ok"
        assert cluster.worker_restarts_total == 1
        # Second death of the same shard: budget exhausted -> breaker.
        victim = cluster._links[0].proc
        victim.terminate()
        victim.join(timeout=10)
        feed_with_lifecycle([cluster], history)
        report = cluster.close_window()
        assert report.health == "degraded"
        assert report.degraded_shards == (0,)
        assert cluster.latest_report().degraded_shards == (0,)
        assert cluster.degraded_shards == (0,)
        assert cluster.worker_restarts_total == 1
        assert cluster.metrics.snapshot()["rushmon_cluster_degraded"] == 1.0
        assert cluster.frames_dropped_failed >= 1
        # The survivors keep reporting: another window closes cleanly.
        assert cluster.close_window().health == "degraded"
    finally:
        cluster.stop()


def test_breaker_at_zero_degrades_on_first_death():
    """``max_worker_restarts=0`` means no respawn budget at all: the
    first death goes straight to DEGRADED instead of raising."""
    cluster = ClusterMonitor(_chaos_config(2, seed=0,
                                           max_worker_restarts=0))
    try:
        history = workload_history("ycsb", 0)
        feed_with_lifecycle([cluster], history[: len(history) // 2])
        victim = cluster._links[1].proc
        victim.terminate()
        victim.join(timeout=10)
        feed_with_lifecycle([cluster], history[len(history) // 2:])
        report = cluster.close_window()
        assert report.health == "degraded"
        assert report.degraded_shards == (1,)
        assert cluster.worker_restarts_total == 0
    finally:
        cluster.stop()


def test_reset_recovers_a_degraded_cluster():
    """The recovery story: :meth:`ClusterMonitor.reset` on a degraded
    cluster tears the remnants down, respawns a fresh healthy cluster,
    and the differential holds again."""
    cluster = ClusterMonitor(_chaos_config(2, seed=0,
                                           max_worker_restarts=0))
    try:
        history = workload_history("ycsb", 0)
        feed_with_lifecycle([cluster], history)
        victim = cluster._links[0].proc
        victim.terminate()
        victim.join(timeout=10)
        assert cluster.close_window().health == "degraded"
        cluster.reset(_chaos_config(2, seed=5, max_worker_restarts=0))
        assert cluster.degraded_shards == ()
        _assert_chaos_bit_exact(cluster, seed=5)
    finally:
        cluster.stop()


@pytest.mark.oracle
def test_barrier_right_after_a_worker_death_never_waits_on_the_dead_shard():
    """``close_window()`` straight after a worker with no restart budget
    dies, racing the supervisor's breaker trip: whichever of ``detach``
    and ``flush`` reaches the survivor first, it must not drain for
    ``barrier_timeout`` on a watermark that cannot come — about one run
    in five did, once, hence the repetitions."""
    history = workload_history("ycsb", 0)
    for round_ in range(30):
        cluster = ClusterMonitor(_chaos_config(2, seed=0,
                                               max_worker_restarts=0))
        cluster.barrier_timeout = 20.0  # the per-iteration budget
        try:
            feed_with_lifecycle([cluster], history)
            victim = cluster._links[round_ % 2].proc
            victim.terminate()
            victim.join(timeout=10)
            report = cluster.close_window()
            assert report.health == "degraded", round_
            assert report.degraded_shards == (round_ % 2,)
        finally:
            cluster.stop()


@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
@pytest.mark.parametrize("verb", ("close_window", "reset"))
def test_breaker_trip_during_a_barrier_does_not_wedge_the_survivors(
        workers, verb):
    """No restart budget, and worker 0 is SIGKILLed by the route frame
    the call's own buffer flush sends — so the barrier's ``flush`` is
    already queued at every survivor when the breaker trips.  A
    survivor waiting in its drain for the dead shard's watermark must
    still apply the ``detach`` that arrives behind that ``flush``: the
    call returns within seconds (not after ``barrier_timeout``), and so
    does the next window.  A ``reset`` that loses a shard during its
    barrier becomes a full restart."""
    seed = 2
    faults = FaultInjector()
    cluster = ClusterMonitor(_chaos_config(workers, seed,
                                           max_worker_restarts=0),
                             faults=faults)
    cluster.barrier_timeout = 10.0
    try:
        history = workload_history("ycsb", seed)
        feed_with_lifecycle([cluster], history)
        cluster.begin_buu(10 ** 6)   # leaves every buffer non-empty
        faults.inject(Fault("cluster.route", kind="kill_worker", times=1))
        began = time.monotonic()
        if verb == "close_window":
            report = cluster.close_window()
            assert report.health == "degraded"
            assert report.degraded_shards == (0,)
        else:
            cluster.reset(_chaos_config(workers, seed,
                                        max_worker_restarts=0))
            assert cluster.degraded_shards == ()
        assert time.monotonic() - began < cluster.barrier_timeout / 2
        assert faults.fired_by_point.get("cluster.route", 0) == 1
        if verb == "close_window":
            feed_with_lifecycle([cluster], history)
            assert cluster.close_window().degraded_shards == (0,)
        else:
            _assert_chaos_bit_exact(cluster, seed)
    finally:
        cluster.stop()


@pytest.mark.parametrize("workers", WORKER_COUNTS,
                         ids=["workers2", "workers4"])
def test_sigkill_respawn_after_an_in_place_reset_is_bit_exact(workers):
    """A reset leaves the cluster running with a new restore point: no
    snapshot, the reset ticket as ``base_mark`` and the reset's session
    sequence as the journal baseline.  A worker killed by the first
    route frame after the reset is restored there and replays only the
    post-reset stream — which must be bit-exact against the serial
    monitor and the exact checker."""
    faults = FaultInjector()
    cluster = ClusterMonitor(_chaos_config(workers, seed=3), faults=faults)
    try:
        feed_with_lifecycle([cluster], workload_history("ycsb", 3))
        cluster.close_window()
        cluster.reset(_chaos_config(workers, seed=6))
        faults.inject(Fault("cluster.route", kind="kill_worker", times=1))
        _assert_chaos_bit_exact(cluster, seed=6)
        assert faults.fired_by_point.get("cluster.route", 0) == 1
        assert cluster.worker_restarts_total == 1
    finally:
        cluster.stop()


def test_corrupt_snapshots_are_rejected_and_fallback_stays_exact():
    """Every shipped snapshot arrives bit-flipped (``cluster.snapshot``
    corrupt fault): the router must reject them all — a bit-rotted
    restore point is worse than none — and a kill then recovers through
    the full-journal fallback, still bit-exact."""
    faults = FaultInjector()
    faults.inject(Fault("cluster.snapshot", kind="corrupt", times=None))
    faults.inject(Fault("cluster.route", kind="kill_worker",
                        after=10, times=1))
    cluster = ClusterMonitor(_chaos_config(2, seed=1, snapshot_interval=1),
                             faults=faults)
    try:
        _assert_chaos_bit_exact(cluster, seed=1)
        assert cluster.snapshots_rejected >= 1
        assert cluster.snapshots_shipped == 0
        assert cluster.worker_restarts_total >= 1
        # No verified snapshot ever became a restore point.
        assert all(link.snapshot is None for link in cluster._links)
    finally:
        cluster.stop()


def test_shard_snapshot_codec_roundtrip_and_crc():
    """Unit pin for the snapshot envelope: roundtrip fidelity, CRC
    tamper detection, foreign-document rejection."""
    payload = {"index": 1, "high": 42, "route_high": 7,
               "collector": {"ops_seen": 9}, "detector": {"x": [1, 2]},
               "window": {"w": 3}}
    document = encode_shard_snapshot(payload)
    assert decode_shard_snapshot(document) == payload
    tampered = dict(document)
    tampered["crc"] = tampered["crc"] ^ 1
    with pytest.raises(CheckpointError, match="CRC"):
        decode_shard_snapshot(tampered)
    with pytest.raises(CheckpointError):
        decode_shard_snapshot({"format": "something-else", "version": 1})
