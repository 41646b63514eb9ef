"""Cluster chaos suite: worker deaths, respawn-and-replay, degradation.

The self-healing claim is differential, like everything else in this
repo: a cluster whose worker was killed mid-stream must, after the
supervisor's respawn-and-replay, produce ``sr=1`` reports that are
*bit-exact* against an unharmed single-process monitor and the exact
checker on the same history.

Recovery is tested by enumeration, not by sampling: the ``cluster.route``
fault point sees every control frame the router sends, so one fixed run
has a fixed sequence of control frames, and the enumeration kills the
destination of each one in turn — every (victim, control-frame ordinal)
placement, route frames, barrier flushes and snapshot requests alike.
With a restart budget every placement must end bit-exact after exactly
one respawn; with none, every placement must end degraded with exactly
the victim in ``degraded_shards``.  The workers are threads of this
process (``tests/cluster_threads.py``) whose kill resets every socket
they own, so a placement lands the same way on every run, and nothing
here waits on a clock.  Tier-1 enumerates 2 workers; the 4-worker
enumeration carries the ``oracle`` mark (CI's cluster-chaos job runs it
via ``-m cluster``).

The same thread workers reach what a process cannot be armed with from
outside — the worker-side ``cluster.exchange`` point — and the respawn
that dies before its hello.  Each recovery path keeps one smoke test on
real worker processes: journal replay, snapshot restore, breaker →
degraded, reset recovers, and a breaker trip mid-barrier.
"""

from __future__ import annotations

import time
from functools import cache

import pytest

from repro.checkers import exact_cycle_counts
from repro.cluster import ClusterMonitor
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.storage.wal import CheckpointError, decode_shard_snapshot, \
    encode_shard_snapshot
from repro.testing.faults import Fault, FaultInjector, InjectedFault

from tests.cluster_threads import ThreadIncarnations
from tests.histgen import feed_with_lifecycle, random_history
from tests.test_checkers_differential import monitor_counts, workload_history
from tests.test_cluster import _feed_windowed, _sampled_history

pytestmark = pytest.mark.cluster

#: Windows the fixed run closes.
WINDOWS = 3
#: Small enough that the fixed run holds a snapshot round (one runs
#: whenever a replay journal reaches half of it), large enough that a
#: worker's broadcast journal holds every broadcast of the run — so no
#: respawn, however late, meets a ``resume-nack``.
JOURNAL = 24


def _config(workers: int, seed: int = 0, **overrides) -> RushMonConfig:
    """sr=1/no-MOB (the bit-exact regime) with a small route batch, so
    a short history still makes many control frames."""
    defaults = dict(sampling_rate=1, mob=False, seed=seed,
                    num_workers=workers, cluster_batch=16)
    defaults.update(overrides)
    return RushMonConfig(**defaults)


def _fixed_history():
    return random_history(3, num_buus=40, num_keys=8, ops_per_buu=4,
                          write_frac=0.5, skew=2.0)


def _fixed_run(cluster: ClusterMonitor) -> tuple:
    """The enumeration's one run: the fixed history in ``WINDOWS``
    windows, the cumulative counts, then one more (empty) window — a
    report closed after every placement."""
    reports = _feed_windowed(cluster, _fixed_history(), "on_operations",
                             WINDOWS)
    counts = cluster.counts()
    return reports + [cluster.close_window()], counts


@cache
def _serial_run() -> tuple:
    """The fixed run on the serial monitor: what every harmed run must
    reproduce."""
    serial = RushMon(_config(1))
    reports = _feed_windowed(serial, _fixed_history(), "on_operation",
                             WINDOWS)
    assert serial.detector.counts == exact_cycle_counts(_fixed_history())
    return reports + [serial.close_window()], serial.detector.counts


def _recorded_frames(config: RushMonConfig, run) -> tuple:
    """``run`` on an unharmed cluster; returns what it returned and the
    ``(destination, kind)`` of every control frame it sent, in order."""
    cluster = ClusterMonitor(config, spawn=ThreadIncarnations())
    sent = []
    send = cluster._send_if_up

    def spy(link, frame, what, journal=None):
        sent.append((link.index, what))
        return send(link, frame, what, journal)

    cluster._send_if_up = spy
    try:
        return run(cluster), tuple(sent)
    finally:
        cluster.stop()


@cache
def _control_frames(workers: int) -> tuple:
    """The control frames of the unharmed fixed run — the placements to
    enumerate."""
    result, frames = _recorded_frames(
        _config(workers, replay_journal_capacity=JOURNAL), _fixed_run)
    assert result == _serial_run()
    return frames


def _after_the_snapshot_round(frames: tuple) -> int:
    """The ordinal of the first control frame after the first snapshot
    round."""
    first = next(i for i, (_, kind) in enumerate(frames)
                 if kind == "snap-request")
    return next(i for i in range(first, len(frames))
                if frames[i][1] != "snap-request")


def _thread_cluster(workers: int, faults: FaultInjector | None = None,
                    spawn: ThreadIncarnations | None = None,
                    **overrides) -> ClusterMonitor:
    return ClusterMonitor(_config(workers, **overrides), faults=faults,
                          spawn=spawn or ThreadIncarnations())


def _kill(ordinal: int) -> FaultInjector:
    """A kill of the destination of control frame ``ordinal``."""
    return FaultInjector().inject(
        Fault("cluster.route", kind="kill_worker", after=ordinal))


def _kill_at(workers: int, ordinal: int, victim: int, budget: int) -> None:
    """Kill the destination of control frame ``ordinal`` of the fixed
    run (worker ``victim``) and check the outcome."""
    cluster = _thread_cluster(workers, faults=_kill(ordinal),
                              replay_journal_capacity=JOURNAL,
                              max_worker_restarts=budget)
    try:
        reports, counts = _fixed_run(cluster)
        assert cluster.faults.fired_by_point == {"cluster.route": 1}
        restarts = [shard["restarts"] for shard in cluster.shard_health()]
        if budget:
            assert (reports, counts) == _serial_run()
            # Exactly one respawn: no resume-nack cost a second one.
            assert restarts == [int(i == victim) for i in range(workers)]
        else:
            assert reports[-1].health == "degraded"
            assert reports[-1].degraded_shards == (victim,)
            assert cluster.degraded_shards == (victim,)
            assert restarts == [0] * workers
    finally:
        cluster.stop()


def _enumerate(workers: int, budget: int) -> None:
    failures = []
    for ordinal, (victim, kind) in enumerate(_control_frames(workers)):
        try:
            _kill_at(workers, ordinal, victim, budget)
        except Exception as exc:
            failures.append(f"worker {victim} killed at control frame "
                            f"{ordinal} ({kind}): {exc!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("budget", (1, 0), ids=["respawn", "breaker"])
def test_a_kill_at_every_control_frame_recovers_workers2(budget):
    _enumerate(2, budget)


@pytest.mark.oracle
@pytest.mark.parametrize("budget", (1, 0), ids=["respawn", "breaker"])
def test_a_kill_at_every_control_frame_recovers_workers4(budget):
    _enumerate(4, budget)


def test_the_fixed_run_reaches_every_recovery_path():
    """The enumeration is not vacuous: its placements include route
    frames, barrier flushes and snapshot requests to every worker, and
    the history has cycles to lose."""
    frames = _control_frames(2)
    assert {kind for _, kind in frames} == {"route", "flush",
                                           "snap-request"}
    for kind in ("route", "flush", "snap-request"):
        assert {victim for victim, what in frames if what == kind} == {0, 1}
    assert _serial_run()[1].two_cycles > 0


def test_a_respawn_that_dies_before_its_hello_degrades_at_once():
    """Every respawn of worker 0 exits before it dials the router.  Each
    attempt fails the moment its incarnation is gone — the join waits
    on the listener and the incarnation's exit sentinel together — so
    the default budget of three is spent and the shard degrades within
    a second, instead of each attempt sitting out the 60 s handshake
    timeout while the barrier's own deadline runs out first."""
    spawn = ThreadIncarnations(dies=lambda index, n: index == 0 and n > 1)
    cluster = _thread_cluster(2, faults=_kill(8), spawn=spawn)
    try:
        began = time.monotonic()
        reports, _ = _fixed_run(cluster)
        assert time.monotonic() - began < 1.0
        assert reports[-1].degraded_shards == (0,) == cluster.degraded_shards
        assert cluster.worker_restarts_total == 3
        assert len(spawn.born[0]) == 4 and len(spawn.born[1]) == 1
    finally:
        cluster.stop()


def test_an_exchange_fault_is_worker_fatal_and_the_respawn_is_bit_exact():
    """``cluster.exchange`` fires inside a worker, at its broadcasts to
    the peer mesh: an ``exception`` at worker 1's fifth broadcast ends
    that incarnation (its ``err`` reaches the router), and the respawn
    replays the shard back bit-exact against the serial monitor and the
    exact checker."""
    exchange = FaultInjector().inject(
        Fault("cluster.exchange", kind="exception", after=4))
    spawn = ThreadIncarnations(faults={1: exchange})
    cluster = _thread_cluster(2, spawn=spawn,
                              replay_journal_capacity=JOURNAL)
    try:
        assert _fixed_run(cluster) == _serial_run()
        assert exchange.fired_by_point == {"cluster.exchange": 1}
        assert [shard["restarts"] for shard in cluster.shard_health()] \
            == [0, 1]
        assert isinstance(spawn.born[1][0].error, InjectedFault)
    finally:
        cluster.stop()


@pytest.mark.parametrize("capacity", (32, 4096),
                         ids=["snapshot-restore", "journal-replay"])
@pytest.mark.parametrize("workers", (2, 4), ids=["workers2", "workers4"])
def test_sampled_counts_survive_a_kill(workers, capacity):
    """sr=20: the dead worker's share of the unsampled operations
    exists only as ``elided`` integers in route frames.  Whether the
    respawn restores a snapshot (counts inside the window state, the
    covered frames deduplicated by session sequence) or replays the
    whole journal (counts re-applied frame by frame), every window
    equals the serial monitor's and the operation counts add up to
    exactly what was offered — nothing lost, nothing applied twice."""
    config = _config(workers, seed=4, sampling_rate=20,
                     replay_journal_capacity=capacity)
    history = _sampled_history(5)
    serial = RushMon(config)
    want = _feed_windowed(serial, history, "on_operation", 3)

    def run(cluster):
        return _feed_windowed(cluster, history, "on_operations", 3)

    _, frames = _recorded_frames(config, run)
    ordinal = (len(frames) // 2 if capacity == 4096
               else _after_the_snapshot_round(frames))
    cluster = ClusterMonitor(config, faults=_kill(ordinal),
                             spawn=ThreadIncarnations())
    try:
        got = run(cluster)
        assert got == want
        assert sum(report.operations for report in got) == len(history)
        assert cluster.counts() == serial.detector.counts
        assert 0 < cluster.ops_elided < len(history)
        # Lifecycle followed the sample across the kill as well: begins
        # promoted before it are in the snapshot or the replayed frames.
        assert cluster.lifecycle.elided > 0 == cluster.lifecycle.num_parked
        assert cluster.faults.fired_by_point == {"cluster.route": 1}
        assert cluster.worker_restarts_total == 1
        if capacity == 4096:
            assert cluster.snapshots_shipped == 0
        else:
            assert cluster.snapshots_shipped >= workers
    finally:
        cluster.stop()


def test_a_second_death_past_the_budget_degrades_and_keeps_reporting():
    """Two deaths of worker 0 against a one-respawn budget: the first is
    respawned, the second trips the breaker and the facade *degrades* —
    reports keep flowing with ``health`` and ``degraded_shards`` honest,
    the gauge goes up, and routed frames for the lost shard are counted
    as dropped, never silently lost."""
    # Control frames 14 and 24 of the fixed run both go to worker 0.
    faults = FaultInjector().inject(Fault(
        "cluster.route", kind="kill_worker", after=5, every=10, times=2))
    cluster = _thread_cluster(2, faults=faults, max_worker_restarts=1)
    try:
        reports, _ = _fixed_run(cluster)
        assert cluster.faults.fired_by_point == {"cluster.route": 2}
        assert reports[-1].health == "degraded"
        assert reports[-1].degraded_shards == (0,) == cluster.degraded_shards
        assert cluster.latest_report() is reports[-1]
        assert cluster.worker_restarts_total == 1
        assert cluster.metrics.snapshot()["rushmon_cluster_degraded"] == 1.0
        feed_with_lifecycle([cluster], _fixed_history())
        assert cluster.close_window().degraded_shards == (0,)
        assert cluster.frames_dropped_failed >= 1
    finally:
        cluster.stop()


def test_corrupt_snapshots_are_rejected_and_fallback_stays_exact():
    """Every shipped snapshot arrives bit-flipped (``cluster.snapshot``
    corrupt fault): the router must reject them all — a bit-rotted
    restore point is worse than none — and a kill after the round then
    recovers through the full-journal fallback, still bit-exact."""
    faults = _kill(_after_the_snapshot_round(_control_frames(2)))
    faults.inject(Fault("cluster.snapshot", kind="corrupt", times=None))
    cluster = _thread_cluster(2, faults=faults,
                              replay_journal_capacity=JOURNAL)
    try:
        assert _fixed_run(cluster) == _serial_run()
        assert cluster.snapshots_rejected >= 2
        assert cluster.snapshots_shipped == 0
        assert cluster.worker_restarts_total == 1
        assert all(link.snapshot is None for link in cluster._links)
    finally:
        cluster.stop()


@pytest.mark.parametrize("placement", ("restore", "after"))
def test_a_kill_around_an_in_place_reset(placement):
    """A reset leaves the cluster running with a new restore point: no
    snapshot, the reset ticket as ``base_mark`` and the reset's session
    sequence as the journal baseline.  A worker killed by the first
    control frame after the reset is restored there and replays only
    the post-reset stream; one killed by the reset's own ``restore``
    turns the reset into a full restart.  Either way the next run is
    bit-exact against the serial monitor and the exact checker."""
    workers = 2
    cluster = _thread_cluster(workers, replay_journal_capacity=JOURNAL)
    try:
        _fixed_run(cluster)
        faults = FaultInjector()
        cluster.faults = faults
        if placement == "restore":
            # The reset barrier's flushes come first, then the restores.
            faults.inject(Fault("cluster.route", kind="kill_worker",
                                after=workers))
        cluster.reset(_config(workers, replay_journal_capacity=JOURNAL))
        if placement == "after":
            faults.inject(Fault("cluster.route", kind="kill_worker"))
        assert _fixed_run(cluster) == _serial_run()
        assert faults.fired_by_point == {"cluster.route": 1}
        # A full restart starts every restart budget afresh.
        assert [shard["restarts"] for shard in cluster.shard_health()] \
            == [int(placement == "after"), 0]
    finally:
        cluster.stop()


# -- one smoke test per recovery path on real worker processes ---------------


def _process_cluster(workers: int, faults: FaultInjector | None = None,
                     **overrides) -> ClusterMonitor:
    return ClusterMonitor(_config(workers, **overrides), faults=faults)


def test_process_kill_recovers_by_journal_replay():
    cluster = _process_cluster(2, faults=_kill(8))
    try:
        assert _fixed_run(cluster) == _serial_run()
        assert cluster.worker_restarts_total == 1
        assert cluster.snapshots_shipped == 0
        # Recovery time is a number: spawn -> restore-ok -> link live.
        respawn = cluster.metrics.snapshot()["rushmon_cluster_respawn_seconds"]
        assert respawn["count"] == 1
        assert 0 < respawn["max"] < cluster.handshake_timeout
    finally:
        cluster.stop()


def test_process_kill_recovers_from_a_snapshot():
    ordinal = _after_the_snapshot_round(_control_frames(2))
    cluster = _process_cluster(2, faults=_kill(ordinal),
                               replay_journal_capacity=JOURNAL)
    try:
        assert _fixed_run(cluster) == _serial_run()
        assert cluster.worker_restarts_total == 1
        assert cluster.snapshots_shipped >= 2
    finally:
        cluster.stop()


def test_process_kill_without_budget_degrades():
    cluster = _process_cluster(2, faults=_kill(9),
                               max_worker_restarts=0)
    try:
        reports, _ = _fixed_run(cluster)
        assert reports[-1].health == "degraded"
        assert reports[-1].degraded_shards == (1,) == cluster.degraded_shards
        assert cluster.worker_restarts_total == 0
    finally:
        cluster.stop()


def test_reset_recovers_a_degraded_process_cluster():
    cluster = _process_cluster(2, faults=_kill(8),
                               max_worker_restarts=0)
    try:
        assert _fixed_run(cluster)[0][-1].degraded_shards == (0,)
        cluster.reset(_config(2, max_worker_restarts=0))
        assert cluster.degraded_shards == ()
        assert _fixed_run(cluster) == _serial_run()
    finally:
        cluster.stop()


@pytest.mark.parametrize("verb", ("close_window", "reset"))
def test_breaker_trip_during_a_barrier_does_not_wedge_the_survivors(verb):
    """No restart budget, and worker 0 dies at the route frame the
    call's own buffer flush sends — so the barrier's ``flush`` is
    already queued at the survivor when the breaker trips.  The
    survivor, waiting in its drain for the dead shard's watermark, must
    still apply the ``detach`` that arrives behind that ``flush``: the
    call returns at once, not after ``barrier_timeout``.  A ``reset``
    that loses a shard during its barrier becomes a full restart."""
    faults = FaultInjector()
    cluster = _process_cluster(2, faults=faults, max_worker_restarts=0)
    try:
        feed_with_lifecycle([cluster], workload_history("ycsb", 2))
        cluster.begin_buu(10 ** 6)   # leaves every buffer non-empty
        faults.inject(Fault("cluster.route", kind="kill_worker"))
        began = time.monotonic()
        if verb == "close_window":
            assert cluster.close_window().degraded_shards == (0,)
        else:
            cluster.reset(_config(2, seed=2, max_worker_restarts=0))
            assert cluster.degraded_shards == ()
        assert time.monotonic() - began < 5.0
        assert faults.fired_by_point == {"cluster.route": 1}
        if verb == "reset":
            history = workload_history("ycsb", 2)
            feed_with_lifecycle([cluster], history)
            assert cluster.counts() == monitor_counts(history, seed=2) \
                .detector.counts == exact_cycle_counts(history)
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
    # Version 1 checkpointed every shard's reservoir generator words; a
    # shard that never drew now writes "rng": null, so it is refused.
    with pytest.raises(CheckpointError, match="has version 1"):
        decode_shard_snapshot(dict(document, version=1))
