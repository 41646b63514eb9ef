"""The multi-process monitor cluster: unit tests + differential sweeps.

The differential is the cluster's acceptance gate: at ``sr=1``/
``mob=False`` a :class:`ClusterMonitor` must be **bit-exact** against
both the serial monitor and the independent exact checkers
(:mod:`repro.checkers`) on every paper workload — with 2 and with 4
workers.  One spawned cluster per worker count is reused across seeds
via :meth:`ClusterMonitor.reset` (tickets and watermarks stay monotone,
so the reuse itself exercises the reset path).

The tier-1 run covers a smoke subset of seeds; the full ``>= 20`` seed
sweep carries the ``oracle`` mark (CI's oracle job).  Everything in
this file also carries the ``cluster`` mark for CI's dedicated cluster
job.
"""

from __future__ import annotations

import contextlib
import random
import socket

import pytest

from repro.checkers import exact_cycle_counts
from repro.cluster import ClusterMonitor
from repro.core.collector import DataCentricCollector, ItemSampler
from repro.core.concurrent.journaled import EV_BEGIN, EV_COMMIT, EV_EDGES
from repro.core.concurrent.sharded import ShardedCollector
from repro.core.config import RushMonConfig
from repro.core.frontier import (
    FRONTIER_VERSION,
    FrontierVersionError,
    decode_frontier,
    encode_frontier,
    key_partition,
)
from repro.core.monitor import RushMon
from repro.core.types import CycleCounts, Edge, EdgeType, Operation, OpType
from repro.net.protocol import FrameReader

from tests.histgen import (
    assert_lifecycle_reconciles,
    feed_with_lifecycle,
    random_history,
)
from tests.test_checkers_differential import (
    WORKLOADS,
    monitor_counts,
    workload_history,
)

pytestmark = pytest.mark.cluster

CLUSTER_FULL_SEEDS = range(20)
CLUSTER_SMOKE_SEEDS = (0, 13)


# -- frontier / partition units ------------------------------------------------


def test_frontier_roundtrip():
    groups = [
        (7, [Edge(1, 2, EdgeType.WW, "x", 5), Edge(2, 3, EdgeType.RW, 9, 6)]),
        (9, []),
    ]
    payload = encode_frontier(groups)
    assert payload["v"] == FRONTIER_VERSION
    decoded, sampler_state = decode_frontier(payload)
    assert decoded == groups
    assert sampler_state is None


def test_frontier_carries_sampler_state():
    sampler = ItemSampler(4, seed=3)
    _, state = decode_frontier(encode_frontier([], sampler))
    restored = ItemSampler(1)
    restored.load_state(state)
    for key in ("a", "b", 1, 17, "zz"):
        assert restored.chosen(key) == sampler.chosen(key)


def test_frontier_version_mismatch_refused():
    payload = encode_frontier([])
    payload["v"] = FRONTIER_VERSION + 1
    with pytest.raises(FrontierVersionError):
        decode_frontier(payload)


@contextlib.contextmanager
def _driven_worker(sampling_rate=1, mob=False, num_workers=2):
    """A worker driven by direct handler calls; the router's end of its
    control link reads nothing until the worker sends.  With a peer, the
    peer's watermark stays 0, so nothing leaves the merge queue."""
    from repro.cluster.worker import ClusterWorker

    worker = ClusterWorker(0, num_workers, RushMonConfig(
        sampling_rate=sampling_rate, mob=mob, seed=1,
        num_workers=num_workers))
    worker._control, router = socket.socketpair()
    router.setblocking(False)
    try:
        yield worker, router
    finally:
        worker._control.close()
        router.close()


def _acks(router) -> list:
    try:
        return [ack["seq"] for ack in FrameReader().feed(router.recv(1 << 16))]
    except BlockingIOError:
        return []


def _broadcast_groups(worker) -> list:
    """The edge groups of every broadcast the worker journaled."""
    from repro.core.frontier import decode_frontier

    return [group for _, frame in worker._bcast_journal
            for message in FrameReader().feed(frame)
            for group in decode_frontier(message["frontier"])[0]]


def _nothing_taken(worker) -> bool:
    """No operation collected or counted, nothing queued or broadcast."""
    return (worker.collector.ops_seen == worker.collector.touches
            == worker.collector.shard.num_items == worker.window.ops == 0
            and not worker._local and not worker._bcast_journal
            and worker._route_high == 0)


def test_route_wire_roundtrip_and_validation():
    """The route wire records (``wire_op`` / ``wire_begin`` /
    ``wire_commit``) land in the worker's merge queue as records —
    lifecycle records with their router time, an operation's edges
    under its ticket with its real ``seq`` — and in its broadcast.  A
    frame with one malformed record is refused whole: nothing
    collected, counted, queued, broadcast or acked."""
    from repro.cluster import messages as msg

    valid = [msg.wire_begin(3, 0, 10), msg.wire_begin(4, 1, 11),
             msg.wire_op(Operation(OpType.WRITE, 3, "k", 7), 12),
             msg.wire_op(Operation(OpType.WRITE, 4, "k", 8), 13),
             msg.wire_commit(3, 9, 14)]
    with _driven_worker() as (worker, router):
        for bad in (["?", 1, 2, 3], ["r", 1], ["w", 3, "k", 7],
                    ["b", 4, 11], ["c", 4, 11, 12, 13], 17, [[], 1, 2, 3]):
            with pytest.raises(msg.ProtocolError, match="malformed"):
                worker._handle_route(msg.route(1, 15, valid + [bad]))
            assert _nothing_taken(worker)
            assert _acks(router) == []
        worker._handle_route(msg.route(1, 15, valid))
        edge = Edge(3, 4, EdgeType.WW, "k", 8)
        assert worker._local == [
            (10, EV_BEGIN, 3, 0), (11, EV_BEGIN, 4, 1),
            (13, EV_EDGES, 0, [edge]), (14, EV_COMMIT, 3, 9)]
        assert _broadcast_groups(worker) == [(13, [edge])]
        assert worker.collector.ops_seen == worker.window.ops == 2
        assert _acks(router) == [1]


def _ingest_history(sampling_rate: int) -> list:
    """Route records whose operations share ``(key, seq)`` pairs across
    BUUs (three operations per ``seq`` on four sampled keys and, at
    ``sr > 1``, ``sr - 1`` unsampled ones), with lifecycle records
    between them, under increasing tickets."""
    from repro.cluster import messages as msg

    sampler = ItemSampler(sampling_rate, seed=1)
    chosen = [key for key in map("k{}".format, range(100))
              if sampler.chosen(key)]
    keys = chosen[:4] + [key for key in map("k{}".format, range(100))
                         if not sampler.chosen(key)][:sampling_rate - 1]
    rng = random.Random(sampling_rate)
    records, ticket = [], 0
    alive: list = []
    for i in range(240):
        ticket += 1
        if len(alive) < 4 or rng.random() < 0.08:
            alive.append(ticket)
            records.append(msg.wire_begin(ticket, i, ticket))
        elif rng.random() < 0.08:
            records.append(msg.wire_commit(alive.pop(0), i, ticket))
        else:
            op = Operation(rng.choice((OpType.READ, OpType.WRITE)),
                           rng.choice(alive), rng.choice(keys), i // 3)
            records.append(msg.wire_op(op, ticket))
    return records


@pytest.mark.parametrize("mob", (False, True), ids=("full", "mob"))
@pytest.mark.parametrize("sampling_rate", (1, 3), ids=("sr1", "sr3"))
def test_worker_route_ingest_matches_per_op_collection(sampling_rate, mob):
    """Route ingest — one fused ``handle_batch`` per frame, each edge
    stamped by construction with its operation's ticket — queues and
    broadcasts exactly what per-op ``collector.handle`` derives: the
    same edge groups under the same tickets with the operations' real
    ``seq``, in frames whose operations share ``(key, seq)``.  Walked,
    the queue gives the window the per-op totals."""
    from repro.cluster import messages as msg
    from repro.core.detector import CycleDetector
    from repro.core.monitor import WindowTracker
    from repro.core.types import EdgeColumns

    chosen = ItemSampler(sampling_rate, seed=1).chosen
    records = _ingest_history(sampling_rate)
    with _driven_worker(sampling_rate, mob) as (worker, _):
        reference = DataCentricCollector(sampling_rate=sampling_rate,
                                         mob=mob, seed=1)
        window = WindowTracker(CycleDetector(prune_interval=1 << 30))
        queue, groups = [], []
        for record in records:
            kind, ticket = record[0], record[-1]
            if kind in ("b", "c"):
                queue.append((ticket, EV_BEGIN if kind == "b"
                              else EV_COMMIT, record[1], record[2]))
                if kind == "b":
                    window.detector.begin_buu(record[1], record[2])
                else:
                    window.detector.commit_buu(record[1], record[2])
                continue
            derived = reference.handle(Operation(
                OpType(kind), record[1], record[2], record[3]))
            window.observe_operations(1)
            columns = EdgeColumns()
            columns.extend(derived)
            window.observe_edges(columns)
            if derived:
                queue.append((ticket, EV_EDGES, 0, derived))
                groups.append((ticket, derived))
        shared = [(r[2], r[3]) for r in records
                  if r[0] not in ("b", "c") and chosen(r[2])]
        assert len(set(shared)) < len(shared)
        assert groups and any(len(edges) > 1 for _, edges in groups)
        cuts = (0, 70, 71, 160, len(records))
        for seq, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
            worker._handle_route(msg.route(seq, records[hi - 1][-1],
                                           records[lo:hi]))
        assert [(t, k, p, list(x) if k == EV_EDGES else x)
                for t, k, p, x in worker._local] == queue
        assert _broadcast_groups(worker) == groups
        assert worker.collector.ops_seen == reference.ops_seen
        assert worker.collector.stats == reference.stats
        with worker._merge:
            worker._peers[1].mark = records[-1][-1]
            worker._advance_locked()
        assert not worker._local
        assert (worker.window.ops, worker.window.edges, worker.window.raw) \
            == (window.ops, window.edges, window.raw)


def test_worker_counts_elided_ops_once_per_route_sequence():
    """A route frame's ``elided`` count lands in the collector's and the
    window's operation totals exactly once: a duplicate delivery of the
    same session sequence (journal replay overlap) is re-acked, never
    re-applied; a malformed count is a protocol error, raised before
    the frame's operations are collected."""
    from repro.cluster import messages as msg

    with _driven_worker(sampling_rate=20, num_workers=1) as (worker, router):
        frame = msg.route(1, 9, [msg.wire_begin(3, 0, 1)], elided=8)
        worker._handle_route(frame)
        worker._handle_route(frame)
        worker._handle_route(msg.route(2, 12, [], elided=3))
        assert worker.collector.ops_seen == worker.window.ops == 11
        router.setblocking(True)
        acks = list(FrameReader().feed(router.recv(1 << 16)))
        assert [ack["seq"] for ack in acks] == [1, 1, 2]
        with pytest.raises(msg.ProtocolError, match="elided"):
            worker._handle_route(
                {"type": "route", "seq": 3, "high": 12, "events": [],
                 "elided": -1})
    with _driven_worker(num_workers=1) as (worker, router):
        with pytest.raises(msg.ProtocolError, match="elided"):
            worker._handle_route(msg.route(1, 2, [
                msg.wire_begin(3, 0, 1),
                msg.wire_op(Operation(OpType.WRITE, 3, "k", 1), 2)],
                elided=-3))
        assert _nothing_taken(worker)
        assert _acks(router) == []


def _walked(records):
    """A fresh engine — collector, detector, window — fed ``records``
    by one :class:`~repro.core.monitor.RecordWalk`."""
    walk = _engine()
    walk.walk(records)
    return walk.detector


def _engine():
    """A cluster worker's engine at ``sr = 1``, without a socket."""
    from repro.core.monitor import RecordWalk

    return RecordWalk(RushMonConfig(sampling_rate=1, mob=False,
                                    batch_size=256), engaged=False)


def test_the_walk_counts_each_cycle_once_across_owners():
    """Two engines walk the same ticket-ordered records with
    complementary ownership columns: each counts the cycles whose
    closing edge it owns, and the graph of each sees every edge in
    ticket order — so their counts sum to exactly the one 2-cycle and
    the one 3-cycle, whose edges come from both owners.  Feeding each
    engine its own edges first and its peer's after loses both."""
    edges = [Edge(1, 2, EdgeType.WR, "x", 6), Edge(3, 4, EdgeType.WR, "y", 7),
             Edge(4, 5, EdgeType.WR, "z", 8), Edge(2, 1, EdgeType.RW, "x", 9),
             Edge(5, 3, EdgeType.RW, "w", 10)]
    owners = (0, 1, 0, 1, 1)
    begins = [(buu, EV_BEGIN, buu, 0) for buu in range(1, 6)]
    commits = [(10 + buu, EV_COMMIT, buu, 10 + buu) for buu in range(1, 6)]

    def engines(order):
        return [_walked(begins + order(
            [(edge.seq, EV_EDGES, owner ^ side, [edge])
             for edge, owner in zip(edges, owners)]) + commits)
            for side in (0, 1)]

    in_order = engines(list)
    assert in_order[0].graph.out == in_order[1].graph.out
    assert [sum(engine.counts.two_cycles for engine in in_order),
            sum(engine.counts.three_cycles for engine in in_order)] == [1, 1]
    own_first = engines(lambda records: sorted(
        records, key=lambda record: record[2]))
    assert [engine.counts for engine in own_first] == [CycleCounts()] * 2


def test_a_failed_walk_hands_back_its_unfed_run_as_new_columns():
    """A run spanning two records meets a detector that raises: the walk
    consumed both, and hands their edges back as new columns — the
    first record's list, which a worker also broadcasts, is untouched."""
    from repro.core.types import EdgeColumns

    first = [Edge(1, 2, EdgeType.WR, "x", 1)]
    second = [Edge(2, 3, EdgeType.WR, "y", 2)]
    walk = _engine()

    def broken(edges):
        raise MemoryError("injected")

    walk.detector.add_edge_batch = broken
    with pytest.raises(MemoryError):
        walk.walk([(1, EV_EDGES, 0, first), (2, EV_EDGES, 0, second)])
    assert walk.consumed == 2
    unfed = walk.unfed()
    assert isinstance(unfed, EdgeColumns)
    assert list(unfed) == first + second
    assert first == [Edge(1, 2, EdgeType.WR, "x", 1)]
    assert walk.unfed() is None


def test_a_peer_link_applies_the_frames_that_arrived_with_its_hello():
    """A joining peer dials, says ``peer-hello`` and at once replays its
    journal, so the hello and the first ``edges`` frames can arrive in
    one read.  The peer loop must apply what the handshake read left in
    the frame reader before it waits on the socket again: waiting first
    kept that watermark unread until the peer's next broadcast, and a
    barrier needing it wedged for ``barrier_timeout``."""
    import socket

    from repro.cluster import messages as msg
    from repro.cluster.worker import ClusterWorker, recv_message
    from repro.net.protocol import encode_frame

    worker = ClusterWorker(0, 2, RushMonConfig(
        sampling_rate=1, mob=False, seed=1, num_workers=2))
    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(encode_frame(msg.peer_hello(1, resume=0))
                       + encode_frame(msg.edges(1, [], 5)))
        reader = FrameReader()
        assert recv_message(ours, reader)["type"] == "peer-hello"
        worker._start_peer_loop(1, ours, reader)
        with worker._merge:
            assert worker._merge.wait_for(
                lambda: worker._peers[1].mark == 5, timeout=10)
    finally:
        theirs.close()
        ours.close()


def test_route_message_omits_a_zero_elided_count():
    """At ``sr = 1`` nothing is ever elided, and the frame must not
    carry the field at all (old journals and new frames stay one
    format)."""
    from repro.cluster import messages as msg

    assert msg.route(4, 17, [["b", 1, 0, 17]]) == msg.route(
        4, 17, [["b", 1, 0, 17]], elided=0) == {
        "type": "route", "seq": 4, "high": 17, "events": [["b", 1, 0, 17]]}
    assert msg.route(4, 17, [], elided=2)["elided"] == 2


def test_key_partition_agrees_with_sharded_collector():
    """The cluster router and the in-process sharded collector must
    place every key identically (one placement digest, one owner)."""
    collector = ShardedCollector(num_shards=4)
    keys = [0, 1, 5, 1 << 40, -3, "x", "key-17", (), 3.5]
    for key in keys:
        assert collector.shard_index(key) == key_partition(key, 4, mask=3)
    collector3 = ShardedCollector(num_shards=3)
    for key in keys:
        assert collector3.shard_index(key) == key_partition(key, 3)


# -- facade contract -----------------------------------------------------------


def test_cluster_rejects_resample_interval():
    with pytest.raises(ValueError, match="resample_interval"):
        ClusterMonitor(RushMonConfig(sampling_rate=4, resample_interval=10))


def test_reset_cannot_change_worker_count():
    monitor = ClusterMonitor(RushMonConfig(num_workers=2))
    with pytest.raises(ValueError, match="num_workers"):
        monitor.reset(RushMonConfig(num_workers=4))
    monitor.stop()


def test_stop_is_idempotent_and_refuses_further_ingestion():
    monitor = ClusterMonitor(
        RushMonConfig(sampling_rate=1, mob=False, num_workers=2))
    monitor.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    assert monitor.close_window().operations == 1
    monitor.stop()
    monitor.stop()
    with pytest.raises(RuntimeError, match="stopped"):
        monitor.on_operation(Operation(OpType.WRITE, 1, "x", 2))


def test_worker_death_is_respawned_transparently():
    monitor = ClusterMonitor(
        RushMonConfig(sampling_rate=1, mob=False, num_workers=2))
    monitor.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    victim = monitor._links[0].handle
    victim.kill()
    victim.join(timeout=10)
    # The supervisor detects the death and respawns shard 0 behind the
    # barrier: the window closes healthy, with nothing lost.
    report = monitor.close_window()
    assert report.health == "ok"
    assert report.degraded_shards == ()
    assert report.operations == 1
    assert monitor.worker_restarts_total >= 1
    assert monitor._links[0].handle is not victim
    health = {entry["index"]: entry for entry in monitor.shard_health()}
    assert health[0]["state"] == "up"
    assert health[0]["restarts"] >= 1
    monitor.stop()


# -- differential: bit-exact against serial and the exact checkers -------------


@pytest.fixture(scope="module", params=[2, 4], ids=["workers2", "workers4"])
def cluster(request):
    monitor = ClusterMonitor(RushMonConfig(
        sampling_rate=1, mob=False, num_workers=request.param))
    yield monitor
    monitor.stop()


def _assert_cluster_bit_exact(cluster: ClusterMonitor, workload: str,
                              seed: int) -> None:
    cluster.reset(RushMonConfig(sampling_rate=1, mob=False, seed=seed,
                                num_workers=cluster.num_workers))
    history = workload_history(workload, seed)
    serial = monitor_counts(history)
    feed_with_lifecycle([cluster], history)
    exact = exact_cycle_counts(history)
    assert cluster.counts() == serial.detector.counts == exact
    assert cluster.cumulative_estimates() == serial.cumulative_estimates()
    # The merged window report must equal the serial one field-for-field
    # (raw counts, edge stats, op totals, patterns, window bounds).
    assert cluster.close_window() == serial.close_window()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", CLUSTER_SMOKE_SEEDS)
def test_cluster_sr1_bit_exact_smoke(cluster, workload, seed):
    """Tier-1 subset (the oracle/cluster jobs run all 20 seeds)."""
    _assert_cluster_bit_exact(cluster, workload, seed)


@pytest.mark.oracle
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", CLUSTER_FULL_SEEDS)
def test_cluster_sr1_bit_exact_full_sweep(cluster, workload, seed):
    """The acceptance sweep: all three paper workloads x 20 seeds x
    {2, 4} workers, merged cluster counts equal to the serial monitor
    and the independent exact checker."""
    _assert_cluster_bit_exact(cluster, workload, seed)


@pytest.mark.parametrize("seed", (1, 9))
def test_cluster_sampled_run_matches_serial(seed):
    """Sampling composes with sharding: at sr=4 (mob off, pure per-key
    sampler) the cluster's cumulative counts still equal the serial
    monitor's bit-for-bit — workers sample the same items the serial
    collector would."""
    with ClusterMonitor(RushMonConfig(sampling_rate=4, mob=False, seed=seed,
                                      num_workers=4)) as cluster:
        history = workload_history("ycsb", seed)
        serial = monitor_counts(history, sampling_rate=4, seed=seed)
        feed_with_lifecycle([cluster], history)
        assert cluster.counts() == serial.detector.counts
        assert cluster.cumulative_estimates() == serial.cumulative_estimates()


# -- sampling at the router ----------------------------------------------------

INGEST_PATHS = ("on_operation", "on_operations")
SAMPLED_WINDOWS = 3


def _sampled_history(seed: int) -> list[Operation]:
    """Wide enough that sr=20 still samples a handful of items, skewed
    enough that the sampled ones carry conflicts."""
    return random_history(seed, num_buus=200, num_keys=80, ops_per_buu=8,
                          write_frac=0.5, skew=3.0)


def _feed_windowed(monitor, history, path: str, windows: int) -> list:
    """Deliver ``history`` with lifecycle events through one ingest path,
    closing ``windows`` windows at evenly spaced points; returns the
    reports.  Batched paths hand over the run of operations between two
    lifecycle events (or a window close) in one call."""
    last_index = {op.buu: i for i, op in enumerate(history)}
    closes = {len(history) * (w + 1) // windows - 1 for w in range(windows)}
    begun: set = set()
    run: list = []
    reports = []

    def deliver():
        if not run:
            return
        if path == "on_operation":
            for op in run:
                monitor.on_operation(op)
        else:
            monitor.on_operations(list(run))
        run.clear()

    for i, op in enumerate(history):
        if op.buu not in begun:
            deliver()
            begun.add(op.buu)
            monitor.begin_buu(op.buu, op.seq)
        run.append(op)
        if last_index[op.buu] == i:
            deliver()
            monitor.commit_buu(op.buu, op.seq)
        if i in closes:
            deliver()
            reports.append(monitor.close_window())
    return reports


@pytest.mark.parametrize("path", INGEST_PATHS)
@pytest.mark.parametrize("sampling_rate", (4, 20), ids=["sr4", "sr20"])
def test_cluster_sampled_windows_match_serial(cluster, sampling_rate, path):
    """The router takes the DCS decision for the workers: at sr > 1 /
    ``mob=False`` every window's merged report — raw counts, edge stats,
    patterns **and the operation count, which now travels as ``elided``
    integers** — equals the serial monitor's bit for bit, through both
    ingest verbs (``on_operation`` is the batch of one)."""
    seed = 4   # samples conflicting items of this history at both rates
    config = RushMonConfig(sampling_rate=sampling_rate, mob=False, seed=seed,
                           num_workers=cluster.num_workers)
    history = _sampled_history(5)
    serial = _feed_windowed(RushMon(config), history, "on_operation",
                            SAMPLED_WINDOWS)
    cluster.reset(config)
    elided_before = cluster.ops_elided
    merged = _feed_windowed(cluster, history, path, SAMPLED_WINDOWS)
    assert len(merged) == len(serial) == SAMPLED_WINDOWS
    for got, want in zip(merged, serial):
        assert got.raw == want.raw
        assert got.edges == want.edges
        assert got.patterns == want.patterns
        assert got.operations == want.operations
        assert got == want
    assert sum(r.operations for r in merged) == len(history)
    # Not vacuous: every window found cycles on the sampled items, and
    # the unsampled ones' operations never left the router.
    assert all(r.raw.two_cycles + r.raw.three_cycles > 0 for r in serial)
    sampler = ItemSampler(sampling_rate, seed)
    assert cluster.ops_elided - elided_before == \
        sum(not sampler.chosen(op.key) for op in history) > 0


def test_fullness_counter_tracks_the_longest_buffer():
    """The O(1) flush test rests on ``_fullest`` equalling the longest
    buffer after every kind of ingest call (a broadcast grows every
    buffer by one, an operation grows one or — unsampled — none), and
    on a flush shipping when only elided counts are pending."""
    config = RushMonConfig(sampling_rate=4, mob=False, seed=2,
                           num_workers=2, cluster_batch=100_000)
    ops = [Operation(OpType.WRITE, 1, f"k{i % 37}", i + 1)
           for i in range(300)]
    sampler = ItemSampler(config.sampling_rate, config.seed)
    unsampled = [op for op in ops if not sampler.chosen(op.key)]
    with ClusterMonitor(config) as monitor:
        def check():
            assert monitor._fullest == max(map(len, monitor._buffers))

        monitor.begin_buu(1, 0)
        check()
        for op in ops[:50]:
            monitor.on_operation(op)
            check()
        monitor.on_operations(ops[50:])
        check()
        monitor.commit_buu(1, 301)
        check()
        assert monitor.router_flushes == 0 and monitor._fullest > 2
        assert monitor.close_window().operations == len(ops)
        assert monitor.router_flushes == 1 and monitor._fullest == 0
        # Only counts pending, every buffer empty: still one flush.
        monitor.on_operations(unsampled)
        assert monitor._fullest == 0
        assert monitor.close_window().operations == len(unsampled)
        assert monitor.router_flushes == 2
        # Nothing pending at all: no frame.
        assert monitor.close_window().operations == 0
        assert monitor.router_flushes == 2


def _journaled_routes(monitor: ClusterMonitor) -> list[dict]:
    """Every ``route`` frame journaled since the last reset, decoded
    from the bytes that went on the wire."""
    frames = []
    for link in monitor._links:
        with link.cond:
            entries = [e for e in link.journal if e[0] == "route"]
        for entry in entries:
            frames.extend(FrameReader().feed(entry[2]))
    return frames


def _shipped(monitor: ClusterMonitor) -> tuple[set, int, int]:
    """``(keys shipped, operations shipped, operations elided)`` over
    the journaled route frames."""
    keys, shipped, elided = set(), 0, 0
    for frame in _journaled_routes(monitor):
        elided += frame.get("elided", 0)
        for record in frame["events"]:
            if record[0] in ("r", "w"):
                keys.add(record[2])
                shipped += 1
    return keys, shipped, elided


def test_route_frames_carry_only_sampled_keys_and_every_op_is_counted():
    """Frame level, sr=20: no ``route`` frame carries an operation on an
    unsampled item, and shipped + elided operations account for every
    operation offered.  A ``reset`` that changes ``sampling_rate`` or
    ``seed`` re-decides every key; at ``sr=1`` nothing is elided and no
    frame carries the field at all."""
    history = _sampled_history(11)
    all_keys = {op.key for op in history}
    configs = [RushMonConfig(sampling_rate=20, mob=False, seed=1,
                             num_workers=2),
               RushMonConfig(sampling_rate=20, mob=False, seed=2,
                             num_workers=2),
               RushMonConfig(sampling_rate=4, mob=False, seed=2,
                             num_workers=2),
               RushMonConfig(sampling_rate=1, mob=False, seed=2,
                             num_workers=2)]
    chosen_sets = []
    with ClusterMonitor(configs[0]) as monitor:
        for path, config in zip(INGEST_PATHS * 2, configs):
            monitor.reset(config)
            reports = _feed_windowed(monitor, history, path, 2)
            sampler = ItemSampler(config.sampling_rate, config.seed)
            chosen = {key for key in all_keys if sampler.chosen(key)}
            chosen_sets.append(chosen)
            keys, shipped, elided = _shipped(monitor)
            assert keys == chosen
            assert shipped + elided == len(history)
            assert shipped == sum(op.key in chosen for op in history)
            assert sum(r.operations for r in reports) == len(history)
        assert not any("elided" in frame
                       for frame in _journaled_routes(monitor))
    # The resets really changed the decision (else "re-decides" is
    # vacuous), and sr=1 shipped everything.
    assert len({frozenset(c) for c in chosen_sets}) == len(configs)
    assert chosen_sets[-1] == all_keys


# -- lifecycle follows the sample (router side) --------------------------------


def _link_streams(monitor: ClusterMonitor) -> list[list]:
    """Per worker, every event record journaled since the last reset, in
    the order that worker receives them."""
    streams = []
    for link in monitor._links:
        with link.cond:
            entries = [e for e in link.journal if e[0] == "route"]
        streams.append([record for entry in entries
                        for frame in FrameReader().feed(entry[2])
                        for record in frame["events"]])
    return streams


def test_lifecycle_records_travel_only_for_buus_that_touch_the_sample():
    """Frame level, sr=20: no ``b``/``c`` record for a BUU without an
    operation on a sampled item; each promoted begin reaches *every*
    worker, ahead of its BUU's first routed operation and with a
    smaller ticket, in a stream whose tickets still only grow; and
    broadcast + elided + parked account for every event offered."""
    config = RushMonConfig(sampling_rate=20, mob=False, seed=4,
                           num_workers=2)
    history = _sampled_history(5)
    sampler = ItemSampler(config.sampling_rate, config.seed)
    touched = {op.buu for op in history if sampler.chosen(op.key)}
    all_buus = {op.buu for op in history}
    assert 0 < len(touched) < len(all_buus)
    with ClusterMonitor(config) as monitor:
        _feed_windowed(monitor, history, "on_operations", 2)
        first_op = {}
        for stream in _link_streams(monitor):
            for record in stream:
                if record[0] in ("r", "w"):
                    first_op[record[1]] = min(record[4],
                                              first_op.get(record[1], 1 << 62))
        assert set(first_op) == touched
        for stream in _link_streams(monitor):
            tickets = [record[-1] for record in stream]
            assert tickets == sorted(set(tickets))
            for tag in ("b", "c"):
                assert sorted(r[1] for r in stream if r[0] == tag) == \
                    sorted(touched)
            seen_ops = set()
            for record in stream:
                if record[0] == "b":
                    assert record[1] not in seen_ops
                    assert record[3] < first_op[record[1]]
                elif record[0] in ("r", "w"):
                    seen_ops.add(record[1])
        assert monitor.lifecycle_broadcasts == 2 * len(touched)
        offered = 2 * len(all_buus)
        elided, parked = assert_lifecycle_reconciles(monitor, offered)
        assert (elided, parked) == (offered - 2 * len(touched), 0)
        assert {shard["lifecycle_elided"]
                for shard in monitor.shard_health()} == {elided}
        snap = monitor.metrics.snapshot()
        assert (snap["rushmon_cluster_lifecycle_broadcasts_total"],
                snap["rushmon_cluster_lifecycle_elided_total"],
                snap["rushmon_cluster_lifecycle_parked"]) == \
            (monitor.lifecycle_broadcasts, elided, parked)

        # A reset ends the run: BUUs still parked are dropped, counted.
        for buu in (900, 901, 902):
            monitor.begin_buu(buu, 1)
        assert assert_lifecycle_reconciles(monitor, offered + 3) == \
            (elided, 3)
        monitor.reset(config)
        assert assert_lifecycle_reconciles(monitor, offered + 3) == \
            (elided + 3, 0)
        # At sr=1 every begin is broadcast as it arrives.
        monitor.reset(RushMonConfig(sampling_rate=1, mob=False, seed=4,
                                    num_workers=2))
        broadcasts = monitor.lifecycle_broadcasts
        monitor.begin_buu(1, 1)
        monitor.commit_buu(1, 2)
        assert monitor.lifecycle_broadcasts == broadcasts + 2
        assert_lifecycle_reconciles(monitor, offered + 5)


def _assert_cluster_matches_restricted_oracle(cluster, history, sr, seed,
                                              pruning, prune_interval):
    config = RushMonConfig(sampling_rate=sr, mob=False, seed=seed,
                           num_workers=cluster.num_workers,
                           pruning=pruning, prune_interval=prune_interval)
    cluster.reset(config)
    reports = _feed_windowed(cluster, history, "on_operations", 2)
    sampler = ItemSampler(sr, seed)
    exact = exact_cycle_counts(
        [op for op in history if sampler.chosen(op.key)])
    raw = reports[0].raw.copy()
    raw.add(reports[1].raw)
    assert raw == cluster.counts() == exact, (sr, pruning, prune_interval)
    return exact


@pytest.mark.parametrize("sr", (4, 20), ids=["sr4", "sr20"])
def test_cluster_sampled_counts_equal_the_restricted_history_oracle(
        cluster, sr):
    """Without MOB the merged raw counts of a sampled run are the exact
    checker's over the operations on chosen keys, under every pruner."""
    history = _sampled_history(5)
    for pruning in ("both", "ect", "distance"):
        for prune_interval in (1, 100):
            exact = _assert_cluster_matches_restricted_oracle(
                cluster, history, sr, 4, pruning, prune_interval)
    assert exact.two_cycles + exact.three_cycles > 0


def test_an_id_the_router_broadcast_once_is_never_parked_again(cluster):
    """BUU 1 commits and its id begins again: the workers hold the id's
    commit time, so the second begin is broadcast as it arrives — parked,
    the edge 1 -> 2 below was refused and every pruner treated 1 as
    finished (see the serial twin in ``tests/test_lifecycle_elision``)."""
    sampler = ItemSampler(20, 4)
    hot, hot2 = [key for key in range(200) if sampler.chosen(key)][:2]
    for pruning in ("none", "both", "ect", "distance"):
        cluster.reset(RushMonConfig(
            sampling_rate=20, mob=False, seed=4, pruning=pruning,
            prune_interval=1, num_workers=cluster.num_workers))
        broadcasts = cluster.lifecycle_broadcasts
        cluster.begin_buu(1, 0)
        cluster.on_operation(Operation(OpType.WRITE, 1, hot, 1))
        cluster.commit_buu(1, 2)
        cluster.begin_buu(1, 3)
        assert not cluster.lifecycle.num_parked
        cluster.begin_buu(2, 4)
        cluster.on_operations([Operation(OpType.READ, 2, hot, 5),
                               Operation(OpType.WRITE, 2, hot2, 6),
                               Operation(OpType.READ, 1, hot2, 7)])
        cluster.commit_buu(1, 8)
        cluster.commit_buu(2, 9)
        assert cluster.close_window().raw.two_cycles == 1, pruning
        assert cluster.lifecycle_broadcasts == broadcasts + 6


@pytest.mark.oracle
@pytest.mark.parametrize("seed", range(6))
def test_cluster_sampled_counts_equal_the_restricted_history_oracle_sweep(
        cluster, seed):
    history = _sampled_history(seed)
    found = 0
    for sr in (4, 20):
        for pruning in ("both", "ect", "distance"):
            for prune_interval in (1, 100):
                exact = _assert_cluster_matches_restricted_oracle(
                    cluster, history, sr, seed, pruning, prune_interval)
        found += exact.two_cycles + exact.three_cycles
    assert found > 0


def test_an_operation_after_its_commit_raises_at_the_next_barrier():
    """The owning worker's detector rejects the late operation; the
    worker keeps merging (its peers gate on its watermarks) and every
    report asked of the cluster raises until a ``reset``."""
    from repro.core.detector import LifecycleOrderError

    config = RushMonConfig(sampling_rate=1, mob=False, num_workers=2)
    with ClusterMonitor(config) as monitor:
        monitor.begin_buu(1, 0)
        monitor.begin_buu(2, 0)
        monitor.on_operation(Operation(OpType.WRITE, 1, "y", 1))
        monitor.on_operation(Operation(OpType.WRITE, 2, "x", 2))
        monitor.commit_buu(1, 3)
        monitor.on_operation(Operation(OpType.READ, 1, "x", 4))
        with pytest.raises(LifecycleOrderError, match="BUU 1 "):
            monitor.close_window()
        with pytest.raises(LifecycleOrderError):
            monitor.counts()
        assert all(shard["state"] == "up"
                   for shard in monitor.shard_health())
        monitor.reset(config)
        history = random_history(3)
        feed_with_lifecycle([monitor], history)
        assert monitor.counts() == exact_cycle_counts(history)
