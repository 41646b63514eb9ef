"""Differential tests for the batched ingest fast path.

The contract under test: every batched API (``Collector.handle_batch``,
``CycleDetector.add_edge_batch``, ``ShardedCollector.handle_batch``,
``RushMon.on_operations``) is *bit-identical* to its per-operation
counterpart — same edges, same counters, same cycle/pattern counts, and
the same RNG draw order — for every collector kind, sampling rate and
batch size.  Also covered here: pruning safety against the exact
checker, the key/BUU interner, and the lazily-compacted active-time
heap.
"""

import functools
import random
from collections import Counter

import pytest

from tests.histgen import random_history
from tests.test_checkers_differential import (
    FULL_SEEDS,
    SMOKE_SEEDS,
    WORKLOADS,
    workload_history,
)
from tests.test_mob_properties import _edge_set
from repro.checkers import exact_cycle_counts
from repro.core.collector import (
    BaselineCollector,
    DataCentricCollector,
    EdgeSamplingCollector,
)
from repro.core.concurrent import RushMonService, ShardedCollector
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector, LifecycleOrderError, LiveGraph
from repro.core.monitor import RushMon, WindowTracker
from repro.core.pruning import make_pruner
from repro.core.types import (
    CycleCounts,
    Edge,
    EdgeColumns,
    EdgeType,
    KeyInterner,
    Operation,
    OpType,
)
from repro.storage.wal import decode_detector_state, encode_detector_state

SEEDS = range(30)
BATCH_SIZES = (1, 7, 1024)
SAMPLING_RATES = (1, 2, 8)


def _make_collector(kind, sr):
    if kind == "baseline":
        return BaselineCollector()
    if kind == "es":
        return EdgeSamplingCollector(sampling_rate=sr)
    return DataCentricCollector(sampling_rate=sr, mob=True, seed=0)


def _rng_states(col):
    """Every RNG a collector owns, in a comparable form."""
    states = []
    rng = getattr(col, "_rng", None)
    if rng is not None:
        states.append(rng.getstate())
    shard = getattr(col, "shard", None)
    if shard is not None:
        states.append(shard._rng.getstate())
    return states


def _chunks(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


# -- collector: handle_batch == handle, bit for bit --------------------------


@pytest.mark.parametrize("kind", ["baseline", "es", "dcs"])
@pytest.mark.parametrize("sr", SAMPLING_RATES)
@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_collector_batch_bit_identical(kind, sr, batch):
    for seed in SEEDS:
        history = random_history(seed)
        per_op = _make_collector(kind, sr)
        batched = _make_collector(kind, sr)
        edges_a = [e for op in history for e in per_op.handle(op)]
        edges_b = []
        for chunk in _chunks(history, batch):
            edges_b.extend(batched.handle_batch(chunk))
        assert edges_a == edges_b
        assert per_op.stats == batched.stats
        assert per_op.touches == batched.touches
        assert per_op.ops_seen == batched.ops_seen
        assert _rng_states(per_op) == _rng_states(batched)


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_fused_bodies_equal_algorithm_1(batch):
    """Each path against the owned oracle, not only against its sibling:
    the fused loops every ledger workload runs vs ``BaselineCollector``
    (Algorithm 1) fed per op.  Full ``readIDs`` at sr=1 is Algorithm 1 —
    same edges in the same order, same ``stats``; MOB with a slot per
    operation never overwrites a reader, so it issues Algorithm 1's edge
    set and the ww-discard calibration never fires (the ``handle_batch``
    twin of ``test_huge_slot_array_equals_full_bookkeeping``)."""
    for seed in SEEDS:
        history = random_history(seed)
        oracle = BaselineCollector()
        expected = [e for op in history for e in oracle.handle(op)]

        full = DataCentricCollector(sampling_rate=1, mob=False)
        mob = DataCentricCollector(sampling_rate=1, mob=True, seed=seed,
                                   mob_slots=len(history))
        full_edges, mob_edges = [], []
        for chunk in _chunks(history, batch):
            full_edges.extend(full.handle_batch(chunk))
            mob_edges.extend(mob.handle_batch(chunk))
        assert full_edges == expected
        assert full.stats == oracle.stats
        assert _edge_set(mob_edges) == _edge_set(expected)
        assert mob.discarded_reads == 0


def test_collector_batch_accepts_generators():
    history = random_history(3)
    per_op = BaselineCollector()
    batched = BaselineCollector()
    edges_a = [e for op in history for e in per_op.handle(op)]
    edges_b = list(batched.handle_batch(op for op in history))
    assert edges_a == edges_b


# -- the columnar edge hand-off ------------------------------------------------


@pytest.mark.parametrize("mob", (False, True), ids=("full", "mob"))
@pytest.mark.parametrize("sr", (1, 4, 20))
@pytest.mark.parametrize("chunk", (1, 7, 256))
def test_handle_batch_columns_equal_per_op_edges(mob, sr, chunk):
    """The fused loops' five columns hold, row by row, the edges per-op
    ``handle`` returns, in order; counters and the MOB reservoir RNG end
    in the same state."""
    emitted = 0
    for seed in range(12):
        history = random_history(seed, num_keys=40 * sr)
        per_op = DataCentricCollector(sampling_rate=sr, mob=mob, seed=seed)
        batched = DataCentricCollector(sampling_rate=sr, mob=mob, seed=seed)
        expected = [e for op in history for e in per_op.handle(op)]
        rows = []
        for part in _chunks(history, chunk):
            columns = batched.handle_batch(part)
            assert isinstance(columns, EdgeColumns)
            rows.extend(columns.rows())
        assert rows == [tuple(edge) for edge in expected]
        assert per_op.stats == batched.stats
        assert per_op.touches == batched.touches
        assert per_op.ops_seen == batched.ops_seen
        assert (per_op.total_reads, per_op.discarded_reads) == \
            (batched.total_reads, batched.discarded_reads)
        assert _rng_states(per_op) == _rng_states(batched)
        emitted += len(expected)
    assert emitted


def test_edge_columns_read_as_an_edge_list():
    history = random_history(5)
    edges = BaselineCollector().handle_batch(history)
    columns = DataCentricCollector(sampling_rate=1, mob=False).handle_batch(
        history)
    assert len(columns) == len(edges) > 0
    assert columns == edges and edges == columns
    assert all(edge.__class__ is Edge for edge in columns)
    assert list(columns) == edges
    assert columns != edges[:-1]
    assert not DataCentricCollector().handle_batch([])


def _drive_detector(history, chunk, materialize):
    """Feed ``history`` through a full-``readIDs`` collector into a
    pruning detector, ``chunk`` operations per batch, handing it each
    batch's columns as they come or as a list of ``Edge``."""
    collector = DataCentricCollector(sampling_rate=1, mob=False)
    det = CycleDetector(pruner=make_pruner("both"), prune_interval=20)
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun = set()
    buf = []

    def flush():
        for part in _chunks(buf, chunk):
            edges = collector.handle_batch(part)
            det.add_edge_batch(list(edges) if materialize else edges)
        buf.clear()

    for i, op in enumerate(history):
        if op.buu not in begun:
            flush()
            begun.add(op.buu)
            det.begin_buu(op.buu, op.seq)
        buf.append(op)
        if last_index[op.buu] == i:
            flush()
            det.commit_buu(op.buu, op.seq)
    flush()
    return det


@pytest.mark.parametrize("chunk", (1, 7, 256))
def test_add_edge_batch_columns_equal_edge_list(chunk):
    refused = 0
    for seed in range(12):
        history = random_history(seed)
        det_a, det_b = (_drive_detector(history, chunk, materialize)
                        for materialize in (False, True))
        assert det_a.counts == det_b.counts
        assert det_a.patterns.counts == det_b.patterns.counts
        assert det_a.edges_refused == det_b.edges_refused
        assert list(det_a.graph.edges()) == list(det_b.graph.edges())
        assert det_a.graph.edge_count == det_b.graph.edge_count
        refused += det_a.edges_refused
    assert refused  # the refusal branch ran


def test_add_edge_batch_columns_raise_the_same_lifecycle_order_error():
    """BUU 3 reads after its commit: its edge is left out and the batch's
    other cycle (a dd 2-cycle between 1 and 2) is still counted."""
    r, w = OpType.READ, OpType.WRITE
    batch = [Operation(r, 1, "x", 1), Operation(r, 2, "y", 2),
             Operation(w, 2, "x", 3), Operation(w, 1, "y", 4),
             Operation(r, 3, "x", 5)]
    raised = []
    for materialize in (False, True):
        det = CycleDetector()
        for buu in (1, 2, 3):
            det.begin_buu(buu, 0)
        det.commit_buu(3, 0)
        edges = DataCentricCollector(sampling_rate=1, mob=False).handle_batch(
            batch)
        with pytest.raises(LifecycleOrderError) as late:
            det.add_edge_batch(list(edges) if materialize else edges)
        raised.append((late.value.buu, late.value.counts, det.counts,
                       list(det.graph.edges())))
    assert raised[0] == raised[1]
    assert raised[0][0] == 3 and raised[0][1] == CycleCounts(dd=1)


def test_observe_edges_tallies_columns_like_an_edge_list():
    """The serial path hands the window columns, the service's journal
    path a list of ``Edge``: the same wr/ww/rw tallies and raw counts."""
    for seed in range(6):
        history = random_history(seed)
        columns = DataCentricCollector(sampling_rate=1, mob=False).handle_batch(
            history)
        windows = [WindowTracker(CycleDetector()) for _ in range(2)]
        windows[0].observe_edges(columns)
        windows[1].observe_edges(list(columns))
        assert windows[0].edges == windows[1].edges
        assert windows[0].edges.total == len(columns)
        assert windows[0].raw == windows[1].raw


def test_rushmon_hands_the_detector_columns():
    mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
    seen = []
    add_edge_batch = mon.detector.add_edge_batch

    def spy(edges):
        seen.append(type(edges))
        return add_edge_batch(edges)

    mon.detector.add_edge_batch = spy
    history = random_history(2)
    for buu in {op.buu for op in history}:
        mon.begin_buu(buu, 0)
    mon.on_operations(history)
    assert seen == [EdgeColumns]
    assert mon.close_window().edges.total == mon.collector.stats.total > 0


# -- detector: add_edge_batch == add_edge ------------------------------------


def _lifecycle_stream(history):
    """Interleave begin/commit lifecycle tuples with per-op edge batches
    from the exact baseline collector."""
    col = BaselineCollector()
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun = set()
    stream = []
    for i, op in enumerate(history):
        if op.buu not in begun:
            begun.add(op.buu)
            stream.append(("b", op.buu, op.seq))
        stream.extend(col.handle(op))
        if last_index[op.buu] == i:
            stream.append(("c", op.buu, op.seq))
    return stream


def _feed_detector(det, stream, batch):
    """Feed ``stream`` (lifecycle tuples and edges) to ``det``: ``batch``
    edges per ``add_edge_batch``, flushed before every lifecycle event,
    or per-edge ``add_edge`` when ``batch`` is None."""
    buf = []
    for item in stream:
        if item.__class__ is Edge:
            if batch is None:
                det.add_edge(item)
            else:
                buf.append(item)
                if len(buf) >= batch:
                    det.add_edge_batch(buf)
                    buf = []
            continue
        if buf:
            det.add_edge_batch(buf)
            buf = []
        if item[0] == "b":
            det.begin_buu(item[1], item[2])
        else:
            det.commit_buu(item[1], item[2])
    if buf:
        det.add_edge_batch(buf)
    return det


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("pruning", [None, "both"])
def test_detector_batch_counts_identical(batch, pruning):
    """Counts/patterns match per-edge ingestion exactly; with pruning
    disabled the entire graph state matches too (with pruning enabled
    prune *timing* differs by design — counts still must not)."""
    for seed in range(10):
        stream = _lifecycle_stream(random_history(seed))
        det_a, det_b = (
            _feed_detector(
                CycleDetector(pruner=make_pruner(pruning) if pruning else None,
                              prune_interval=50),
                stream, size)
            for size in (None, batch))
        assert det_a.counts == det_b.counts
        assert det_a.patterns.counts == det_b.patterns.counts
        if pruning is None:
            g_a, g_b = det_a.graph, det_b.graph
            assert list(g_a.edges()) == list(g_b.edges())
            assert g_a.out == g_b.out
            assert g_a.inc == g_b.inc
            assert list(g_a.out.keys()) == list(g_b.out.keys())
            assert g_a.edge_count == g_b.edge_count


def test_add_edge_batch_returns_aggregate_of_new_cycles():
    det_a = CycleDetector()
    det_b = CycleDetector()
    edges = [
        Edge(1, 2, EdgeType.WR, "k1", 1),
        Edge(2, 1, EdgeType.RW, "k1", 2),
        Edge(2, 3, EdgeType.WW, "k2", 3),
        Edge(3, 1, EdgeType.WR, "k3", 4),
        Edge(1, 2, EdgeType.WR, "k1", 5),  # duplicate: ignored
    ]
    total = det_b.add_edge_batch(edges)
    per_edge = [det_a.add_edge(e) for e in edges]
    agg = per_edge[0]
    for new in per_edge[1:]:
        agg.add(new)
    assert total == agg
    assert det_a.counts == det_b.counts


# -- pruning safety: pruned counts == the exact checker's --------------------


_history = functools.lru_cache(maxsize=None)(workload_history)


def _assert_pruning_is_safe(workload, seed):
    """A pruner may only remove vertices that no future short cycle can
    touch, so under every strategy, however often it runs and however
    the edges are batched, the sr=1 counts stay the exact checker's."""
    history = _history(workload, seed)
    exact = exact_cycle_counts(history)
    stream = _lifecycle_stream(history)
    for pruning in ("none", "ect", "distance", "both"):
        for prune_interval in (1, 100):
            for batch in (None, 64):
                det = CycleDetector(pruner=make_pruner(pruning),
                                    prune_interval=prune_interval)
                _feed_detector(det, stream, batch)
                assert det.counts == exact, (pruning, prune_interval, batch)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_pruning_never_changes_exact_counts_smoke(workload, seed):
    _assert_pruning_is_safe(workload, seed)


@pytest.mark.oracle
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_pruning_never_changes_exact_counts_full_sweep(workload, seed):
    _assert_pruning_is_safe(workload, seed)


# -- sharded collector -------------------------------------------------------


@pytest.mark.parametrize("sr", (1, 4))
@pytest.mark.parametrize("journal", (False, True))
def test_sharded_collector_batch_matches_per_op(sr, journal):
    for seed in range(8):
        history = random_history(seed)
        per_op = ShardedCollector(sampling_rate=sr, num_shards=4, seed=0,
                                  journal=journal)
        batched = ShardedCollector(sampling_rate=sr, num_shards=4, seed=0,
                                   journal=journal)
        edges_a = [e for op in history for e in per_op.handle(op)]
        edges_b = []
        for chunk in _chunks(history, 16):
            edges_b.extend(batched.handle_batch(chunk))
        # The batch path groups operations by shard, so inter-shard edge
        # order may differ; a key lives in exactly one shard, so the
        # multiset is the invariant.
        assert Counter(edges_a) == Counter(edges_b)
        assert per_op.stats == batched.stats
        if journal:
            # The batch path tickets operations shard group by shard
            # group, so cross-shard journal order inside one batch may
            # differ from arrival order.  Per-key (= per-shard) order is
            # the only order the bookkeeping and detector results depend
            # on — cycle totals are edge-multiset properties and
            # classify_two_cycle is symmetric — so the invariant is:
            # identical per-shard event subsequences.
            def by_shard(collector, events):
                seqs = {}
                for _ticket, kind, payload, extra in events:
                    shard = (collector.shard_index(payload.key)
                             if kind == "op" else "lifecycle")
                    normalized = (kind, payload, tuple(extra or ()))
                    seqs.setdefault(shard, []).append(normalized)
                return seqs

            assert by_shard(per_op, per_op.drain_journal()) == \
                by_shard(batched, batched.drain_journal())


def test_sharded_collector_int_key_fast_path():
    """Interned (int) keys bucket by masked id on power-of-two shard
    counts, and by the splitmix hash otherwise — never by CRC of repr."""
    pow2 = ShardedCollector(num_shards=8)
    for kid in (0, 1, 7, 8, 123456):
        assert pow2.shard_index(kid) == kid & 7
    odd = ShardedCollector(num_shards=3)
    for kid in (0, 1, 7, 8, 123456):
        assert 0 <= odd.shard_index(kid) < 3
    # bool is an int subclass but must not take the masked path silently
    # differing from equal string keys; just check it stays in range.
    assert 0 <= pow2.shard_index(True) < 8


# -- serial monitor ----------------------------------------------------------


def _feed_monitor(monitor, history, batch=None):
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun = set()
    buf = []
    for i, op in enumerate(history):
        if op.buu not in begun:
            if buf and batch is not None:
                for chunk in _chunks(buf, batch):
                    monitor.on_operations(chunk)
                buf = []
            begun.add(op.buu)
            monitor.begin_buu(op.buu, op.seq)
        if batch is None:
            monitor.on_operation(op)
        else:
            buf.append(op)
        if last_index[op.buu] == i:
            if buf:
                for chunk in _chunks(buf, batch):
                    monitor.on_operations(chunk)
                buf = []
            monitor.commit_buu(op.buu, op.seq)


@pytest.mark.parametrize("batch", BATCH_SIZES)
def test_rushmon_on_operations_matches_per_op(batch):
    for seed in range(8):
        history = random_history(seed)
        config = RushMonConfig(sampling_rate=2, mob=True, seed=0)
        per_op = RushMon(config)
        batched = RushMon(RushMonConfig(sampling_rate=2, mob=True, seed=0))
        _feed_monitor(per_op, history)
        _feed_monitor(batched, history, batch=batch)
        assert per_op.detector.counts == batched.detector.counts
        assert per_op.detector.patterns.counts == \
            batched.detector.patterns.counts
        assert per_op.collector.stats == batched.collector.stats
        report_a = per_op.close_window()
        report_b = batched.close_window()
        assert report_a.operations == report_b.operations
        assert report_a.estimated_2 == report_b.estimated_2
        assert report_a.estimated_3 == report_b.estimated_3


# -- service: batch size configuration + checkpoint --------------------------


def test_service_batch_size_validation():
    with pytest.raises(ValueError, match="batch_size"):
        RushMonConfig(batch_size=0)
    with pytest.raises(ValueError, match="batch_size"):
        RushMonConfig(batch_size="16")


def test_service_checkpoint_round_trips_batch_size(tmp_path):
    config = RushMonConfig(sampling_rate=1, seed=0, num_shards=2,
                           batch_size=7)
    service = RushMonService(config)
    ops = [Operation(OpType.WRITE if i % 2 else OpType.READ,
                     buu=i % 4, key=f"k{i % 8}", seq=i + 1)
           for i in range(64)]
    for b in range(4):
        service.begin_buu(b, 0)
    service.on_operations(ops)
    service.close_window()
    path = tmp_path / "ckpt.json"
    service.checkpoint(str(path))
    restored = RushMonService.restore(str(path))
    assert restored.batch_size == 7
    assert restored.counts() == service.counts()
    # and the restored service keeps ingesting in batches
    more = [Operation(OpType.WRITE, buu=1, key="k1", seq=100 + i)
            for i in range(10)]
    restored.on_operations(more)
    restored.close_window()


@pytest.mark.parametrize("batch_size", (1, 3, 256))
def test_service_batched_ingest_matches_unbatched(batch_size):
    """The same stream through services with different batch sizes must
    produce identical cumulative counts (single-threaded: the batched
    journal/detect path is exactly order-preserving)."""
    history = random_history(11)
    results = []
    for size in (batch_size, 10_000):
        service = RushMonService(RushMonConfig(sampling_rate=1, seed=0,
                                               num_shards=4,
                                               batch_size=size))
        last_index = {op.buu: i for i, op in enumerate(history)}
        begun = set()
        for i, op in enumerate(history):
            if op.buu not in begun:
                begun.add(op.buu)
                service.begin_buu(op.buu, op.seq)
            service.on_operations([op])
            if last_index[op.buu] == i:
                service.commit_buu(op.buu, op.seq)
        service.close_window()
        results.append((service.counts(), service.cumulative_estimates()))
        service.stop()
    assert results[0] == results[1]


# -- interner ----------------------------------------------------------------


def test_key_interner_dense_ids_and_roundtrip():
    interner = KeyInterner()
    ids = [interner.intern(k) for k in ("a", "b", "a", "c", "b")]
    assert ids == [0, 1, 0, 2, 1]
    assert len(interner) == 3
    assert "a" in interner and "z" not in interner
    assert [interner.key_of(i) for i in range(3)] == ["a", "b", "c"]
    assert interner.intern_many(["c", "d"]) == [2, 3]

    clone = KeyInterner()
    clone.load_state(interner.to_state())
    assert clone.intern("e") == 4
    assert clone.key_of(3) == "d"


# -- active time ---------------------------------------------------------------


def test_active_time_matches_naive_min_under_churn():
    rng = random.Random(42)
    graph = LiveGraph()
    next_buu = 0
    alive = []
    for step in range(2000):
        if alive and rng.random() < 0.4:
            buu = alive.pop(rng.randrange(len(alive)))
            graph.commit(buu, step)
        else:
            graph.begin(next_buu, step)
            alive.append(next_buu)
            next_buu += 1
        expected = (min(graph.starts[b] for b in alive)
                    if alive else float(step))
        assert graph.active_time(default=step) == expected


def test_wal_detector_roundtrip_preserves_active_time():
    det = CycleDetector()
    det.begin_buu(1, 5)
    det.begin_buu(2, 9)
    det.add_edge(Edge(1, 2, EdgeType.WR, "k", 10))
    det.commit_buu(1, 11)
    clone = CycleDetector()
    decode_detector_state(clone, encode_detector_state(det))
    assert clone.graph.active_time() == det.graph.active_time() == 9.0
    clone.commit_buu(2, 12)
    clone.begin_buu(3, 20)
    assert clone.graph.active_time() == 20.0
