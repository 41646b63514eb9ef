"""Differential tests for the vectorized columnar ingest path.

The contract: feeding :class:`~repro.core.columnar.OpBatch` batches
through ``DataCentricCollector.handle_batch`` /
``CycleDetector.add_edge_batch`` is **bit-identical** to the per-op
protocol — same edges in the same order (raw-key labels), same
counters, same per-item bookkeeping, same RNG end state — at every
sampling rate, with and without MOB.  Without numpy every assertion
still holds because the columnar entry points degrade to ``to_ops()``
(the no-numpy CI leg runs this file unchanged).

Coverage:

- collector differential across sr x mob x batch size (edges, stats,
  RNG state);
- sr=1 bit-exactness of a ``columnar=True`` :class:`RushMon` against
  the per-op monitor *and* the independent exact checker on all three
  paper workloads (smoke subset in tier-1, 20 seeds under ``oracle``);
- sampled-mode unbiasedness: the Theorem 5.2 estimator through the
  columnar MOB kernel lands within 3 sigma of the checker's exact
  counts over independent sampler seeds;
- hypothesis round-trip ``OpBatch.from_ops(ops).to_ops() == ops`` over
  shrinkable interleavings;
- the codec-2 wire splitter ``OpBatch.from_wire`` (ops + lifecycle,
  frame key table interned once);
- cluster routing: ``ClusterMonitor.on_operations(OpBatch)`` produces
  the same merged counts/report as per-op record routing.
"""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given

from repro.checkers import exact_cycle_counts
from repro.core.collector import DataCentricCollector
from repro.core.columnar import HAVE_NUMPY, EdgeBatch, OpBatch
from repro.core.config import RushMonConfig
from repro.core.detector import CycleDetector
from repro.core.monitor import RushMon
from repro.core.types import KeyInterner, Operation, OpType
from repro.net import protocol

from tests.histgen import feed_with_lifecycle, random_history
from tests.strategies import interleavings
from tests.test_batch_equivalence import _chunks, _rng_states
from tests.test_checkers_differential import (
    WORKLOADS,
    monitor_counts,
    workload_history,
)

COLUMNAR_SMOKE_SEEDS = (0, 7, 13)
COLUMNAR_FULL_SEEDS = range(20)


def _edges(result):
    """Normalize a ``handle_batch`` result (list of ``Edge`` or an
    :class:`EdgeBatch`) to raw-key ``Edge`` objects."""
    return result.to_edges() if isinstance(result, EdgeBatch) else result


# -- collector: OpBatch ingest == per-op ingest, bit for bit -----------------


@pytest.mark.parametrize("mob", [False, True])
@pytest.mark.parametrize("sr", (1, 2, 8))
@pytest.mark.parametrize("batch", (1, 7, 256))
def test_collector_columnar_bit_identical(mob, sr, batch):
    for seed in range(12):
        history = random_history(seed)
        per_op = DataCentricCollector(sampling_rate=sr, mob=mob, seed=0)
        columnar = DataCentricCollector(sampling_rate=sr, mob=mob, seed=0)
        interner = KeyInterner()
        edges_a: list = []
        edges_b: list = []
        for chunk in _chunks(history, batch):
            edges_a.extend(per_op.handle_batch(chunk))
            edges_b.extend(_edges(columnar.handle_batch(
                OpBatch.from_ops(chunk, interner))))
        assert edges_a == edges_b
        assert per_op.stats == columnar.stats
        assert per_op.touches == columnar.touches
        assert per_op.ops_seen == columnar.ops_seen
        assert per_op.total_reads == columnar.total_reads
        assert per_op.discarded_reads == columnar.discarded_reads
        assert _rng_states(per_op) == _rng_states(columnar)


def test_edge_batch_kind_tallies_match_rows():
    history = random_history(4)
    columnar = DataCentricCollector(sampling_rate=1, mob=True, seed=0)
    result = columnar.handle_batch(OpBatch.from_ops(history))
    edges = _edges(result)
    if isinstance(result, EdgeBatch):
        from repro.core.types import EdgeType

        assert result.wr == sum(e.kind is EdgeType.WR for e in edges)
        assert result.ww == sum(e.kind is EdgeType.WW for e in edges)
        assert result.rw == sum(e.kind is EdgeType.RW for e in edges)
        assert len(result) == len(edges)
        assert result.tuple_rows() == [tuple(e) for e in edges]


def test_detector_accepts_edge_batch_like_edge_list():
    for seed in range(6):
        history = random_history(seed)
        col = DataCentricCollector(sampling_rate=1, mob=True, seed=0)
        batch = col.handle_batch(OpBatch.from_ops(history))
        det_a = CycleDetector()
        det_b = CycleDetector()
        det_a.add_edge_batch(_edges(batch))
        det_b.add_edge_batch(batch)
        assert det_a.counts == det_b.counts
        assert det_a.patterns.counts == det_b.patterns.counts
        assert list(det_a.graph.edges()) == list(det_b.graph.edges())
        assert det_a.graph.edge_count == det_b.graph.edge_count


# -- monitor: columnar config vs per-op monitor vs exact checker -------------


def _columnar_monitor(history, *, sampling_rate=1, mob=False, seed=0,
                      batch=256):
    monitor = RushMon(RushMonConfig(sampling_rate=sampling_rate, mob=mob,
                                    seed=seed, columnar=True))
    _feed_batched(monitor, history, batch)
    return monitor


def _feed_batched(monitor, history, batch):
    """Deliver lifecycle per-BUU plus operations in ``batch``-sized
    ``on_operations`` calls (flushing before each lifecycle event, so
    detector ordering matches the per-op feed)."""
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun: set = set()
    buf: list = []

    def flush():
        while buf:
            monitor.on_operations(buf[:batch])
            del buf[:batch]

    for i, op in enumerate(history):
        if op.buu not in begun:
            flush()
            begun.add(op.buu)
            monitor.begin_buu(op.buu, op.seq)
        buf.append(op)
        if last_index[op.buu] == i:
            flush()
            monitor.commit_buu(op.buu, op.seq)
    flush()


def _assert_columnar_bit_exact(history):
    exact = exact_cycle_counts(history)
    per_op = monitor_counts(history)
    columnar = _columnar_monitor(history)
    assert columnar.detector.counts == per_op.detector.counts == exact
    assert columnar.cumulative_estimates() == per_op.cumulative_estimates()
    assert columnar.collector.stats == per_op.collector.stats


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", COLUMNAR_SMOKE_SEEDS)
def test_sr1_columnar_bit_exact_smoke(workload, seed):
    """Tier-1 subset of the sweep (the oracle job runs all 20 seeds)."""
    _assert_columnar_bit_exact(workload_history(workload, seed))


@pytest.mark.oracle
@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", COLUMNAR_FULL_SEEDS)
def test_sr1_columnar_bit_exact_full_sweep(workload, seed):
    """The acceptance sweep: all three paper workloads x 20 seeds, the
    columnar monitor's sr=1 counts equal the per-op monitor's and the
    independent exact checker's."""
    _assert_columnar_bit_exact(workload_history(workload, seed))


@pytest.mark.oracle
@pytest.mark.parametrize("sr", [2, 4])
def test_columnar_estimator_unbiased_against_checker(sr):
    """Theorem 5.2 through the columnar full-bookkeeping kernel: over
    independent sampler seeds the estimate's mean lands within 3
    standard errors of the exact checker's 2-/3-cycle counts.  Like the
    per-op unbiasedness test this runs ``mob=False`` — the MOB
    reservoir's rw discard correction is approximate by design, and the
    columnar MOB kernel is covered by bit-exactness against the per-op
    MOB path instead."""
    history = random_history(5, num_buus=140, num_keys=8, ops_per_buu=5)
    exact = exact_cycle_counts(history)
    assert exact.two_cycles > 0 and exact.three_cycles > 0
    trials = 150
    e2s, e3s = [], []
    for trial in range(trials):
        monitor = _columnar_monitor(history, sampling_rate=sr, mob=False,
                                    seed=trial, batch=128)
        e2, e3 = monitor.cumulative_estimates()
        e2s.append(e2)
        e3s.append(e3)
    for estimates, truth in ((e2s, exact.two_cycles),
                             (e3s, exact.three_cycles)):
        mean = statistics.fmean(estimates)
        stderr = statistics.stdev(estimates) / trials ** 0.5
        assert abs(mean - truth) <= 3 * max(stderr, 1e-9), (
            f"sr={sr}: mean {mean:.2f} vs exact {truth} "
            f"(stderr {stderr:.3f})"
        )


def test_sampled_columnar_matches_sampled_per_op():
    """Cheap tier-1 stand-in for the statistical sweep: at sr=4 the
    columnar monitor is *bit-exact* against the per-op monitor (the
    sampler is a pure function of the key and the MOB RNG draw order is
    preserved), so unbiasedness transfers from the per-op proofs."""
    for seed in range(6):
        history = random_history(seed)
        per_op = monitor_counts(history, sampling_rate=4, mob=True,
                                seed=seed)
        columnar = _columnar_monitor(history, sampling_rate=4, mob=True,
                                     seed=seed, batch=64)
        assert columnar.detector.counts == per_op.detector.counts
        assert columnar.cumulative_estimates() == \
            per_op.cumulative_estimates()


# -- round trips -------------------------------------------------------------


@given(history=interleavings(max_buus=5, max_steps=4, max_keys=3))
def test_opbatch_roundtrip_is_identity(history):
    assert OpBatch.from_ops(history).to_ops() == history


def test_opbatch_from_events_matches_from_ops():
    history = random_history(9)
    records = protocol.encode_events(history)
    a = OpBatch.from_ops(history)
    b = OpBatch.from_events(records)
    assert a.to_ops() == b.to_ops() == history
    assert a.max_seq() == b.max_seq() == max(op.seq for op in history)


def test_opbatch_from_wire_splits_ops_and_lifecycle():
    """The codec-2 server path: a packed frame with interleaved
    lifecycle rows splits into an op batch (global kids through the
    shared interner) plus lifecycle tuples in frame order."""
    ops = [Operation(OpType.WRITE, 1, "k1", 2),
           Operation(OpType.READ, 2, "k2", 3),
           Operation(OpType.WRITE, 2, "k1", 5)]
    records = [protocol.wire_begin(1, 1), protocol.wire_op(ops[0]),
               protocol.wire_begin(2, 2), protocol.wire_op(ops[1]),
               protocol.wire_op(ops[2]), protocol.wire_commit(1, 6),
               protocol.wire_commit(2, 7)]
    wire = protocol.encode_frame(protocol.batch("s", 1, records),
                                 protocol.CODEC_COLUMNAR)
    (message,) = protocol.FrameReader().feed(wire)
    events = message["events"]
    assert isinstance(events, protocol.ColumnarEvents)
    interner = KeyInterner()
    interner.intern("already-there")  # global ids != frame indices
    batch, lifecycle = OpBatch.from_wire(events, interner)
    assert batch.to_ops() == ops
    assert batch.interner is interner
    assert lifecycle == [("b", 1, 1), ("b", 2, 2), ("c", 1, 6), ("c", 2, 7)]
    assert batch.max_seq() == 5

    # An all-op frame takes the no-mask fast path.
    wire = protocol.encode_frame(
        protocol.batch("s", 2, protocol.encode_events(ops)),
        protocol.CODEC_COLUMNAR)
    (message,) = protocol.FrameReader().feed(wire)
    batch, lifecycle = OpBatch.from_wire(message["events"], interner)
    assert batch.to_ops() == ops
    assert lifecycle == []


# -- cluster routing ---------------------------------------------------------


@pytest.mark.cluster
def test_cluster_op_batch_routing_matches_per_op():
    """``on_operations(OpBatch)`` routes through the per-kid owner
    cache; merged counts, estimates and the window report must equal
    per-op record routing exactly."""
    from repro.cluster import ClusterMonitor

    history = random_history(3, num_buus=90, num_keys=16)
    config = RushMonConfig(sampling_rate=1, mob=False, num_workers=2)
    with ClusterMonitor(config) as per_op:
        feed_with_lifecycle([per_op], history)
        with ClusterMonitor(config) as columnar:
            interner = KeyInterner()
            last_index = {op.buu: i for i, op in enumerate(history)}
            begun: set = set()
            buf: list = []

            def flush():
                if buf:
                    columnar.on_operations(OpBatch.from_ops(buf, interner))
                    buf.clear()

            for i, op in enumerate(history):
                if op.buu not in begun:
                    flush()
                    begun.add(op.buu)
                    columnar.begin_buu(op.buu, op.seq)
                buf.append(op)
                if len(buf) >= 64:
                    flush()
                if last_index[op.buu] == i:
                    flush()
                    columnar.commit_buu(op.buu, op.seq)
            flush()
            assert columnar.counts() == per_op.counts()
            assert columnar.cumulative_estimates() == \
                per_op.cumulative_estimates()
            assert columnar.ops_routed == per_op.ops_routed
            assert columnar.close_window() == per_op.close_window()


# -- checker: columnar grouping == dict-of-lists grouping --------------------


def test_checker_columnar_grouping_matches_python(monkeypatch):
    """`derive_dependency_edges` routes grouping through the columnar
    builder when numpy is present; edges, stats and observations must
    be element-for-element identical to the pure-python layout (the
    golden-corpus suites assert the counts stay put on real traces)."""
    from repro.checkers import checker

    for seed in range(10):
        history = random_history(seed)
        got = checker.derive_dependency_edges(history)
        with monkeypatch.context() as m:
            m.setattr(checker, "_columnar_key_groups", lambda ops: None)
            want = checker.derive_dependency_edges(history)
        assert got == want


def test_checker_falls_back_on_uncolumnable_history():
    """Non-integer BUUs don't fit int64 columns; the checker must keep
    the pure-python layout instead of failing."""
    from repro.checkers import checker

    ops = [Operation(OpType.WRITE, "t1", "k", 1),
           Operation(OpType.READ, "t2", "k", 2),
           Operation(OpType.WRITE, "t3", "k", 3)]
    edges, stats, observations = checker.derive_dependency_edges(ops)
    assert stats.wr == 1 and stats.rw == 1
    assert [(e.src, e.dst) for e in edges] == [("t1", "t2"), ("t2", "t3")]
    assert len(observations) == 1


# -- fallback sanity ---------------------------------------------------------


def test_opbatch_columns_are_lists_without_numpy():
    batch = OpBatch.from_ops(random_history(1))
    if HAVE_NUMPY:
        assert not isinstance(batch.op, list)
    else:
        assert isinstance(batch.op, list)
        assert isinstance(batch.kid, list)
