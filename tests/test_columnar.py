"""Differential tests for the columnar collection kernel.

The contract: feeding :class:`~repro.core.columnar.OpBatch` batches
through ``DataCentricCollector.handle_batch`` is **bit-identical** to
the per-op protocol — same edges in the same order (raw-key labels),
same counters, same per-item bookkeeping, same RNG end state — at every
sampling rate, with and without MOB.  Without numpy every assertion
still holds because ``handle_batch`` degrades to ``to_ops()`` (the
no-numpy CI leg runs this file unchanged).

No monitor feeds the kernel (see :mod:`repro.core.columnar`); it is
pinned here for as long as the performance ledger times it.

Coverage:

- collector differential across sr x mob x batch size (edges, stats,
  RNG state);
- sr=1 bit-exactness of the kernel's edges, counted by a detector,
  against the per-op monitor *and* the independent exact checker on all
  three paper workloads (smoke subset in tier-1, 20 seeds under
  ``oracle``), plus one sampled MOB configuration against the per-op
  monitor;
- hypothesis round-trip ``OpBatch.from_ops(ops).to_ops() == ops`` over
  shrinkable interleavings;
- the codec-2 wire splitter ``OpBatch.from_wire`` (ops + lifecycle,
  frame key table interned once).
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.checkers import exact_cycle_counts
from repro.core.collector import DataCentricCollector
from repro.core.columnar import HAVE_NUMPY, EdgeBatch, OpBatch
from repro.core.detector import CycleDetector
from repro.core.types import KeyInterner, Operation, OpType
from repro.net import protocol

from tests.histgen import random_history
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


# -- kernel edges through a detector vs per-op monitor vs exact checker ------


def _kernel_counts(history, *, sampling_rate=1, mob=False, seed=0,
                   batch=256):
    """Cycle counts of the kernel's edge stream: ``batch``-sized
    ``OpBatch`` chunks through one collector, edges into an unpruned
    detector (which needs no lifecycle to count exactly)."""
    collector = DataCentricCollector(sampling_rate=sampling_rate, mob=mob,
                                     seed=seed)
    detector = CycleDetector()
    interner = KeyInterner()
    for chunk in _chunks(history, batch):
        detector.add_edge_batch(_edges(collector.handle_batch(
            OpBatch.from_ops(chunk, interner))))
    return detector.counts, collector.stats


def _assert_columnar_bit_exact(history):
    exact = exact_cycle_counts(history)
    per_op = monitor_counts(history)
    counts, stats = _kernel_counts(history)
    assert counts == per_op.detector.counts == exact
    assert stats == per_op.collector.stats


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
    kernel's sr=1 counts equal the per-op monitor's and the independent
    exact checker's."""
    _assert_columnar_bit_exact(workload_history(workload, seed))


def test_sampled_columnar_matches_sampled_per_op():
    """At sr=4 with MOB the kernel's counts are *bit-exact* against the
    per-op monitor's (the sampler is a pure function of the key and the
    MOB RNG draw order is preserved), so unbiasedness transfers from
    the per-op proofs."""
    for seed in range(6):
        history = random_history(seed)
        per_op = monitor_counts(history, sampling_rate=4, mob=True,
                                seed=seed)
        counts, stats = _kernel_counts(history, sampling_rate=4, mob=True,
                                       seed=seed, batch=64)
        assert counts == per_op.detector.counts
        assert stats == per_op.collector.stats


# -- round trips -------------------------------------------------------------


@given(history=interleavings(max_buus=5, max_steps=4, max_keys=3))
def test_opbatch_roundtrip_is_identity(history):
    assert OpBatch.from_ops(history).to_ops() == history


def test_opbatch_from_wire_splits_ops_and_lifecycle():
    """A packed codec-2 frame with interleaved lifecycle rows splits
    into an op batch (global kids through the shared interner) plus
    lifecycle tuples in frame order."""
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

    # An all-op frame: no lifecycle rows to split out.
    wire = protocol.encode_frame(
        protocol.batch("s", 2, protocol.encode_events(ops)),
        protocol.CODEC_COLUMNAR)
    (message,) = protocol.FrameReader().feed(wire)
    batch, lifecycle = OpBatch.from_wire(message["events"], interner)
    assert batch.to_ops() == ops
    assert lifecycle == []


# -- fallback sanity ---------------------------------------------------------


def test_opbatch_columns_are_lists_without_numpy():
    batch = OpBatch.from_ops(random_history(1))
    if HAVE_NUMPY:
        assert not isinstance(batch.op, list)
    else:
        assert isinstance(batch.op, list)
        assert isinstance(batch.kid, list)
