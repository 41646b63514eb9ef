"""Tests for :class:`~repro.core.columnar.OpBatch`.

No monitor feeds an ``OpBatch`` (see :mod:`repro.core.columnar`); it is
kept for as long as the performance ledger times its builders.  Its
columns are numpy arrays or plain lists, and every test here holds
either way (the no-numpy CI leg runs this file unchanged).

Coverage:

- ``handle_batch(OpBatch.from_ops(chunk))`` equals ``handle_batch(chunk)``
  across sr x mob x batch size (edges, counters, RNG state): a batch
  is an iterable of operations and takes the same fused loop;
- the edge kinds a batch emits match the collector's tallies;
- sr=1 cycle counts of ``OpBatch`` ingest, counted by a detector,
  against the per-op monitor *and* the independent exact checker on all
  three paper workloads, plus one sampled MOB configuration against the
  per-op monitor;
- hypothesis round-trip ``OpBatch.from_ops(ops).to_ops() == ops`` (and
  ``list(batch) == ops``) over shrinkable interleavings;
- the codec-2 wire splitter ``OpBatch.from_wire`` (ops + lifecycle,
  frame key table interned once).
"""

from __future__ import annotations

import pytest
from hypothesis import given

from repro.checkers import exact_cycle_counts
from repro.core.collector import DataCentricCollector
from repro.core.columnar import HAVE_NUMPY, OpBatch
from repro.core.detector import CycleDetector
from repro.core.types import EdgeType, KeyInterner, Operation, OpType
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


# -- collector: OpBatch ingest == list ingest, bit for bit -------------------


@pytest.mark.parametrize("mob", [False, True])
@pytest.mark.parametrize("sr", (1, 2, 8))
@pytest.mark.parametrize("batch", (1, 7, 256))
def test_collector_columnar_bit_identical(mob, sr, batch):
    for seed in range(12):
        history = random_history(seed)
        listed = DataCentricCollector(sampling_rate=sr, mob=mob, seed=0)
        batched = DataCentricCollector(sampling_rate=sr, mob=mob, seed=0)
        interner = KeyInterner()
        rows_a: list = []
        rows_b: list = []
        for chunk in _chunks(history, batch):
            rows_a.extend(listed.handle_batch(chunk).rows())
            rows_b.extend(batched.handle_batch(
                OpBatch.from_ops(chunk, interner)).rows())
        assert rows_a == rows_b
        assert listed.stats == batched.stats
        assert listed.touches == batched.touches
        assert listed.ops_seen == batched.ops_seen
        assert listed.total_reads == batched.total_reads
        assert listed.discarded_reads == batched.discarded_reads
        assert _rng_states(listed) == _rng_states(batched)


def test_edge_batch_kind_tallies_match_rows():
    history = random_history(4)
    collector = DataCentricCollector(sampling_rate=1, mob=True, seed=0)
    kinds = collector.handle_batch(OpBatch.from_ops(history)).kind
    assert kinds
    assert collector.stats.wr == kinds.count(EdgeType.WR)
    assert collector.stats.ww == kinds.count(EdgeType.WW)
    assert collector.stats.rw == kinds.count(EdgeType.RW)
    assert collector.stats.total == len(kinds)


# -- OpBatch edges through a detector vs per-op monitor vs exact checker -----


def _batch_counts(history, *, sampling_rate=1, mob=False, seed=0,
                  batch=256):
    """Cycle counts of ``batch``-sized ``OpBatch`` chunks through one
    collector, edges into an unpruned detector (which needs no
    lifecycle to count exactly)."""
    collector = DataCentricCollector(sampling_rate=sampling_rate, mob=mob,
                                     seed=seed)
    detector = CycleDetector()
    interner = KeyInterner()
    for chunk in _chunks(history, batch):
        detector.add_edge_batch(collector.handle_batch(
            OpBatch.from_ops(chunk, interner)))
    return detector.counts, collector.stats


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", COLUMNAR_SMOKE_SEEDS)
def test_sr1_columnar_bit_exact_smoke(workload, seed):
    history = workload_history(workload, seed)
    exact = exact_cycle_counts(history)
    per_op = monitor_counts(history)
    counts, stats = _batch_counts(history)
    assert counts == per_op.detector.counts == exact
    assert stats == per_op.collector.stats


def test_sampled_columnar_matches_sampled_per_op():
    """At sr=4 with MOB, ``OpBatch`` ingest counts the same cycles as
    the per-op monitor: the sampler is a pure function of the key and
    the MOB RNG draw order is preserved."""
    for seed in range(6):
        history = random_history(seed)
        per_op = monitor_counts(history, sampling_rate=4, mob=True,
                                seed=seed)
        counts, stats = _batch_counts(history, sampling_rate=4, mob=True,
                                      seed=seed, batch=64)
        assert counts == per_op.detector.counts
        assert stats == per_op.collector.stats


# -- round trips -------------------------------------------------------------


@given(history=interleavings(max_buus=5, max_steps=4, max_keys=3))
def test_opbatch_roundtrip_is_identity(history):
    batch = OpBatch.from_ops(history)
    assert batch.to_ops() == history
    assert list(batch) == history


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
