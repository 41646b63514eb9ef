"""The serial monitor buffers what it is fed and walks it one way.

:class:`~repro.core.monitor.RushMon` appends a per-op call to a record
buffer (an operation on an unsampled item only bumps the open record's
``elided`` count) and walks the buffer with
:class:`~repro.core.monitor.RecordWalk` before any read of
state; ``on_operations`` appends its batch as one record and walks at
once.  So a per-op feed and a batched feed of one stream, read at the
same points, must agree on everything a caller can see: each read's
value, every closed report, the collector's counters and the metrics
gauges, pruning included.  (The streams' runs of operations stay under
``batch_size``; a longer run is split into ``batch_size`` records when
fed per op, which moves prune passes but no count.)  Streams come from
:mod:`tests.strategies`, so a disagreement shrinks to a handful of
events.
"""

from __future__ import annotations

from collections import defaultdict

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ItemSampler, RushMon, RushMonConfig
from repro.core.types import Operation, OpType

from tests.strategies import interleavings

SEED = 5
MAX_BUUS = 8
READS = ("close", "estimates", "cumulative", "detector", "collector",
         "metrics")


def _pool(sr):
    """Eight item names, alternately chosen and not by the sample at
    ``sr``, so a small stream exercises both branches of the probe."""
    chosen = ItemSampler(sr, SEED).chosen
    names = [f"item{i}" for i in range(500)]
    hit = [name for name in names if chosen(name)]
    miss = [name for name in names if not chosen(name)] or hit[4:]
    return [name for pair in zip(hit[:4], miss[:4]) for name in pair]


@st.composite
def _streams(draw):
    """Events of an interleaved history — each BUU begins at its first
    operation and commits at its last unless drawn to stay open — the
    points where state is read, and how often the detector prunes."""
    ops = draw(interleavings(max_buus=MAX_BUUS, max_steps=6, max_keys=8))
    still_open = draw(st.sets(st.integers(0, MAX_BUUS - 1)))
    last = {op.buu: i for i, op in enumerate(ops)}
    events, begun = [], set()
    for i, op in enumerate(ops):
        if op.buu not in begun:
            begun.add(op.buu)
            events.append(("begin", (op.buu, op.seq)))
        events.append(("op", op))
        if last[op.buu] == i and op.buu not in still_open:
            events.append(("commit", (op.buu, op.seq)))
    reads = draw(st.lists(st.tuples(st.integers(0, len(events)),
                                    st.sampled_from(READS)), max_size=6))
    prune_interval = draw(st.sampled_from((1, 4, 1000)))
    return events, reads, prune_interval


def _read(monitor, what):
    if what == "close":
        return monitor.close_window()
    if what == "estimates":
        return monitor.estimates()
    if what == "cumulative":
        return monitor.cumulative_estimates()
    if what == "detector":
        return monitor.detector.counts.copy()
    if what == "collector":
        collector = monitor.collector
        return collector.ops_seen, collector.touches, collector.stats.copy()
    monitor.detector  # a scrape reads the state of the last walk
    return monitor.metrics.snapshot()


def _drive(monitor, events, reads, batched):
    """Feed ``events`` one call per event, or with each run of operations
    between lifecycle events and reads as one ``on_operations`` call;
    what every read returned, then the end state."""
    at = defaultdict(list)
    for position, what in reads:
        at[position].append(what)
    run, seen = [], []

    def flush():
        if run:
            monitor.on_operations(list(run))
            run.clear()

    for position in range(len(events) + 1):
        for what in at[position]:
            flush()
            seen.append(_read(monitor, what))
        if position == len(events):
            break
        kind, payload = events[position]
        if kind == "op":
            if batched:
                run.append(payload)
            else:
                monitor.on_operation(payload)
            continue
        flush()
        if kind == "begin":
            monitor.begin_buu(*payload)
        else:
            monitor.commit_buu(*payload)
    flush()
    seen.append(monitor.close_window())
    collector = monitor.collector
    seen.append((collector.ops_seen, collector.touches, monitor.reports,
                 monitor.metrics.snapshot()))
    return seen


@pytest.mark.parametrize("resample", (None, 5), ids=("fixed", "resample5"))
@pytest.mark.parametrize("mob", (False, True), ids=("full", "mob"))
@pytest.mark.parametrize("sr", (1, 20))
@given(stream=_streams())
def test_per_op_and_batched_feeds_read_alike(sr, mob, resample, stream):
    events, reads, prune_interval = stream
    pool = _pool(sr)
    events = [(kind, payload._replace(key=pool[int(payload.key[1:])]))
              if kind == "op" else (kind, payload)
              for kind, payload in events]
    config = RushMonConfig(sampling_rate=sr, mob=mob, seed=SEED,
                           resample_interval=resample,
                           prune_interval=prune_interval)
    per_op = _drive(RushMon(config), events, reads, batched=False)
    batched = _drive(RushMon(config), events, reads, batched=True)
    assert per_op == batched
    ops = sum(kind == "op" for kind, _ in events)
    assert per_op[-1][0] == ops
    assert sum(report.operations for report in per_op[-1][2]) == ops


def test_a_per_op_lost_update_is_seen_before_any_commit():
    """Nothing has committed and no window has closed: a read still
    walks the buffered operations into the detector."""
    monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False))
    monitor.begin_buu(1, 0)
    monitor.begin_buu(2, 0)
    for op in (Operation(OpType.READ, 1, "x", 1),
               Operation(OpType.READ, 2, "x", 2),
               Operation(OpType.WRITE, 1, "x", 3),
               Operation(OpType.WRITE, 2, "x", 4)):
        monitor.on_operation(op)
    assert monitor.cumulative_estimates() == (1.0, 0.0)
    assert monitor.detector.counts.two_cycles == 1
    assert monitor.metrics.snapshot()["rushmon_detector_cycles_total"] == 1
