"""Per-key order is the contract, serial slice.

Edges are derived per item (Algorithm 1), so a history's dependency
graph depends only on each key's operation order and each BUU's program
order: every linear extension of the two has the history's exact
cycle counts.  The serial monitor must count them too, whatever
extension it is fed.  At sr=1 with MOB off its counts equal the exact
checker's on the original history, bit for bit, fed one call per event
or with each run of operations between lifecycle events as one
``on_operations`` call, under every pruner and prune cadence.

A BUU begins at its first operation and commits at its last.  Its
begin and commit carry either the caller's times (the ``seq`` of those
operations, which a reordering does not change) or times restamped to
arrival order; ECT compares these times, so both are drawn.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.checkers import exact_cycle_counts
from repro.core import RushMon, RushMonConfig

from tests.strategies import linear_extensions


def _events(arrival, restamp):
    """``arrival`` as begin / op / commit events, in arrival order."""
    first, last = {}, {}
    for at, op in enumerate(arrival, start=1):
        first.setdefault(op.buu, at)
        last[op.buu] = at
    events = []
    for at, op in enumerate(arrival, start=1):
        when = at if restamp else op.seq
        if first[op.buu] == at:
            events.append(("begin", op.buu, when))
        events.append(("op", op, None))
        if last[op.buu] == at:
            events.append(("commit", op.buu, when))
    return events


def _feed(monitor, events, batched):
    run = []
    for kind, what, when in events:
        if kind == "op":
            if batched:
                run.append(what)
            else:
                monitor.on_operation(what)
            continue
        if run:
            monitor.on_operations(run)
            run = []
        if kind == "begin":
            monitor.begin_buu(what, when)
        else:
            monitor.commit_buu(what, when)


@pytest.mark.parametrize("pruning", RushMonConfig.PRUNING_CHOICES)
@given(drawn=linear_extensions(max_buus=6, max_steps=5, max_keys=4),
       restamp=st.booleans(),
       prune_interval=st.sampled_from((1, 4, 1000)))
def test_every_linear_extension_counts_the_history_exactly(
        pruning, drawn, restamp, prune_interval):
    history, arrival = drawn
    exact = exact_cycle_counts(history)
    config = RushMonConfig(sampling_rate=1, mob=False, pruning=pruning,
                           prune_interval=prune_interval)
    events = _events(arrival, restamp)
    for batched in (False, True):
        monitor = RushMon(config)
        _feed(monitor, events, batched)
        assert monitor.detector.counts == exact, (batched, arrival)
