"""Random concurrent-history generation shared by the differential,
estimator-unbiasedness and concurrency-stress tests.

Histories vary BUU count, key-space size, key skew and read/write mix by
seed, and are delivered with full BUU lifecycle events (``begin`` before
a BUU's first operation, ``commit`` after its last) so detector pruning
runs under the same assumptions the simulator guarantees.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from repro.core.types import Operation
from repro.storage.history import BuuProgram, interleaved_history


def skewed_key(rng: random.Random, num_keys: int, skew: float) -> str:
    """Power-law key pick: ``skew=1`` is uniform, larger concentrates
    mass on low indices (hot keys)."""
    return f"k{int(num_keys * (rng.random() ** skew))}"


def random_history(
    seed: int,
    num_buus: int | None = None,
    num_keys: int | None = None,
    ops_per_buu: int | None = None,
    write_frac: float | None = None,
    skew: float | None = None,
) -> list[Operation]:
    """A randomly interleaved multi-BUU history; unspecified parameters
    are drawn from the seed so a seed range sweeps diverse workloads."""
    rng = random.Random(seed)
    num_buus = num_buus if num_buus is not None else rng.choice([20, 50, 90, 140])
    num_keys = num_keys if num_keys is not None else rng.choice([4, 8, 16, 32])
    ops_per_buu = ops_per_buu if ops_per_buu is not None else rng.randrange(2, 6)
    write_frac = write_frac if write_frac is not None else rng.choice([0.3, 0.5, 0.7])
    skew = skew if skew is not None else rng.choice([1.0, 2.0, 3.0])
    programs = []
    for buu in range(num_buus):
        prog = BuuProgram(buu)
        for _ in range(ops_per_buu):
            key = skewed_key(rng, num_keys, skew)
            (prog.write if rng.random() < write_frac else prog.read)(key)
        programs.append(prog)
    return interleaved_history(programs, rng)


def feed_with_lifecycle(listeners: Iterable, history: Sequence[Operation]) -> None:
    """Deliver ``history`` to listeners with begin/commit lifecycle events
    (begin at a BUU's first op, commit at its last)."""
    listeners = list(listeners)
    last_index = {op.buu: i for i, op in enumerate(history)}
    begun: set[int] = set()
    for i, op in enumerate(history):
        if op.buu not in begun:
            begun.add(op.buu)
            for listener in listeners:
                handler = getattr(listener, "begin_buu", None)
                if handler is not None:
                    handler(op.buu, op.seq)
        for listener in listeners:
            handler = getattr(listener, "on_operation", None)
            if handler is not None:
                handler(op)
        if last_index[op.buu] == i:
            for listener in listeners:
                handler = getattr(listener, "commit_buu", None)
                if handler is not None:
                    handler(op.buu, op.seq)


def count_delivered_lifecycle(monkeypatch) -> None:
    """Make every :class:`~repro.core.detector.CycleDetector` count the
    begin/commit calls it receives (``lifecycle_calls``): what an
    in-process front end *delivered*."""
    from repro.core.detector import CycleDetector

    for name in ("begin_buu", "commit_buu"):
        def counted(self, buu, when, _original=getattr(CycleDetector, name)):
            self.lifecycle_calls = getattr(self, "lifecycle_calls", 0) + 1
            return _original(self, buu, when)
        monkeypatch.setattr(CycleDetector, name, counted)


def assert_lifecycle_reconciles(monitor, offered, delivered=None, shed=0):
    """*offered = delivered + elided + parked (+ shed)* over the
    begin/commit events offered to ``monitor``, whatever its front end;
    returns ``(elided, parked)``.  ``delivered`` defaults to what
    reached the sink: the router's broadcasts, else the calls its
    detector received (:func:`count_delivered_lifecycle`; every
    journaled record, once a window closed)."""
    gate = getattr(monitor, "lifecycle", None) or monitor.collector.lifecycle
    if delivered is None:
        delivered = (monitor.lifecycle_broadcasts
                     if hasattr(monitor, "lifecycle_broadcasts")
                     else getattr(monitor.detector, "lifecycle_calls", 0))
    assert offered == delivered + gate.elided + gate.num_parked + shed
    return gate.elided, gate.num_parked
