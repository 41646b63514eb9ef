"""Concurrent RushMon: thread-safe ingestion + background detection.

The serial monitor (:mod:`repro.core.monitor`) assumes a single caller.
This package makes the monitor safe under real threads:

- :class:`RushMonService` — producers only journal (one ticketed record
  per batch, :mod:`repro.core.concurrent.journaled`); a *supervised*
  background thread (restart with exponential backoff, a circuit
  breaker into an explicit DEGRADED state) collects the journal in
  ticket order, runs the pruned cycle detector at a configurable window
  interval and publishes each window's
  :class:`~repro.core.types.AnomalyReport` via an atomic snapshot, with
  graceful ``start()``/``stop()`` drain semantics and checkpoint/restore
  crash recovery.
- :class:`ShardedCollector` — key-hash shards, one lock and one
  :class:`~repro.core.collector.CollectorShard` each, so writers on
  disjoint keys never contend and get their edges back; an optional
  ticket-ordered journal records the serialized execution.
- :class:`JournalBackpressure` — raised to producers when the bounded
  journal stays full past the block timeout (``overflow="block"``).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.concurrent.journaled import JournalBackpressure
    from repro.core.concurrent.service import RushMonService
    from repro.core.concurrent.sharded import ShardedCollector

# A service process loads no sharded collector (nor, through it, the
# frontier's key partition); see DESIGN.md §13.2.
__getattr__ = lazy_exports(globals(), {
    "JournalBackpressure": "repro.core.concurrent.journaled",
    "RushMonService": "repro.core.concurrent.service",
    "ShardedCollector": "repro.core.concurrent.sharded",
})

__all__ = ["JournalBackpressure", "RushMonService", "ShardedCollector"]
