"""The unified monitor API: one listener protocol, one report surface.

The monitor classes — :class:`RushMon` (serial), :class:`RushMonService`
(concurrent), :class:`~repro.cluster.ClusterMonitor` (multi-process) and
:class:`OfflineAnomalyMonitor` (exact baseline) — share one surface, so
drivers and callers never need to know which flavour they hold:

- :class:`MonitorListener` — the *ingestion* protocol every monitor (and
  trace recorder) implements: BUU lifecycle plus the operation stream in
  storage visibility order.  The sim drivers
  (:class:`~repro.sim.scheduler.Simulator`,
  :class:`~repro.sim.scheduler.ThreadedWorkloadDriver`) and
  :meth:`~repro.sim.traces.Trace.replay` type their listeners against
  it.
- :class:`AnomalyMonitor` — the *reporting* protocol: windowed
  ``close_window()`` → :class:`~repro.core.types.AnomalyReport`, the
  ``reports`` history, ``latest_report()`` and lifetime
  ``cumulative_estimates()``.

Both protocols are ``runtime_checkable`` so conformance is testable
(``isinstance(monitor, MonitorListener)``), and the shared conformance
suite in ``tests/test_api_conformance.py`` runs every monitor through an
identical lifecycle via these methods only.
"""

from __future__ import annotations

from typing import Iterable, Protocol, runtime_checkable

from repro.core.types import AnomalyReport, BuuId, Operation

__all__ = ["MonitorListener", "AnomalyMonitor"]


@runtime_checkable
class MonitorListener(Protocol):
    """Ingestion surface: BUU lifecycle + visibility-ordered operations.

    Contract (mirrors the paper's §2.1 collector assumptions):

    - ``begin_buu`` precedes every operation of that BUU; ``commit_buu``
      follows its last write.  Times are logical clocks (simulator steps
      or journal tickets); implementations may ignore them but must
      accept them.
    - ``on_operation`` delivers each read/write in per-key storage
      visibility order.  ``on_operations`` is the batched convenience
      form with identical semantics.
    """

    def begin_buu(self, buu: BuuId, start_time: int | None = None) -> None:
        """A BUU started at ``start_time`` (logical clock)."""
        ...

    def commit_buu(self, buu: BuuId, commit_time: int | None = None) -> None:
        """A BUU committed at ``commit_time`` (its effects are visible)."""
        ...

    def on_operation(self, op: Operation) -> None:
        """Observe one read/write in its storage visibility order."""
        ...

    def on_operations(self, ops: Iterable[Operation]) -> None:
        """Observe a batch of operations, in order."""
        ...


@runtime_checkable
class AnomalyMonitor(MonitorListener, Protocol):
    """Reporting surface shared by all anomaly monitors.

    - ``close_window()`` closes the current monitoring window and
      returns its :class:`~repro.core.types.AnomalyReport` (``None`` if
      the implementation had nothing to report).
    - ``reports`` is the ordered history of closed windows.
    - ``latest_report()`` is the most recently closed window (an atomic
      snapshot on the concurrent service).
    - ``cumulative_estimates()`` is the lifetime unbiased ``(E2, E3)``
      estimate (exact counts for the offline baseline, where ``p = 1``).
    """

    reports: list[AnomalyReport]

    def close_window(self, now: int | None = None) -> AnomalyReport | None:
        """Close the current monitoring window; returns its report."""
        ...

    def latest_report(self) -> AnomalyReport | None:
        """The most recently closed window's report (``None`` if none)."""
        ...

    def cumulative_estimates(self) -> tuple[float, float]:
        """Unbiased ``(E2, E3)`` over everything observed so far."""
        ...
