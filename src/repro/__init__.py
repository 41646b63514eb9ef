"""RushMon reproduction: real-time isolation anomalies monitoring.

The blessed public surface is re-exported here (and enumerated in
``__all__`` — ``tests/test_public_api.py`` asserts every name resolves
and that the protocol verbs stay in sync with DESIGN.md's API table).
Everything else is importable but considered internal layout that may
move between releases.

The monitor family, all conforming to
:class:`~repro.core.api.AnomalyMonitor`:

- :class:`RushMon` — the serial in-process monitor (§5);
- :class:`RushMonService` — thread-safe sharded ingestion with a
  background detection pass;
- :class:`ClusterMonitor` — N worker *processes* behind one facade
  (:mod:`repro.cluster`);
- :class:`OfflineAnomalyMonitor` — the exact §4 baseline.

All are constructed from one :class:`RushMonConfig`.

``import repro`` itself loads none of them: each name is resolved on
first access (:mod:`repro._lazy`), so a process pays for the monitor
it builds — a ``serve`` child never imports ``multiprocessing``, a
cluster worker never imports the router.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what the names below resolve to, for tools that read
    from repro.cluster import ClusterMonitor
    from repro.core.api import AnomalyMonitor, MonitorListener
    from repro.core.concurrent import RushMonService
    from repro.core.config import RushMonConfig
    from repro.core.monitor import OfflineAnomalyMonitor, RushMon
    from repro.core.types import (
        AnomalyReport,
        CycleCounts,
        Edge,
        EdgeStats,
        EdgeType,
        Operation,
        OpType,
    )

__getattr__ = lazy_exports(globals(), {
    "AnomalyMonitor": "repro.core.api",
    "AnomalyReport": "repro.core.types",
    "ClusterMonitor": "repro.cluster",
    "CycleCounts": "repro.core.types",
    "Edge": "repro.core.types",
    "EdgeStats": "repro.core.types",
    "EdgeType": "repro.core.types",
    "MonitorListener": "repro.core.api",
    "OfflineAnomalyMonitor": "repro.core.monitor",
    "OpType": "repro.core.types",
    "Operation": "repro.core.types",
    "RushMon": "repro.core.monitor",
    "RushMonConfig": "repro.core.config",
    "RushMonService": "repro.core.concurrent",
})

__version__ = "1.0.0"

__all__ = [
    "AnomalyMonitor",
    "AnomalyReport",
    "ClusterMonitor",
    "CycleCounts",
    "Edge",
    "EdgeStats",
    "EdgeType",
    "MonitorListener",
    "OfflineAnomalyMonitor",
    "OpType",
    "Operation",
    "RushMon",
    "RushMonConfig",
    "RushMonService",
    "__version__",
]
