"""Multi-process sharded monitor cluster behind one AnomalyMonitor.

``repro.cluster`` scales the monitor across *processes* the way
``repro.core.concurrent`` scales it across threads: N spawn-safe worker
processes each own a key-range shard of collector+detector, a router
facade (:class:`ClusterMonitor`) key-hashes events to workers over the
:mod:`repro.net` framing, workers exchange the edges they derive so
cross-shard transactions still close cycles, and window reports merge
by summing raw per-shard components (Theorem 5.2 estimator linearity).
At ``sr = 1`` with ``mob=False`` the merged counts are bit-exact
against the serial monitor and the exact offline checkers — the cluster
differential in ``tests/test_cluster.py`` pins this.

See :mod:`repro.cluster.monitor` for the facade,
:mod:`repro.cluster.worker` for the merge that makes the partition
exact, and :mod:`repro.cluster.process` for the worker processes.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cluster.monitor import ClusterMonitor
    from repro.cluster.process import worker_main
    from repro.cluster.worker import ClusterWorker

# A worker process imports repro.cluster.process and .worker only: the
# router (and the metrics wiring) is the parent's.
__getattr__ = lazy_exports(globals(), {
    "ClusterMonitor": "repro.cluster.monitor",
    "ClusterWorker": "repro.cluster.worker",
    "worker_main": "repro.cluster.process",
})

__all__ = ["ClusterMonitor", "ClusterWorker", "worker_main"]
