"""RushMon core: collectors, estimator, detector, pruning, monitor.

Every public name is resolved on first access (:mod:`repro._lazy`), so
``import repro.core.config`` — the first thing every CLI verb, ``serve``
child and cluster worker runs — loads that module and not the
controller, the prediction helpers, the sharded collector or the
frontier that only some processes use (DESIGN.md §13.2).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # what the names below resolve to, for tools that read
    from repro.core.api import AnomalyMonitor, MonitorListener
    from repro.core.collector import (
        BaselineCollector,
        Collector,
        CollectorShard,
        DataCentricCollector,
        EdgeSamplingCollector,
        ItemSampler,
    )
    from repro.core.concurrent import RushMonService, ShardedCollector
    from repro.core.config import RushMonConfig
    from repro.core.controller import (
        DEFAULT_LADDER,
        AnomalyController,
        ControllerDecision,
    )
    from repro.core.detector import CycleDetector, LiveGraph
    from repro.core.estimator import (
        estimate_edge_sampled_three_cycles,
        estimate_edge_sampled_two_cycles,
        estimate_three_cycles,
        estimate_two_cycles,
    )
    from repro.core.monitor import (
        OfflineAnomalyMonitor,
        RushMon,
        WindowTracker,
    )
    from repro.core.patterns import (
        AnomalyPattern,
        PatternCounts,
        classify_two_cycle,
    )
    from repro.core.prediction import rank_correlation
    from repro.core.pruning import (
        DistancePruning,
        EctPruning,
        NoPruning,
        Pruner,
        make_pruner,
    )
    from repro.core.types import (
        AnomalyReport,
        BuuId,
        CycleCounts,
        Edge,
        EdgeStats,
        EdgeType,
        Key,
        Operation,
        OpType,
    )

__getattr__ = lazy_exports(globals(), {
    "AnomalyMonitor": "repro.core.api",
    "MonitorListener": "repro.core.api",
    "BaselineCollector": "repro.core.collector",
    "Collector": "repro.core.collector",
    "CollectorShard": "repro.core.collector",
    "DataCentricCollector": "repro.core.collector",
    "EdgeSamplingCollector": "repro.core.collector",
    "ItemSampler": "repro.core.collector",
    "RushMonService": "repro.core.concurrent.service",
    "ShardedCollector": "repro.core.concurrent.sharded",
    "RushMonConfig": "repro.core.config",
    "AnomalyController": "repro.core.controller",
    "ControllerDecision": "repro.core.controller",
    "DEFAULT_LADDER": "repro.core.controller",
    "CycleDetector": "repro.core.detector",
    "LiveGraph": "repro.core.detector",
    "estimate_edge_sampled_three_cycles": "repro.core.estimator",
    "estimate_edge_sampled_two_cycles": "repro.core.estimator",
    "estimate_three_cycles": "repro.core.estimator",
    "estimate_two_cycles": "repro.core.estimator",
    "OfflineAnomalyMonitor": "repro.core.monitor",
    "RushMon": "repro.core.monitor",
    "WindowTracker": "repro.core.monitor",
    "AnomalyPattern": "repro.core.patterns",
    "PatternCounts": "repro.core.patterns",
    "classify_two_cycle": "repro.core.patterns",
    "rank_correlation": "repro.core.prediction",
    "DistancePruning": "repro.core.pruning",
    "EctPruning": "repro.core.pruning",
    "NoPruning": "repro.core.pruning",
    "Pruner": "repro.core.pruning",
    "make_pruner": "repro.core.pruning",
    "AnomalyReport": "repro.core.types",
    "BuuId": "repro.core.types",
    "CycleCounts": "repro.core.types",
    "Edge": "repro.core.types",
    "EdgeStats": "repro.core.types",
    "EdgeType": "repro.core.types",
    "Key": "repro.core.types",
    "Operation": "repro.core.types",
    "OpType": "repro.core.types",
})

__all__ = [
    "AnomalyMonitor",
    "MonitorListener",
    "BaselineCollector",
    "Collector",
    "CollectorShard",
    "DataCentricCollector",
    "EdgeSamplingCollector",
    "ItemSampler",
    "RushMonService",
    "ShardedCollector",
    "WindowTracker",
    "RushMonConfig",
    "AnomalyController",
    "ControllerDecision",
    "DEFAULT_LADDER",
    "AnomalyPattern",
    "PatternCounts",
    "classify_two_cycle",
    "rank_correlation",
    "CycleDetector",
    "LiveGraph",
    "estimate_edge_sampled_three_cycles",
    "estimate_edge_sampled_two_cycles",
    "estimate_three_cycles",
    "estimate_two_cycles",
    "OfflineAnomalyMonitor",
    "RushMon",
    "DistancePruning",
    "EctPruning",
    "NoPruning",
    "Pruner",
    "make_pruner",
    "AnomalyReport",
    "BuuId",
    "CycleCounts",
    "Edge",
    "EdgeStats",
    "EdgeType",
    "Key",
    "Operation",
    "OpType",
]
