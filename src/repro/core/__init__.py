"""RushMon core: collectors, estimator, detector, pruning, monitor."""

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
    AnomalyController,
    ControllerDecision,
    DEFAULT_LADDER,
)
from repro.core.detector import CycleDetector, LiveGraph
from repro.core.estimator import (
    estimate_edge_sampled_three_cycles,
    estimate_edge_sampled_two_cycles,
    estimate_three_cycles,
    estimate_two_cycles,
)
from repro.core.monitor import OfflineAnomalyMonitor, RushMon, WindowTracker
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

