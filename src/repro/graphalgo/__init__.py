"""Graph-analytics substrate: async WCC and coloring (the §2.2 BUU
examples the paper's Fig 10 runs)."""

from repro.graphalgo.coloring import AsyncColoring, ColoringResult, color_key
from repro.graphalgo.wcc import (
    AsyncWcc,
    WccResult,
    ground_truth_components,
    label_key,
)

__all__ = [
    "AsyncColoring",
    "ColoringResult",
    "color_key",
    "AsyncWcc",
    "WccResult",
    "ground_truth_components",
    "label_key",
]
