"""Synthetic stand-ins for the paper's datasets.

The paper evaluates on four multi-gigabyte real graphs (Table 2) and the
Criteo terabyte click logs.  Neither is available offline, so this module
generates scaled substitutes that preserve the properties the experiments
exercise: heavy-tailed degree distributions (conflict skew) for the
graphs, and sparse one-hot features with a planted linear model for the
click data.  DESIGN.md §2 documents the substitution rationale.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field

from repro.graph.random_graphs import UndirectedGraph, preferential_attachment_graph

#: Table 2, as printed in the paper: |V|, |E|, average degree.
REAL_GRAPH_SPECS: dict[str, dict[str, float]] = {
    "friendster": {"vertices": 65_608_366, "edges": 1_806_067_135, "degree": 27.53},
    "twitter-mpi": {"vertices": 52_579_682, "edges": 1_963_263_821, "degree": 38.50},
    "sk-2005": {"vertices": 50_636_154, "edges": 1_949_412_601, "degree": 38.50},
    "uk-2007-05": {"vertices": 105_896_555, "edges": 3_738_733_648, "degree": 35.31},
}


def scaled_real_graph_standin(
    name: str, scale: float = 2e-5, rng: random.Random | None = None
) -> UndirectedGraph:
    """A preferential-attachment stand-in for one of the Table 2 graphs.

    ``scale`` multiplies the vertex count (default keeps graphs around a
    couple of thousand vertices); the average degree matches the real
    dataset, which is what drives conflict skew in the workload.  The
    default ``rng`` is seeded from a CRC of ``name``, so a stand-in is
    the same graph in every process, whatever ``PYTHONHASHSEED`` is.
    """
    if name not in REAL_GRAPH_SPECS:
        raise ValueError(f"unknown dataset {name!r}; options: {sorted(REAL_GRAPH_SPECS)}")
    spec = REAL_GRAPH_SPECS[name]
    num_vertices = max(100, int(spec["vertices"] * scale))
    rng = rng or random.Random(zlib.crc32(name.encode()))
    return preferential_attachment_graph(num_vertices, spec["degree"], rng=rng)


@dataclass
class ClickSample:
    """One synthetic click-log row: active feature ids and a ±1 label."""

    features: list[int]
    label: int


@dataclass
class ClickDataset:
    """A synthetic Criteo substitute with a planted ground-truth model."""

    samples: list[ClickSample]
    num_features: int
    true_weights: list[float] = field(repr=False)

    def weight_key(self, feature: int) -> str:
        return f"w{feature}"

    @property
    def weight_keys(self) -> list[str]:
        return [self.weight_key(i) for i in range(self.num_features)]


def synthetic_click_dataset(
    num_samples: int = 400,
    num_features: int = 80,
    features_per_sample: int = 5,
    noise: float = 0.05,
    rng: random.Random | None = None,
) -> ClickDataset:
    """Generate sparse one-hot click data from a planted logistic model.

    Each sample activates ``features_per_sample`` random features
    (one-hot encoding of categorical attributes, as the paper describes);
    the label is drawn from the planted model's probability, flipped with
    probability ``noise``.  Because the generating model is known, "the
    number of BUUs to reach the optimum" has a concrete meaning: loss
    within a tolerance of the planted model's loss.
    """
    rng = rng or random.Random(0)
    true_weights = [rng.gauss(0.0, 1.5) for _ in range(num_features)]
    samples = []
    for _ in range(num_samples):
        feats = rng.sample(range(num_features), features_per_sample)
        z = sum(true_weights[f] for f in feats)
        p = 1.0 / (1.0 + math.exp(-z))
        label = 1 if rng.random() < p else -1
        if rng.random() < noise:
            label = -label
        samples.append(ClickSample(feats, label))
    return ClickDataset(samples, num_features, true_weights)
