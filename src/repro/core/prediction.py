"""Spearman rank correlation between anomaly rates and performance.

The paper's workflow diagram (Fig 1) feeds the monitor's runtime reports
into a performance predictor; Fig 3 and Fig 11 measure how strongly
anomaly rates and convergence co-vary with :func:`rank_correlation`.
"""

from __future__ import annotations

import math


def rank_correlation(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        rank = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                rank[order[k]] = avg
            i = j + 1
        return rank

    if len(xs) != len(ys):
        raise ValueError("length mismatch")
    if len(xs) < 2:
        return 0.0
    rx, ry = ranks(list(xs)), ranks(list(ys))
    n = len(xs)
    mean_x = sum(rx) / n
    mean_y = sum(ry) / n
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)
