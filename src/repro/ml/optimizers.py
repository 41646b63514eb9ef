"""Optimizer update rules compiled into BUUs (§7.1's three algorithms).

Each optimizer turns a (sample, learning rate) pair into a
:class:`~repro.sim.buu.Buu` whose reads cover the weights (and any
optimizer state) it needs and whose writes are parameter-server-style
*deltas* (additive).  Optimizer state (momentum velocity, RMSprop cache)
lives in the shared store under prefixed keys, so it is itself subject to
weak-isolation chaos — matching shared-state ML systems.

- ``asgd``   — plain asynchronous SGD.
- ``asgdm``  — ASGD with momentum [Qian 1999].
- ``rmsprop``— RMSprop [Tieleman & Hinton 2012].

The paper's point (Fig 9) is that ASGDM and RMSprop smooth the descent,
so out-of-order execution harms them less.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.ml.logistic import sample_gradient, sigmoid
from repro.sim.buu import Buu
from repro.workloads.datasets import ClickDataset, ClickSample

#: An optimizer factory: (dataset, sample, learning rate) -> Buu
OptimizerFn = Callable[[ClickDataset, ClickSample, float], Buu]


def asgd_buu(dataset: ClickDataset, sample: ClickSample, lr: float) -> Buu:
    """Plain ASGD: read the active weights, push -lr * gradient."""
    keys = [dataset.weight_key(f) for f in sample.features]

    def compute(values: dict) -> dict:
        grad = sample_gradient(values, sample, dataset)
        return {k: -lr * g for k, g in grad.items()}

    return Buu(reads=keys, compute=compute, additive=True)


def asgdm_buu(dataset: ClickDataset, sample: ClickSample, lr: float,
              momentum: float = 0.9) -> Buu:
    """ASGD with momentum: velocity state shared under ``m:`` keys.

    v' = mu * v + g ; w -= lr * v'.  Both the velocity update and the
    weight update are expressed as additive deltas computed from the
    (possibly stale) values read.
    """
    weight_keys = [dataset.weight_key(f) for f in sample.features]
    velocity_keys = [f"m:{k}" for k in weight_keys]

    def compute(values: dict) -> dict:
        grad = sample_gradient(values, sample, dataset)
        deltas: dict[str, float] = {}
        for k in weight_keys:
            v_old = values.get(f"m:{k}") or 0.0
            v_new = momentum * v_old + grad[k]
            deltas[f"m:{k}"] = v_new - v_old
            deltas[k] = -lr * v_new
        return deltas

    return Buu(reads=weight_keys + velocity_keys, compute=compute, additive=True)


def rmsprop_buu(dataset: ClickDataset, sample: ClickSample, lr: float,
                decay: float = 0.9, epsilon: float = 1e-6) -> Buu:
    """RMSprop: per-weight squared-gradient cache under ``v:`` keys.

    c' = rho * c + (1 - rho) * g^2 ; w -= lr * g / sqrt(c' + eps).
    """
    weight_keys = [dataset.weight_key(f) for f in sample.features]
    cache_keys = [f"v:{k}" for k in weight_keys]

    def compute(values: dict) -> dict:
        grad = sample_gradient(values, sample, dataset)
        deltas: dict[str, float] = {}
        for k in weight_keys:
            g = grad[k]
            c_old = values.get(f"v:{k}") or 0.0
            c_new = decay * c_old + (1.0 - decay) * g * g
            deltas[f"v:{k}"] = c_new - c_old
            deltas[k] = -lr * g / math.sqrt(c_new + epsilon)
        return deltas

    return Buu(reads=weight_keys + cache_keys, compute=compute, additive=True)


def minibatch_asgd_buu(dataset: ClickDataset, samples: list[ClickSample],
                       lr: float) -> Buu:
    """ASGD over a mini-batch: one BUU reads the union of the batch's
    active weights and pushes the averaged gradient (Fig 3a's batch-size
    knob — larger batches mean bigger BUUs and fewer updates)."""
    keys = sorted({dataset.weight_key(f) for s in samples for f in s.features})

    def compute(values: dict) -> dict:
        deltas: dict[str, float] = {}
        for sample in samples:
            grad = sample_gradient(values, sample, dataset)
            for k, g in grad.items():
                deltas[k] = deltas.get(k, 0.0) - lr * g / len(samples)
        return deltas

    return Buu(reads=keys, compute=compute, additive=True)


OPTIMIZERS: dict[str, OptimizerFn] = {
    "asgd": asgd_buu,
    "asgdm": asgdm_buu,
    "rmsprop": rmsprop_buu,
}


def make_optimizer(name: str) -> OptimizerFn:
    """Look up an optimizer factory by name."""
    if name not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {name!r}; options: {sorted(OPTIMIZERS)}")
    return OPTIMIZERS[name]


__all__ = [
    "OPTIMIZERS",
    "OptimizerFn",
    "asgd_buu",
    "asgdm_buu",
    "make_optimizer",
    "rmsprop_buu",
    "sigmoid",
]
