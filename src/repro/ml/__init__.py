"""Optimization substrate: logistic regression, optimizers, async training."""

from repro.ml.async_sgd import AsyncTrainer, RoundRecord, TrainingResult
from repro.ml.recovery import RecoveringTrainer, RecoveryEvent, RecoveryResult
from repro.ml.logistic import (
    dataset_loss,
    initial_loss,
    optimum_loss,
    sample_gradient,
    sample_loss,
    sigmoid,
)
from repro.ml.optimizers import (
    OPTIMIZERS,
    asgd_buu,
    asgdm_buu,
    make_optimizer,
    rmsprop_buu,
    sequential_sgd,
)

__all__ = [
    "AsyncTrainer",
    "RoundRecord",
    "TrainingResult",
    "RecoveringTrainer",
    "RecoveryEvent",
    "RecoveryResult",
    "dataset_loss",
    "initial_loss",
    "optimum_loss",
    "sample_gradient",
    "sample_loss",
    "sigmoid",
    "OPTIMIZERS",
    "asgd_buu",
    "asgdm_buu",
    "make_optimizer",
    "rmsprop_buu",
    "sequential_sgd",
]
