#!/usr/bin/env python
"""Closing the loop: automatic consistency tuning from anomaly reports.

The paper's Fig 1 envisions a system that *adjusts* its configuration
from the monitor's real-time reports; §8 lists it as future work.  This
example wires the library's :class:`~repro.core.controller.AnomalyController`
— a hysteresis controller over a ladder of staleness bounds — into an
asynchronous SGD run: after every monitoring window the controller
tightens the bound if the anomaly rate is above the band and relaxes it
(recovering throughput) when the system is quiet.

Run:  python examples/adaptive_tuning.py
"""

import random

from repro.core.controller import AnomalyController
from repro.ml.async_sgd import AsyncTrainer
from repro.sim import SimConfig
from repro.workloads.datasets import synthetic_click_dataset


def main() -> None:
    dataset = synthetic_click_dataset(300, 60, 5, rng=random.Random(4))
    trainer = AsyncTrainer(
        dataset, "asgd",
        SimConfig(num_workers=16, write_latency=800, staleness_bound=None,
                  compute_jitter=20, seed=4),
        learning_rate=0.6, batch_per_round=100, seed=4,
    )
    controller = AnomalyController(upper=0.12, lower=0.06, cooldown=1)

    print("round  bound  anomaly rate  loss    action")
    for round_index in range(20):
        trainer.simulator.config.staleness_bound = controller.bound
        bound_used = controller.bound
        trainer.simulator.run(trainer._round_buus())
        report = trainer.monitor.close_window(trainer.simulator.now)
        decision = controller.observe(report)
        print(f"{round_index:>5}  {str(bound_used):>5}  "
              f"{decision.rate:>12.4f}  {trainer.current_loss():.4f}  "
              f"{decision.action}")

    print(f"\nfinal loss {trainer.current_loss():.4f} "
          f"(planted optimum {trainer.optimum:.4f}); the controller "
          f"settled at s={controller.bound}")


if __name__ == "__main__":
    main()
