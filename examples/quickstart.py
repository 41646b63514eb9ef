#!/usr/bin/env python
"""Quickstart: monitor a weakly-isolated workload in real time.

Runs 16 simulated workers hammering a small shared counter array with no
isolation, with a RushMon monitor attached to the storage layer, and
prints a windowed anomaly report — the paper's Fig 4 wiring in twenty
lines.

Run:  python examples/quickstart.py
"""

from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.sim import SimConfig, Simulator, read_modify_write


def main() -> None:
    # A monitor sampling 1 in 2 data items, with MOB and pruning on —
    # the paper's deployed configuration, scaled to this toy workload.
    monitor = RushMon(RushMonConfig(sampling_rate=2, mob=True,
                                    pruning="both", seed=42))

    simulator = Simulator(
        SimConfig(num_workers=16, write_latency=100, compute_jitter=10,
                  seed=42),
        listeners=[monitor],
    )

    print("round  ops    est 2-cycles  est 3-cycles  (per monitoring window)")
    for round_index in range(5):
        buus = [
            read_modify_write([f"counter{i % 20}"], lambda v: (v or 0) + 1)
            for i in range(500)
        ]
        simulator.run(buus)
        report = monitor.close_window(simulator.now)
        print(f"{round_index:>5}  {report.operations:>5}  "
              f"{report.estimated_2:>12.1f}  {report.estimated_3:>12.1f}")

    e2, e3 = monitor.cumulative_estimates()
    print(f"\ntotal estimated anomalies: {e2:.0f} two-cycles, "
          f"{e3:.0f} three-cycles")
    print(f"live dependency graph after pruning: "
          f"{monitor.detector.num_vertices} vertices, "
          f"{monitor.detector.num_edges} edges "
          f"(of {simulator.buus_completed} BUUs executed)")


if __name__ == "__main__":
    main()
