"""Thread-scaling throughput benchmark: serial monitor vs. threaded service.

Compares monitored ops/sec of the serial :class:`~repro.core.monitor.RushMon`
(single caller, no locks) against the concurrent
:class:`~repro.core.concurrent.RushMonService` driven by 1/2/4/8 real
threads via :class:`~repro.sim.scheduler.ThreadedWorkloadDriver`.

Interpretation note for CPython: the GIL serializes the Python-level
bookkeeping, so multi-threaded rows measure *coordination overhead*
(the journal lock, context switches) rather than parallel speedup;
near-flat ops/sec across thread counts is the success criterion — it
means writers do not contend on shared monitor state beyond one short
append.  On free-threaded builds the same harness measures real
scaling.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from typing import Sequence

from repro.bench.reporting import emit, format_table
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import RushMon
from repro.sim.buu import Buu, read_modify_write
from repro.sim.scheduler import ThreadedWorkloadDriver


def _workload(buus: int, keys: int, touch: int, seed: int) -> list[Buu]:
    rng = random.Random(seed)
    out = []
    for _ in range(buus):
        picked = rng.sample(range(keys), min(touch, keys))
        out.append(read_modify_write([f"k{k}" for k in picked],
                                     lambda v: (v or 0) + 1))
    return out


def run_thread_scaling(
    thread_counts: Sequence[int] = (1, 2, 4, 8),
    buus: int = 4000,
    keys: int = 256,
    touch: int = 3,
    sampling_rate: int = 4,
    seed: int = 0,
    name: str = "thread_scaling",
    batch_size: int = 256,
) -> list[dict]:
    """Run the benchmark; prints a table, writes it to
    ``benchmarks/results/<name>.txt`` and returns the rows as dicts."""
    config = RushMonConfig(sampling_rate=sampling_rate, seed=seed)
    rows: list[dict] = []

    # Serial baseline: plain RushMon fed from one thread, no locks at all.
    monitor = RushMon(config)
    driver = ThreadedWorkloadDriver([monitor], num_threads=1, seed=seed)
    start = time.perf_counter()
    driver.run(_workload(buus, keys, touch, seed))
    elapsed = time.perf_counter() - start
    serial_rate = driver.ops_emitted / elapsed
    rows.append({
        "mode": "serial", "threads": 1, "ops": driver.ops_emitted,
        "seconds": elapsed, "ops_per_sec": serial_rate, "vs_serial": 1.0,
    })

    for threads in thread_counts:
        service = RushMonService(replace(config, detect_interval=0.01,
                                         batch_size=batch_size))
        driver = ThreadedWorkloadDriver([service], num_threads=threads,
                                        seed=seed)
        workload = _workload(buus, keys, touch, seed)
        start = time.perf_counter()
        with service:
            driver.run(workload)
        elapsed = time.perf_counter() - start
        rate = driver.ops_emitted / elapsed
        rows.append({
            "mode": "service", "threads": threads, "ops": driver.ops_emitted,
            "seconds": elapsed, "ops_per_sec": rate,
            "vs_serial": rate / serial_rate,
        })

    table = format_table(
        f"Thread scaling: monitored ops/sec (sr={sampling_rate}, "
        f"{buus} BUUs x {touch} keys)",
        ["mode", "threads", "ops", "seconds", "ops/sec", "vs serial"],
        [[r["mode"], r["threads"], r["ops"], r["seconds"],
          r["ops_per_sec"], r["vs_serial"]] for r in rows],
    )
    emit(name, table)
    return rows
