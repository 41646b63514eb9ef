"""Monitoring-overhead self-measurement: the paper's ~1% claim.

Section 6 of the paper reports that RushMon's in-storage hooks slow the
monitored system by about 1% at practical sampling rates.  This harness
reproduces the *shape* of that measurement in the simulator: the same
YCSB-style read-modify-write workload is driven through
:class:`~repro.sim.scheduler.ThreadedWorkloadDriver` three ways —

- **bare** — no listeners subscribed: the cost of running the workload
  itself (store access, striped locks, thread scheduling);
- **serial** — the single-threaded :class:`~repro.core.monitor.RushMon`
  facade subscribed as the sole listener;
- **service** — the concurrent
  :class:`~repro.core.concurrent.RushMonService` (ticketed journal +
  background collection and detection) subscribed.

For each monitored mode it reports ``ratio = t_monitored / t_bare`` and
the derived overhead percentage.  Pure-Python hook costs are far larger
than the paper's C++-in-storage hooks, so absolute ratios here land well
above 1.01 — the claim this harness *can* check is the paper's trend:
overhead shrinks as the sampling rate grows, because a sampled-out
operation's hook is a hash + compare and nothing else.

Results go to ``benchmarks/results/overhead.txt`` via
:func:`repro.bench.reporting.emit`.  The one entry point is the CLI verb
``python -m repro bench-overhead`` (``--quick`` shrinks the workload for
CI smoke runs).
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


def _timed_run(listeners, threads: int, workload: list[Buu],
               seed: int) -> float:
    driver = ThreadedWorkloadDriver(listeners, num_threads=threads, seed=seed)
    start = time.perf_counter()
    driver.run(workload)
    return time.perf_counter() - start


def run_overhead(
    buus: int = 4000,
    keys: int = 1024,
    touch: int = 3,
    threads: int = 4,
    sampling_rates: Sequence[int] = (1, 4, 20),
    repeats: int = 3,
    seed: int = 0,
    name: str = "overhead",
    batch_size: int = 256,
) -> list[dict]:
    """Measure monitored vs. unmonitored wall time; prints a table,
    writes ``benchmarks/results/<name>.txt`` and returns rows as dicts.

    Each configuration runs ``repeats`` times and keeps the minimum —
    the standard noise filter for wall-clock microbenchmarks.
    """
    workload = _workload(buus, keys, touch, seed)

    def best(make_listeners) -> float:
        return min(_timed_run(make_listeners(), threads, workload, seed)
                   for _ in range(repeats))

    t_bare = best(lambda: [])
    rows: list[dict] = [{
        "mode": "bare", "sr": "-", "seconds": t_bare,
        "ratio": 1.0, "overhead_pct": 0.0,
    }]

    for sr in sampling_rates:
        config = RushMonConfig(sampling_rate=sr, seed=seed)

        t_serial = best(lambda: [RushMon(config)])
        rows.append({
            "mode": "serial", "sr": sr, "seconds": t_serial,
            "ratio": t_serial / t_bare,
            "overhead_pct": (t_serial / t_bare - 1.0) * 100.0,
        })

        def timed_service() -> float:
            service = RushMonService(replace(config,
                                             detect_interval=0.01,
                                             batch_size=batch_size))
            start = time.perf_counter()
            with service:
                driver = ThreadedWorkloadDriver([service],
                                                num_threads=threads,
                                                seed=seed)
                driver.run(workload)
            return time.perf_counter() - start

        t_service = min(timed_service() for _ in range(repeats))
        rows.append({
            "mode": "service", "sr": sr, "seconds": t_service,
            "ratio": t_service / t_bare,
            "overhead_pct": (t_service / t_bare - 1.0) * 100.0,
        })

    table = format_table(
        f"Monitoring overhead: wall time vs. bare workload "
        f"({buus} BUUs x {touch} keys, {threads} threads, "
        f"min of {repeats})",
        ["mode", "sr", "seconds", "ratio", "overhead %"],
        [[r["mode"], r["sr"], r["seconds"], r["ratio"], r["overhead_pct"]]
         for r in rows],
    )
    emit(name, table)
    return rows
