"""Serving soak bench: overload behaviour of the event-loop server
(``BENCH_serving.json``).

Four legs, all driven by the coordinated-omission-safe open-loop
generator in :mod:`repro.bench.loadgen` over pre-recorded
:mod:`repro.workloads` (ycsb) wire events:

- **rate ladder** — probe increasing offered rates against a fresh
  server until one is not *sustained* (ack fraction >= 0.9 and p99
  scheduled-send->ack latency under the SLO).  The highest sustained
  rung is the **max sustainable rate**.
- **soak** — a longer run at the max sustainable rate; the committed
  p50/p99/p999 ack latencies come from here.
- **2x overload** — offer twice the max sustainable rate.  The claim
  under test is *graceful* overload: the run completes within a
  bounded window (no stall, no unbounded queueing — the emitter is
  open-loop, so a stalled server would show up as runaway latency and
  a hung drain), with any loss accounted as typed refusals or
  measured latency, never silence.
- **admission** — three sessions against ``max_connections=1``: the
  tipping session must be refused with the typed ``overloaded`` error
  (counted client-side by the emitter) before accepts pause, the
  admitted one completes normally, and the remaining one queues in
  the listen backlog until the accept pause lifts.

CI check mode
-------------
Absolute rates are machine-dependent, so ``--check`` gates only
machine-*independent* readings, each re-measured on the host against
its own re-run ladder: the ack fraction at the host's sustained rate,
the admission-refusal fraction (exactly 1 of 3 by construction), and
overload completion.  ``--update`` rewrites ``BENCH_serving.json``.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.bench.loadgen import (
    LoadResult,
    OpenLoopEmitter,
    record_workload,
    run_emitters,
)
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig

#: Committed results file, at the repo root.
RESULTS_FILE = "BENCH_serving.json"

#: p99 scheduled-send->ack latency a rung must stay under to count as
#: sustained.  Generous because the reference host is single-core: the
#: server's loop thread, the detection thread, and the emitter all share
#: one CPU, so scheduling jitter alone costs tens of milliseconds.
LATENCY_SLO = 0.75

#: Minimum acked/offered event fraction for a sustained rung.
ACK_FLOOR = 0.9

#: Offered rates probed, low to high (events/second).
LADDER = (500, 1000, 2000, 4000, 8000, 16000, 32000)


@contextmanager
def _server(*, seed: int = 0, **server_kwargs):
    """A bench server: sampled ingest (sr=20, the deployed
    configuration), detector passes parked out of the way — the
    measured cost is the serving path."""
    from repro.net.server import RushMonServer

    service = RushMonService(
        RushMonConfig(sampling_rate=20, mob=True, seed=seed,
                      detect_interval=3600.0),
    )
    server_kwargs.setdefault("ack_interval", 0.02)
    server = RushMonServer(service, faults=None, **server_kwargs)
    server.start()
    try:
        yield server
    finally:
        server.drain()


def measure_rate(records: list, rate: float, *, batch_size: int = 64,
                 seed: int = 0, **server_kwargs) -> LoadResult:
    """One open-loop run of ``records`` at ``rate`` against a fresh
    server; returns the emitter's :class:`LoadResult`."""
    with _server(seed=seed, **server_kwargs) as server:
        emitter = OpenLoopEmitter("127.0.0.1", server.port, records,
                                  target_rate=rate, batch_size=batch_size,
                                  session=f"bench-r{int(rate)}")
        return emitter.run()


def _sustained(result: LoadResult) -> bool:
    if result.error is not None or result.offered_events == 0:
        return False
    fraction = result.acked_events / result.offered_events
    return fraction >= ACK_FLOOR and result.percentile(0.99) <= LATENCY_SLO


def find_max_sustainable(records: list, *, probe_seconds: float = 1.5,
                         seed: int = 0,
                         ladder: tuple = LADDER) -> tuple[float, LoadResult]:
    """Climb the rate ladder; returns ``(rate, result)`` for the highest
    sustained rung (the lowest rung's result if nothing sustains, so
    the caller can report what went wrong)."""
    best_rate, best_result = 0.0, None
    for rate in ladder:
        need = min(len(records), max(256, int(rate * probe_seconds)))
        result = measure_rate(records[:need], rate, seed=seed)
        print(f"  ladder {rate:>6} ev/s: acked "
              f"{result.acked_events}/{result.offered_events}, "
              f"p99 {result.percentile(0.99) * 1e3:.1f}ms"
              + (f", error={result.error}" if result.error else ""))
        if not _sustained(result):
            if best_result is None:
                best_rate, best_result = float(rate), result
            break
        best_rate, best_result = float(rate), result
    assert best_result is not None
    return best_rate, best_result


def overload_leg(records: list, rate: float, *, seed: int = 0,
                 window: float = 60.0) -> tuple[LoadResult, bool]:
    """Offer 2x the sustainable rate; returns the result and whether
    the run completed inside the bounded ``window`` (graceful shedding
    rather than a stall)."""
    start = time.monotonic()
    result = measure_rate(records, rate * 2.0, seed=seed)
    return result, (time.monotonic() - start) <= window


def admission_leg(records: list, *, rate: float = 500.0,
                  seed: int = 0) -> dict:
    """Three concurrent sessions against ``max_connections=1``.

    The server admits one, refuses the tipping one with a typed
    ``overloaded`` error, then pauses accepts — so the third queues in
    the listen backlog and is admitted once capacity frees up.  Exactly
    one refusal (fraction 1/3) is therefore the deterministic
    expectation, and every admitted session must fully ack."""
    with _server(seed=seed, max_connections=1,
                 overload_retry_after=0.05) as server:
        emitters = [
            OpenLoopEmitter("127.0.0.1", server.port, records,
                            target_rate=rate, batch_size=32,
                            session=f"admission-{i}")
            for i in range(3)
        ]
        results = run_emitters(emitters)
        refusals = sum(r.admission_refusals for r in results)
        admitted = [r for r in results if r.admission_refusals == 0]
        server_refusals = server.admission_refusals_total
    acked = sum(r.acked_events for r in admitted)
    offered = max(1, sum(r.offered_events for r in admitted))
    return {
        "sessions": len(emitters),
        "refused_sessions": sum(1 for r in results if r.admission_refusals),
        "client_refusals": refusals,
        "server_refusals": server_refusals,
        "admitted_ack_fraction": acked / offered,
        "refusal_fraction": refusals / len(emitters),
    }


def run_suite(*, quick: bool, seed: int = 0) -> dict:
    """Run every leg; returns the flat results dict."""
    buus = 2500 if quick else 12000
    probe_seconds = 1.0 if quick else 2.0
    soak_seconds = 3.0 if quick else 10.0
    ladder = LADDER[:5] if quick else LADDER

    t0 = time.perf_counter()
    records = record_workload("ycsb", buus=buus, seed=seed)
    print(f"recorded {len(records)} ycsb wire events "
          f"({time.perf_counter() - t0:.1f}s)")

    print("rate ladder:")
    max_rate, _ = find_max_sustainable(records, probe_seconds=probe_seconds,
                                       seed=seed, ladder=ladder)

    need = min(len(records), max(512, int(max_rate * soak_seconds)))
    soak = measure_rate(records[:need], max_rate, seed=seed)
    soak_fraction = (soak.acked_events / soak.offered_events
                     if soak.offered_events else 0.0)
    print(f"soak @ {max_rate:.0f} ev/s: {soak.summary()}")

    over_need = min(len(records), max(512, int(max_rate * 2 * soak_seconds)))
    overload, completed = overload_leg(records[:over_need], max_rate,
                                       seed=seed)
    print(f"overload @ {max_rate * 2:.0f} ev/s (completed={completed}): "
          f"{overload.summary()}")

    admission = admission_leg(records[:min(len(records), 1000)], seed=seed)
    print(f"admission: {admission}")

    return {
        "max_sustainable_rate": max_rate,
        "soak_acked_rate": round(soak.acked_rate, 1),
        "soak_p50_ms": round(soak.percentile(0.50) * 1e3, 3),
        "soak_p99_ms": round(soak.percentile(0.99) * 1e3, 3),
        "soak_p999_ms": round(soak.percentile(0.999) * 1e3, 3),
        "sustained_ack_fraction": round(soak_fraction, 4),
        "overload_offered_events": overload.offered_events,
        "overload_acked_events": overload.acked_events,
        "overload_refused_events": overload.refused_events,
        "overload_p99_ms": round(overload.percentile(0.99) * 1e3, 3),
        "overload_completed": 1.0 if completed else 0.0,
        "admission_refusal_fraction": round(
            admission["refusal_fraction"], 4),
        "admission_server_refusals": admission["server_refusals"],
        "admission_admitted_ack_fraction": round(
            admission["admitted_ack_fraction"], 4),
    }


def check_serving(committed: dict, measured: dict,
                  tolerance: float) -> list[str]:
    """Compare the machine-independent readings against the committed
    quick-suite ones; returns human-readable failures (empty = pass)."""
    failures = []
    quick = committed.get("quick", {})
    for key in ("sustained_ack_fraction", "admission_refusal_fraction",
                "overload_completed"):
        baseline = quick.get(key)
        if baseline is None:
            failures.append(f"committed {RESULTS_FILE} has no quick.{key}; "
                            f"re-run with --update to regenerate it")
            continue
        floor = baseline * (1.0 - tolerance)
        if measured[key] < floor:
            failures.append(
                f"{key} regressed: measured {measured[key]:.3f} < floor "
                f"{floor:.3f} (committed {baseline:.3f} minus "
                f"{tolerance:.0%} tolerance)")
    return failures


def run_serving(out_path: str | Path = RESULTS_FILE, *, quick: bool = False,
                update: bool = False, check: bool = False,
                tolerance: float = 0.35, seed: int = 0) -> int:
    """Entry point behind ``python -m repro bench-serving``.

    Default: run the suite and print results.  ``--update`` also
    rewrites ``BENCH_serving.json``; ``--check`` compares the
    machine-independent readings against the committed file and
    returns 1 on a regression beyond ``tolerance``.
    """
    out_path = Path(out_path)
    results = run_suite(quick=True, seed=seed)

    if check:
        if not out_path.exists():
            print(f"check failed: {out_path} not found — run with --update "
                  f"first to commit a baseline")
            return 1
        committed = json.loads(out_path.read_text())
        failures = check_serving(committed, results, tolerance)
        if failures:
            for failure in failures:
                print(f"check failed: {failure}")
            return 1
        print(f"check passed (tolerance {tolerance:.0%})")
        if quick:
            return 0

    full_results: dict = {}
    if not quick:
        print("\nfull suite:")
        full_results = run_suite(quick=False, seed=seed)

    if update:
        if quick and out_path.exists():
            payload = json.loads(out_path.read_text())
        else:
            payload = {}
        payload["protocol"] = {
            "workload": "ycsb wire events pre-recorded through the "
                        "simulator (quick=2500 buus, full=12000)",
            "generator": "open-loop, coordinated-omission-safe: batch k "
                         "scheduled at t0 + k*batch/rate; latency measured "
                         "from the scheduled instant; typed refusals shed "
                         "with a gap-free empty resend",
            "server": "one event-loop thread, sr=20 service, "
                      "detect_interval=3600, ack_interval=20ms",
            "sustained": f"ack fraction >= {ACK_FLOOR} and p99 <= "
                         f"{LATENCY_SLO * 1e3:.0f}ms",
            "overload": "2x the max sustainable rate must complete inside "
                        "a bounded window (graceful shed, no stall)",
            "admission": "3 sessions vs max_connections=1; the tipping "
                         "session gets a typed overloaded refusal, then "
                         "accepts pause and the rest queue in the backlog",
            "cpus": os.cpu_count(),
            "note": "absolute rates are machine-dependent; CI gates only "
                    "the quick fractions, re-measured against the host's "
                    "own re-run ladder",
        }
        payload["quick"] = results
        if full_results:
            payload["full"] = full_results
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {out_path}")
    return 0
