"""What every system's driver shares: input profiles, the outcome record,
the closed-loop feeder and the correctness checks.

Only public entry points of ``repro`` are used anywhere in the harness,
and nothing from ``repro.bench``, ``repro.sim`` or ``repro.workloads``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from measure import (HostSpeed, Tracer, begin_span, cpus, end_span, median,
                     quantile)
from repro.core import RushMonConfig
from repro.core.types import CycleCounts

#: Traces, profiles and scratch files; kept out of the tree by .gitignore.
OUT_DIR = Path(__file__).resolve().parent / "out"
#: Ops per ``on_operations`` call of the closed-loop callers.
BATCH = 2048
#: Ops per call of each paced service producer.
SERVICE_CHUNK = 1024
#: Ops per wire frame; with the BUUs' begin/commit records a frame of
#: the wide family carries 260 events.
WIRE_CHUNK = 240
#: Ops between ``close_window`` calls of the closed-loop callers.
CLOSE_EVERY = 50_000
#: Seconds between ``close_window`` calls / scrapes beside paced load.
CLOSE_INTERVAL = 0.1
#: Producer threads of ``service_paced`` / connections of ``wire_mixed``.
PRODUCERS = 2
#: Worker processes of ``cluster_closed``.
CLUSTER_WORKERS = 2
#: The share (as an exponent) of the probe's slowdown that each system's
#: durations are corrected for: the serial monitor slows down with the
#: single-threaded probe, the service's threads beside their callers by
#: about its square root, the `serve` child and the cluster's workers
#: by most of it (README, "Host speed": slopes fitted on this host).
HOST_SENSITIVITY = {"serial": 1.0, "service": 0.5, "wire": 0.85,
                    "cluster": 0.85}
#: Systems fed on a schedule: their rate is the schedule's, whatever the
#: host's speed, and stays as measured.
PACED = ("service", "wire")
#: Theorem 5.2 estimate / exact count must fall in this band on the
#: sampled workloads (see README: derived from 20 seeds).
ESTIMATE_BAND = (0.55, 1.6)


@dataclass(frozen=True)
class Profile:
    """Input sizes and offered rates.  ``FULL`` is what BENCHMARK.json
    records; ``SMOKE`` runs the same code on tiny inputs."""

    name: str
    ops: dict            # family name -> ops per closed-loop pass
    lap_ops: int         # ops per service lap, all producers together
    service_rate: dict   # family name -> offered ops/s, all producers
    wire_rate: dict      # family name -> offered events/s per session
    client_ops: int      # ops pushed through RushMonClient on the wire
    cycle_floor: dict    # system -> least raw sampled cycles of a run
    setups: dict         # system -> timed set-ups per pass or lap
                         # (serial, service) or per run (wire, cluster)
    probe_reps: int      # reference-kernel calls per host-speed probe


FULL = Profile(
    "full",
    ops={"hot": 120_000, "wide": 400_000},
    lap_ops=240_000,
    service_rate={"hot": 40_000, "wide": 120_000},
    wire_rate={"hot": 8_000, "wide": 25_000},
    client_ops=60_000,
    # A wire session conflicts only with itself (sessions share no key),
    # so the same volume yields about half the cycles of a shared run.
    cycle_floor={"serial": 100, "service": 100, "wire": 60, "cluster": 100},
    setups={"serial": 20, "service": 60, "wire": 3, "cluster": 3},
    probe_reps=3,
)
SMOKE = Profile(
    "smoke",
    ops={"hot": 6_000, "wide": 12_000},
    lap_ops=6_000,
    service_rate={"hot": 20_000, "wide": 40_000},
    wire_rate={"hot": 10_000, "wide": 20_000},
    client_ops=1_200,
    cycle_floor=dict.fromkeys(("serial", "service", "wire", "cluster"), 0),
    setups={"serial": 3, "service": 3, "wire": 1, "cluster": 1},
    probe_reps=1,
)


@dataclass(frozen=True)
class Spec:
    name: str
    system: str
    family: gen.Family
    config: RushMonConfig


@dataclass
class Outcome:
    """What one drive of a system produced."""

    metrics: dict = field(default_factory=dict)   # end-to-end, by name
    layers: dict = field(default_factory=dict)    # diagnostics, by name
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)    # (name, ok, detail)
    input_hash: str = ""
    prep_s: float = 0.0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def scale_to_nominal_speed(self, host: HostSpeed, system: str) -> None:
        """Report the durations the run would have shown on the host at
        its calm speed."""
        slowdown = host.slowdown()
        correction = slowdown ** HOST_SENSITIVITY[system]
        for name in ("cpu_us_per_op", "ack_ms_p50", "setup_s"):
            self.metrics[name] /= correction
        if system not in PACED:
            self.metrics["ops_per_s"] *= correction
        self.layers["host.slowdown"] = slowdown
        self.layers["host.correction"] = correction

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def require_cpus(needed: int, what: str) -> None:
    if needed > cpus():
        raise SystemExit(
            f"{what} needs {needed} load-generating threads/connections "
            f"but only {cpus()} CPUs are available to this process; "
            f"refusing to measure an oversubscribed generator")


def counts_tuple(c: CycleCounts) -> tuple:
    return (c.ss, c.dd, c.sss, c.ssd, c.ddd)


def sum_raw(reports) -> CycleCounts:
    total = CycleCounts()
    for report in reports:
        total.add(report.raw)
    return total


def check_estimate(out: Outcome, raw: CycleCounts, estimates, exact,
                    floor: int, laps: int = 1) -> None:
    """Sampled-path accuracy: enough raw cycles for the check to mean
    something, and the Theorem 5.2 estimate within the recorded band of
    the oracle's exact count."""
    sampled = raw.two_cycles + raw.three_cycles
    out.check("raw_cycle_floor", sampled >= floor,
              f"{sampled} raw sampled cycles, floor {floor}")
    truth = (exact.two_cycles + exact.three_cycles) * laps
    if truth and floor:
        ratio = sum(estimates) / truth
        lo, hi = ESTIMATE_BAND
        out.check("estimate_band", lo <= ratio <= hi,
                  f"estimate/exact = {ratio:.3f}, band [{lo}, {hi}]")
    out.layers["check.estimate_ratio"] = (
        sum(estimates) / truth if truth else 0.0)


# -- closed-loop feeding ---------------------------------------------------------


class Samples:
    """Per-call timings of one or more passes."""

    def __init__(self) -> None:
        self.calls: list[tuple[float, int]] = []   # (seconds, ops)
        self.passes: list[int] = []                # each pass's first call
        self.reports: list[float] = []             # close_window seconds

    def caller_us_p(self, q: float) -> float:
        return quantile([s / n for s, n in self.calls], q) * 1e6

    def caller_us_mean(self) -> float:
        return (sum(s for s, _ in self.calls)
                / sum(n for _, n in self.calls) * 1e6)

    def ack_ms_p50(self) -> float:
        """The median pass's mean call, not the median call: behind the
        cluster's router a call either returns at once or waits for the
        workers' acks, about half of them each, so the median call sits
        on the edge between the two and jumps with the smallest change
        in the workers' speed (README, "End-to-end metrics")."""
        edges = self.passes + [len(self.calls)]
        return median([sum(s for s, _ in self.calls[lo:hi]) / (hi - lo)
                       for lo, hi in zip(edges, edges[1:])]) * 1e3

    def report_ms_p(self, q: float) -> float:
        return quantile(self.reports, q) * 1e3


def feed_pass(mon, chunks, samples: Samples, tracer: Tracer | None = None,
              layer: str = "") -> None:
    """One closed-loop pass of a chunked stream through any monitor:
    lifecycle calls around each batch, a window closed every
    ``CLOSE_EVERY`` ops and once more at the end."""
    clock = time.perf_counter
    since = 0
    samples.passes.append(len(samples.calls))
    for chunk in chunks:
        span = begin_span(tracer, layer + ".lifecycle")
        for buu, when in chunk.begins:
            mon.begin_buu(buu, when)
        end_span(tracer, span)
        span = begin_span(tracer, layer + ".on_operations")
        started = clock()
        mon.on_operations(chunk.ops)
        samples.calls.append((clock() - started, len(chunk.ops)))
        end_span(tracer, span)
        span = begin_span(tracer, layer + ".lifecycle")
        for buu, when in chunk.commits:
            mon.commit_buu(buu, when)
        end_span(tracer, span)
        since += len(chunk.ops)
        if since >= CLOSE_EVERY:
            since = 0
            _timed_close(mon, samples, tracer, layer)
    _timed_close(mon, samples, tracer, layer)


def _timed_close(mon, samples: Samples, tracer, layer: str) -> None:
    span = begin_span(tracer, layer + ".close_window")
    started = time.perf_counter()
    mon.close_window()
    samples.reports.append(time.perf_counter() - started)
    end_span(tracer, span)


def closed_loop_inputs(spec: Spec, seed: int, profile: Profile):
    """The single stream of the closed-loop systems and its ``BATCH``-op
    chunks; the serial and the cluster workloads share it."""
    stream = gen.make_stream(spec.family, seed, profile.ops[spec.family.name])
    return stream, gen.chunked(stream, BATCH)


def sleep_until(due: float) -> float:
    """Sleep to ``due``; returns how late the wake-up was."""
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)
    return max(0.0, time.perf_counter() - due)
