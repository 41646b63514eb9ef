"""Serial system under test: ``RushMon``, and — for the traced run — the
harness's own composition of the layers ``RushMon`` wires together."""

from __future__ import annotations

import time

import gen
from harness import (Outcome, Profile, Samples, Spec, check_estimate,
                     closed_loop_inputs, counts_tuple, feed_pass, sum_raw)
from measure import HostSpeed, Tracer, median, proc_peak_rss_mb
from repro.checkers import exact_cycle_counts
from repro.core import (CycleDetector, DataCentricCollector, Pruner, RushMon,
                        RushMonConfig, WindowTracker, make_pruner)


class SpannedPruner(Pruner):
    """Delegates to the configured pruner with a span around each pass."""

    def __init__(self, inner: Pruner, tracer: Tracer) -> None:
        super().__init__()
        self.inner = inner
        self.tracer = tracer

    def on_commit(self, graph, buu):
        return self.inner.on_commit(graph, buu)

    def prune(self, graph, now):
        span = self.tracer.begin("core.pruning.prune")
        removed = self.inner.prune(graph, now)
        self.tracer.end(span)
        return removed

    def removed_by_strategy(self):
        return self.inner.removed_by_strategy()


class ComposedMonitor:
    """``RushMon``'s wiring redone by the harness, so that each call into
    a layer's public function sits inside its own span.  ``feed_pass``
    opens the enclosing ``core.monitor.*`` spans; what they do not pass
    on to a child span is the facade's glue."""

    def __init__(self, config: RushMonConfig, tracer: Tracer) -> None:
        self.tracer = tracer
        self.collector = DataCentricCollector(
            sampling_rate=config.sampling_rate, mob=config.mob,
            seed=config.seed, resample_interval=config.resample_interval)
        self.detector = CycleDetector(
            pruner=SpannedPruner(make_pruner(config.pruning), tracer),
            prune_interval=config.prune_interval,
            count_three=config.count_three_cycles)
        self.window = WindowTracker(self.detector)
        self.reports: list = []
        self.now = 0
        self.edges_in = 0
        self.peak_vertices = 0
        self.peak_edges = 0

    # The clock handling below mirrors RushMon's (explicit lifecycle
    # times win, the batch's largest seq advances ``now``) so that the
    # composed pass does the facade's work, not less.

    def begin_buu(self, buu, when):
        self.now = max(self.now, when)
        self.detector.begin_buu(buu, when)

    def commit_buu(self, buu, when):
        self.now = max(self.now, when)
        self.detector.commit_buu(buu, when)

    def on_operations(self, ops):
        tracer = self.tracer
        span = tracer.begin("core.collector.handle_batch")
        edges = self.collector.handle_batch(ops)
        tracer.end(span)
        now = self.now
        for op in ops:
            if op.seq > now:
                now = op.seq
        self.now = now
        self.window.observe_operations(len(ops))
        record = self.window.edges.record
        for edge in edges:
            record(edge.kind)
        span = tracer.begin("core.detector.add_edge_batch")
        new = self.detector.add_edge_batch(edges)
        tracer.end(span)
        self.window.raw.add(new)
        self.edges_in += len(edges)
        self.peak_vertices = max(self.peak_vertices,
                                 self.detector.num_vertices)
        self.peak_edges = max(self.peak_edges, self.detector.num_edges)

    def close_window(self):
        report = self.window.close(self.now,
                                   self.collector.sampling_probability)
        self.reports.append(report)
        return report


def run_serial(spec: Spec, seed: int, seconds: float, profile: Profile,
               tracer: Tracer | None = None, verify: bool = True) -> Outcome:
    out = Outcome()
    config = spec.config
    prep = time.perf_counter()
    stream, chunks = closed_loop_inputs(spec, seed, profile)
    out.input_hash = gen.stream_hash([stream])
    exact = exact_cycle_counts(stream.ops) if verify else None
    out.prep_s = time.perf_counter() - prep
    n_ops = len(stream.ops)

    host = HostSpeed(profile.probe_reps)
    samples = Samples()
    setups, walls, cpu_s, reflected = [], [], [], 0
    raws = set()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        # A few set-ups before every pass, so that the run's median
        # set-up has seen the host at as many moments as its passes.
        for _ in range(profile.setups["serial"]):
            started = time.perf_counter()
            RushMon(config).close_window()
            setups.append(time.perf_counter() - started)
        last = ComposedMonitor(config, tracer) if tracer else RushMon(config)
        cpu0, wall0 = time.process_time(), time.perf_counter()
        feed_pass(last, chunks, samples, tracer, "core.monitor")
        walls.append(time.perf_counter() - wall0)
        cpu_s.append(time.process_time() - cpu0)
        host.probe()
        reflected += sum(r.operations for r in last.reports)
        raws.add(counts_tuple(sum_raw(last.reports)))
    passes = len(walls)
    out.attempted = n_ops * passes
    out.failed = out.attempted - reflected
    out.metrics = {
        "ops_per_s": n_ops / median(walls),
        "cpu_us_per_op": median(cpu_s) / n_ops * 1e6,
        "ack_ms_p50": samples.ack_ms_p50(),
        "setup_s": median(setups),
        "peak_rss_mb": proc_peak_rss_mb(),
    }
    out.scale_to_nominal_speed(host, "serial")
    out.layers["run.passes"] = passes
    out.layers["run.cpu_s"] = sum(cpu_s)
    out.layers["run.ops"] = out.attempted
    out.layers["run.on_operations_us_per_op"] = samples.caller_us_mean()
    out.layers["core.monitor.on_operations_us_per_op_p50"] = (
        samples.caller_us_p(0.5))

    out.check("passes_agree", len(raws) == 1,
              f"{len(raws)} distinct raw counts over {passes} passes")
    raw = sum_raw(last.reports)
    out.check("health_ok", all(r.health == "ok" for r in last.reports))
    out.check("ops_seen", last.collector.ops_seen == n_ops,
              f"collector saw {last.collector.ops_seen} of {n_ops}")
    if verify:
        if config.sampling_rate == 1:
            out.check("oracle_bit_exact",
                      counts_tuple(raw) == counts_tuple(exact),
                      f"monitor {counts_tuple(raw)} oracle "
                      f"{counts_tuple(exact)}")
        else:
            estimates = (sum(r.estimated_2 for r in last.reports),
                         sum(r.estimated_3 for r in last.reports))
            check_estimate(out, raw, estimates, exact,
                            profile.cycle_floor["serial"])
    out.layers["check.raw_counts"] = list(counts_tuple(raw))
    if tracer:
        _serial_layers(out, last, tracer, n_ops * passes, passes)
    return out


def _serial_layers(out: Outcome, mon: ComposedMonitor, tracer: Tracer,
                   ops: int, passes: int) -> None:
    times = tracer.self_times()

    def secs(name):
        return times.get(name, (0.0, 0))[0]

    def count(name):
        return times.get(name, (0.0, 0))[1]

    collector, detector = mon.collector, mon.detector
    edges = mon.edges_in * passes
    removed = detector.pruner.removed_by_strategy()
    out.layers.update({
        "core.collector.handle_batch_us_per_op":
            secs("core.collector.handle_batch") / ops * 1e6,
        "core.collector.sampled_fraction": collector.touches / (ops / passes),
        "core.collector.edges_per_op": mon.edges_in / (ops / passes),
        "core.collector.items": collector.shard.num_items,
        "core.collector.discard_ratio": collector.discard_ratio,
        "core.detector.add_edge_batch_us_per_edge":
            secs("core.detector.add_edge_batch") / max(edges, 1) * 1e6,
        "core.detector.edges_in": mon.edges_in,
        "core.detector.cycles_found":
            detector.counts.two_cycles + detector.counts.three_cycles,
        "core.detector.peak_vertices": mon.peak_vertices,
        "core.detector.peak_edges": mon.peak_edges,
        "core.pruning.prune_ms_per_pass":
            secs("core.pruning.prune")
            / max(count("core.pruning.prune"), 1) * 1e3,
        "core.pruning.passes": detector.prune_passes,
        "core.pruning.removed.ect": removed.get("ect", 0),
        "core.pruning.removed.distance": removed.get("distance", 0),
        "core.monitor.close_window_us":
            secs("core.monitor.close_window")
            / max(count("core.monitor.close_window"), 1) * 1e6,
        # Self time per op of the composed pass's other spans; with the
        # collector's above, the ledger sums these against the pass's
        # CPU time.
        "span.detector_us_per_op":
            secs("core.detector.add_edge_batch") / ops * 1e6,
        "span.pruning_us_per_op": secs("core.pruning.prune") / ops * 1e6,
        "span.lifecycle_us_per_op":
            secs("core.monitor.lifecycle") / ops * 1e6,
        "span.glue_us_per_op":
            (secs("core.monitor.on_operations")
             + secs("core.monitor.close_window")) / ops * 1e6,
    })
