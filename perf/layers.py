"""The traced run: every layer's cost on one workload's input.

A traced run drives the workload's input and config through all four
systems with span recording on (the workload's own system once more with
it off, which gives the tracing overhead), adds micro-legs for the layers
no system exposes on its own (codec, columnar builders, the sharded
collector without threads, the oracle), and closes the ledger: the
end-to-end CPU per op of the workload's own system against the sum of the
layer costs that should explain it.  The gap is reported, not hidden.
"""

from __future__ import annotations

import time

import gen
from measure import Tracer
from repro.checkers import exact_cycle_counts
from repro.core import DataCentricCollector, ShardedCollector
from repro.core.columnar import HAVE_NUMPY, OpBatch
from repro.core.types import KeyInterner
from repro.net import protocol
from harness import (BATCH, CLUSTER_WORKERS, SERVICE_CHUNK, WIRE_CHUNK,
                     Outcome, Profile, Spec)
from sut_wire import events_per_op, wire_events
from workloads import run_workload

#: Share of ``--seconds`` each system's leg measures for.
LEG_SHARE = {"serial": 0.15, "service": 0.2, "wire": 0.2, "cluster": 0.2}
#: Ops the micro-legs and the oracle baseline work on.
MICRO_OPS = 50_000


def _per(seconds: float, count: int) -> float:
    return seconds / max(count, 1) * 1e6


def protocol_leg(chunks, tracer: Tracer) -> dict:
    """Encode every chunk as a batch frame in both codecs, then decode
    the byte stream the way a connection does: ``FrameReader.feed`` in
    64 KiB reads, then ``decode_events`` on each batch."""
    batches = [protocol.batch("ledger", seq, wire_events(chunk))
               for seq, chunk in enumerate(chunks, 1)]
    events = sum(len(b["events"]) for b in batches)
    out = {}
    for codec, label in ((protocol.CODEC_JSON, "codec0"),
                         (protocol.CODEC_COLUMNAR, "codec2")):
        span = tracer.begin(f"net.protocol.encode.{label}")
        began = time.perf_counter()
        frames = [protocol.encode_frame(b, codec) for b in batches]
        encoded = time.perf_counter()
        tracer.end(span)
        wire = b"".join(frames)
        reader = protocol.FrameReader()
        decoded = 0
        span = tracer.begin(f"net.protocol.decode.{label}")
        started = time.perf_counter()
        for lo in range(0, len(wire), 65536):
            for message in reader.feed(wire[lo:lo + 65536]):
                decoded += len(protocol.decode_events(message["events"]))
        finished = time.perf_counter()
        tracer.end(span)
        if decoded != events:
            raise RuntimeError(f"{label}: decoded {decoded} of {events}")
        out[f"net.protocol.encode_us_per_event.{label}"] = _per(
            encoded - began, events)
        out[f"net.protocol.decode_us_per_event.{label}"] = _per(
            finished - started, events)
        out[f"net.protocol.bytes_per_event.{label}"] = len(wire) / events
    return out


def columnar_leg(spec: Spec, chunks, tracer: Tracer) -> dict:
    """The columnar builders and the vectorized collector kernel."""
    ops = sum(len(c.ops) for c in chunks)
    interner = KeyInterner()
    span = tracer.begin("core.columnar.from_ops")
    began = time.perf_counter()
    batches = [OpBatch.from_ops(c.ops, interner) for c in chunks]
    from_ops = time.perf_counter() - began
    tracer.end(span)

    reader = protocol.FrameReader()
    decoded = [
        next(reader.feed(protocol.encode_frame(
            protocol.batch("ledger", seq, wire_events(chunk)),
            protocol.CODEC_COLUMNAR)))["events"]
        for seq, chunk in enumerate(chunks, 1)]
    events = sum(len(d) for d in decoded)
    wire_interner = KeyInterner()
    span = tracer.begin("core.columnar.from_wire")
    began = time.perf_counter()
    for columns in decoded:
        OpBatch.from_wire(columns, wire_interner)
    from_wire = time.perf_counter() - began
    tracer.end(span)

    config = spec.config
    collector = DataCentricCollector(sampling_rate=config.sampling_rate,
                                     mob=config.mob, seed=config.seed)
    span = tracer.begin("core.columnar.collect")
    began = time.perf_counter()
    for batch in batches:
        collector.handle_batch(batch)
    collect = time.perf_counter() - began
    tracer.end(span)
    return {
        "core.columnar.from_ops_us_per_op": _per(from_ops, ops),
        "core.columnar.from_wire_us_per_event": _per(from_wire, events),
        "core.columnar.collect_us_per_op": _per(collect, ops),
    }


def sharded_leg(spec: Spec, chunks, tracer: Tracer) -> dict:
    """``ShardedCollector`` with its journal on, one thread, no
    contention: what the shard locks and the journal cost by themselves."""
    config = spec.config
    collector = ShardedCollector(
        sampling_rate=config.sampling_rate, mob=config.mob, seed=config.seed,
        num_shards=config.num_shards, journal=True)
    handle = drain = 0.0
    ops = drained = 0
    for index, chunk in enumerate(chunks, 1):
        span = tracer.begin("core.concurrent.sharded.handle_batch")
        began = time.perf_counter()
        collector.handle_batch(chunk.ops)
        handle += time.perf_counter() - began
        tracer.end(span)
        ops += len(chunk.ops)
        if index % 8 == 0 or index == len(chunks):
            span = tracer.begin("core.concurrent.sharded.drain_journal")
            began = time.perf_counter()
            drained += len(collector.drain_journal())
            drain += time.perf_counter() - began
            tracer.end(span)
    if drained != ops:
        raise RuntimeError(f"journal drained {drained} of {ops} events")
    return {
        "core.concurrent.sharded.handle_batch_us_per_op": _per(handle, ops),
        "core.concurrent.sharded.drain_journal_us_per_event":
            _per(drain, drained),
    }


def checkers_leg(ops, tracer: Tracer) -> dict:
    span = tracer.begin("checkers.exact_cycle_counts")
    began = time.perf_counter()
    exact_cycle_counts(ops)
    elapsed = time.perf_counter() - began
    tracer.end(span)
    return {"checkers.exact_counts_ops_per_s": len(ops) / elapsed}


def _cpu_us_per_op(outcome: Outcome) -> float:
    return outcome.layers["run.cpu_s"] / outcome.layers["run.ops"] * 1e6


def _cpu_at_nominal_speed(outcome: Outcome) -> float:
    return _cpu_us_per_op(outcome) / outcome.layers["host.correction"]


def ledger(spec: Spec, legs: dict, layers: dict) -> list[tuple[str, float]]:
    """(layer, us per op) rows that should add up to the end-to-end CPU
    per op of ``spec``'s own system; the last row is what they leave
    unexplained."""
    serial = legs["serial"].layers
    per_op = events_per_op(spec.family)
    detect = (serial["span.detector_us_per_op"]
              + serial["span.pruning_us_per_op"])
    lifecycle = serial["span.lifecycle_us_per_op"]
    service_rows = [
        ("core.concurrent.sharded (locks, collection, journal append)",
         layers["core.concurrent.sharded.handle_batch_us_per_op"]),
        ("core.concurrent.sharded (journal drain)",
         layers["core.concurrent.sharded.drain_journal_us_per_event"]
         * per_op),
        ("core.detector + core.pruning", detect),
        ("core.detector (BUU lifecycle)", lifecycle),
    ]
    if spec.system == "serial":
        rows = [
            ("core.collector",
             serial["core.collector.handle_batch_us_per_op"]),
            ("core.detector", serial["span.detector_us_per_op"]),
            ("core.pruning", serial["span.pruning_us_per_op"]),
            ("core.detector (BUU lifecycle)", lifecycle),
            ("core.monitor + core.estimator (glue)",
             serial["span.glue_us_per_op"]),
        ]
    elif spec.system == "service":
        rows = service_rows
    elif spec.system == "wire":
        # Per wire event: the two codecs carry half of the events each.
        decode = (layers["net.protocol.decode_us_per_event.codec0"]
                  + layers["net.protocol.decode_us_per_event.codec2"]) / 2
        rows = [("net.protocol (decode)", decode)] + [
            (name, value / per_op) for name, value in service_rows]
    else:
        rows = [
            ("cluster.monitor (route, parent process)",
             layers["cluster.monitor.route_us_per_op"]),
            ("core.collector (each op on one worker)",
             serial["core.collector.handle_batch_us_per_op"]),
            (f"core.detector + core.pruning (x{CLUSTER_WORKERS}: every "
             f"worker holds the full graph)", detect * CLUSTER_WORKERS),
            (f"core.detector (BUU lifecycle, x{CLUSTER_WORKERS})",
             lifecycle * CLUSTER_WORKERS),
        ]
    total = _cpu_us_per_op(legs[spec.system])
    rows.append(("unattributed", total - sum(v for _, v in rows)))
    return rows


def traced_run(spec: Spec, seed: int, seconds: float,
               profile: Profile) -> tuple[Outcome, dict, Tracer, list]:
    """Returns the workload's own traced outcome (checks included), the
    per-layer metrics, the tracer and the ledger rows."""
    if not HAVE_NUMPY:
        raise SystemExit("the traced run measures the columnar layer and "
                         "needs numpy")
    tracer = Tracer(spec.name)
    own = spec.system
    untraced = run_workload(spec, seed, seconds * LEG_SHARE[own], profile,
                            verify=False)
    legs = {
        system: run_workload(spec, seed, seconds * share, profile, tracer,
                             system, verify=system == own)
        for system, share in LEG_SHARE.items()
    }
    head = gen.make_stream(spec.family, seed,
                           min(MICRO_OPS, profile.ops[spec.family.name]))
    layers: dict = {}
    for leg in legs.values():
        layers.update(leg.layers)
    layers["host.slowdown"] = legs[own].layers["host.slowdown"]
    layers.update(protocol_leg(gen.chunked(head, WIRE_CHUNK), tracer))
    layers.update(columnar_leg(spec, gen.chunked(head, BATCH), tracer))
    layers.update(sharded_leg(spec, gen.chunked(head, SERVICE_CHUNK), tracer))
    layers.update(checkers_leg(head.ops, tracer))

    serial = legs["serial"]
    # RushMon.on_operations per op (the untraced facade, when the serial
    # system is the workload's own; else the composed pass's parent span)
    # minus what it hands to the collector and the detector.
    facade = (untraced if own == "serial" else serial).layers[
        "run.on_operations_us_per_op"]
    layers["core.monitor.glue_us_per_op"] = (
        facade - serial.layers["core.collector.handle_batch_us_per_op"]
        - serial.layers["span.detector_us_per_op"]
        - serial.layers["span.pruning_us_per_op"])
    wire = legs["wire"]
    layers["net.server.serve_overhead_us_per_event"] = (
        _cpu_us_per_op(wire)
        - (layers["net.protocol.decode_us_per_event.codec0"]
           + layers["net.protocol.decode_us_per_event.codec2"]) / 2
        - _cpu_us_per_op(legs["service"]) / events_per_op(spec.family))

    rows = ledger(spec, legs, layers)
    layers["ledger.unattributed_fraction"] = (
        rows[-1][1] / _cpu_us_per_op(legs[own]))
    layers["trace.overhead_fraction"] = (
        _cpu_at_nominal_speed(legs[own]) / _cpu_at_nominal_speed(untraced)
        - 1.0)
    return legs[own], layers, tracer, rows
