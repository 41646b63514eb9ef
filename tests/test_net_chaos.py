"""Chaos tests for the networked ingestion layer (``repro.net``).

The tentpole scenario: a ``repro serve`` subprocess is SIGKILLed in the
middle of a client stream and restarted on the same port with the same
checkpoint.  Effectively-once delivery demands that afterwards

- no acknowledged batch is lost (every event lands exactly once),
- no replayed batch is double-counted (dedup, not re-ingest),
- the restored sr=1 / mob=off counts are **bit-identical** to replaying
  the same events through the offline baseline monitor.

Run across 20 seeds so the kill lands at different points of the
protocol (mid-batch, between checkpoint groups, during an ack flush).

The in-process tests exercise the targeted fault points (``net.ack``,
``net.recv``, ``net.accept``) where the interesting assertion is exact
counter reconciliation — e.g. with only ack frames being dropped, every
client retransmit must show up as exactly one server dedup hit — and
``collector.handle`` at every producer call of a fixed stream, where a
refused frame must have ingested nothing of itself.

All tests here are `-m chaos` (they ride in tier-1 too, but CI also
runs them in a dedicated ``net-chaos`` job with a hard timeout).
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.checkers import exact_cycle_counts
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.net import RushMonClient, RushMonServer, protocol
from repro.testing import Fault, FaultInjector

from tests.test_net import _CodecClient, _wire_records
from tests.test_sampled_journal import _events as _buu_stream

pytestmark = pytest.mark.chaos


def _ops(count, num_keys, seed):
    rng = random.Random(seed)
    return [
        Operation(
            OpType.READ if rng.random() < 0.5 else OpType.WRITE,
            buu=rng.randrange(count // 4 + 1),
            key=f"k{rng.randrange(num_keys)}",
            seq=i,
        )
        for i in range(count)
    ]


def _service(faults=None, **kwargs):
    kwargs.setdefault("num_shards", 2)
    kwargs.setdefault("detect_interval", 0.003)
    return RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=42, **kwargs),
        faults=faults,
    )


def _assert_detected_live(service, expected, timeout=10.0):
    """The background detection thread — not drain's final pass — must
    consume every ingested event while the server is still up.  An ack
    says ingested, not detected, so give the thread a bounded moment."""
    deadline = time.monotonic() + timeout
    while service.processed_events < expected and time.monotonic() < deadline:
        time.sleep(0.005)
    assert service.processed_events == expected


def _offline_exact(ops):
    """The ground truth: the same ops through the offline baseline."""
    baseline = OfflineAnomalyMonitor()
    for op in ops:
        baseline.on_operation(op)
    return baseline.exact_counts()


# -- serve subprocess helpers --------------------------------------------------


def _repro_env():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn_serve(args):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        env=_repro_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )
    port = None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"serve exited early: {proc.poll()}")
        if "listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port is not None, "serve never printed its port"
    return proc, port


def _serve_args(port, ckpt):
    # --sampling-rate 1 --no-mob matter: the chaos differential demands
    # *exact* counts; sampling (serve's default is RushMonConfig's sr=20)
    # and MOB bookkeeping are approximate by design.
    return ["--port", str(port), "--checkpoint", ckpt,
            "--checkpoint-every", "2", "--sampling-rate", "1", "--no-mob",
            "--detect-interval", "0.005"]


def _drain_serve(proc, timeout=30):
    proc.send_signal(signal.SIGTERM)
    out, _ = proc.communicate(timeout=timeout)
    return out


# -- the tentpole: SIGKILL mid-stream, restart, reconcile ----------------------


@pytest.mark.parametrize("seed", range(20))
def test_kill9_mid_stream_recovery_is_bit_identical(tmp_path, seed):
    """SIGKILL the server mid-stream, restart it from the checkpoint on
    the same port, finish the stream: the recovered counts must equal
    the offline baseline bit-for-bit — no acked batch lost, no replayed
    batch double-counted."""
    rng = random.Random(1000 + seed)
    ops = _ops(rng.randrange(160, 240), 8, seed=seed)
    kill_at = rng.randrange(len(ops) // 4, 3 * len(ops) // 4)
    ckpt = str(tmp_path / "chaos.ckpt")

    proc, port = _spawn_serve(_serve_args(0, ckpt))
    second = None
    try:
        with RushMonClient(
            "127.0.0.1", port, session=f"chaos-{seed}", batch_size=16,
            flush_interval=0.002, ack_timeout=0.4, connect_timeout=0.5,
            backoff_base=0.02, backoff_max=0.2, seed=seed,
        ) as client:
            for index, op in enumerate(ops):
                if index == kill_at:
                    proc.kill()  # SIGKILL: no drain, no final checkpoint
                    proc.wait(timeout=10)
                    second, _ = _spawn_serve(_serve_args(port, ckpt))
                client.on_operation(op)
                if index % 8 == 0:
                    time.sleep(0.001)  # let batches interleave the kill
            assert client.flush(30.0), "stream never settled after restart"
            counters = client.counters()
        out = _drain_serve(second)
        second = None
    finally:
        for p in (proc, second):
            if p is not None and p.poll() is None:
                p.kill()

    assert "final checkpoint written" in out
    restored = RushMonService.restore(ckpt)
    # Exactly once: every op ingested a single time across both server
    # incarnations, despite the client replaying every unacked batch.
    assert restored.processed_events == len(ops)
    assert restored.counts() == _offline_exact(ops)
    # The wire stats ride in the checkpoint, so they reconcile across
    # incarnations: every received batch was either accepted or deduped
    # (refusals would show as a gap here), and a dedup hit can only come
    # from a client retransmit.
    stats = restored.extra_state["net"]["stats"]
    assert stats["batches_accepted"] + stats["dedup_hits"] \
        >= stats["batches_received"] - counters["retransmits"]
    assert stats["dedup_hits"] <= counters["retransmits"]
    assert counters["reconnects"] >= 1  # the kill was actually felt


@pytest.mark.parametrize("seed", range(4))
def test_kill9_recovery_reconciles_with_ops_dropped_at_decode(tmp_path, seed):
    """The same kill/restart story at ``--sampling-rate 4``,
    where the server drops operations on unsampled items while it
    decodes a frame: every event offered is still counted exactly once
    across both incarnations, and the sampled counts equal a bare
    service's over the same stream."""
    rng = random.Random(2000 + seed)
    ops = [op._replace(key=int(op.key[1:]))
           for op in _ops(rng.randrange(400, 600), 12, seed=seed)]
    kill_at = rng.randrange(len(ops) // 4, 3 * len(ops) // 4)
    ckpt = str(tmp_path / "elide.ckpt")
    args = ["--checkpoint", ckpt, "--checkpoint-every", "2",
            "--sampling-rate", "4", "--seed", "3", "--no-mob",
            "--detect-interval", "0.005"]
    reference = RushMonService(RushMonConfig(sampling_rate=4, seed=3,
                                             mob=False))
    assert reference.collector.prefilter() is not None
    reference.on_operations(ops)
    reference.stop()

    proc, port = _spawn_serve(["--port", "0", *args])
    second = None
    try:
        with RushMonClient(
            "127.0.0.1", port, session=f"elide-{seed}", batch_size=16,
            flush_interval=0.002, ack_timeout=0.4, connect_timeout=0.5,
            backoff_base=0.02, backoff_max=0.2, seed=seed,
            codec=(seed % 2) * 2,
        ) as client:
            for index, op in enumerate(ops):
                if index == kill_at:
                    proc.kill()
                    proc.wait(timeout=10)
                    second, _ = _spawn_serve(["--port", str(port), *args])
                client.on_operation(op)
                if index % 8 == 0:
                    time.sleep(0.001)
            assert client.flush(30.0), "stream never settled after restart"
            counters = client.counters()
        out = _drain_serve(second)
        second = None
    finally:
        for p in (proc, second):
            if p is not None and p.poll() is None:
                p.kill()

    assert f" events={len(ops)} " in out  # wire stats span incarnations
    restored = RushMonService.restore(ckpt)
    assert restored.collector.prefilter() is not None
    assert restored.processed_events == len(ops)
    assert restored.collector.ops_seen == len(ops)
    assert sum(r.operations for r in restored.reports) == len(ops)
    assert restored.collector.touches == reference.collector.touches
    assert restored.counts() == reference.counts()
    assert reference.counts().two_cycles > 0
    stats = restored.extra_state["net"]["stats"]
    assert stats["events_ingested"] == len(ops)
    assert stats["dedup_hits"] <= counters["retransmits"]
    assert counters["reconnects"] >= 1  # the kill was actually felt


def test_sigterm_drain_mid_stream_keeps_every_acked_event(tmp_path):
    """SIGTERM (not SIGKILL) mid-stream: the server drains gracefully,
    acks everything it ingested, writes a final checkpoint, and exits 0.
    The checkpoint must contain exactly the events the drain reported."""
    ops = _ops(300, 8, seed=77)
    ckpt = str(tmp_path / "drain.ckpt")
    proc, port = _spawn_serve(_serve_args(0, ckpt))
    try:
        with RushMonClient(
            "127.0.0.1", port, session="drain-mid", batch_size=16,
            flush_interval=0.002, ack_timeout=0.3, connect_timeout=0.3,
            backoff_base=0.02, backoff_max=0.1, seed=7,
        ) as client:
            for index, op in enumerate(ops):
                if index == len(ops) // 2:
                    proc.send_signal(signal.SIGTERM)
                client.on_operation(op)
                time.sleep(0.0005)
            # No server comes back: the unacked tail stays pending.
            client.flush(2.0)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()

    assert proc.returncode == 0
    assert "draining" in out
    drained_line = next(line for line in out.splitlines()
                        if line.startswith("drained."))
    reported = {key: int(value) for key, value in
                (field.split("=") for field in drained_line.split()[1:])}
    restored = RushMonService.restore(ckpt)
    assert restored.processed_events == reported["events"]
    assert restored.processed_events <= len(ops)
    # One session's batches are ingested in order: what went in is a
    # prefix of the stream.
    assert restored.counts() == _offline_exact(ops[:reported["events"]])


# -- targeted fault points (in-process) ----------------------------------------


def test_dropped_acks_reconcile_dedup_hits_with_retransmits_exactly():
    """Drop the ack after ingest: the client must retransmit, the server
    must dedup.  Streaming one batch at a time makes the reconciliation
    exact — every retransmit is of an already-ingested batch, so
    ``dedup_hits == retransmits`` to the digit."""
    ops = _ops(240, 8, seed=51)
    faults = FaultInjector().inject(
        Fault("net.ack", kind="disconnect", every=5, times=3)
    )
    service = _service(detect_interval=0.001)
    with RushMonServer(service, faults=faults) as server:
        with RushMonClient(
            "127.0.0.1", server.port, batch_size=16, flush_interval=0.002,
            ack_timeout=0.3, connect_timeout=0.5, backoff_base=0.02,
            backoff_max=0.1, seed=5,
        ) as client:
            for start in range(0, len(ops), 16):
                for op in ops[start:start + 16]:
                    client.on_operation(op)
                # ≤1 batch in flight: a dropped ack is the only reason
                # to retransmit, and the retransmit is always a dedup.
                assert client.flush(15.0)
            counters = client.counters()
        assert server.stats["events_ingested"] == len(ops)
        assert server.stats["dedup_hits"] == counters["retransmits"] == 3
        assert counters["reconnects"] == 3
        _assert_detected_live(service, len(ops))
    assert service.counts() == _offline_exact(ops)


def test_corrupt_frames_are_caught_and_replayed():
    """Flip a byte in a received frame: the CRC rejects it, the server
    drops the connection, and the client's replay delivers the batch
    intact — corruption slows the stream down but never poisons it."""
    ops = _ops(200, 8, seed=52)
    faults = FaultInjector().inject(
        # after=4 skips the hello exchange so the session gets set up.
        Fault("net.recv", kind="corrupt", after=4, times=2)
    )
    service = _service(detect_interval=0.001)
    with RushMonServer(service, faults=faults) as server:
        with RushMonClient(
            "127.0.0.1", server.port, batch_size=16, flush_interval=0.002,
            ack_timeout=0.3, connect_timeout=0.5, backoff_base=0.02,
            backoff_max=0.1, seed=6,
        ) as client:
            # One batch in flight at a time: the fault counts *reads*,
            # and a server thread that falls behind a free-running
            # sender sees the whole stream in fewer than ``after`` of
            # them — no corruption, nothing to recover from.
            for start in range(0, len(ops), 16):
                for op in ops[start:start + 16]:
                    client.on_operation(op)
                assert client.flush(20.0)
            counters = client.counters()
        assert server.stats["events_ingested"] == len(ops)
        _assert_detected_live(service, len(ops))
        assert counters["reconnects"] >= 1
    assert service.counts() == _offline_exact(ops)


def test_accept_disconnects_are_retried_until_connected():
    """Drop the first connection attempts at accept time: the client
    backs off (full jitter) and retries until the server lets it in."""
    ops = _ops(120, 8, seed=53)
    faults = FaultInjector().inject(
        Fault("net.accept", kind="disconnect", times=2)
    )
    service = _service(detect_interval=0.001)
    with RushMonServer(service, faults=faults) as server:
        with RushMonClient(
            "127.0.0.1", server.port, batch_size=16, flush_interval=0.002,
            ack_timeout=0.5, connect_timeout=0.3, backoff_base=0.02,
            backoff_max=0.1, seed=8,
        ) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(20.0)
        assert server.stats["events_ingested"] == len(ops)
        # Both injected accept-drops actually fired (connections_total
        # only counts connections that survive the accept fault).
        assert faults.fired_by_point["net.accept"] == 2
    assert service.counts() == _offline_exact(ops)


# -- a frame is ingested whole or refused whole ----------------------------------

#: One fixed wire stream of begins, operations and commits, in frames.
_STREAM = _buu_stream(420)
_FRAMES = [_wire_records(_STREAM[start:start + 60])
           for start in range(0, len(_STREAM), 60)]


@pytest.mark.parametrize("codec", (protocol.CODEC_JSON,
                                   protocol.CODEC_COLUMNAR))
@pytest.mark.parametrize("sr", (1, 20), ids=("sr1", "sr20"))
def test_a_fault_at_any_producer_call_refuses_its_frame_whole(codec, sr):
    """A ``collector.handle`` exception at each producer-call ordinal —
    one call per frame — refuses that frame with nothing of it ingested,
    so its resend counts every event exactly once: ``events_ingested``,
    ``processed_events`` and ``ops_seen`` equal the wire stream's, and
    at sr=1 the counts are the exact checker's."""
    ops = [payload for kind, payload in _STREAM if kind == "op"]
    for ordinal in range(len(_FRAMES)):
        faults = FaultInjector().inject(Fault(
            "collector.handle", kind="exception", after=ordinal, times=1))
        service = RushMonService(
            RushMonConfig(sampling_rate=sr, mob=False, seed=3,
                          detect_interval=60.0),
            faults=faults)
        with RushMonServer(service) as server:
            client = _CodecClient(server.port, "faulty", codec)
            for frame in _FRAMES:
                reply = client.batch(frame)
                if reply["type"] == "error":
                    assert (reply["code"], reply["retriable"]) == \
                        ("draining", True)
                    client.seq -= 1
                    reply = client.batch(frame)
                assert reply == protocol.ack("faulty", client.seq)
            client.close()
        assert faults.fired_by_point["collector.handle"] == 1
        assert server.stats["events_ingested"] == \
            service.processed_events == len(_STREAM), ordinal
        assert service.collector.ops_seen == len(ops), ordinal
        if sr == 1:
            assert service.counts() == exact_cycle_counts(ops), ordinal
