"""Overload-resilient serving: event-loop transport, admission control,
fairness and slow-client defenses (``repro.net.eventloop``).

The event-loop transport's protocol, dedup and recovery semantics are
covered by the whole of ``test_net.py`` / ``test_net_chaos.py`` running
against it (it is the only transport).  This file covers what the
transport itself provides:

- typed ``overloaded`` admission refusals (with ``retry_after``) and
  accept pause/resume at ``max_connections``;
- the client honoring ``retry_after`` and counting refusals;
- slowloris (partial-frame) and idle deadlines;
- the drain deadline staying bounded under a frozen loop (``stall``
  fault at ``net.select``), with force-closes counted;
- serve CLI / config validation for the serving knobs, and the retired
  options (``loop_threads``, ``--columnar``) failing by name;
- the event-loop vs offline sr=1 differential.

Heavy legs (1000-connection smoke, 10:1 fairness under saturation, the
10-seed differential sweep) are marked ``serving`` and run in their own
CI job.
"""

import argparse
import socket
import subprocess
import sys
import time

import pytest

from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.net import RushMonClient, RushMonServer, protocol
from repro.testing import Fault, FaultInjector

from tests.test_net import _ops, _service


def _serve(faults=None, *, service=None, **kwargs):
    kwargs.setdefault("ack_interval", 0.01)
    return RushMonServer(service or _service(faults), faults=faults,
                         **kwargs)


class _Raw:
    """A hand-driven protocol speaker (see test_net._RawClient; this one
    tolerates EOF, which the defense tests need to observe)."""

    def __init__(self, port, timeout=5.0):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=timeout)
        self.reader = protocol.FrameReader()

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(message))

    def recv(self, timeout=5.0):
        """Next message, or None on EOF."""
        self.sock.settimeout(timeout)
        while True:
            data = self.sock.recv(65536)
            if not data:
                return None
            for message in self.reader.feed(data):
                return message

    def eof(self, timeout=5.0):
        """True iff the server closed the connection within timeout."""
        self.sock.settimeout(timeout)
        try:
            while True:
                if not self.sock.recv(65536):
                    return True
        except (socket.timeout, ConnectionError, OSError):
            return False

    def close(self):
        self.sock.close()


# -- protocol + fault vocabulary -----------------------------------------------


def test_overloaded_error_carries_retry_after():
    message = protocol.error("overloaded", "at capacity", retriable=True,
                             retry_after=0.25)
    assert message["retry_after"] == 0.25
    [decoded] = list(protocol.FrameReader().feed(
        protocol.encode_frame(message)))
    assert decoded == message
    # Omitted hint stays off the wire entirely.
    assert "retry_after" not in protocol.error("overloaded", "x",
                                               retriable=True)


def test_fault_vocabulary_for_serving():
    FaultInjector().inject(Fault("net.select", kind="stall", delay=0.01))
    FaultInjector().inject(Fault("net.select", kind="slow-read"))
    FaultInjector().inject(Fault("net.recv", kind="slow-read"))
    with pytest.raises(ValueError):
        Fault("net.recv", kind="stall")
    with pytest.raises(ValueError):
        Fault("net.send", kind="slow-read")
    with pytest.raises(ValueError):
        Fault("net.sel", kind="stall")


# -- accepted sockets ----------------------------------------------------------


def test_accepted_connection_has_nodelay_set():
    """Acks are tens of bytes written behind the client's bulk data;
    with Nagle on, a pipelined client's acks lock one send interval
    behind.  The transport must switch it off where it accepts."""
    with _serve() as server:
        raw = _Raw(server.port)
        raw.send(protocol.hello("nodelay", 0))
        assert raw.recv()["type"] == "welcome"
        with server._conn_lock:
            [conn] = server._connections
        assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        raw.send(protocol.bye())
        raw.close()


# -- admission control ---------------------------------------------------------


def test_admission_refusal_is_typed_and_accepts_resume():
    with _serve(max_connections=1, overload_retry_after=0.2) as server:
        first = _Raw(server.port)
        first.send(protocol.hello("adm-a", 0))
        assert first.recv()["type"] == "welcome"

        # The tipping connection gets the typed refusal, then EOF.
        refused = _Raw(server.port)
        message = refused.recv()
        assert message is not None and message["type"] == "error"
        assert message["code"] == "overloaded"
        assert message["retriable"] is True
        assert message["retry_after"] == pytest.approx(0.2)
        assert refused.eof()
        refused.close()
        assert server.admission_refusals_total == 1

        # Freeing the slot resumes accepts: a fresh client is welcomed.
        first.send(protocol.bye())
        first.close()
        deadline = time.monotonic() + 5.0
        welcomed = False
        while time.monotonic() < deadline and not welcomed:
            again = _Raw(server.port)
            again.send(protocol.hello("adm-b", 0))
            reply = again.recv(timeout=1.0)
            welcomed = reply is not None and reply["type"] == "welcome"
            again.close()
            if not welcomed:
                time.sleep(0.05)
        assert welcomed


def test_client_honors_retry_after_and_counts_refusals():
    with _serve(max_connections=1, overload_retry_after=0.1) as server:
        hog = _Raw(server.port)
        hog.send(protocol.hello("hog", 0))
        assert hog.recv()["type"] == "welcome"

        client = RushMonClient("127.0.0.1", server.port, batch_size=8,
                               flush_interval=0.005, backoff_base=0.01,
                               backoff_max=0.5)
        client.start()
        try:
            # Exactly one typed refusal is expected: the tipping
            # connection is refused, then accepts pause and the
            # client's backoff-paced retries queue in the backlog.
            deadline = time.monotonic() + 5.0
            while client.refusals_total < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert client.refusals_total >= 1
            assert client.counters()["refusals"] >= 1

            # Slot freed: the next backoff-paced retry gets in and the
            # session delivers normally.
            hog.send(protocol.bye())
            hog.close()
            for op in _ops(40, 8, seed=3):
                client.on_operation(op)
            assert client.flush(10.0)
        finally:
            client.close()
        assert server.stats["events_ingested"] == 40
    assert server.admission_refusals_total >= 1


# -- slow-client defenses ------------------------------------------------------


def test_slowloris_partial_frame_is_disconnected():
    with _serve(partial_frame_timeout=0.25, idle_timeout=None) as server:
        loris = _Raw(server.port)
        whole = protocol.encode_frame(protocol.hello("loris", 0))
        loris.sock.sendall(whole[:5])  # header dribble, never finished
        assert loris.eof(timeout=5.0)
        loris.close()
        assert server.partial_frame_disconnects_total == 1
        # A whole-frame client on the same server is untouched.
        ok = _Raw(server.port)
        ok.send(protocol.hello("ok", 0))
        assert ok.recv()["type"] == "welcome"
        ok.close()


def test_partial_frame_clock_not_reset_by_trickle():
    """Dribbling one byte per interval must not dodge the deadline: the
    clock starts at the first partial byte and only a completed frame
    clears it."""
    with _serve(partial_frame_timeout=0.4, idle_timeout=None) as server:
        loris = _Raw(server.port)
        whole = protocol.encode_frame(protocol.hello("loris", 0))
        start = time.monotonic()
        closed = False
        for i in range(min(10, len(whole) - 1)):
            try:
                loris.sock.sendall(whole[i:i + 1])
            except (ConnectionError, OSError):
                closed = True
                break
            time.sleep(0.1)
        assert closed or loris.eof(timeout=5.0)
        assert time.monotonic() - start < 4.0
        loris.close()
        assert server.partial_frame_disconnects_total == 1


def test_idle_connection_is_disconnected():
    with _serve(idle_timeout=0.3) as server:
        idler = _Raw(server.port)
        idler.send(protocol.hello("idler", 0))
        assert idler.recv()["type"] == "welcome"
        assert idler.eof(timeout=5.0)
        idler.close()
        assert server.idle_disconnects_total == 1


# -- drain ---------------------------------------------------------------------


def test_drain_deadline_bounded_when_loop_frozen():
    """A stall fault freezes the loop threads mid-select; drain() must
    still return within its one deadline, force-closing what could not
    be flushed and counting it."""
    faults = FaultInjector().inject(
        Fault("net.select", kind="stall", delay=3.0, after=10, times=50)
    )
    server = _serve(faults, drain_timeout=1.0)
    server.start()
    conn = _Raw(server.port)
    conn.send(protocol.hello("frozen", 0))
    assert conn.recv()["type"] == "welcome"
    # Let the fault arm (after=10 keeps the handshake clean), then
    # give the loops a moment to freeze inside the stalled select.
    time.sleep(0.5)
    start = time.monotonic()
    server.drain()
    elapsed = time.monotonic() - start
    assert elapsed < 4.0
    assert server.drain_forced_total >= 1
    conn.close()


# -- CLI + config validation ---------------------------------------------------


def test_retired_selectors_fail_naming_the_removal():
    """``loop_threads`` sized the event-loop pool (the server now runs
    one loop thread) and ``--columnar`` selected the numpy ingest path;
    both are gone, and asking for them says so instead of silently
    doing something else."""
    with pytest.raises(TypeError, match="loop_threads"):
        RushMonConfig(loop_threads=2)
    service = _service()
    try:
        with pytest.raises(TypeError, match="loop_threads"):
            RushMonServer(service, loop_threads=1)
    finally:
        service.stop()
    for args, flag in (
            (["serve", "--port", "0", "--loop-threads", "0"],
             "--loop-threads"),
            (["serve", "--port", "0", "--loop-threads", "2"],
             "--loop-threads"),
            (["quickstart", "--columnar"], "--columnar")):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True, text=True, env={"PYTHONPATH": "src"},
        )
        assert proc.returncode != 0
        assert f"unrecognized arguments: {flag}" in proc.stderr, \
            (args, proc.stderr)


def test_config_serving_validation_names_the_field():
    for kwargs, field in [
        ({"max_connections": 0}, "max_connections"),
        ({"idle_timeout": -1.0}, "idle_timeout"),
        ({"drain_timeout": 0.0}, "drain_timeout"),
    ]:
        with pytest.raises(ValueError, match=field):
            RushMonConfig(**kwargs)


def test_from_cli_args_idle_timeout_zero_disables():
    cfg = RushMonConfig.from_cli_args(argparse.Namespace(idle_timeout=0.0))
    assert cfg.idle_timeout is None
    cfg = RushMonConfig.from_cli_args(argparse.Namespace())
    assert cfg.idle_timeout == RushMonConfig().idle_timeout
    cfg = RushMonConfig.from_cli_args(argparse.Namespace(
        idle_timeout=12.5, max_connections=77, drain_timeout=2.5))
    assert (cfg.idle_timeout, cfg.max_connections,
            cfg.drain_timeout) == (12.5, 77, 2.5)


def test_server_rejects_bad_serving_kwargs():
    service = _service()
    try:
        for kwargs in [{"max_connections": 0},
                       {"idle_timeout": 0}, {"partial_frame_timeout": 0},
                       {"inflight_cap": 0}, {"write_high_watermark": 1},
                       {"overload_retry_after": 0}]:
            with pytest.raises(ValueError):
                RushMonServer(service, **kwargs)
    finally:
        service.stop()


# -- differential --------------------------------------------------------------


def _ingest_counts(ops):
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.005) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(10.0)
    return service.counts()


def _offline_counts(ops):
    offline = OfflineAnomalyMonitor()
    for op in ops:
        offline.on_operation(op)
    return offline.exact_counts()


def test_eventloop_matches_offline_smoke():
    for seed in (7, 8):
        ops = _ops(300, 10, seed=seed)
        assert _ingest_counts(ops) == _offline_counts(ops)


@pytest.mark.serving
def test_sr1_differential_ten_seeds():
    """The acceptance differential: the event-loop transport and the
    offline monitor agree bit-exactly on sr=1 counts across 10 seeds."""
    for seed in range(10):
        ops = _ops(400, 12, seed=100 + seed)
        assert _ingest_counts(ops) == _offline_counts(ops), seed


# -- scale + fairness (serving job) --------------------------------------------


@pytest.mark.serving
def test_thousand_connection_smoke():
    """>= 1000 concurrent sessions on the fixed loop pool: every hello
    is welcomed and every ping answered while all stay open."""
    count = 1000
    with _serve(idle_timeout=None) as server:
        socks = []
        try:
            for i in range(count):
                sock = socket.create_connection(("127.0.0.1", server.port),
                                                timeout=30.0)
                sock.sendall(protocol.encode_frame(
                    protocol.hello(f"smoke-{i}", 0)))
                socks.append(sock)
            readers = [protocol.FrameReader() for _ in socks]

            def pump(sock, reader, want, timeout=60.0):
                sock.settimeout(timeout)
                while True:
                    for message in reader.feed(sock.recv(65536)):
                        if message["type"] == want:
                            return message

            for sock, reader in zip(socks, readers):
                assert pump(sock, reader, "welcome") is not None
            assert server.connections_current >= count
            for i, (sock, reader) in enumerate(zip(socks, readers)):
                sock.sendall(protocol.encode_frame(protocol.ping(i)))
            for i, (sock, reader) in enumerate(zip(socks, readers)):
                assert pump(sock, reader, "pong")["nonce"] == i
            assert server.connections_total >= count
        finally:
            for sock in socks:
                sock.close()


@pytest.mark.serving
def test_fairness_light_client_not_starved_by_heavy():
    """10:1 offered rates with the heavy side past saturation: the
    round-robin dispatcher + in-flight caps must keep the light session
    acked and responsive (bounds are generous — the reference host is
    single-core, so everything shares one CPU)."""
    from repro.bench.loadgen import OpenLoopEmitter, record_workload, \
        run_emitters

    records = record_workload("ycsb", buus=4000, seed=5)
    service = RushMonService(
        RushMonConfig(sampling_rate=20, mob=True, seed=0, num_shards=2,
                      detect_interval=3600.0),
    )
    with RushMonServer(service, ack_interval=0.02) as server:
        heavy = OpenLoopEmitter("127.0.0.1", server.port, records,
                                target_rate=20000, batch_size=64,
                                session="heavy", drain_window=10.0)
        # The light session replays a prefix of the same recording under
        # BUU ids of its own: two sessions interleaving the *same* ids
        # deliver operations after "their" BUU's commit, which the
        # detector rejects (LifecycleOrderError).
        light = OpenLoopEmitter("127.0.0.1", server.port,
                                [[r[0], r[1] + 10**6, *r[2:]]
                                 for r in records[:2000]], target_rate=2000,
                                batch_size=64, session="light",
                                drain_window=10.0)
        heavy_result, light_result = run_emitters([heavy, light])
    assert light_result.error is None
    light_fraction = (light_result.acked_events
                      / max(1, light_result.offered_events))
    assert light_fraction >= 0.9, light_result.summary()
    assert light_result.percentile(0.99) < 5.0, light_result.summary()
    # The heavy session is past saturation but must still make real
    # progress (shed/slowed, never starved or stalled out entirely).
    heavy_fraction = (heavy_result.acked_events
                      / max(1, heavy_result.offered_events))
    assert heavy_fraction > 0.2, heavy_result.summary()
