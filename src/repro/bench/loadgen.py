"""Open-loop load generation for the serving soak bench.

A closed-loop load generator (send, wait for the ack, send the next)
silently slows down with the server, so an overloaded server looks
merely "busy" — the classic *coordinated omission* trap.  This module
is open-loop: every batch has a **scheduled** send time on a fixed
cadence derived from the target rate, and ack latency is measured from
the *scheduled* time, not the actual send.  A server that stalls for a
second therefore shows up as a second of latency on every batch that
was due in that window, exactly what a real client population would
have experienced.

Building blocks:

- :func:`record_workload` — pre-generate wire event records by running
  a :mod:`repro.workloads` generator (ycsb / bookstore) through the
  simulator once, with a recording listener.  Pre-generation keeps
  workload synthesis off the emitters' timed path.
- :class:`OpenLoopEmitter` — one client session speaking the raw
  :mod:`repro.net.protocol` on a blocking socket: a sender thread
  pacing batches on the schedule and a receiver thread timestamping
  acks.  Typed refusals (``backpressure`` / ``degraded``) are *shed*:
  the batch's events are counted as refused and its sequence number is
  resent empty, so the session stays gap-free and the refusal is
  honest load-shedding, never a stall.  An ``overloaded`` admission
  refusal at connect is counted and surfaces in the result.
- :func:`run_emitters` — drive several emitters concurrently (the
  fairness leg runs a firehose and a trickle side by side).
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

from repro.net import protocol
from repro.net.protocol import FrameReader, encode_frame

__all__ = [
    "LoadResult", "OpenLoopEmitter", "record_workload", "run_emitters",
]


class _Recorder:
    """A monitor listener that turns a simulated run into wire records."""

    def __init__(self) -> None:
        self.records: list = []

    def on_operation(self, op) -> None:
        self.records.append(protocol.wire_op(op))

    def on_operations(self, ops) -> None:
        for op in ops:
            self.records.append(protocol.wire_op(op))

    def begin_buu(self, buu: int, start_time: int = 0) -> None:
        self.records.append(protocol.wire_begin(buu, start_time))

    def commit_buu(self, buu: int, commit_time: int = 0) -> None:
        self.records.append(protocol.wire_commit(buu, commit_time))


def record_workload(kind: str = "ycsb", buus: int = 200,
                    seed: int = 0) -> list:
    """Pre-generate wire records for ``buus`` transactions of ``kind``
    (``"ycsb"`` or ``"bookstore"``), deterministically per seed."""
    from repro.sim import SimConfig, Simulator

    recorder = _Recorder()
    if kind == "ycsb":
        from repro.workloads.ycsb import YcsbConfig, YcsbWorkload

        workload = YcsbWorkload(YcsbConfig(seed=seed))
        sim = Simulator(SimConfig(num_workers=8, seed=seed),
                        listeners=[recorder])
        sim.run(workload.buus(buus))
    elif kind == "bookstore":
        from repro.workloads.bookstore import Bookstore

        store = Bookstore()
        store.simulator.subscribe(recorder)
        sim = store.simulator
        sim.run(store.purchase_buu() for _ in range(buus))
    else:
        raise ValueError(f"unknown workload kind {kind!r}; options: "
                         f"'ycsb', 'bookstore'")
    return recorder.records


def _percentile(sorted_values: list[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(p * len(sorted_values)))
    return sorted_values[index]


@dataclass
class LoadResult:
    """What one emitter experienced, coordinated-omission-safe."""

    offered_batches: int = 0
    offered_events: int = 0
    acked_batches: int = 0
    acked_events: int = 0
    refused_batches: int = 0
    refused_events: int = 0
    #: ``overloaded`` admission refusals at connect time.
    admission_refusals: int = 0
    #: Batches never acknowledged by the end of the drain window.
    lost_batches: int = 0
    duration: float = 0.0
    #: Scheduled-send -> ack seconds for every acked non-empty batch.
    latencies: list[float] = field(default_factory=list)
    error: str | None = None

    @property
    def acked_rate(self) -> float:
        """Events per second the server actually absorbed."""
        return self.acked_events / self.duration if self.duration else 0.0

    def percentile(self, p: float) -> float:
        return _percentile(sorted(self.latencies), p)

    def summary(self) -> dict:
        latencies = sorted(self.latencies)
        return {
            "offered_events": self.offered_events,
            "acked_events": self.acked_events,
            "refused_events": self.refused_events,
            "admission_refusals": self.admission_refusals,
            "lost_batches": self.lost_batches,
            "acked_rate": round(self.acked_rate, 1),
            "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
            "p999_ms": round(_percentile(latencies, 0.999) * 1e3, 3),
        }


class OpenLoopEmitter:
    """One open-loop client session (see module docstring).

    ``records`` are sent in batches of ``batch_size`` events; batch
    ``k`` is *scheduled* at ``t0 + k * batch_size / target_rate`` and
    its ack latency is measured from that scheduled instant.  The
    emitter never slows down to match the server; it is the server's
    job to shed honestly.
    """

    def __init__(self, host: str, port: int, records: list, *,
                 target_rate: float, batch_size: int = 32,
                 session: str | None = None,
                 drain_window: float = 5.0,
                 connect_retries: int = 0) -> None:
        if target_rate <= 0:
            raise ValueError("target_rate must be > 0 events/second")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.host = host
        self.port = port
        self.records = records
        self.target_rate = target_rate
        self.batch_size = batch_size
        self.session = session or f"loadgen-{id(self):x}"
        self.drain_window = drain_window
        self.connect_retries = connect_retries
        self.result = LoadResult()
        self._reader = FrameReader()
        self._lock = threading.Lock()
        self._wlock = threading.Lock()
        #: seq -> (scheduled_time, event_count); dropped when acked.
        self._outstanding: dict[int, tuple[float, int]] = {}
        #: seqs refused by a typed error, to resend empty (shed).
        self._to_resend: list[int] = []
        #: seqs whose events were shed (latency not recorded on ack).
        self._shed: set[int] = set()
        self._settled = threading.Event()
        self._dead = threading.Event()
        self._sock: socket.socket | None = None

    # -- wire helpers ----------------------------------------------------------

    def _send(self, message: dict) -> None:
        sock = self._sock
        if sock is None:
            raise OSError("not connected")
        frame = encode_frame(message, protocol.CODEC_JSON)
        with self._wlock:
            sock.sendall(frame)

    def _connect(self) -> bool:
        for attempt in range(self.connect_retries + 1):
            try:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=5.0)
            except OSError as exc:
                self.result.error = f"connect failed: {exc}"
                return False
            sock.settimeout(0.1)
            self._sock = sock
            self._reader = FrameReader()
            try:
                self._send(protocol.hello(self.session, 0))
                first = self._await_first()
            except OSError as exc:
                sock.close()
                self._sock = None
                self.result.error = f"hello failed: {exc}"
                return False
            if first is not None and first.get("type") == "welcome":
                return True
            sock.close()
            self._sock = None
            if first is not None and first.get("code") == "overloaded":
                self.result.admission_refusals += 1
                hint = float(first.get("retry_after") or 0.1)
                if attempt < self.connect_retries:
                    time.sleep(hint)
                    continue
                self.result.error = "admission refused (overloaded)"
                return False
            self.result.error = f"unexpected first message: {first!r}"
            return False
        return False

    def _await_first(self) -> dict | None:
        deadline = time.monotonic() + 5.0
        sock = self._sock
        while time.monotonic() < deadline:
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                return None
            if not data:
                return None
            for message in self._reader.feed(data):
                return message
        return None

    # -- receive side ----------------------------------------------------------

    def _receive_loop(self) -> None:
        sock = self._sock
        result = self.result
        while not self._dead.is_set():
            try:
                data = sock.recv(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:
                break
            now = time.monotonic()
            try:
                messages = list(self._reader.feed(data))
            except protocol.ProtocolError:
                break
            for message in messages:
                kind = message.get("type")
                if kind == "ack":
                    self._on_ack(int(message.get("seq", 0)), now)
                elif kind == "error":
                    self._on_error(message)
                elif kind == "bye":
                    self._dead.set()
        self._dead.set()
        self._settled.set()

    def _on_ack(self, seq: int, now: float) -> None:
        with self._lock:
            result = self.result
            for pending_seq in [s for s in self._outstanding if s <= seq]:
                scheduled, events = self._outstanding.pop(pending_seq)
                result.acked_batches += 1
                if pending_seq in self._shed:
                    self._shed.discard(pending_seq)
                else:
                    result.acked_events += events
                    result.latencies.append(now - scheduled)
            if not self._outstanding:
                self._settled.set()

    def _on_error(self, message: dict) -> None:
        code = message.get("code")
        seq = message.get("seq")
        with self._lock:
            if code in ("backpressure", "degraded") and seq is not None \
                    and seq in self._outstanding and seq not in self._shed:
                # Honest shed: the events are refused and counted; the
                # sequence number is resent empty to stay gap-free.
                _scheduled, events = self._outstanding[seq]
                self.result.refused_batches += 1
                self.result.refused_events += events
                self._shed.add(seq)
                self._to_resend.append(seq)
            elif code in ("draining", "bad-frame", "bad-session"):
                self.result.error = f"server error [{code}]"
                self._dead.set()

    # -- the run ---------------------------------------------------------------

    def run(self) -> LoadResult:
        result = self.result
        if not self._connect():
            self._settled.set()
            return result
        receiver = threading.Thread(target=self._receive_loop,
                                    name="loadgen-recv", daemon=True)
        receiver.start()
        records = self.records
        size = self.batch_size
        interval = size / self.target_rate
        batches = [records[i:i + size] for i in range(0, len(records), size)]
        start = time.monotonic()
        try:
            for index, events in enumerate(batches):
                if self._dead.is_set():
                    break
                scheduled = start + index * interval
                now = time.monotonic()
                if scheduled > now:
                    time.sleep(scheduled - now)
                self._drain_resends()
                seq = index + 1
                with self._lock:
                    self._outstanding[seq] = (scheduled, len(events))
                    self._settled.clear()
                result.offered_batches += 1
                result.offered_events += len(events)
                self._send(protocol.batch(self.session, seq, events))
        except OSError as exc:
            result.error = result.error or f"send failed: {exc}"
            self._dead.set()
        # Drain window: give in-flight acks (and refusal resends) a
        # bounded chance to settle, then stop counting.
        deadline = time.monotonic() + self.drain_window
        while time.monotonic() < deadline and not self._dead.is_set():
            if self._settled.wait(0.05):
                with self._lock:
                    if not self._outstanding and not self._to_resend:
                        break
            try:
                self._drain_resends()
            except OSError:
                break
        result.duration = time.monotonic() - start
        with self._lock:
            result.lost_batches = len(self._outstanding)
        try:
            self._send(protocol.bye())
        except OSError:
            pass
        self._dead.set()
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        receiver.join(1.0)
        return result

    def _drain_resends(self) -> None:
        with self._lock:
            resend, self._to_resend = self._to_resend, []
        for seq in resend:
            self._send(protocol.batch(self.session, seq, []))


def run_emitters(emitters: list[OpenLoopEmitter]) -> list[LoadResult]:
    """Run several emitters concurrently; returns their results in
    order (each emitter's ``result`` is also populated in place)."""
    threads = [threading.Thread(target=e.run, name=f"loadgen-{i}",
                                daemon=True)
               for i, e in enumerate(emitters)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [e.result for e in emitters]
