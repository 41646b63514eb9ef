"""Wire system under test: ``python -m repro serve`` in its own process,
fed pre-encoded frames on a JSON and a packed connection."""

from __future__ import annotations

import http.client
import json
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time

import gen
from harness import (CLOSE_INTERVAL, PRODUCERS, SERVICE_CHUNK, WIRE_CHUNK,
                     Outcome, Profile, Samples, Spec, require_cpus,
                     sleep_until)
from measure import (HostSpeed, Tracer, begin_span, end_span, median,
                     proc_cpu_clock, proc_cpu_seconds, proc_peak_rss_mb,
                     quantile)
from repro.core import RushMonConfig
from repro.net import RushMonClient, protocol


#: Seconds of paced traffic per lap; the host's speed is probed between laps.
LAP_SECONDS = 2.0


class ServeChild:
    """A ``serve`` subprocess and what the harness knows about it from
    outside: its stdout lines, /proc readings and /metrics.json."""

    def __init__(self, config: RushMonConfig) -> None:
        argv = [sys.executable, "-m", "repro", "serve", "--no-trace",
                "--port", "0", "--export-port", "0",
                "--sampling-rate", str(config.sampling_rate),
                "--detect-interval", str(config.detect_interval)]
        if not config.mob:
            argv.append("--no-mob")
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        self.port = self.metrics_port = 0
        try:
            while not self.port:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError("serve exited before listening")
                if line.startswith("metrics exported at"):
                    self.metrics_port = int(
                        line.split(":")[2].split("/")[0])
                elif line.startswith("rushmon server listening on"):
                    self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def scrape(self) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.metrics_port,
                                          timeout=10)
        try:
            conn.request("GET", "/metrics.json")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def drain(self) -> tuple[int, str]:
        """SIGTERM, wait for the graceful drain; (exit code, output)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            output, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            output, _ = self.proc.communicate()
        return self.proc.returncode, output


def events_per_op(family: gen.Family) -> float:
    """Wire events per monitored op: each BUU adds a begin and a commit."""
    return (family.ops_per_buu + 2) / family.ops_per_buu


def wire_events(chunk: gen.Chunk, key_offset: int = 0) -> list[list]:
    """A chunk as wire event records: its begins, its ops, its commits
    (the server ingests a run of ops between lifecycle records as one
    ``on_operations`` call)."""
    events = [protocol.wire_begin(b, t) for b, t in chunk.begins]
    events += [[op.op.value, op.buu, op.key + key_offset, op.seq]
               for op in chunk.ops]
    events += [protocol.wire_commit(b, t) for b, t in chunk.commits]
    return events


class WireSession:
    """One connection: pre-encoded frames out, cumulative acks in."""

    def __init__(self, port: int, name: str, codec: int) -> None:
        self.name = name
        self.codec = codec
        self.reader = protocol.FrameReader()
        self.frames: list[bytes] = []
        self.events: list[int] = []      # events per frame
        self.due: list[float] = []       # scheduled send time per frame
        self.acked_at: list[float] = []  # ack arrival per frame
        self.acked = 0                   # frames acknowledged so far
        self.errors: list[dict] = []
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._quick_ack()
        self.sock.sendall(protocol.encode_frame(protocol.hello(name), codec))
        while True:
            replies = list(self.reader.feed(self.sock.recv(65536)))
            if replies:
                break
        if replies[0]["type"] != "welcome":
            raise RuntimeError(f"expected welcome, got {replies[0]}")

    def _quick_ack(self) -> None:
        """Acknowledge the server's segments at once.  ``serve`` leaves
        Nagle's algorithm on, so with a client that delays its ACKs one
        late ack frame locks the whole ack stream one send interval
        behind (see README); the ledger measures the server, not that
        lock-in.  Linux clears the flag after use, hence once per read."""
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)

    def load(self, stream: gen.Stream, key_offset: int) -> None:
        """Encode the stream as one frame per ``WIRE_CHUNK`` ops.  Keys
        are shifted so that sessions never share an item."""
        for seq, chunk in enumerate(gen.chunked(stream, WIRE_CHUNK), 1):
            events = wire_events(chunk, key_offset)
            self.frames.append(protocol.encode_frame(
                protocol.batch(self.name, seq, events), self.codec))
            self.events.append(len(events))
        self.due = [0.0] * len(self.frames)
        self.acked_at = [0.0] * len(self.frames)

    def on_readable(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise RuntimeError(f"server closed session {self.name}")
        now = time.perf_counter()
        self._quick_ack()
        for message in self.reader.feed(data):
            if message["type"] == "ack":
                for index in range(self.acked, message["seq"]):
                    self.acked_at[index] = now
                self.acked = max(self.acked, message["seq"])
            elif message["type"] == "error":
                self.errors.append(message)

    def latencies(self) -> list[float]:
        return [a - d for a, d in zip(self.acked_at[:self.acked],
                                      self.due[:self.acked])]

    def close(self) -> None:
        try:
            self.sock.sendall(protocol.encode_frame(protocol.bye(),
                                                    self.codec))
        except OSError:
            pass
        self.sock.close()


def _receive(sessions, stop: threading.Event, failures: list) -> None:
    """Receiving thread: read acks on every session until each has all
    its frames acknowledged (or ``stop`` is set)."""
    selector = selectors.DefaultSelector()
    for session in sessions:
        session.sock.setblocking(False)
        selector.register(session.sock, selectors.EVENT_READ, session)
    try:
        while not stop.is_set() and any(
                s.acked < len(s.frames) for s in sessions):
            for key, _ in selector.select(timeout=0.05):
                try:
                    key.data.on_readable()
                except BlockingIOError:
                    pass
    except Exception as exc:  # surfaced as a failed check by the caller
        failures.append(repr(exc))
    finally:
        selector.close()


def _blocking_send(sock: socket.socket, frame: bytes) -> None:
    """``sendall`` on a socket the receiving thread made non-blocking."""
    view = memoryview(frame)
    while view:
        try:
            view = view[sock.send(view):]
        except BlockingIOError:
            time.sleep(0.0005)


def run_wire(spec: Spec, seed: int, seconds: float, profile: Profile,
             tracer: Tracer | None = None, verify: bool = True) -> Outcome:
    require_cpus(PRODUCERS, "wire_mixed")
    out = Outcome()
    config = spec.config
    family = spec.family
    rate = profile.wire_rate[family.name]
    prep = time.perf_counter()
    # Streams 0/1: the paced sessions; traced runs add 2: RushMonClient
    # and 3: saturation.
    n_streams = 4 if tracer else 2
    per_session = int(rate * seconds / events_per_op(family))
    sizes = [per_session, per_session, profile.client_ops,
             int(per_session / 2)]
    streams = [gen.make_stream(family, seed, sizes[j], producer=j,
                               producers=n_streams)
               for j in range(n_streams)]
    out.input_hash = gen.stream_hash(streams)
    out.prep_s = time.perf_counter() - prep

    host = HostSpeed(profile.probe_reps)
    setups = []
    child = None
    try:
        for attempt in range(profile.setups["wire"] + 1):
            if child is not None:
                child.drain()
            started = time.perf_counter()
            child = ServeChild(config)
            probe = WireSession(child.port, f"probe{attempt}",
                                protocol.CODEC_JSON)
            if attempt:   # the first spawn only warms the page cache
                setups.append(time.perf_counter() - started)
                host.probe()
            probe.close()
        _drive_wire(out, child, streams, family, rate, profile, tracer, host)
        peak = proc_peak_rss_mb(child.pid)
    finally:
        if child is not None:
            code, output = child.drain()
    out.metrics["setup_s"] = median(setups)
    out.metrics["peak_rss_mb"] = peak
    out.scale_to_nominal_speed(host, "wire")
    out.check("serve_exit_0", code == 0, f"exit {code}")
    drained = [line for line in output.splitlines()
               if line.startswith("drained.")]
    out.check("drained_line", bool(drained),
              "" if drained else output[-300:])
    if drained:
        fields = dict(part.split("=") for part in drained[0].split()[1:])
        out.check("drained_events",
                  int(fields["events"]) == out.attempted,
                  f"serve counted {fields['events']} of {out.attempted}")
    return out


def _drive_wire(out: Outcome, child: ServeChild, streams, family, rate,
                profile: Profile, tracer: Tracer | None,
                host: HostSpeed) -> None:
    prep = time.perf_counter()
    sessions = [
        WireSession(child.port, "json", protocol.CODEC_JSON),
        WireSession(child.port, "packed", protocol.CODEC_COLUMNAR),
    ]
    for j, session in enumerate(sessions):
        session.load(streams[j], j * family.keys)
    out.prep_s += time.perf_counter() - prep
    paced_events = sum(sum(s.events) for s in sessions)
    ticks = max(len(s.frames) for s in sessions)
    interval = (paced_events / len(sessions) / ticks) / rate
    # Laps of equal length: a short last lap would put one wild reading
    # among the few the medians are taken over.
    laps = max(1, round(ticks * interval / LAP_SECONDS))
    bounds = [ticks * k // laps for k in range(laps + 1)]

    stop = threading.Event()
    failures: list = []
    late: list[float] = []
    sends = Samples()
    # Per lap: events acked, wall seconds, CPU seconds of the child.
    counts, walls, cpus = [], [], []
    user_sys0 = proc_cpu_seconds(child.pid)

    def pace():
        """Laps of scheduled sends; a lap ends when its last frame is
        acknowledged, and the host probe runs in the pause before the
        next."""
        clock = time.perf_counter
        for lo, hi in zip(bounds, bounds[1:]):
            cpu0 = proc_cpu_clock(child.pid)
            start = clock() + 0.02
            for i in range(lo, hi):
                due = start + (i - lo) * interval
                late.append(sleep_until(due))
                for session in sessions:
                    if i < len(session.frames):
                        session.due[i] = due
                        span = begin_span(tracer, "net.send_frame")
                        began = clock()
                        _blocking_send(session.sock, session.frames[i])
                        sends.calls.append((clock() - began,
                                            session.events[i]))
                        end_span(tracer, span)
            give_up = clock() + 30
            while (any(s.acked < min(hi, len(s.frames)) for s in sessions)
                   and not failures and clock() < give_up):
                time.sleep(0.001)
            walls.append(clock() - start)
            cpus.append(proc_cpu_clock(child.pid) - cpu0)
            counts.append(sum(sum(s.events[lo:min(hi, s.acked)])
                              for s in sessions))
            if not counts[-1]:
                failures.append(f"no frame of lap {len(counts)} was "
                                f"acknowledged")
                return
            host.probe()

    receiver = threading.Thread(target=_receive,
                                args=(sessions, stop, failures))
    pacer = threading.Thread(target=pace)
    receiver.start()
    pacer.start()
    scrapes: list[float] = []
    start = time.perf_counter()
    tick = 1
    while pacer.is_alive():
        sleep_until(start + tick * CLOSE_INTERVAL)
        tick += 1
        span = begin_span(tracer, "obs.exporter.scrape")
        began = time.perf_counter()
        child.scrape()
        scrapes.append(time.perf_counter() - began)
        end_span(tracer, span)
    pacer.join()
    stop.set()
    receiver.join()
    if not counts or not counts[-1]:
        raise RuntimeError("; ".join(failures))
    after_paced = child.scrape()
    user_s, sys_s = (after - before for after, before in
                     zip(proc_cpu_seconds(child.pid), user_sys0))

    client_events = sat_events = 0
    emit_us = sat_rate = 0.0
    if tracer:
        client_events, emit_us = _client_leg(out, child.port, streams[2],
                                             2 * family.keys, tracer)
        sat_events, sat_rate = _saturate(child.port, streams[3],
                                         3 * family.keys)

    final = child.scrape()
    all_latencies = [x for s in sessions for x in s.latencies()]
    out.attempted = paced_events + client_events + sat_events
    ingested = int(final["rushmon_net_events_ingested_total"])
    out.failed = out.attempted - ingested
    out.metrics.update({
        "ops_per_s": median([n / w for n, w in zip(counts, walls)]),
        "cpu_us_per_op":
            median([c / n for c, n in zip(cpus, counts)]) * 1e6,
        "ack_ms_p50": median(all_latencies) * 1e3,
    })
    for session in sessions:
        out.check(f"all_acked.{session.name}",
                  session.acked == len(session.frames) and not session.errors,
                  f"{session.acked}/{len(session.frames)} frames, "
                  f"errors {session.errors[:1]}")
        session.close()
    out.check("receiver_clean", not failures, "; ".join(failures))
    out.check("events_ingested", ingested == out.attempted,
              f"server ingested {ingested} of {out.attempted}")
    out.check("no_dedup_hits", final["rushmon_net_dedup_hits_total"] == 0)
    out.check("health_ok", final["rushmon_service_degraded"] == 0)
    cycles = int(final["rushmon_detector_cycles_total"])
    floor = profile.cycle_floor["wire"]
    out.check("raw_cycle_floor", cycles >= floor,
              f"{cycles} raw sampled cycles, floor {floor}")
    server_ack = after_paced["rushmon_net_ack_latency_seconds"]
    out.layers.update({
        "run.cpu_s": sum(cpus),
        "run.ops": paced_events,
        "check.raw_cycles": cycles,
        "net.server.send_us_per_event_p50": sends.caller_us_p(0.5),
        "net.server.scrape_ms_p50": median(scrapes) * 1e3,
        "net.server.frames": after_paced["rushmon_net_frames_total"],
        "net.server.acks": after_paced["rushmon_net_acks_total"],
        "net.server.cpu_user_s": user_s,
        "net.server.cpu_sys_s": sys_s,
        "net.server.server_ack_ms_mean": server_ack["mean"] * 1e3,
        "net.server.ack_ms_p50.codec0":
            median(sessions[0].latencies()) * 1e3,
        "net.server.ack_ms_p50.codec2":
            median(sessions[1].latencies()) * 1e3,
        "net.server.ack_ms_p99": quantile(all_latencies, 0.99) * 1e3,
        "net.server.generator_late_ms_max": max(late) * 1e3,
        "net.server.sat_events_per_s": sat_rate,
        "net.client.emit_us_per_op": emit_us,
    })


def _client_leg(out: Outcome, port: int, stream: gen.Stream, key_offset: int,
                tracer: Tracer) -> tuple[int, float]:
    """The application's side of the wire deployment: the stream goes
    through ``RushMonClient``'s listener surface (packed codec), each
    ``on_operations`` call timed; (events sent, median us per op)."""
    client = RushMonClient("127.0.0.1", port, batch_size=256,
                           codec=protocol.CODEC_COLUMNAR, seed=0)
    shifted = gen.Stream(stream.family,
                         [op._replace(key=op.key + key_offset)
                          for op in stream.ops],
                         stream.begins, stream.commits)
    samples = Samples()
    clock = time.perf_counter
    for chunk in gen.chunked(shifted, SERVICE_CHUNK):
        for buu, when in chunk.begins:
            client.begin_buu(buu, when)
        span = tracer.begin("net.client.on_operations")
        began = clock()
        client.on_operations(chunk.ops)
        samples.calls.append((clock() - began, len(chunk.ops)))
        tracer.end(span)
        for buu, when in chunk.commits:
            client.commit_buu(buu, when)
    flushed = client.close(timeout=30)
    counters = client.counters()
    out.check("client_flushed", flushed and not counters["shed_events"]
              and not counters["retransmits"], str(counters))
    return counters["events_enqueued"], samples.caller_us_p(0.5)


def _saturate(port: int, stream: gen.Stream, key_offset: int,
              window: int = 8) -> tuple[int, float]:
    """Closed loop with ``window`` frames in flight on one packed
    connection; (events sent, events/s)."""
    session = WireSession(port, "saturate", protocol.CODEC_COLUMNAR)
    session.load(stream, key_offset)
    sent = 0
    started = time.perf_counter()
    while session.acked < len(session.frames):
        while sent < len(session.frames) and sent - session.acked < window:
            session.sock.sendall(session.frames[sent])
            sent += 1
        session.on_readable()
    elapsed = time.perf_counter() - started
    if session.errors:
        raise RuntimeError(f"saturation leg refused: {session.errors[0]}")
    session.close()
    events = sum(session.events)
    return events, events / elapsed
