"""Networked ingestion (`repro.net`): protocol, delivery and policy tests.

Covers the wire layer bottom-up:

- framing: length-prefix + CRC round trips, partial TCP chunks, corrupt
  prefixes/bodies are refused (``ProtocolError``), oversized frames are
  bounded;
- delivery: an in-process server/client pair reproduces the offline
  monitor's sr=1 counts exactly; replayed batches dedup; sequence gaps
  are rejected as protocol violations;
- typed failure propagation: journal backpressure and DEGRADED health
  reach the client as typed errors and the configured policy (block /
  shed) is honored with honest counters;
- the client's bounded queue (block raises :class:`ClientBackpressure`,
  shed counts);
- durability plumbing: the session table rides inside the service
  checkpoint (``extra_state``) and survives restore;
- net metrics are registered and visible over the ``/metrics`` endpoint;
- the ``serve`` / ``emit`` CLI round trip (subprocess smoke test).

The crash-recovery story (SIGKILL mid-stream, 20 seeds) lives in
``tests/test_net_chaos.py``.
"""

import json
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cli import _counter_buus, _sim_config, build_parser
from repro.core.collector import ItemSampler
from repro.core.concurrent import RushMonService
from repro.core.concurrent.journaled import EV_OPS
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.net import (
    ClientBackpressure,
    ProtocolError,
    RushMonClient,
    RushMonServer,
)
from repro.net import protocol
from repro.sim import Simulator
from repro.sim.traces import Trace
from repro.testing import Fault, FaultInjector

from tests.histgen import JournalTap
from tests.test_sampled_journal import _events as _buu_stream


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
    kwargs.setdefault("detect_interval", 0.003)
    return RushMonService(
        RushMonConfig(sampling_rate=1, mob=False, seed=42, **kwargs),
        faults=faults,
    )


def _assert_sr1_differential(service, ops):
    """At sr=1 the service counts exactly what the offline baseline does
    over the operations it ingested, recorded on the producer side."""
    replayed = OfflineAnomalyMonitor()
    replayed.on_operations(ops)
    assert replayed.exact_counts() == service.counts()


def _raw_frame(codec, body):
    """A frame around an arbitrary (possibly malformed) body."""
    return (struct.pack("!I", len(body) + 5) + bytes([codec])
            + struct.pack("!I", zlib.crc32(body)) + body)


# -- framing -------------------------------------------------------------------


def test_frame_round_trip_single_feed():
    reader = protocol.FrameReader()
    messages = [
        protocol.hello("s1", 0),
        protocol.batch("s1", 1, [["w", 1, "k0", 1]]),
        protocol.ack("s1", 1),
        protocol.error("backpressure", "full", retriable=True, seq=2),
        protocol.ping(7),
        protocol.bye(),
    ]
    wire = b"".join(protocol.encode_frame(m) for m in messages)
    assert list(reader.feed(wire)) == messages
    assert reader.frames_decoded == len(messages)


def test_frame_reader_reassembles_byte_by_byte():
    message = protocol.batch("session", 3, [["r", 2, "key", 9],
                                            ["b", 4, 100]])
    wire = protocol.encode_frame(message)
    reader = protocol.FrameReader()
    out = []
    for i in range(len(wire)):
        out.extend(reader.feed(wire[i:i + 1]))
    assert out == [message]


def test_frame_reader_keeps_partial_tail_across_feeds():
    first = protocol.encode_frame(protocol.ping(1))
    second = protocol.encode_frame(protocol.ping(2))
    reader = protocol.FrameReader()
    split = len(first) + 3  # mid-way through the second frame
    wire = first + second
    assert list(reader.feed(wire[:split])) == [protocol.ping(1)]
    assert list(reader.feed(wire[split:])) == [protocol.ping(2)]


def test_corrupt_length_prefix_is_refused():
    reader = protocol.FrameReader()
    with pytest.raises(ProtocolError, match="length"):
        list(reader.feed(struct.pack("!I", protocol.MAX_FRAME + 1) + b"x"))


def test_corrupt_body_fails_crc():
    wire = bytearray(protocol.encode_frame(protocol.ping(42)))
    # Flip a bit inside the body — including positions where the result
    # would still be valid JSON; the CRC must catch it regardless.
    wire[-2] ^= 0x04
    with pytest.raises(ProtocolError, match="CRC"):
        list(protocol.FrameReader().feed(bytes(wire)))


def test_non_dict_body_is_refused():
    wire = _raw_frame(protocol.CODEC_JSON, b"[1,2,3]")
    with pytest.raises(ProtocolError, match="message dict"):
        list(protocol.FrameReader().feed(wire))


def test_unknown_codec_is_refused():
    with pytest.raises(ProtocolError, match="codec"):
        protocol.encode_frame(protocol.ping(1), codec=7)


def test_retired_codec_1_is_refused():
    """Codec id 1 is unassigned: nothing encodes it, and a peer's frame
    carrying it answers a typed ``bad-frame`` and ingests nothing."""
    message = protocol.batch("s", 1, [["w", 1, "k", 1]])
    with pytest.raises(ProtocolError, match="unknown codec id 1"):
        protocol.encode_frame(message, codec=1)
    frame = _raw_frame(1, json.dumps(message).encode())
    with pytest.raises(ProtocolError, match="unknown codec id 1"):
        list(protocol.FrameReader().feed(frame))
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("s", 0))
        assert raw.recv()["type"] == "welcome"
        raw.sock.sendall(frame)
        reply = raw.recv()
        assert (reply["type"], reply["code"]) == ("error", "bad-frame")
        raw.close()
        assert server.stats["batches_received"] == 0
    assert service.processed_events == 0


def test_client_refuses_an_unusable_codec():
    """An unencodable codec used to fail inside the sender thread's
    connect — reconnecting forever, every counter at 0, no error."""
    for codec in (1, 7):
        with pytest.raises(ValueError, match="CODEC_JSON.*CODEC_COLUMNAR"):
            RushMonClient("127.0.0.1", 1, codec=codec)


def test_columnar_codec_packs_and_falls_back():
    """Codec 2 packs canonical batch messages into fixed-width columns
    (decoding to :class:`protocol.ColumnarEvents`) and ships anything
    the columns can't hold losslessly — exotic keys, oversized ints,
    non-batch messages — as a JSON body instead."""
    records = [["b", 1, 1], ["w", 1, "kéy", 2], ["r", 2, 7, 3],
               ["c", 1, 4]]
    message = protocol.batch("séssion", 3, records)
    wire = protocol.encode_frame(message, codec=protocol.CODEC_COLUMNAR)
    (decoded,) = protocol.FrameReader().feed(wire)
    events = decoded["events"]
    assert isinstance(events, protocol.ColumnarEvents)
    assert events.to_records() == records
    assert {k: v for k, v in decoded.items() if k != "events"} == \
        {k: v for k, v in message.items() if k != "events"}
    assert protocol.decode_events(events) == protocol.decode_events(records)

    for exotic in ([["w", 1, None, 2]],          # unpackable key
                   [["w", 1, "k", 2 ** 72]],     # int overflows i64
                   [["w", True, "k", 2]]):       # bool is not an i64
        message = protocol.batch("s", 1, exotic)
        wire = protocol.encode_frame(message, codec=protocol.CODEC_COLUMNAR)
        assert list(protocol.FrameReader().feed(wire)) == [message]
    ping = protocol.ping(9)
    wire = protocol.encode_frame(ping, codec=protocol.CODEC_COLUMNAR)
    assert list(protocol.FrameReader().feed(wire)) == [ping]


_wire_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=12),
)
_wire_keys = st.one_of(st.text(max_size=12),
                       st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
                       st.none(), st.booleans())
_wire_ints = st.integers(min_value=-(2 ** 80), max_value=2 ** 80)
_wire_records = st.lists(st.one_of(
    st.tuples(st.sampled_from(("r", "w")), _wire_ints, _wire_keys,
              _wire_ints).map(list),
    st.tuples(st.sampled_from(("b", "c")), _wire_ints, _wire_ints).map(list),
), max_size=8)
_wire_messages = st.one_of(
    st.builds(protocol.batch, st.text(max_size=8),
              st.integers(min_value=0, max_value=2 ** 62), _wire_records),
    st.dictionaries(st.text(max_size=8),
                    st.one_of(_wire_scalars,
                              st.lists(_wire_scalars, max_size=3)),
                    max_size=4).map(lambda d: {**d, "type": "x"}),
)


@given(message=_wire_messages)
def test_every_codec_round_trips_any_message(message):
    """The codec-equivalence property: whatever one codec delivers,
    every other codec delivers too — unicode, None keys, >64-bit ints.
    Codec 2 may deliver a batch's events as columns; normalizing them
    through ``to_records`` must restore the original records exactly."""
    for codec in (protocol.CODEC_JSON, protocol.CODEC_COLUMNAR):
        wire = protocol.encode_frame(message, codec=codec)
        (decoded,) = protocol.FrameReader().feed(wire)
        events = decoded.get("events")
        if isinstance(events, protocol.ColumnarEvents):
            decoded = dict(decoded, events=events.to_records())
        assert decoded == message, f"codec {codec}"


def test_event_records_round_trip():
    ops = _ops(40, 8, seed=1)
    records = protocol.encode_events(ops)
    decoded = protocol.decode_events(records)
    assert [d[1] for d in decoded] == ops
    lifecycle = [protocol.wire_begin(5, 10), protocol.wire_commit(5, 20)]
    assert protocol.decode_events(lifecycle) == [("b", 5, 10), ("c", 5, 20)]


def test_malformed_event_records_are_refused():
    with pytest.raises(ProtocolError):
        protocol.decode_events([["x", 1, 2]])
    with pytest.raises(ProtocolError):
        protocol.decode_events([["r", 1]])  # missing key/seq


# -- the JSON big-int guard ----------------------------------------------------

_digit_runs = st.integers(min_value=17, max_value=21).flatmap(
    lambda n: st.text("0123456789", min_size=n, max_size=n))
_guard_pieces = st.one_of(
    _digit_runs,                                       # a bare int
    _digit_runs.map(lambda d: "-" + d),                # a negative one
    _digit_runs.map(lambda d: '"' + d + '"'),          # inside a string
    _digit_runs.map(lambda d: d[:9] + "." + d[9:]),    # split by '.'
    _digit_runs.map(lambda d: d[:9] + "e" + d[9:]),    # split by 'e'
    _digit_runs.map(lambda d: d[:9] + "," + d[9:]),    # split by ','
    st.sampled_from(["[", "]", ",", '"k"', " ", "1", "-", "0.5", "\u0661"]),
)


@given(body=st.one_of(
    st.lists(_guard_pieces, max_size=6).map(lambda p: "".join(p).encode()),
    st.binary(max_size=64)))
def test_big_int_guard_accepts_exactly_what_the_regex_did(body):
    """The linear digit-run test sends the same bodies to the stdlib
    parser as the ``\\d{19}`` search it replaced: any run of >= 19 ASCII
    digits, wherever it sits."""
    assert protocol._maybe_big_int(body) == \
        (re.search(rb"\d{19}", body) is not None)


# -- the packed key table ------------------------------------------------------


@pytest.mark.parametrize("keys", (
    [7, -3, 2 ** 62, 0, 7],             # all int: the one-unpack path
    ["a", "kéy", "", "a"],              # all str
    [5, "five", -5, "", 2 ** 40],       # mixed, int first
    ["x", 1, 2, 3],                     # mixed, str first
), ids=("int", "str", "mixed", "mixed-str-first"))
def test_packed_key_table_round_trips(keys):
    records = [["b", 1, 0]]
    records += [["w" if i % 2 else "r", 1, key, i + 1]
                for i, key in enumerate(keys)]
    records += [["c", 1, 99]]
    message = protocol.batch("s", 4, records)
    body = protocol._pack_batch_columnar(message)
    assert body is not None and body[0] == 1
    (decoded,) = protocol.FrameReader().feed(
        _raw_frame(protocol.CODEC_COLUMNAR, body))
    assert decoded["events"].keys == list(dict.fromkeys(keys))
    assert decoded["events"].to_records() == records
    assert protocol.decode_events(decoded["events"]) == \
        protocol.decode_events(records)


def test_corrupt_packed_key_tables_are_refused():
    records = [["w", 1, key, key] for key in (10, 20, 30, 40)]
    body = protocol._pack_batch_columnar(protocol.batch("s", 1, records))
    table = 1 + 2 + 1 + 16   # tag, session length, "s", seq/n/n_keys
    assert body[table:table + 36:9] == b"\x01" * 4
    for position, tag in ((0, 2), (2, 7), (3, 0), (1, 0)):
        bad = bytearray(body)
        bad[table + 9 * position] = tag
        with pytest.raises(ProtocolError):
            protocol._decode_columnar_body(bytes(bad))
    for cut in (table + 9 * 4 - 1, table + 9 * 2, table + 1):
        with pytest.raises(ProtocolError):   # body ends inside the table
            protocol._decode_columnar_body(body[:cut])
    huge = bytearray(body)                   # a key count the body can't hold
    struct.pack_into("<I", huge, table - 4, 2 ** 32 - 1)
    with pytest.raises(ProtocolError):
        protocol._decode_columnar_body(bytes(huge))


_I64 = st.integers(min_value=-2 ** 63, max_value=2 ** 63 - 1)
_I64_EDGES = st.one_of(
    st.sampled_from((-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 63 - 1)), _I64)
_mixed_keys = st.one_of(_I64_EDGES, st.text(max_size=6))
_edge_records = st.lists(st.one_of(
    st.tuples(st.sampled_from(("r", "w")), _I64_EDGES, _mixed_keys,
              _I64_EDGES).map(list),
    st.tuples(st.sampled_from(("b", "c")), _I64_EDGES, _I64_EDGES).map(list),
), max_size=30)


@given(records=_edge_records, seq=st.sampled_from((0, 1, 2 ** 63 - 1)))
def test_packed_batch_round_trips_at_the_column_bounds(records, seq):
    """The one codec-2 implementation (``struct``, list columns): every
    value an i64 column can hold, str and int keys sharing one table,
    and the empty batch come back as the records that went in."""
    message = protocol.batch("s", seq, records)
    body = protocol._pack_batch_columnar(message)
    assert body is not None and body[0] == 1
    (decoded,) = protocol.FrameReader().feed(
        protocol.encode_frame(message, protocol.CODEC_COLUMNAR))
    events = decoded.pop("events")
    assert decoded == {"type": "batch", "session": "s", "seq": seq}
    assert len(events) == len(records)
    assert all(type(column) is list for column in
               (events.op, events.buu, events.kidx, events.seq))
    assert events.to_records() == records
    assert protocol.decode_events(events) == protocol.decode_events(records)
    # Equal keys share one table entry — but 1 and "1" are two keys.
    assert events.keys == list(dict.fromkeys(
        record[2] for record in records if record[0] in "rw"))


def test_values_outside_the_columns_fall_back_to_json():
    for record in (["w", 2 ** 63, 1, 1], ["w", 1, -2 ** 63 - 1, 1],
                   ["w", 1, 1, 2 ** 63], ["b", 1, -2 ** 63 - 1],
                   ["w", 1, 1.5, 1], ["w", True, 1, 1]):
        message = protocol.batch("s", 1, [["r", 1, 1, 1], record])
        assert protocol._pack_batch_columnar(message) is None
        (decoded,) = protocol.FrameReader().feed(
            protocol.encode_frame(message, protocol.CODEC_COLUMNAR))
        assert decoded == message


# -- sampling at decode: decode_events(records, chosen) ------------------------

_small_keys = st.one_of(st.integers(min_value=0, max_value=40),
                        st.sampled_from(["a", "b", "c", "d", "e", "f"]))
_small_ints = st.integers(min_value=0, max_value=10 ** 6)
_packable_records = st.lists(st.one_of(
    st.tuples(st.sampled_from(("r", "w")), _small_ints, _small_keys,
              _small_ints).map(list),
    st.tuples(st.sampled_from(("b", "c")), _small_ints,
              _small_ints).map(list),
), max_size=40)


def _assert_elides_exactly_the_unchosen(full, filtered, chosen):
    """``filtered`` is ``full`` with every maximal run of operations on
    unchosen keys replaced by one ``("e", run length)`` entry."""
    position = 0
    previous = None
    for entry in filtered:
        if entry[0] == "e":
            assert previous != "e" and entry[1] > 0
            run = full[position:position + entry[1]]
            assert len(run) == entry[1]
            assert all(event[0] == "op" and not chosen(event[1].key)
                       for event in run)
            position += entry[1]
        else:
            assert entry == full[position]
            assert entry[0] != "op" or chosen(entry[1].key)
            position += 1
        previous = entry[0]
    assert position == len(full)


@given(records=_packable_records,
       rate=st.sampled_from((1, 2, 3, 20)), seed=st.integers(0, 5))
def test_decode_with_a_predicate_elides_exactly_the_unchosen(records, rate,
                                                             seed):
    chosen = ItemSampler(rate, seed).lookup
    full = protocol.decode_events(records)
    assert len(full) == len(records)
    wire = protocol.encode_frame(protocol.batch("s", 1, records),
                                 protocol.CODEC_COLUMNAR)
    (packed,) = protocol.FrameReader().feed(wire)
    assert isinstance(packed["events"], protocol.ColumnarEvents)
    for shape in (records, packed["events"]):
        assert protocol.decode_events(shape) == full
        filtered = protocol.decode_events(shape, chosen)
        _assert_elides_exactly_the_unchosen(full, filtered, chosen)
        kept = [entry for entry in filtered if entry[0] != "e"]
        elided = sum(entry[1] for entry in filtered if entry[0] == "e")
        assert elided + len(kept) == len(records)


def test_an_elided_record_is_still_validated():
    unchosen = lambda key: False  # noqa: E731
    assert protocol.decode_events([["r", 1, 5, 2], ["w", 1, 6, 3]],
                                  unchosen) == [("e", 2)]
    for bad in (["r", 1, 5], ["r", 1], ["x", 1, 5, 2], 7, None):
        with pytest.raises(ProtocolError):
            protocol.decode_events([["r", 1, 5, 2], bad], unchosen)
    good = protocol.ColumnarEvents([0, 1, 3], [1, 1, 1], [0, 1, -1],
                                   [1, 2, 3], ["a", "b"])
    assert good.to_tuples(unchosen) == [("e", 2), ("c", 1, 3)]
    for codes, kidxs in (([0, 1, 3], [0, 2, -1]),    # index past the table
                         ([0, 9, 3], [0, 1, -1])):   # unknown op code
        bad = protocol.ColumnarEvents(codes, [1, 1, 1], kidxs, [1, 2, 3],
                                      ["a", "b"])
        with pytest.raises(ProtocolError):
            bad.to_tuples(unchosen)
        with pytest.raises(ProtocolError):
            bad.to_tuples()


def _packed_with_first_kidx(records, kidx, seq=2):
    """The packed body of ``records`` (all operations) with the first
    row's key index rewritten to ``kidx``."""
    body = bytearray(protocol._pack_batch_columnar(
        protocol.batch("atomic", seq, records)))
    n = len(records)
    kidx_column = len(body) - 21 * n + n + 8 * n
    struct.pack_into("<i", body, kidx_column, kidx)
    return bytes(body)


@pytest.mark.parametrize("kidx", (-1, -2, -3, -4, -2 ** 31, 3, 2 ** 31 - 1))
def test_a_key_index_outside_the_table_is_refused(kidx):
    """Python reads ``keys[-2]`` from the end of the table: a negative
    index on an op row must be a ``ProtocolError`` like one past the
    end, not an operation on some other key — with the predicate (where
    the index picks the keep decision first) and without."""
    records = [["w", 1, key, i + 1] for i, key in enumerate(("a", "b", "c"))]
    events = protocol._decode_columnar_body(
        _packed_with_first_kidx(records, kidx))["events"]
    for chosen in (None, lambda key: True, lambda key: False):
        with pytest.raises(ProtocolError, match="key index"):
            protocol.decode_events(events, chosen)
    untouched = protocol._decode_columnar_body(
        _packed_with_first_kidx(records, 0))["events"]
    assert protocol.decode_events(untouched) == protocol.decode_events(records)


# -- fault vocabulary ----------------------------------------------------------


def test_net_fault_points_and_kinds_validate():
    Fault("net.accept", kind="disconnect")
    Fault("net.recv", kind="corrupt")
    Fault("net.ack", kind="disconnect")
    Fault("net.recv", kind="delay")
    with pytest.raises(ValueError, match="disconnect"):
        Fault("collector.handle", kind="disconnect")
    with pytest.raises(ValueError, match="corrupt"):
        Fault("net.accept", kind="corrupt")


# -- delivery ------------------------------------------------------------------


def test_server_client_round_trip_matches_offline():
    """The tentpole differential: ops streamed over TCP produce exactly
    the offline monitor's sr=1 counts."""
    ops = _ops(600, 12, seed=21)
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.005) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(10.0)
            counters = client.counters()
    assert counters["events_enqueued"] == 600
    assert counters["acked_batches"] == counters["batches_sent"]
    assert service.processed_events == 600
    _assert_sr1_differential(service, ops)


def test_lifecycle_events_travel_too():
    """begin/commit BUU marks cross the wire in order with operations
    (the pruners need them)."""
    service = _service()
    rng = random.Random(5)
    ops = []
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=8,
                           flush_interval=0.005) as client:
            seq = 0
            for buu in range(1, 31):
                client.begin_buu(buu, seq)
                for _ in range(4):
                    seq += 1
                    ops.append(Operation(
                        OpType.READ if rng.random() < 0.5 else OpType.WRITE,
                        buu, f"k{rng.randrange(6)}", seq))
                    client.on_operation(ops[-1])
                seq += 1
                client.commit_buu(buu, seq)
            assert client.flush(10.0)
    assert service.processed_events == 30 * 6
    _assert_sr1_differential(service, ops)


def test_columnar_client_round_trip_matches_offline():
    """The codec-2 differential: a client shipping packed column frames
    produces exactly the JSON client's (and the offline monitor's) sr=1
    counts — the server decodes columns without per-event objects but
    ingests the identical stream."""
    ops = _ops(600, 12, seed=21)
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.005,
                           codec=protocol.CODEC_COLUMNAR) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(10.0)
    assert service.processed_events == 600
    _assert_sr1_differential(service, ops)


class _RawClient:
    """A hand-driven protocol speaker for poking at server edge cases."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=5.0)
        self.reader = protocol.FrameReader()

    def send(self, message):
        self.sock.sendall(protocol.encode_frame(message))

    def recv(self, timeout=5.0):
        self.sock.settimeout(timeout)
        while True:
            for message in self.reader.feed(self.sock.recv(65536)):
                return message

    def close(self):
        self.sock.close()


def test_replayed_batch_dedups_not_double_counts():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-a", 0))
        assert raw.recv()["type"] == "welcome"
        ops = _ops(10, 4, seed=2)
        events = protocol.encode_events(ops)
        raw.send(protocol.batch("sess-a", 1, events))
        assert raw.recv() == protocol.ack("sess-a", 1)
        # At-least-once in action: the "ack was lost", so resend.
        raw.send(protocol.batch("sess-a", 1, events))
        assert raw.recv() == protocol.ack("sess-a", 1)
        raw.close()
        assert server.stats["dedup_hits"] == 1
        assert server.stats["batches_accepted"] == 1
        assert server.stats["events_ingested"] == 10
    assert service.processed_events == 10  # once, not twice
    _assert_sr1_differential(service, ops)


def test_sequence_gap_is_a_protocol_violation():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-b", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-b", 3,
                                protocol.encode_events(_ops(5, 4, seed=3))))
        reply = raw.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "bad-session"
        assert not reply["retriable"]
        raw.close()
        assert server.stats["batches_accepted"] == 0


def test_batch_with_mismatching_session_is_rejected():
    """A batch stamped with a different session than the connection's
    hello is a client bug — refused loudly (bad-session), never silently
    sequenced under the hello'd session."""
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-hello", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-other", 1,
                                protocol.encode_events(_ops(4, 4, seed=9))))
        reply = raw.recv()
        assert reply["type"] == "error"
        assert reply["code"] == "bad-session"
        assert not reply["retriable"]
        raw.close()
        assert server.stats["batches_accepted"] == 0
        assert server.session_high("sess-hello") == 0
        assert server.session_high("sess-other") == 0


def test_idle_sessions_are_evicted_after_ttl():
    """The session table must not grow one entry per client run forever:
    an idle session whose high-water is durable and that no connection
    references is expired after ``session_ttl``."""
    service = _service()
    with RushMonServer(service, session_ttl=0.2,
                       ack_interval=0.02) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-idle", 0))
        assert raw.recv()["type"] == "welcome"
        raw.send(protocol.batch("sess-idle", 1,
                                protocol.encode_events(_ops(5, 4, seed=8))))
        assert raw.recv()["type"] == "ack"
        assert server.sessions_current == 1
        raw.close()
        deadline = time.monotonic() + 5.0
        while server.sessions_current and time.monotonic() < deadline:
            time.sleep(0.02)
        assert server.sessions_current == 0
        assert server.sessions_evicted_total == 1


def test_live_sessions_survive_the_ttl():
    """A session with an open connection is never evicted, no matter how
    quiet it goes."""
    service = _service()
    with RushMonServer(service, session_ttl=0.1,
                       ack_interval=0.02) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-live", 0))
        assert raw.recv()["type"] == "welcome"
        time.sleep(0.4)  # several TTLs of silence, connection open
        assert server.sessions_current == 1
        assert server.sessions_evicted_total == 0
        # The connection still works after the quiet spell.
        raw.send(protocol.batch("sess-live", 1,
                                protocol.encode_events(_ops(3, 4, seed=7))))
        assert raw.recv()["type"] == "ack"
        raw.close()


def test_welcome_reports_high_water_for_resumed_session():
    service = _service()
    with RushMonServer(service) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-c", 0))
        assert raw.recv()["high"] == 0
        raw.send(protocol.batch("sess-c", 1,
                                protocol.encode_events(_ops(6, 4, seed=4))))
        assert raw.recv()["type"] == "ack"
        raw.close()
        second = _RawClient(server.port)
        second.send(protocol.hello("sess-c", 1))
        welcome = second.recv()
        assert welcome["high"] == 1
        second.close()
        assert server.reconnect_hellos_total >= 1


# -- typed failure propagation -------------------------------------------------


def test_backpressure_error_with_client_block_policy_loses_nothing():
    """A stalled detection thread fills the bounded journal; the client
    blocks-and-resends on the typed error and the server resumes each
    partially-ingested batch from its recorded offset — every event is
    eventually ingested exactly once."""
    ops = _ops(300, 8, seed=31)
    # Stall drains long enough for backpressure to fire, then recover.
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="delay", delay=0.2, times=2)
    )
    service = _service(faults=faults, journal_capacity=64,
                       overflow="block", block_timeout=0.02,
                       detect_interval=0.001)
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=64,
                           flush_interval=0.002, ack_timeout=3.0,
                           on_backpressure="block", seed=1) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(20.0)
            counters = client.counters()
    assert server.stats["events_ingested"] == 300
    assert service.processed_events == 300
    if counters["backpressure_errors"]:
        assert counters["retransmits"] >= 1
    _assert_sr1_differential(service, ops)


def test_backpressure_error_with_client_shed_policy_counts_loss():
    """With the shed policy the client drops the refused batch's events
    (counted, never silent) and the sequence stays gap-free."""
    ops = _ops(400, 8, seed=32)
    faults = FaultInjector().inject(
        Fault("journal.drain", kind="delay", delay=0.5, times=4)
    )
    service = _service(faults=faults, journal_capacity=32,
                       overflow="block", block_timeout=0.01,
                       detect_interval=0.001)
    # Which batches the client shed is known only to the journal.
    tap = JournalTap(service)
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=32,
                           flush_interval=0.002, ack_timeout=3.0,
                           on_backpressure="shed", seed=2) as client:
            for op in ops:
                client.on_operation(op)
            assert client.flush(20.0)
            counters = client.counters()
    ingested = server.stats["events_ingested"]
    assert ingested == 400 - counters["shed_events"]
    assert counters["shed_batches"] == 0 or counters["shed_events"] > 0
    assert service.processed_events == ingested
    # Shed or not, what *was* ingested is still exactly right.
    assert len(tap.trace().ops) == ingested
    _assert_sr1_differential(service, tap.trace().ops)


def test_degraded_health_propagates_as_typed_error():
    """A tripped circuit breaker surfaces to clients as a 'degraded'
    error; the shed policy drops honestly instead of stalling."""
    service = _service()
    service._degraded = True  # trip the breaker directly
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=16,
                           flush_interval=0.002, on_degraded="shed",
                           seed=3) as client:
            for op in _ops(64, 8, seed=33):
                client.on_operation(op)
            assert client.flush(10.0)
            counters = client.counters()
        assert server.stats["events_ingested"] == 0
    assert counters["degraded_errors"] >= 1
    assert counters["shed_events"] == 64


def test_draining_server_refuses_batches_with_typed_error():
    service = _service()
    server = RushMonServer(service).start()
    raw = _RawClient(server.port)
    raw.send(protocol.hello("sess-d", 0))
    assert raw.recv()["type"] == "welcome"
    server._draining = True  # what drain() sets before closing conns
    raw.send(protocol.batch("sess-d", 1,
                            protocol.encode_events(_ops(4, 4, seed=6))))
    reply = raw.recv()
    assert reply["type"] == "error"
    assert reply["code"] == "draining"
    assert reply["retriable"]
    raw.close()
    server.drain()


# -- client bounded queue ------------------------------------------------------


def _unresponsive_port():
    """A listening socket that never accepts — connects hang in the
    backlog, so the client can never complete a hello."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock, sock.getsockname()[1]


def test_client_queue_block_policy_raises_backpressure():
    sock, port = _unresponsive_port()
    try:
        client = RushMonClient("127.0.0.1", port, queue_capacity=8,
                               overflow="block", block_timeout=0.05,
                               connect_timeout=0.05, backoff_base=0.01)
        client.start()
        with pytest.raises(ClientBackpressure, match="capacity"):
            for op in _ops(50, 4, seed=41):
                client.on_operation(op)
        client.close(timeout=0.2)
    finally:
        sock.close()


def test_client_queue_shed_policy_counts_drops():
    sock, port = _unresponsive_port()
    try:
        client = RushMonClient("127.0.0.1", port, queue_capacity=8,
                               overflow="shed", connect_timeout=0.05,
                               backoff_base=0.01)
        client.start()
        for op in _ops(50, 4, seed=42):
            client.on_operation(op)
        assert client.queue_depth == 8
        assert client.shed_events_total == 42
        client.close(timeout=0.2)
    finally:
        sock.close()


def test_client_parameter_validation():
    with pytest.raises(ValueError, match="batch_size"):
        RushMonClient("h", 1, batch_size=0)
    with pytest.raises(ValueError, match="overflow"):
        RushMonClient("h", 1, overflow="drop")
    with pytest.raises(ValueError, match="on_degraded"):
        RushMonClient("h", 1, on_degraded="panic")
    with pytest.raises(ValueError, match="ack_timeout"):
        RushMonClient("h", 1, ack_timeout=0)


def test_server_parameter_validation():
    with pytest.raises(ValueError, match="checkpoint_every"):
        RushMonServer(_service(), checkpoint_every=0)


# -- sampling at decode: the server ------------------------------------------------


class _CodecClient(_RawClient):
    """A raw speaker on one codec that sends batches and awaits replies."""

    def __init__(self, port, session, codec):
        super().__init__(port)
        self.session = session
        self.codec = codec
        self.seq = 0
        self.sock.sendall(protocol.encode_frame(protocol.hello(session),
                                                codec))
        assert self.recv()["type"] == "welcome"

    def batch(self, records):
        self.seq += 1
        self.sock.sendall(protocol.encode_frame(
            protocol.batch(self.session, self.seq, records), self.codec))
        return self.recv()


def _wire_records(events):
    """``tests.test_sampled_journal._events`` as wire event records."""
    return [
        protocol.wire_op(payload) if kind == "op"
        else (protocol.wire_begin if kind == "begin"
              else protocol.wire_commit)(*payload)
        for kind, payload in events
    ]


def _frames(records, size=130):
    return [records[start:start + size]
            for start in range(0, len(records), size)]


def _sampled_service(sr, **kwargs):
    kwargs.setdefault("detect_interval", 0.002)
    return RushMonService(RushMonConfig(sampling_rate=sr, seed=3, **kwargs))


def _totals(service):
    return {
        "counts": service.counts(),
        "operations": sum(r.operations for r in service.reports),
        "two_cycles": sum(r.raw.two_cycles for r in service.reports),
        "edges": sum(r.edges.total for r in service.reports),
        "ops_seen": service.collector.ops_seen,
        "touches": service.collector.touches,
        "processed_events": service.processed_events,
    }


@pytest.mark.parametrize("sr", (1, 20))
def test_wire_ingest_matches_in_process_ingest(sr):
    """One stream through a bare service and through a server on a JSON
    and on a packed connection: whether or not operations are dropped at
    decode (they are at sr=20), every count that means "events offered"
    and every cycle count is the same."""
    events = _buu_stream(6000, active=10, seed=11)
    records = _wire_records(events)
    num_ops = sum(1 for kind, _ in events if kind == "op")

    reference = _sampled_service(sr)
    for frame in _frames(records):
        for event in protocol.decode_events(frame):
            if event[0] == "op":
                reference.on_operation(event[1])
            elif event[0] == "b":
                reference.begin_buu(event[1], event[2])
            else:
                reference.commit_buu(event[1], event[2])
    reference.stop()
    expected = _totals(reference)
    assert expected["operations"] == expected["ops_seen"] == num_ops
    assert expected["processed_events"] == len(events)
    assert expected["counts"].two_cycles > 0

    for codec in (protocol.CODEC_JSON, protocol.CODEC_COLUMNAR):
        service = _sampled_service(sr)
        eliding = service.collector.prefilter() is not None
        assert eliding == (sr > 1)
        with RushMonServer(service) as server:
            client = _CodecClient(server.port, "diff", codec)
            for frame in _frames(records):
                assert client.batch(frame) == protocol.ack("diff", client.seq)
            client.close()
            assert server.stats["events_ingested"] == len(events)
        assert _totals(service) == expected, f"codec {codec}"
        snap = service.metrics.snapshot()
        assert snap["rushmon_net_events_ingested_total"] == len(events)
        assert snap["rushmon_collector_ops_total"] == num_ops


def _unchosen_keys(service, count):
    chosen = service.collector.sampler.chosen
    keys = [key for key in range(10_000) if not chosen(key)][:count]
    assert len(keys) == count
    return keys


@pytest.mark.parametrize("case", ("short-json-record", "packed-kidx",
                                  "packed-kidx-negative", "malformed-tail"))
def test_a_malformed_unchosen_record_refuses_the_whole_frame(case):
    """Dropping operations at decode must not weaken validation or
    atomicity: a frame with a bad record among the *elided* ones answers
    ``bad-frame`` and ingests nothing."""
    service = _sampled_service(20)
    unchosen = _unchosen_keys(service, 300)
    good = [["b", 1, 0]] + [["w", 1, key, i + 1]
                            for i, key in enumerate(unchosen[:20])]
    with RushMonServer(service) as server:
        client = _CodecClient(server.port, "atomic", protocol.CODEC_JSON)
        assert client.batch(good) == protocol.ack("atomic", 1)
        if case == "short-json-record":
            frame = protocol.encode_frame(protocol.batch("atomic", 2, [
                ["r", 1, unchosen[0], 50], ["r", 1, unchosen[1]],
                ["c", 1, 60]]))
        elif case.startswith("packed-kidx"):
            # One past the end of the 8-key table, or the valid-looking
            # second-to-last entry read from its end.
            frame = _raw_frame(protocol.CODEC_COLUMNAR, _packed_with_first_kidx(
                [["r", 1, key, 50 + i] for i, key in enumerate(unchosen[:8])],
                8 if case == "packed-kidx" else -2))
        else:
            frame = protocol.encode_frame(protocol.batch("atomic", 2, [
                ["r", 1, key, 50 + i] for i, key in enumerate(unchosen)
            ] + [["w", 1]]))
        client.sock.sendall(frame)
        reply = client.recv()
        assert (reply["type"], reply["code"]) == ("error", "bad-frame")
        client.close()
        assert server.session_high("atomic") == 1
        assert server.stats["events_ingested"] == len(good)
        assert server.stats["batches_accepted"] == 1
    assert service.collector.ops_seen == len(good) - 1
    # BUU 1 touched no sampled item and its commit was refused with the
    # frame: the pass consumed its begin, and the gate still parks it.
    assert service.collector.lifecycle.num_parked == 1
    assert service.processed_events == len(good)
    assert sum(r.operations for r in service.reports) == len(good) - 1


def test_prefilter_is_none_only_at_sr1():
    def collector(sr=20, faults=None, **kwargs):
        return RushMonService(RushMonConfig(sampling_rate=sr, **kwargs),
                              faults=faults).collector

    plain = collector()
    assert plain.prefilter() is plain.sampler.lookup
    assert collector(sr=1).prefilter() is None
    # Producers leave unsampled operations out before the journal under
    # every overflow policy and with an armed injector alike (what the
    # journal bounds and the degrade filter thins are journaled events),
    # so a caller may too.
    for overflow in ("block", "degrade", "shed"):
        bounded = collector(journal_capacity=64, overflow=overflow)
        assert bounded.prefilter() is bounded.sampler.lookup
    assert collector(faults=FaultInjector()).prefilter() is not None
    # A caller may only claim to have elided where the predicate exists.
    with pytest.raises(ValueError, match="prefilter"):
        collector(sr=1).offer([(EV_OPS, [], 3)])


def test_a_refused_frame_ingests_nothing_and_its_resend_is_whole(
        monkeypatch):
    """Under ``overflow="block"`` a frame the journal has no room for is
    refused whole: the refusal carries no offset, nothing of the frame
    went in, and the resend is the whole frame.  Decoding keeps the
    sample's predicate under ``"block"`` too, so the journal holds one
    ops record of the chosen operations and a count for the rest."""
    predicates = []

    def decode_events(records, chosen=None):
        predicates.append(chosen)
        return decode(records, chosen)

    decode = protocol.decode_events
    monkeypatch.setattr(protocol, "decode_events", decode_events)
    for codec in (protocol.CODEC_JSON, protocol.CODEC_COLUMNAR):
        service = RushMonService(RushMonConfig(
            sampling_rate=20, seed=3, journal_capacity=12,
            overflow="block", block_timeout=0.02, detect_interval=60.0))
        chosen = service.collector.sampler.chosen
        hot = [key for key in range(2000) if chosen(key)][:8]
        cold = _unchosen_keys(service, 50)
        first = [Operation(OpType.WRITE, 1, key, i)
                 for i, key in enumerate(hot[:5])]
        ops = [Operation(OpType.WRITE, 2, key, 10 + i)
               for i, key in enumerate(cold + hot)]
        with RushMonServer(service) as server:
            client = _CodecClient(server.port, "bp", codec)
            assert client.batch(protocol.encode_events(first))["type"] \
                == "ack"
            refusal = client.batch(protocol.encode_events(ops))
            assert refusal["code"] == "backpressure"
            assert "consumed" not in refusal
            assert server.stats["events_ingested"] == len(first)
            assert service.collector.journal_depth == len(first)
            assert service.collector.ops_seen == len(first)
            service.close_window()           # make room, then resend
            client.seq -= 1
            assert client.batch(protocol.encode_events(ops))["type"] \
                == "ack"
            assert service.collector.snapshot_state()["journal"] == [
                [len(first), "ops", [["w", 2, key, 10 + len(cold) + i]
                                     for i, key in enumerate(hot)],
                 len(cold)]]
            client.close()
            assert server.stats["events_ingested"] == len(first) + len(ops)
        assert service.collector.ops_seen == len(first) + len(ops)
        assert service.processed_events == len(first) + len(ops)
    assert predicates and None not in predicates


# -- durability plumbing -------------------------------------------------------


def test_session_table_rides_in_the_checkpoint(tmp_path):
    path = str(tmp_path / "net.ckpt")
    service = _service()
    server = RushMonServer(service, checkpoint_path=path,
                           checkpoint_every=2).start()
    ops = _ops(128, 8, seed=51)
    with RushMonClient("127.0.0.1", server.port, session="durable-sess",
                       batch_size=16, flush_interval=0.002) as client:
        for op in ops:
            client.on_operation(op)
        assert client.flush(10.0)
    server.drain()
    restored = RushMonService.restore(path)
    net = restored.extra_state["net"]
    accepted = net["stats"]["batches_accepted"]
    assert net["sessions"]["durable-sess"] == accepted
    assert accepted >= 8  # 128 events, batches of at most 16
    assert net["stats"]["events_ingested"] == 128
    assert restored.counts() == service.counts()
    _assert_sr1_differential(restored, ops)


def test_durable_acks_only_after_checkpoint(tmp_path):
    """With a checkpoint path, an ack implies the batch is already in a
    checkpoint on disk: reload the file after each ack and find the
    batch's session high-water in it."""
    path = str(tmp_path / "durable.ckpt")
    service = _service()
    with RushMonServer(service, checkpoint_path=path,
                       checkpoint_every=1) as server:
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-e", 0))
        assert raw.recv()["type"] == "welcome"
        for seq in (1, 2, 3):
            raw.send(protocol.batch(
                "sess-e", seq,
                protocol.encode_events(_ops(5, 4, seed=seq))))
            assert raw.recv() == protocol.ack("sess-e", seq)
            on_disk = RushMonService.restore(path)
            assert on_disk.extra_state["net"]["sessions"]["sess-e"] == seq
        raw.close()


def _net_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("rushmon-net-")}


def test_quiet_stream_is_acked_by_the_loop_commit_tick(tmp_path):
    """A lone batch short of its commit group (``checkpoint_every=4``)
    is acknowledged by the event loop's group-commit tick once it has
    waited ``ack_interval``, and only after a checkpoint covering it is
    on disk.  The server's transport is one thread, and drain() leaves
    none behind."""
    before = _net_threads()
    path = str(tmp_path / "quiet.ckpt")
    server = RushMonServer(_service(), checkpoint_path=path,
                           checkpoint_every=4, ack_interval=0.01).start()
    try:
        assert len(_net_threads() - before) == 1
        raw = _RawClient(server.port)
        raw.send(protocol.hello("sess-q", 0))
        assert raw.recv()["type"] == "welcome"
        sent = time.monotonic()
        raw.send(protocol.batch(
            "sess-q", 1, protocol.encode_events(_ops(5, 4, seed=7))))
        assert raw.recv(timeout=0.5) == protocol.ack("sess-q", 1)
        assert time.monotonic() - sent < 0.5
        on_disk = RushMonService.restore(path)
        assert on_disk.extra_state["net"]["sessions"]["sess-q"] == 1
        raw.close()
    finally:
        server.drain()
    assert not _net_threads() - before


# -- observability -------------------------------------------------------------


def test_net_metrics_registered_and_scrapable():
    service = _service()
    with RushMonServer(service) as server:
        with RushMonClient("127.0.0.1", server.port, batch_size=16,
                           flush_interval=0.002) as client:
            for op in _ops(64, 8, seed=61):
                client.on_operation(op)
            assert client.flush(10.0)
        snap = service.metrics.snapshot()
        batches = server.stats["batches_accepted"]
        assert snap["rushmon_net_connections_total"] == 1.0
        assert snap["rushmon_net_batches_total"] == float(batches)
        assert snap["rushmon_net_events_ingested_total"] == 64.0
        assert snap["rushmon_net_acks_total"] == float(batches)
        assert snap["rushmon_net_dedup_hits_total"] == 0.0
        latency = snap["rushmon_net_ack_latency_seconds"]
        assert latency["count"] == batches

        from repro.obs import MetricsExporter

        with MetricsExporter(service.metrics) as exporter:
            body = urllib.request.urlopen(
                f"{exporter.url}/metrics", timeout=5
            ).read().decode()
        assert "rushmon_net_connections_total 1" in body
        assert "rushmon_net_ack_latency_seconds_bucket" in body


def test_instrument_net_client_exports_counters():
    from repro.obs import MetricsRegistry
    from repro.obs.instrument import instrument_net_client

    service = _service()
    registry = MetricsRegistry()
    with RushMonServer(service) as server:
        client = RushMonClient("127.0.0.1", server.port, batch_size=8,
                               flush_interval=0.002)
        instrument_net_client(registry, client)
        with client:
            for op in _ops(24, 8, seed=62):
                client.on_operation(op)
            assert client.flush(10.0)
            snap = registry.snapshot()
    sent = snap["rushmon_net_client_batches_sent_total"]
    assert sent >= 3.0
    assert snap["rushmon_net_client_acked_batches_total"] == sent
    assert snap["rushmon_net_client_retransmits_total"] == 0.0


# -- CLI round trip ------------------------------------------------------------


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


def test_serve_emit_cli_round_trip(tmp_path):
    """The CI smoke test: `repro serve` + `repro emit` against it, then
    a graceful SIGTERM drain with a final checkpoint."""
    ckpt = str(tmp_path / "serve.ckpt")
    proc, port = _spawn_serve(["--port", "0", "--checkpoint", ckpt,
                               "--sampling-rate", "1", "--no-mob",
                               "--detect-interval", "0.005"])
    try:
        emit = subprocess.run(
            [sys.executable, "-m", "repro", "emit", "--port", str(port),
             "--buus", "60", "--seed", "9"],
            env=_repro_env(), capture_output=True, text=True, timeout=60,
        )
        assert emit.returncode == 0, emit.stdout + emit.stderr
        assert "acked batches" in emit.stdout
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
    assert proc.returncode == 0
    assert "draining" in out
    assert "final checkpoint written" in out
    restored = RushMonService.restore(ckpt)
    assert restored.processed_events == 60 * 6  # 2-key RMW: 4 ops + b/c
    # The emitted workload is seeded: run it again, here, into a trace.
    args = build_parser("emit").parse_args(
        ["emit", "--port", str(port), "--buus", "60", "--seed", "9"])
    emitted = Trace()
    Simulator(_sim_config(args), listeners=[emitted]).run(
        _counter_buus(args.buus, args.keys, args.touch, args.seed))
    assert len(emitted.ops) == 60 * 4
    _assert_sr1_differential(restored, emitted.ops)


def test_serve_binds_the_exporter_first_and_prints_the_parsed_lines():
    """``--export-port``: the two stdout lines the ledger's harness and
    the quickstart parse, in the order they parse them — and the
    endpoint behind the first one answers."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--export-port", "0"],
        env=_repro_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    try:
        exported = re.fullmatch(
            r"metrics exported at http://127\.0\.0\.1:(\d+)/metrics\n",
            proc.stdout.readline())
        listening = re.fullmatch(
            r"rushmon server listening on 127\.0\.0\.1:(\d+)\n",
            proc.stdout.readline())
        assert exported and listening
        with urllib.request.urlopen(
                f"http://127.0.0.1:{exported[1]}/metrics.json",
                timeout=10) as reply:
            assert "rushmon_net_frames_total" in json.load(reply)
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0


def test_serve_with_a_taken_export_port_is_a_usage_error_before_listening():
    """The exporter used to be bound *after* the ingest server started:
    a client could connect to a server that was about to die with a
    traceback.  Now the verb ends as a usage error (exit 2, one
    ``error:`` line) and no ingest socket is ever opened."""
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--export-port", str(taken.getsockname()[1])],
            env=_repro_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "listening" not in done.stdout
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines()
              if not line.startswith(("usage:", " "))]
    assert len(errors) == 1
    assert errors[0].startswith(
        "repro serve: error: metrics exporter could not bind 127.0.0.1:")
