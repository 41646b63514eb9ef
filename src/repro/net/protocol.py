"""Wire protocol for networked BUU ingestion.

Frames
------

Every message travels as one frame::

    4 bytes  big-endian payload length N (codec byte + crc + body)
    1 byte   codec id (0 = JSON, 2 = columnar; 1 is retired)
    4 bytes  big-endian CRC-32 of the body
    N-5 bytes encoded message body

The CRC matters: TCP's own checksum is weak and a fault-injected (or
genuinely broken) middlebox can flip a byte *inside* a string value,
which still parses as valid JSON — without the CRC such a frame would
ingest silently wrong data.  A CRC mismatch is a :class:`ProtocolError`
like any other framing violation.

The codec is chosen per frame, so a JSON client and a packed-column
client can share a server; JSON is the default.  Codec id 1 belonged to
a serializer that was never installed anywhere the system was measured;
the id stays unassigned and a frame carrying it is refused like any
other unknown codec.

Messages
--------

Messages are flat dicts with a ``"type"`` key:

``hello``
    ``{type, session, resume}`` — opens (or resumes) a client session.
    ``resume`` is the highest sequence number the client knows was
    acknowledged; purely informational.
``welcome``
    ``{type, session, high, health}`` — the server's reply: ``high`` is
    its in-memory high-water sequence for the session (events up to
    ``high`` are ingested, though not necessarily durable yet), and
    ``health`` is the service health (``"ok"`` / ``"degraded"``).
``batch``
    ``{type, session, seq, events}`` — one batch of events.  ``seq``
    starts at 1 and increases by exactly 1 per batch within a session;
    the server ingests ``seq == high+1``, re-acks ``seq <= high`` as a
    dedup hit, and rejects gaps.
``ack``
    ``{type, session, seq}`` — **cumulative**: acknowledges every batch
    of the session with sequence number ``<= seq``.  Sent only after
    the batch's effects are durable (when the server checkpoints) or
    ingested (when it runs without a checkpoint path).
``error``
    ``{type, code, message, retriable, seq?, retry_after?}`` — typed
    failure.  A refused batch was not ingested at all — the server feeds
    a frame to the monitor in one call, journaled whole or refused whole
    — so a blocking client resends the whole batch and a shedding client
    counts every event of it as shed.  ``retry_after`` (admission
    refusals) is the server's hint, in seconds, for when capacity may be
    back.  Codes:
    ``backpressure`` (journal full, batch not ingested — resend after a
    backoff), ``degraded`` (detection circuit breaker tripped),
    ``draining`` (server is shutting down, or its service raised before
    taking the batch — reconnect and replay), ``overloaded``
    (admission control refused the *connection* — too many clients;
    reconnect after ``retry_after`` seconds), ``bad-frame``
    (undecodable frame — the connection is no longer trustworthy),
    ``bad-session`` (sequence gap — protocol violation).
``ping`` / ``pong``
    ``{type, nonce}`` — liveness heartbeats.
``bye``
    ``{type}`` — orderly close.

Events
------

Batch events are compact lists, mirroring the WAL record vocabulary:

- operation: ``["r"|"w", buu, key, seq]``
- lifecycle: ``["b"|"c", buu, time]`` (BUU begin / commit)

The columnar codec (id 2)
-------------------------

Codec 2 carries ``batch`` messages as a packed fixed-width column
layout instead of a per-record JSON tree, so a receiver can decode a
whole batch with one ``struct.unpack_from`` per column and test the
monitor's item sample once per key-table entry before building any
per-operation object.  The body is::

    1 byte   tag (0 = JSON fallback, 1 = packed batch)

Tag 0 wraps an ordinary JSON message body — codec-2 connections use it
for every non-batch message (hello, ack, ping, …) and for batches whose
keys are not ``str``/``int`` (wire keys are JSON values, so exotic
keys already implied the JSON representation).  Tag 1 is::

    2 bytes  LE session id length, then that many UTF-8 bytes
    8 bytes  LE unsigned batch sequence number
    4 bytes  LE unsigned event count n
    4 bytes  LE unsigned key-table size k
    key table: k entries, each ``1 byte tag`` then
               tag 0: 2 bytes LE length + UTF-8 string key
               tag 1: 8 bytes LE signed int key
    n bytes  op codes  (0 = r, 1 = w, 2 = begin, 3 = commit)
    8n bytes LE signed BUU ids
    4n bytes LE key-table indices (lifecycle rows: 0xFFFFFFFF, a
             signed -1 — read unsigned, so that no value of an op row
             can index the key table from its end)
    8n bytes LE signed per-op sequence numbers / lifecycle times

Integers are fixed-width: a batch whose BUU/seq values do not fit the
column falls back to tag 0 rather than truncate.  Decoding yields the
same message dict as the JSON codec except ``"events"`` is a
:class:`ColumnarEvents` column struct; :func:`decode_events` accepts it
transparently, so codec-2 and JSON clients interoperate on one server.
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Iterable, Iterator

from repro.core.types import Operation, OpType

try:  # optional accelerator: same JSON wire format, ~10x faster codec
    import orjson  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - depends on the environment
    orjson = None

__all__ = [
    "CODEC_COLUMNAR",
    "CODEC_JSON",
    "ColumnarEvents",
    "ERROR_CODES",
    "FrameReader",
    "MAX_FRAME",
    "ProtocolError",
    "decode_events",
    "encode_events",
    "encode_frame",
]

#: Codec ids carried in the frame header (1 is retired, never reused).
CODEC_JSON = 0
CODEC_COLUMNAR = 2

#: Refuse frames larger than this (a corrupt length prefix must not
#: make a reader try to buffer gigabytes).
MAX_FRAME = 16 * 1024 * 1024

#: Typed error codes an ``error`` message may carry.
ERROR_CODES = (
    "backpressure", "degraded", "draining", "overloaded", "bad-frame",
    "bad-session",
)

_LEN = struct.Struct("!I")
_CRC = struct.Struct("!I")
#: codec byte + CRC word — the per-frame overhead inside the length.
_OVERHEAD = 1 + _CRC.size


class ProtocolError(RuntimeError):
    """A frame or message violates the wire protocol (corrupt length,
    undecodable body, unknown codec, oversized frame)."""


def _json_body(message: dict) -> bytes:
    if orjson is not None:
        try:
            return orjson.dumps(message)
        except TypeError:
            # orjson is stricter than the stdlib (tuples, >64-bit
            # ints); fall back rather than change what encodes.
            pass
    return json.dumps(message, separators=(",", ":")).encode()


#: Any JSON integer that can overflow an i64 has >= 19 digits; orjson
#: (some versions) *lossily* parses such integers as floats instead of
#: raising, so bodies that might contain one take the exact stdlib
#: parser.  Shorter digit runs can never overflow, and a false positive
#: (a long digit run inside a string or float) only costs speed.  The
#: test is linear: map every byte to "is an ASCII digit" and look for 19
#: set bytes in a row (a ``\d{19}`` regex search restarts at every digit
#: of a digit-heavy body and cost 3.6x the parse it guards).
_DIGIT_CLASS = bytes(48 <= byte <= 57 for byte in range(256))
_BIG_INT_RUN = b"\x01" * 19


def _maybe_big_int(body: bytes) -> bool:
    return _BIG_INT_RUN in body.translate(_DIGIT_CLASS)


def _loads_json(body: bytes) -> dict:
    if orjson is not None and not _maybe_big_int(body):
        try:
            return orjson.loads(body)
        except Exception:
            # Accept anything the stdlib would; true corruption fails
            # both parsers and raises below.
            pass
    return json.loads(body.decode())


def encode_frame(message: dict, codec: int = CODEC_JSON) -> bytes:
    """Serialize one message dict into a length-prefixed frame."""
    if codec == CODEC_JSON:
        body = _json_body(message)
    elif codec == CODEC_COLUMNAR:
        packed = (_pack_batch_columnar(message)
                  if message.get("type") == "batch" else None)
        body = packed if packed is not None else b"\x00" + _json_body(message)
    else:
        raise ProtocolError(f"unknown codec id {codec!r}")
    return (_LEN.pack(len(body) + _OVERHEAD) + bytes([codec])
            + _CRC.pack(zlib.crc32(body)) + body)


def _decode_body(codec: int, body: bytes) -> dict:
    try:
        if codec == CODEC_JSON:
            message = _loads_json(body)
        elif codec == CODEC_COLUMNAR:
            message = _decode_columnar_body(body)
        else:
            raise ProtocolError(f"unknown codec id {codec}")
    except ProtocolError:
        raise
    except Exception as exc:  # corrupt body: any decode failure counts
        raise ProtocolError(f"undecodable frame body: {exc!r}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("frame body is not a message dict")
    return message


# -- codec 2: packed column batches --------------------------------------------

_COL_U16 = struct.Struct("<H")
_COL_I64 = struct.Struct("<q")
_COL_HEAD = struct.Struct("<QII")  # seq, n_events, n_keys
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

#: Codec-2 op-code column values (0/1 match repro.core.columnar).
_COL_OPS = {"r": 0, "w": 1, "b": 2, "c": 3}
_COL_KINDS = ("r", "w", "b", "c")


class ColumnarEvents:
    """The decoded payload of a packed codec-2 batch: four parallel
    event columns plus the frame's key table.

    Columns are plain lists of ints: ``op`` (codes per ``_COL_OPS``),
    ``buu``, ``kidx`` (key-table index of an op row; a lifecycle row
    carries the wire's filler, which nothing reads) and ``seq`` (op
    sequence / lifecycle time).  ``keys`` is the per-frame key table
    the indices point into.  :func:`decode_events` materializes per-op
    tuples from it.
    """

    __slots__ = ("op", "buu", "kidx", "seq", "keys")

    def __init__(self, op, buu, kidx, seq, keys: list) -> None:
        self.op = op
        self.buu = buu
        self.kidx = kidx
        self.seq = seq
        self.keys = keys

    def __len__(self) -> int:
        return len(self.op)

    def to_records(self) -> list[list]:
        """The equivalent JSON-codec event records (wire vocabulary)."""
        out: list[list] = []
        keys = self.keys
        kinds = _COL_KINDS
        for code, buu, kidx, seq in zip(self.op, self.buu, self.kidx,
                                        self.seq):
            if code < 2:
                out.append([kinds[code], buu, keys[kidx], seq])
            else:
                out.append([kinds[code], buu, seq])
        return out

    def to_tuples(self, chosen=None) -> list[tuple]:
        """Decoded event tuples in :func:`decode_events`' shape (which
        documents ``chosen``): the predicate is asked once per key-table
        entry, and only the rows it keeps — and lifecycle rows — are
        turned into objects."""
        codes, buus, kidxs, seqs = self.op, self.buu, self.kidx, self.seq
        keys = self.keys
        rows: Iterable[int] = range(len(codes))
        out: list[tuple] = []
        append = out.append
        new = tuple.__new__
        read, write = OpType.READ, OpType.WRITE
        try:
            if chosen is not None:
                keep = list(map(chosen, keys))
                rows = [row for row, (code, kidx)
                        in enumerate(zip(codes, kidxs))
                        if code > 1 or keep[kidx]]
            expected = 0
            for row in rows:
                if row != expected:
                    append(("e", row - expected))
                expected = row + 1
                code = codes[row]
                if code < 2:
                    append(("op", new(Operation, (
                        read if code == 0 else write, buus[row],
                        keys[kidxs[row]], seqs[row]))))
                elif code == 2:
                    append(("b", buus[row], seqs[row]))
                elif code == 3:
                    append(("c", buus[row], seqs[row]))
                else:
                    raise ProtocolError(f"unknown op code {code}")
            if expected != len(codes):
                append(("e", len(codes) - expected))
        except IndexError as exc:
            raise ProtocolError(
                "columnar key index outside the frame's key table") from exc
        return out


def _fits_i64(value) -> bool:
    return (type(value) is int and not isinstance(value, bool)
            and _I64_MIN <= value <= _I64_MAX)


def _pack_batch_columnar(message: dict) -> bytes | None:
    """Pack one batch message into a tag-1 codec-2 body.

    Returns ``None`` when the payload doesn't fit the fixed-width
    columns (non-``str``/``int`` keys, out-of-range integers, oversized
    session/key strings) — the caller then ships the batch as a tag-0
    JSON body instead of truncating anything.
    """
    if message.keys() != {"type", "session", "seq", "events"}:
        # Only the canonical batch shape has packed slots; anything
        # else (extra fields, missing fields a decoder would default)
        # ships as JSON rather than coming back changed.
        return None
    events = message.get("events") or []
    if isinstance(events, ColumnarEvents):
        events = events.to_records()
    session = message.get("session", "")
    seq = message.get("seq", 0)
    if not isinstance(session, str) or not _fits_i64(seq) or seq < 0:
        return None
    session_b = session.encode()
    n = len(events)
    if len(session_b) > 0xFFFF or n > 0xFFFFFFFF:
        return None
    key_ids: dict = {}
    key_parts: list[bytes] = []
    op = bytearray(n)
    buus: list[int] = []
    kidxs: list[int] = []
    seqs: list[int] = []
    try:
        for i, record in enumerate(events):
            kind = record[0]
            code = _COL_OPS.get(kind)
            if code is None:
                return None
            op[i] = code
            buu = record[1]
            when = record[3] if code < 2 else record[2]
            if not _fits_i64(buu) or not _fits_i64(when):
                return None
            if code < 2:
                key = record[2]
                kid = key_ids.get(key)
                if kid is None:
                    if type(key) is str:
                        raw = key.encode()
                        if len(raw) > 0xFFFF:
                            return None
                        key_parts.append(
                            b"\x00" + _COL_U16.pack(len(raw)) + raw)
                    elif _fits_i64(key):
                        key_parts.append(b"\x01" + _COL_I64.pack(key))
                    else:
                        return None
                    kid = len(key_ids)
                    key_ids[key] = kid
                kidxs.append(kid)
            else:
                kidxs.append(-1)
            buus.append(buu)
            seqs.append(when)
    except (IndexError, TypeError):
        return None
    if len(key_ids) > 0xFFFFFFFF:  # pragma: no cover - 2**32 keys
        return None
    parts = [b"\x01", _COL_U16.pack(len(session_b)), session_b,
             _COL_HEAD.pack(seq, n, len(key_ids))]
    parts.extend(key_parts)
    parts.append(bytes(op))
    parts.append(struct.pack(f"<{n}q", *buus))
    parts.append(struct.pack(f"<{n}i", *kidxs))
    parts.append(struct.pack(f"<{n}q", *seqs))
    return b"".join(parts)


def _decode_key_table(body: bytes, offset: int, n_keys: int) -> tuple[list, int]:
    """Decode a packed body's key table starting at ``offset``; returns
    ``(keys, offset just past the table)``."""
    table_end = offset + 9 * n_keys
    if (n_keys and table_end <= len(body)
            and body[offset:table_end:9] == b"\x01" * n_keys):
        # Every entry carries the int tag — each sits one 9-byte stride
        # after the last, so the slice saw every tag — one unpack.
        flat = struct.unpack_from("<" + "Bq" * n_keys, body, offset)
        return list(flat[1::2]), table_end
    keys: list = []
    for _ in range(n_keys):
        key_tag = body[offset]
        offset += 1
        if key_tag == 0:
            (raw_len,) = _COL_U16.unpack_from(body, offset)
            offset += _COL_U16.size
            keys.append(body[offset:offset + raw_len].decode())
            offset += raw_len
        elif key_tag == 1:
            (key,) = _COL_I64.unpack_from(body, offset)
            offset += _COL_I64.size
            keys.append(key)
        else:
            raise ProtocolError(f"unknown key-table tag {key_tag}")
    return keys, offset


def _decode_columnar_body(body: bytes) -> dict:
    """Decode a codec-2 body (either tag) into a message dict."""
    if not body:
        raise ProtocolError("empty codec-2 body")
    tag = body[0]
    if tag == 0:
        return _loads_json(body[1:])
    if tag != 1:
        raise ProtocolError(f"unknown codec-2 body tag {tag}")
    try:
        offset = 1
        (session_len,) = _COL_U16.unpack_from(body, offset)
        offset += _COL_U16.size
        session = body[offset:offset + session_len].decode()
        offset += session_len
        seq, n, n_keys = _COL_HEAD.unpack_from(body, offset)
        offset += _COL_HEAD.size
        keys, offset = _decode_key_table(body, offset, n_keys)
        if len(body) - offset != n * 21:  # 1 + 8 + 4 + 8 bytes per event
            raise ProtocolError(
                f"columnar column block is {len(body) - offset} bytes "
                f"for {n} events (expected {n * 21})"
            )
        op = list(body[offset:offset + n])
        offset += n
        buu = list(struct.unpack_from(f"<{n}q", body, offset))
        offset += 8 * n
        # Unsigned: a negative index would read the table from its end.
        kidx = list(struct.unpack_from(f"<{n}I", body, offset))
        offset += 4 * n
        when = list(struct.unpack_from(f"<{n}q", body, offset))
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed columnar batch body: {exc!r}") from exc
    return {"type": "batch", "session": session, "seq": seq,
            "events": ColumnarEvents(op, buu, kidx, when, keys)}


class FrameReader:
    """Incremental frame decoder: feed raw socket bytes, get messages.

    Keeps a byte buffer across :meth:`feed` calls so partial reads (TCP
    delivers arbitrary chunks) reassemble correctly.  Raises
    :class:`ProtocolError` on a corrupt length prefix or body; after
    that the stream's framing can no longer be trusted and the
    connection should be dropped.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        self.frames_decoded = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame.  Nonzero means the
        peer has started a frame and not finished it — the signal the
        event loop's partial-frame (slowloris) deadline watches."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[dict]:
        """Consume ``data``, yielding every complete message in it."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _LEN.size:
                return
            (length,) = _LEN.unpack_from(self._buffer)
            if length < _OVERHEAD or length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} outside [{_OVERHEAD}, "
                    f"{MAX_FRAME}] — corrupt length prefix?"
                )
            if len(self._buffer) < _LEN.size + length:
                return
            codec = self._buffer[_LEN.size]
            (crc,) = _CRC.unpack_from(self._buffer, _LEN.size + 1)
            body = bytes(
                self._buffer[_LEN.size + _OVERHEAD:_LEN.size + length]
            )
            if zlib.crc32(body) != crc:
                raise ProtocolError(
                    "frame body failed its CRC check — corruption in flight"
                )
            del self._buffer[:_LEN.size + length]
            self.frames_decoded += 1
            yield _decode_body(codec, body)


# -- message constructors ------------------------------------------------------


def hello(session: str, resume: int = 0) -> dict:
    """An opening handshake: start or resume ``session``."""
    return {"type": "hello", "session": session, "resume": resume}


def welcome(session: str, high: int, health: str) -> dict:
    """The server's handshake reply with its high-water mark."""
    return {"type": "welcome", "session": session, "high": high,
            "health": health}


def batch(session: str, seq: int, events: list) -> dict:
    """One at-least-once batch of events at sequence ``seq``."""
    return {"type": "batch", "session": session, "seq": seq,
            "events": events}


def ack(session: str, seq: int) -> dict:
    """Cumulative acknowledgement of every batch ``<= seq``."""
    return {"type": "ack", "session": session, "seq": seq}


def error(code: str, message: str, *, retriable: bool,
          seq: int | None = None,
          retry_after: float | None = None) -> dict:
    """A typed failure; see the module docstring for the codes."""
    payload = {"type": "error", "code": code, "message": message,
               "retriable": retriable}
    if seq is not None:
        payload["seq"] = seq
    if retry_after is not None:
        payload["retry_after"] = retry_after
    return payload


def ping(nonce: int) -> dict:
    """A liveness probe; the peer echoes ``nonce`` in a pong."""
    return {"type": "ping", "nonce": nonce}


def pong(nonce: int) -> dict:
    """The reply to a :func:`ping` carrying the same nonce."""
    return {"type": "pong", "nonce": nonce}


def bye() -> dict:
    """An orderly end-of-stream marker."""
    return {"type": "bye"}


# -- event records -------------------------------------------------------------


def wire_op(op: Operation) -> list:
    """Encode one operation as a compact wire event record."""
    return [op.op.value, op.buu, op.key, op.seq]


def wire_begin(buu: int, time: int) -> list:
    """Encode a BUU-begin lifecycle wire event record."""
    return ["b", buu, time]


def wire_commit(buu: int, time: int) -> list:
    """Encode a BUU-commit lifecycle wire event record."""
    return ["c", buu, time]


def encode_events(ops: Iterable[Operation]) -> list[list]:
    """Encode a sequence of operations as wire event records."""
    return [wire_op(op) for op in ops]


#: Wire operation kinds -> the enum members ``Operation`` carries.
_OP_KINDS = {"r": OpType.READ, "w": OpType.WRITE}


def decode_events(records, chosen=None) -> list[tuple]:
    """Decode wire event records into ``("op", Operation)`` /
    ``("b"|"c", buu, time)`` tuples, validating as it goes.

    Accepts either the list-of-records shape the JSON codec produces
    or a codec-2 :class:`ColumnarEvents` column struct.

    ``chosen`` is an optional predicate on operation keys (the
    monitor's item sample).  With it, a run of ``n`` operations on keys
    it rejects becomes one ``("e", n)`` entry and nothing is built for
    them; they are still validated as far as every record is (four
    fields, a known kind / op code, a key index inside the key table).
    """
    if isinstance(records, ColumnarEvents):
        return records.to_tuples(chosen)
    out: list[tuple] = []
    append = out.append
    op_kinds = _OP_KINDS
    new = tuple.__new__
    elided = 0
    record = None
    try:
        for record in records:
            kind = record[0]
            op_type = op_kinds.get(kind)
            if op_type is not None:
                key = record[2]
                seq = record[3]
                if chosen is not None and not chosen(key):
                    elided += 1
                    continue
                event = ("op", new(Operation, (op_type, record[1], key, seq)))
            elif kind == "b" or kind == "c":
                event = (kind, record[1], record[2])
            else:
                raise ProtocolError(f"unknown event kind {kind!r}")
            if elided:
                append(("e", elided))
                elided = 0
            append(event)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed event record {record!r}") from exc
    if elided:
        append(("e", elided))
    return out
