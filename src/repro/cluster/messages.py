"""Wire messages for the multi-process monitor cluster.

Everything travels in :mod:`repro.net.protocol` frames (length prefix,
codec byte, CRC-32), so the cluster inherits the net layer's corruption
detection and incremental :class:`~repro.net.protocol.FrameReader`
decoding for free.  What this module adds is the cluster's message
vocabulary on three links:

Router → worker (control)
    ``restore`` (the first message every worker incarnation receives —
    at start, at respawn, and again for an in-place reset: config,
    exchange-port map, ticket baseline, snapshot-or-none, detached
    shards), ``route`` (a batch of events at a session sequence number
    — the same ``seq == high+1`` / cumulative-ack discipline as net
    batches, so delivery to a worker is effectively once — plus
    ``elided``, the count of this shard's operations the router
    ticketed but did not ship), ``flush`` (a barrier: drain up to
    ticket ``high`` and reply), ``snap-request`` (drain and ship a
    shard snapshot), ``detach`` (stop gating the merge on a
    breaker-tripped shard) and ``bye``.

Worker → router (control)
    ``worker-hello`` (index + exchange port), ``restore-ok``, ``ack``
    (cumulative per the session), ``report`` / ``synced`` (barrier
    replies), ``snap`` (a CRC-guarded shard-snapshot document) and
    ``err``.

Worker ↔ worker (exchange)
    ``peer-hello`` (with the ``resume`` watermark the dialing worker
    already holds the peer's stream up to — 0 from an empty baseline)
    and ``edges`` — a versioned :mod:`~repro.core.frontier` payload of
    the edge groups one shard derived, plus that worker's ticket
    watermark ``mark``.  An ``edges`` message with no groups is a pure
    watermark advance; ``resume-nack`` refuses a resume the broadcast
    journal can no longer cover.

Events
------

Route events extend the net layer's wire records with the global ticket
the router stamped:

- operation: ``["r"|"w", buu, key, seq, ticket]``
- lifecycle: ``["b"|"c", buu, time, ticket]``

Sampling is decided at the router: an operation on an item outside the
DCS sample takes its ticket like any other but never becomes a record —
it is counted against its owning shard, and the count travels as the
next ``route`` frame's ``elided`` integer (absent when zero, so no
``sr = 1`` frame carries the field).  The count lives in the journaled
frame, so replay and the session's duplicate suppression apply to it
exactly as they do to the records beside it.

Tickets totally order the cluster-wide event stream; each worker turns
its route events and its peers' edge groups into records of the service
journal's vocabulary and walks them into its detector in that order (see
:mod:`repro.cluster.worker`), which is what makes the cluster bit-exact
against the serial monitor.
"""

from __future__ import annotations

from repro.core.frontier import encode_frontier
from repro.core.types import AnomalyReport, CycleCounts, Operation
from repro.net.protocol import ProtocolError, bye  # noqa: F401  (re-exported)

__all__ = [
    "bye",
    "cluster_ack",
    "detach",
    "edges",
    "err",
    "flush",
    "peer_hello",
    "report_reply",
    "restore",
    "restore_ok",
    "resume_nack",
    "route",
    "snap",
    "snap_request",
    "synced",
    "wire_begin",
    "wire_commit",
    "wire_op",
    "worker_hello",
]


# -- handshake -----------------------------------------------------------------


def worker_hello(index: int, port: int) -> dict:
    """A worker announcing itself and its exchange listener port."""
    return {"type": "worker-hello", "index": index, "port": port}


def restore(config: dict, ports: list, route_high: int,
            base_mark: int, snapshot: dict | None, detached: list) -> dict:
    """Build (or rebuild) a worker's engine: the first message every
    worker incarnation receives, and the whole of an in-place reset.

    ``snapshot`` is the last verified shard-snapshot document (``None``
    is a fresh engine at ``base_mark`` — a start, a reset, or the
    full-journal replay path of a respawn); ``route_high`` is the
    control-session sequence the stream resumes after, ``ports`` the
    exchange ports to dial (``None`` entries are not dialled: peers not
    yet joined or down dial *in* when they join, and a reset keeps every
    link it has), ``base_mark`` the ticket baseline a fresh engine
    starts its streams at (0 at first start, the reset ticket after a
    reset), and ``detached`` the shards whose breaker already tripped
    (their watermarks must never gate this worker's merge).
    """
    return {"type": "restore", "config": config, "ports": ports,
            "route_high": route_high, "base_mark": base_mark,
            "snapshot": snapshot, "detached": list(detached)}


def restore_ok(index: int) -> dict:
    """A worker reporting its engine is (re)built and its ``ports``
    dialled; the router may start the journal replay."""
    return {"type": "restore-ok", "index": index}


def peer_hello(index: int, resume: int) -> dict:
    """The first message on a worker↔worker exchange connection.

    ``resume`` is the ticket watermark up to which the dialing worker
    already holds the peer's stream (its restore baseline: 0 at start,
    a snapshot's barrier after a respawn); the peer replies by
    replaying its broadcast-journal suffix past that mark before any
    live broadcast travels on the link.
    """
    return {"type": "peer-hello", "index": index, "resume": resume}


def resume_nack(index: int, resume: int, trimmed: int) -> dict:
    """A peer refusing a resume: its broadcast journal no longer covers
    marks ``(resume, trimmed]`` — the redialing worker cannot be brought
    back bit-exactly and must surface the failure to the router."""
    return {"type": "resume-nack", "index": index, "resume": resume,
            "trimmed": trimmed}


# -- routing -------------------------------------------------------------------


def route(seq: int, high: int, events: list, elided: int = 0) -> dict:
    """One routed batch at session sequence ``seq``; ``high`` is the
    router's ticket watermark as of this batch (every cluster-wide
    ticket ``<= high`` has been routed somewhere).  ``elided`` counts
    the operations of this shard ticketed since its previous frame that
    are *not* in ``events`` — their items are outside the DCS sample, so
    the worker adds the count to its operation totals and nothing else."""
    message = {"type": "route", "seq": seq, "high": high, "events": events}
    if elided:
        message["elided"] = elided
    return message


def cluster_ack(seq: int) -> dict:
    """Cumulative acknowledgement of every route batch ``<= seq``."""
    return {"type": "ack", "seq": seq}


def wire_op(op: Operation, ticket: int) -> list:
    """An operation event record carrying its global ticket."""
    return [op.op.value, op.buu, op.key, op.seq, ticket]


def wire_begin(buu, time: int, ticket: int) -> list:
    """A BUU-begin event record carrying its global ticket."""
    return ["b", buu, time, ticket]


def wire_commit(buu, time: int, ticket: int) -> list:
    """A BUU-commit event record carrying its global ticket."""
    return ["c", buu, time, ticket]


# -- barriers ------------------------------------------------------------------


def flush(high: int, window: bool, now: int = 0) -> dict:
    """A barrier: the worker drains every event with ticket ``<= high``
    (its own and its peers'), then replies — with a ``report`` (closing
    its window at logical time ``now``) when ``window`` is true, with
    ``synced`` otherwise."""
    return {"type": "flush", "high": high, "window": window, "now": now}


def report_reply(report: AnomalyReport, counts: CycleCounts) -> dict:
    """A worker's share of a closed window, in raw components the router
    can sum (estimator linearity, Theorem 5.2), plus its cumulative
    detector counts."""
    return {
        "type": "report",
        "raw": {"ss": report.raw.ss, "dd": report.raw.dd,
                "sss": report.raw.sss, "ssd": report.raw.ssd,
                "ddd": report.raw.ddd},
        "edges": report.edges.as_dict(),
        "ops": report.operations,
        "patterns": report.patterns,
        "counts": _counts_dict(counts),
    }


def synced(counts: CycleCounts) -> dict:
    """A barrier reply that leaves the window open: just the worker's
    cumulative detector counts."""
    return {"type": "synced", "counts": _counts_dict(counts)}


def _counts_dict(counts: CycleCounts) -> dict:
    return {"ss": counts.ss, "dd": counts.dd, "sss": counts.sss,
            "ssd": counts.ssd, "ddd": counts.ddd}


# -- supervision ---------------------------------------------------------------


def snap_request(high: int) -> dict:
    """Ask a worker to drain its merge to ticket ``high`` (the router
    flushed every buffer first, so all streams can reach it), serialize
    its shard state, and ship it router-ward as a :func:`snap`."""
    return {"type": "snap-request", "high": high}


def snap(document: dict) -> dict:
    """A worker's shard snapshot: a
    :func:`repro.storage.wal.encode_shard_snapshot` document (format
    tag + version + CRC) the router verifies before trusting."""
    return {"type": "snap", "document": document}


def detach(index: int) -> dict:
    """Tell a surviving worker to stop waiting on shard ``index``'s
    stream: the supervisor's circuit breaker tripped, the shard is gone,
    and its watermark must no longer gate the merge (degraded mode —
    counts continue without that shard's edges).  The worker applies it
    the moment it arrives, ahead of control messages queued before it:
    its control loop may be waiting in a drain on exactly that
    watermark."""
    return {"type": "detach", "index": index}


def err(message: str) -> dict:
    """A worker's terminal failure report."""
    return {"type": "err", "message": message}


# -- exchange ------------------------------------------------------------------


def edges(frm: int, groups, mark: int) -> dict:
    """Worker ``frm``'s freshly derived edge groups as a versioned
    frontier payload, plus its ticket watermark.  Empty ``groups`` is a
    pure watermark advance."""
    return {"type": "edges", "from": frm,
            "frontier": encode_frontier(groups), "mark": mark}
