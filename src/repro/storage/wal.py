"""Monitor checkpoints: the durable format the concurrent service uses
for crash recovery (:func:`save_checkpoint` / :func:`load_checkpoint`
plus the detector/window/report codecs).

A checkpoint is a single JSON document with an explicit format tag,
version and CRC, written atomically (temp file + ``os.replace``) so a
crash mid-write leaves the previous checkpoint intact, and a truncated
or corrupted file is *detected* (:class:`CheckpointError`) rather than
restored into a silently wrong monitor.

The paper's log-parser collector deployment (§4.1) is not here: it is
``RushMonService``, whose ticketed journal is the log it parses
(:mod:`repro.core.concurrent.journaled`).
"""

from __future__ import annotations

import json
import os
import zlib
from collections import Counter
from pathlib import Path

from repro.core.patterns import AnomalyPattern, PatternCounts
from repro.core.types import (
    AnomalyReport,
    CycleCounts,
    EdgeStats,
    EdgeType,
)


# ---------------------------------------------------------------------------
# Checkpoints: durable snapshots of a running monitor's state.
# ---------------------------------------------------------------------------

#: Format tag stamped into every checkpoint file.
CHECKPOINT_FORMAT = "rushmon-checkpoint"
#: Bump on any payload change: a file of any other version is refused,
#: never read through a shim (``tests/test_checkpoint.py`` pins the shape).
CHECKPOINT_VERSION = 3


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupt, or incompatible."""


def save_checkpoint(path: str | Path, payload: dict) -> None:
    """Atomically persist ``payload`` (a JSON-serializable dict).

    The document carries a CRC over the canonical payload encoding; the
    write goes to a sibling temp file and is moved into place with
    ``os.replace``, so readers only ever see either the old complete
    checkpoint or the new complete checkpoint.
    """
    path = Path(path)
    body = json.dumps(payload, sort_keys=True)
    document = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "crc": zlib.crc32(body.encode()),
            "payload": payload,
        },
        sort_keys=True,
    )
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as handle:
        handle.write(document)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def load_checkpoint(path: str | Path) -> dict:
    """Read and verify a checkpoint; returns its payload.

    Raises :class:`CheckpointError` on a missing file, non-checkpoint
    content, version mismatch, or CRC failure — a half-written or
    bit-rotted checkpoint must never be restored.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            raw_bytes = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    # Decode explicitly: a flipped bit can make the file invalid UTF-8,
    # and that is corruption (CheckpointError), not a caller bug.
    try:
        raw = raw_bytes.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid UTF-8 (bit rot?)"
        ) from exc
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"checkpoint {path} is not valid JSON (truncated write?)"
        ) from exc
    if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if document.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {document.get('version')}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    payload = document.get("payload")
    body = json.dumps(payload, sort_keys=True)
    if zlib.crc32(body.encode()) != document.get("crc"):
        raise CheckpointError(f"checkpoint {path} failed its CRC check")
    return payload


# -- shard snapshots: the same checkpoint discipline, shipped in memory -------

#: Format tag stamped into every cluster shard snapshot.
SHARD_SNAPSHOT_FORMAT = "rushmon-shard-snapshot"
#: Bump on any incompatible shard-snapshot payload change.
SHARD_SNAPSHOT_VERSION = 1


def encode_shard_snapshot(payload: dict) -> dict:
    """Wrap a cluster worker's shard state in the checkpoint envelope
    (format tag + version + CRC over the canonical payload encoding).

    Unlike :func:`save_checkpoint` the document never touches disk — it
    ships router-ward over the cluster control link — but the router
    applies the same trust rule: a snapshot that fails verification is
    *rejected*, never restored into a respawned worker.
    """
    body = json.dumps(payload, sort_keys=True)
    return {
        "format": SHARD_SNAPSHOT_FORMAT,
        "version": SHARD_SNAPSHOT_VERSION,
        "crc": zlib.crc32(body.encode()),
        "payload": payload,
    }


def decode_shard_snapshot(document: dict) -> dict:
    """Verify a shard-snapshot document and return its payload.

    Raises :class:`CheckpointError` on a foreign document, version
    mismatch, or CRC failure — a corrupted snapshot must never seed a
    respawned worker (the router falls back to its previous snapshot,
    or to a full journal replay).
    """
    if (
        not isinstance(document, dict)
        or document.get("format") != SHARD_SNAPSHOT_FORMAT
    ):
        raise CheckpointError(
            f"not a {SHARD_SNAPSHOT_FORMAT} document"
        )
    if document.get("version") != SHARD_SNAPSHOT_VERSION:
        raise CheckpointError(
            f"shard snapshot has version {document.get('version')}, "
            f"this build reads version {SHARD_SNAPSHOT_VERSION}"
        )
    payload = document.get("payload")
    body = json.dumps(payload, sort_keys=True)
    if zlib.crc32(body.encode()) != document.get("crc"):
        raise CheckpointError("shard snapshot failed its CRC check")
    return payload


# -- codecs: detector / window / report state <-> JSON-friendly dicts --------
#
# Duck-typed on the core objects (a checkpoint is storage's concern, so
# the codecs live here; repro.core never imports repro.storage).


def _encode_counts(counts: CycleCounts) -> list[int]:
    return [counts.ss, counts.dd, counts.sss, counts.ssd, counts.ddd]


def _decode_counts(record: list) -> CycleCounts:
    return CycleCounts(*record)


def _encode_edge_stats(stats: EdgeStats) -> list[int]:
    return [stats.wr, stats.ww, stats.rw]


def _decode_edge_stats(record: list) -> EdgeStats:
    return EdgeStats(*record)


def _encode_patterns(patterns: PatternCounts) -> list[list]:
    return [[p.value, n] for p, n in sorted(
        patterns.counts.items(), key=lambda item: item[0].value
    )]


def _decode_patterns(record: list) -> PatternCounts:
    return PatternCounts(
        Counter({AnomalyPattern(value): n for value, n in record})
    )


def encode_detector_state(detector) -> dict:
    """Snapshot a :class:`~repro.core.detector.CycleDetector`: the live
    graph (its labelled edges — list order carries no meaning — and its
    vertices), lifetime cycle/pattern counts and pruning bookkeeping.
    Labels and BUU ids must be JSON-serializable."""
    graph = detector.graph
    pruner = detector.pruner
    return {
        "labels": [
            [src, dst, [[label, kind.value] for label, kind in labels.items()]]
            for src, dst, labels in graph.edges()
        ],
        "present": sorted(graph.present),
        "starts": [[buu, t] for buu, t in graph.starts.items()],
        "commits": [[buu, t] for buu, t in graph.commits.items()],
        "edge_count": graph.edge_count,
        "counts": _encode_counts(detector.counts),
        "patterns": _encode_patterns(detector.patterns),
        "edges_since_prune": detector._edges_since_prune,
        "prune_passes": detector.prune_passes,
        "edges_refused": detector.edges_refused,
        "pruner_removed_total": 0 if pruner is None else pruner.removed_total,
    }


def decode_detector_state(detector, state: dict) -> None:
    """Load :func:`encode_detector_state` output into a freshly built,
    identically configured detector.  The graph is rebuilt through its
    own ``add_vertex`` / ``add_edge``; a document whose recorded
    ``edge_count`` disagrees with the edges it lists raises
    :class:`CheckpointError`."""
    graph = detector.graph
    for v in state["present"]:
        graph.add_vertex(v)
    for src, dst, labels in state["labels"]:
        for label, kind in labels:
            graph.add_edge(src, dst, label, EdgeType(kind))
    if graph.edge_count != state["edge_count"]:
        raise CheckpointError(
            f"detector state lists {graph.edge_count} distinct edges but "
            f"records edge_count={state['edge_count']}"
        )
    graph.starts = dict(state["starts"])
    graph.commits = dict(state["commits"])
    detector.counts = _decode_counts(state["counts"])
    detector.patterns = _decode_patterns(state["patterns"])
    detector._edges_since_prune = state["edges_since_prune"]
    detector.prune_passes = state["prune_passes"]
    detector.edges_refused = state["edges_refused"]
    if detector.pruner is not None:
        detector.pruner.removed_total = state["pruner_removed_total"]


def encode_window_state(window) -> dict:
    """Snapshot a :class:`~repro.core.monitor.WindowTracker`'s open
    window (raw counts, edge stats, op count, start, pattern baseline)."""
    return {
        "raw": _encode_counts(window.raw),
        "edges": _encode_edge_stats(window.edges),
        "ops": window.ops,
        "window_start": window.window_start,
        "pattern_snapshot": _encode_patterns(window._pattern_snapshot),
    }


def decode_window_state(window, state: dict) -> None:
    """Load an encode_window_state() dict back into a WindowTracker."""
    window.raw = _decode_counts(state["raw"])
    window.edges = _decode_edge_stats(state["edges"])
    window.ops = state["ops"]
    window.window_start = state["window_start"]
    window._pattern_snapshot = _decode_patterns(state["pattern_snapshot"])


def encode_report(report: AnomalyReport) -> dict:
    """Encode one AnomalyReport as a JSON-safe dict."""
    return {
        "window_start": report.window_start,
        "window_end": report.window_end,
        "estimated_2": report.estimated_2,
        "estimated_3": report.estimated_3,
        "raw": _encode_counts(report.raw),
        "edges": _encode_edge_stats(report.edges),
        "operations": report.operations,
        "patterns": report.patterns,
        "health": report.health,
        "degraded_shards": list(report.degraded_shards),
    }


def decode_report(state: dict) -> AnomalyReport:
    """Rebuild an AnomalyReport from its encode_report() dict."""
    return AnomalyReport(
        window_start=state["window_start"],
        window_end=state["window_end"],
        estimated_2=state["estimated_2"],
        estimated_3=state["estimated_3"],
        raw=_decode_counts(state["raw"]),
        edges=_decode_edge_stats(state["edges"]),
        operations=state["operations"],
        patterns=state["patterns"],
        health=state["health"],
        degraded_shards=tuple(state["degraded_shards"]),
    )
