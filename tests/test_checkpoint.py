"""Checkpoint/restore tests for the concurrent service.

The contract: a service killed after a checkpoint and restored from it,
then fed the remainder of the event stream, ends with exactly the same
cumulative counts, window partition and (for deterministic single-thread
runs) MOB reservoir decisions as an uninterrupted run over the same
stream.  Corrupt or truncated checkpoints are detected, never restored.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from repro.core.concurrent import RushMonService
from repro.core.concurrent import journaled
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
from repro.storage.wal import (CHECKPOINT_VERSION, CheckpointError,
                               load_checkpoint, save_checkpoint)
from repro.testing import Fault, FaultInjector


def _stream(count, num_keys, seed, buus=40):
    """Deterministic ops + lifecycle events, as (kind, payload) tuples."""
    rng = random.Random(seed)
    events = []
    for b in range(buus):
        events.append(("begin", (b, b)))
    for i in range(count):
        events.append((
            "op",
            Operation(
                OpType.READ if rng.random() < 0.5 else OpType.WRITE,
                buu=rng.randrange(buus),
                key=f"k{rng.randrange(num_keys)}",
                seq=i,
            ),
        ))
    for b in range(buus):
        events.append(("commit", (b, count + b)))
    return events


def _feed(service, events):
    for kind, payload in events:
        if kind == "op":
            service.on_operation(payload)
        elif kind == "begin":
            service.begin_buu(*payload)
        else:
            service.commit_buu(*payload)


def _run_split(config, events, split, ckpt_path, close_before_checkpoint):
    """First half into service A, checkpoint, 'kill' A, restore into B,
    feed the rest, final close.  Returns B."""
    first, second = events[:split], events[split:]
    svc = RushMonService(config)
    _feed(svc, first)
    if close_before_checkpoint:
        svc.close_window()
    svc.checkpoint(str(ckpt_path))
    del svc  # simulated kill: nothing after the checkpoint survives
    restored = RushMonService.restore(str(ckpt_path))
    _feed(restored, second)
    restored.close_window()
    return restored


@pytest.mark.parametrize("close_before_checkpoint", [True, False],
                         ids=["empty-journal", "pending-journal"])
def test_restore_matches_uninterrupted_run_sr1(tmp_path,
                                               close_before_checkpoint):
    """Kill/restore at sr=1 (with and without pending journal events in
    the snapshot) reproduces the uninterrupted run's window counts."""
    config = RushMonConfig(sampling_rate=1, mob=False, seed=3, num_shards=4)
    events = _stream(600, 24, seed=17)
    restored = _run_split(config, events, split=330,
                          ckpt_path=tmp_path / "svc.ckpt",
                          close_before_checkpoint=close_before_checkpoint)

    baseline = RushMonService(config)
    _feed(baseline, events)
    baseline.close_window()

    assert restored.counts() == baseline.counts()
    assert restored.cumulative_estimates() == baseline.cumulative_estimates()
    assert restored.processed_events == baseline.processed_events
    # Window reports partition the cumulative counts across the kill.
    total_ops = sum(1 for kind, _ in events if kind == "op")
    assert sum(r.operations for r in restored.reports) == total_ops
    assert sum(r.raw.two_cycles for r in restored.reports) == \
        restored.counts().two_cycles
    # And the stream fed across the kill counts exactly.
    replayed = OfflineAnomalyMonitor()
    _feed(replayed, events)
    assert replayed.exact_counts() == restored.counts()


def test_restore_matches_uninterrupted_run_sampled_mob(tmp_path):
    """With sr>1 and MOB, restore must also carry the sampler and the
    reservoir RNG: the restored run's sampled counts stay bit-identical
    to the uninterrupted run's, not merely statistically close."""
    config = RushMonConfig(sampling_rate=4, mob=True, seed=11, num_shards=4)
    events = _stream(800, 48, seed=29)
    restored = _run_split(config, events, split=377,
                          ckpt_path=tmp_path / "svc.ckpt",
                          close_before_checkpoint=True)

    baseline = RushMonService(config)
    _feed(baseline, events)
    baseline.close_window()

    assert restored.counts() == baseline.counts()
    assert restored.collector.stats == baseline.collector.stats
    assert restored.collector.touches == baseline.collector.touches
    assert restored.collector.discarded_reads == \
        baseline.collector.discarded_reads
    assert restored.detector.patterns.as_dict() == \
        baseline.detector.patterns.as_dict()


def test_restore_preserves_reports_and_latest(tmp_path):
    config = RushMonConfig(sampling_rate=1, mob=False, seed=5, num_shards=2)
    svc = RushMonService(config)
    _feed(svc, _stream(200, 12, seed=7))
    svc.close_window()
    path = svc.checkpoint(str(tmp_path / "svc.ckpt"))
    restored = RushMonService.restore(path)
    assert len(restored.reports) == len(svc.reports)
    assert restored.latest_report() == svc.latest_report()
    assert restored.passes == svc.passes
    assert not restored.stopped  # restored services are usable


def test_stop_writes_a_checkpoint_of_its_final_state(tmp_path):
    """With a ``checkpoint_path``, stop() writes a final snapshot that
    restores to the stopped service's exact final state."""
    path = tmp_path / "auto.ckpt"
    config = RushMonConfig(sampling_rate=1, mob=False, seed=9,
                           num_shards=2, detect_interval=0.003,
                           checkpoint_path=str(path))
    svc = RushMonService(config)
    with svc:
        _feed(svc, _stream(300, 16, seed=23))
    assert svc.checkpoints_written == 1
    restored = RushMonService.restore(str(path))
    assert restored.counts() == svc.counts()
    assert restored.processed_events == svc.processed_events


def test_corrupt_or_foreign_checkpoints_are_rejected(tmp_path):
    path = tmp_path / "svc.ckpt"
    svc = RushMonService(RushMonConfig(sampling_rate=1, mob=False,
                                       num_shards=2))
    svc.on_operation(Operation(OpType.WRITE, 1, "x", 1))
    svc.checkpoint(str(path))

    # Bit-rot: payload altered without updating the CRC.
    document = json.loads(path.read_text())
    document["payload"]["processed_events"] = 10_000
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError, match="CRC"):
        RushMonService.restore(str(path))

    # Truncation mid-write (non-atomic writer simulation).
    svc.checkpoint(str(path))
    path.write_text(path.read_text()[:40])
    with pytest.raises(CheckpointError, match="JSON"):
        load_checkpoint(path)

    # A JSON file that is not a checkpoint at all.
    path.write_text('{"hello": "world"}')
    with pytest.raises(CheckpointError, match="not a rushmon-checkpoint"):
        load_checkpoint(path)

    # Missing file.
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "nope.ckpt")

    # Future version.
    save_checkpoint(path, {"x": 1})
    document = json.loads(path.read_text())
    document["version"] = 99
    path.write_text(json.dumps(document))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


_CROSS_PROCESS_SCRIPT = r"""
import sys
from repro.core.concurrent import RushMonService
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor
from repro.core.types import Operation, OpType
import random

def stream(count, num_keys, seed, buus=30):
    rng = random.Random(seed)
    events = [("begin", (b, b)) for b in range(buus)]
    for i in range(count):
        events.append(("op", (
            "r" if rng.random() < 0.5 else "w",
            rng.randrange(buus), f"k{rng.randrange(num_keys)}", i)))
    return events

def feed(svc, events, start=0):
    for at, (kind, payload) in enumerate(events, start):
        if kind == "op":
            o, buu, key, seq = payload
            svc.on_operation(Operation(OpType(o), buu, key, seq))
        else:
            svc.begin_buu(*payload)
        if at % 50 == 49:
            svc.close_window()

mode, path = sys.argv[1], sys.argv[2]
events = stream(400, 20, seed=17)
configs = {
    "plain": RushMonConfig(sampling_rate=1, mob=False, seed=3),
    # An overflowing journal raises the degrade shift: which items the
    # filter keeps must not change with the process.
    "degrade": RushMonConfig(sampling_rate=1, mob=False, seed=3,
                             journal_capacity=16, overflow="degrade"),
}
for name, config in configs.items():
    target = f"{path}.{name}"
    if mode == "save":
        svc = RushMonService(config)
        feed(svc, events[:220])
        assert (svc.collector.degrade_shift > 0) == (name == "degrade")
        svc.checkpoint(target)
        continue
    svc = RushMonService.restore(target)
    feed(svc, events[220:], 220)
    svc.close_window()
    if name == "plain":
        replayed = OfflineAnomalyMonitor()
        feed(replayed, events)
        assert replayed.exact_counts() == svc.counts(), "differential broken"
    baseline = RushMonService(config)
    feed(baseline, events)
    baseline.close_window()
    assert svc.counts() == baseline.counts(), f"{name}: diverged"
    assert svc.collector.stats == baseline.collector.stats, name
    assert svc.collector.degrade_shift == baseline.collector.degrade_shift
print("OK")
"""


def test_restore_in_a_different_process(tmp_path):
    """Checkpoints must survive Python's per-process hash randomization:
    the degrade filter uses a process-stable digest, not builtin hash().
    Save under one PYTHONHASHSEED, restore under another, and require
    the sr=1 differential and, with a degrade shift in force at the cut,
    equality with an uninterrupted run."""
    path = str(tmp_path / "cross.ckpt")
    for mode, seed in (("save", "1"), ("restore", "99")):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SCRIPT, mode, path],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "OK"


def test_save_checkpoint_is_atomic(tmp_path):
    """A new checkpoint replaces the old one atomically: no temp file
    residue, and the previous content is never partially overwritten."""
    path = tmp_path / "svc.ckpt"
    save_checkpoint(path, {"generation": 1})
    save_checkpoint(path, {"generation": 2})
    assert load_checkpoint(path) == {"generation": 2}
    assert list(tmp_path.iterdir()) == [path]


#: The checkpoint format ``CHECKPOINT_VERSION`` names.  No reader exists
#: for any other shape, so a change to these keys without a version bump
#: would surface only when a restart restores an older build's file.
FORMAT_PIN = {
    "version": 3,
    "payload": {"config", "collector", "detector", "window", "reports",
                "clock", "processed_events", "passes", "extra"},
    "collector": {"next_ticket", "elided", "ops_seen", "lifecycle_offered",
                  "journal_highwater", "shed", "shed_sampled",
                  "degrade_shift", "pass_shift", "degrade_shifts_total",
                  "shifted_this_epoch", "sampler", "shard", "lifecycle",
                  "journal"},
    "detector": {"labels", "present", "starts", "commits", "edge_count",
                 "counts", "patterns", "edges_since_prune", "prune_passes",
                 "edges_refused", "pruner_removed_total"},
    "window": {"raw", "edges", "ops", "window_start", "pattern_snapshot"},
    "record_kinds": {"ops", "begin", "commit", "shift", "edges"},
}


def test_the_checkpoint_format_is_pinned_to_its_version(tmp_path):
    bump = ("the checkpoint format changed: bump CHECKPOINT_VERSION in "
            "repro/storage/wal.py and update FORMAT_PIN here")
    config = RushMonConfig(sampling_rate=1, mob=False, seed=3)
    svc = RushMonService(config)
    _feed(svc, _stream(120, 8, seed=5))
    svc.close_window()
    _feed(svc, _stream(40, 8, seed=6, buus=4))
    path = svc.checkpoint(str(tmp_path / "pin.ckpt"))
    payload = load_checkpoint(path)
    assert CHECKPOINT_VERSION == FORMAT_PIN["version"], bump
    assert set(payload) == FORMAT_PIN["payload"], bump
    assert set(payload["config"]) == {f.name for f in fields(RushMonConfig)}
    for part in ("collector", "detector", "window"):
        assert set(payload[part]) == FORMAT_PIN[part], (part, bump)
    assert {record[1] for record in payload["collector"]["journal"]} <= \
        FORMAT_PIN["record_kinds"], bump
    kinds = {value for name, value in vars(journaled).items()
             if name.startswith("EV_")}
    assert kinds == FORMAT_PIN["record_kinds"], bump


def test_a_tripped_breaker_leaves_no_shed_policy_in_its_checkpoint(tmp_path):
    """The breaker switches a degraded service's collector to shed on
    overflow; that is the dead detector's state, not the configuration.
    The checkpoint ``stop()`` writes restores a healthy service that
    blocks as configured."""
    path = str(tmp_path / "tripped.ckpt")
    faults = FaultInjector().inject(
        Fault("detect.pass", kind="exception", times=None))
    config = RushMonConfig(sampling_rate=1, mob=False, seed=3,
                           detect_interval=0.002, max_restarts=0,
                           journal_capacity=64, checkpoint_path=path)
    svc = RushMonService(config, faults=faults).start()
    _feed(svc, _stream(30, 8, seed=2, buus=4))
    deadline = time.monotonic() + 10.0
    while not svc.degraded and time.monotonic() < deadline:
        time.sleep(0.002)
    assert svc.degraded and svc.collector.overflow == "shed"
    svc.stop()
    restored = RushMonService.restore(path)
    assert restored.health == "ok"
    assert restored.config.overflow == restored.collector.overflow == "block"
    assert restored.collector.journal_depth == svc.collector.journal_depth
