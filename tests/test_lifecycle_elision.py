"""Lifecycle follows the sample, and the detector refuses edges that can
never close a cycle.

Pinned here, for every front end of the admission gate
(:class:`~repro.core.collector.SampledLifecycle`) — the serial monitor,
the threaded service fed per event, in batches and a frame's records in
one call, and a server fed over a JSON and a packed connection (``INGEST``; the
cluster's share is in ``tests/test_cluster.py``):

- an exact oracle for *sampled* runs: without MOB the raw counts at
  ``sr`` in {4, 20} equal :func:`repro.checkers.exact_cycle_counts` over
  the history restricted to the chosen keys, through every ingest path
  and under every pruning strategy;
- the detector hears of exactly the BUUs with an operation on a chosen
  item — whatever the order and shape of the lifecycle calls — and every
  event offered is delivered, elided or still parked;
- an edge whose source is committed and absent is refused and counted,
  and an operation arriving after its BUU's commit raises
  :class:`~repro.core.detector.LifecycleOrderError` instead of being
  undercounted;
- the collector's batch filter is its per-op ``handle``.
"""

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import measure_collector, record_graph_workload
from repro.checkers import exact_cycle_counts
from repro.core.collector import (
    BaselineCollector,
    DataCentricCollector,
    ItemSampler,
)
from repro.core.concurrent import RushMonService
from repro.core.config import DEFAULT_BATCH_SIZE
from repro.core.detector import CycleDetector, LifecycleOrderError
from repro.core.monitor import RushMon
from repro.core.pruning import make_pruner
from repro.core.types import Operation, OpType
from repro.net import RushMonServer, protocol
from repro.testing import FaultInjector

from tests.histgen import (
    assert_lifecycle_reconciles,
    count_delivered_lifecycle,
    random_history,
)
from tests.test_batch_equivalence import _lifecycle_stream
from tests.test_checkpoint import _feed as _feed_per_op
from tests.test_net import _CodecClient, _wire_records
from tests.test_pruning import reused_id_scripts
from tests.test_sampled_journal import (
    SAMPLING_RATES,
    _assert_matches_serial,
    _config,
    _events,
    _feed_batched,
    _frame_records,
    _serial,
)

SEED = 3  # the sampler seed of tests.test_sampled_journal._config


def _ops(events):
    return [payload for kind, payload in events if kind == "op"]


def _buus(events):
    return {payload[0] for kind, payload in events if kind == "begin"}


def _chosen_buus(events, sr):
    chosen = ItemSampler(sr, SEED).chosen
    return {op.buu for op in _ops(events) if chosen(op.key)}


def _a_key(sr, chosen=True, start=0):
    pick = ItemSampler(sr, SEED).chosen
    return next(key for key in range(start, 10_000) if pick(key) is chosen)


@pytest.fixture(autouse=True)
def _delivered_counts_and_server_teardown(monkeypatch):
    """Count what each front end *delivers* to its detector, and drain
    the servers a test started."""
    count_delivered_lifecycle(monkeypatch)
    yield
    while _WireMonitor.live:
        _WireMonitor.live.pop().close()


def _feed_records(service, events):
    """All of ``events`` in one ``on_records`` call."""
    service.on_records(_frame_records(events))


class _WireMonitor:
    """A trace-less service behind a :class:`RushMonServer`, fed frames
    that alternate between a JSON and a packed connection.  Detection
    runs only in ``close_window()`` (the background pass is parked), so
    what a test reads after it is settled."""

    live: list = []
    FRAME = 97

    def __init__(self, config):
        self.service = RushMonService(
            dataclasses.replace(config, detect_interval=3600.0))
        self.server = RushMonServer(self.service).start()
        self.live.append(self)
        self.clients = [
            _CodecClient(self.server.port, f"codec-{codec}", codec)
            for codec in (protocol.CODEC_JSON, protocol.CODEC_COLUMNAR)]
        self.frames = 0

    def close(self):
        for client in self.clients:
            client.close()
        self.server.drain()

    def __getattr__(self, name):
        return getattr(self.service, name)

    def feed(self, events):
        records = _wire_records(events)
        for start in range(0, len(records), self.FRAME):
            client = self.clients[self.frames % 2]
            self.frames += 1
            reply = client.batch(records[start:start + self.FRAME])
            assert reply == protocol.ack(client.session, client.seq)


# -- (a) the restricted-history oracle ------------------------------------------

#: name -> (monitor flavour, feed, ``batch_size``).  The service journals
#: at most ``batch_size`` operations per record, so at 1 and 4 a batched
#: call becomes many records the pass gates and collects one by one.
INGEST = {
    "serial-per-op": (RushMon, _feed_per_op, DEFAULT_BATCH_SIZE),
    "serial-batched": (RushMon, _feed_batched, DEFAULT_BATCH_SIZE),
    "service-batched-1": (RushMonService, _feed_batched, 1),
    "service-batched-4": (RushMonService, _feed_batched, 4),
    "service-per-op-1": (RushMonService, _feed_per_op, 1),
    "service-per-op-4": (RushMonService, _feed_per_op, 4),
    "service-records": (RushMonService, _feed_records, DEFAULT_BATCH_SIZE),
    "wire": (_WireMonitor, _WireMonitor.feed, DEFAULT_BATCH_SIZE),
}
JOURNALED_INGEST = [name for name, (flavour, _, _) in INGEST.items()
                    if flavour is not RushMon]
PRUNINGS = ("both", "ect", "distance")
PRUNE_INTERVALS = (1, 100)


def restricted_exact(ops, sr, seed=SEED):
    """The exact checker's counts over the operations on chosen keys."""
    chosen = ItemSampler(sr, seed).chosen
    return exact_cycle_counts([op for op in ops if chosen(op.key)])


def _assert_sampled_counts_are_exact(events, sr, ingest, pruning,
                                     prune_interval):
    flavour, feed, batch = INGEST[ingest]
    monitor = flavour(_config(sr, batch_size=batch, pruning=pruning,
                              prune_interval=prune_interval))
    half = len(events) // 2
    feed(monitor, events[:half])
    monitor.close_window()
    feed(monitor, events[half:])
    monitor.close_window()
    exact = restricted_exact(_ops(events), sr)
    assert monitor.detector.counts == exact, (ingest, pruning,
                                              prune_interval)
    return exact


@pytest.mark.parametrize("ingest", INGEST)
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_sampled_counts_equal_the_restricted_history_oracle(sr, ingest):
    events = _events(3000)
    for pruning in PRUNINGS:
        for prune_interval in PRUNE_INTERVALS:
            exact = _assert_sampled_counts_are_exact(
                events, sr, ingest, pruning, prune_interval)
    assert exact.two_cycles > 0  # not vacuous


@pytest.mark.oracle
@pytest.mark.parametrize("ingest", INGEST)
@pytest.mark.parametrize("stream_seed", range(1, 9))
def test_sampled_counts_equal_the_restricted_history_oracle_sweep(
        stream_seed, ingest):
    events = _events(8000, seed=stream_seed)
    found = 0
    for sr in SAMPLING_RATES:
        for pruning in PRUNINGS:
            for prune_interval in PRUNE_INTERVALS:
                exact = _assert_sampled_counts_are_exact(
                    events, sr, ingest, pruning, prune_interval)
        found += exact.two_cycles + exact.three_cycles
    assert found > 0


# -- (b) which lifetimes reach the detector ---------------------------------------


@pytest.mark.parametrize("ingest", INGEST)
@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_detector_hears_of_exactly_the_buus_that_touch_the_sample(sr,
                                                                  ingest):
    flavour, feed, batch = INGEST[ingest]
    events = _events(3000)
    monitor = flavour(_config(sr, batch_size=batch, pruning="none"))
    feed(monitor, events)
    monitor.close_window()
    graph = monitor.detector.graph
    touched = _chosen_buus(events, sr)
    assert 0 < len(touched) < len(_buus(events))
    assert set(graph.commits) == touched
    assert not graph.starts
    # Promotion preceded every edge: no vertex of unknown lifecycle.
    assert graph.present <= graph.commits.keys()
    assert assert_lifecycle_reconciles(monitor, 2 * len(_buus(events))) == \
        (2 * (len(_buus(events)) - len(touched)), 0)


@pytest.mark.parametrize("ingest", INGEST)
def test_lifecycle_calls_of_every_shape(ingest):
    """Begin without commit, commit without begin, BUUs with no
    operation, ids that begin again: the detector's lifetimes, and
    *offered = delivered + elided + parked* after every step."""
    flavour, feed, batch = INGEST[ingest]
    hot, cold = _a_key(20), _a_key(20, chosen=False)
    monitor = flavour(_config(20, batch_size=batch, pruning="none"))
    graph = monitor.detector.graph
    offered = ops = 0

    def lifecycle(kind, buu, when):
        nonlocal offered
        offered += 1
        feed(monitor, [("begin" if kind == "b" else "commit", (buu, when))])

    def op(kind, buu, key, seq):
        nonlocal ops
        ops += 1
        feed(monitor, [("op", Operation(kind, buu, key, seq))])

    def settled(elided, parked, commits, starts):
        monitor.close_window()
        assert assert_lifecycle_reconciles(monitor, offered) == \
            (elided, parked)
        assert set(graph.commits) == commits
        assert set(graph.starts) == starts
        if flavour is not RushMon:  # a parked begin is consumed too
            assert monitor.processed_events == offered + ops

    lifecycle("b", 1, 0)
    op(OpType.WRITE, 1, cold, 1)            # 1 stays parked: no commit
    lifecycle("c", 7, 2)                    # no begin: forwarded as ever
    settled(0, 1, {7}, set())
    lifecycle("b", 2, 3)
    lifecycle("c", 2, 4)                    # no operation at all
    settled(2, 1, {7}, set())
    lifecycle("b", 3, 5)
    op(OpType.WRITE, 3, hot, 6)             # promoted, never commits
    settled(2, 1, {7}, {3})
    if flavour is RushMon:
        assert graph.starts[3] == 5         # the parked start travels
    lifecycle("b", 4, 7)
    op(OpType.READ, 4, hot, 8)
    op(OpType.WRITE, 3, hot, 9)             # 3 -> 4 -> 3
    lifecycle("c", 4, 10)
    lifecycle("b", 4, 11)                   # begins again: the detector
    settled(2, 1, {7}, {3, 4})              # knows the id, so delivered
    op(OpType.READ, 4, cold, 12)            # at once; it misses the
    lifecycle("c", 4, 13)                   # sample this time
    settled(2, 1, {7, 4}, {3})
    lifecycle("b", 4, 14)                   # and again, and hits it
    op(OpType.WRITE, 4, hot, 15)
    lifecycle("b", 4, 16)                   # a second begin while alive
    settled(2, 1, {7}, {3, 4})
    lifecycle("b", 7, 17)                   # so is an id that only ever
    settled(2, 1, set(), {3, 4, 7})         # committed
    lifecycle("b", 1, 18)                   # a second begin while parked
    lifecycle("c", 1, 19)                   # folds into the first
    settled(5, 0, set(), {3, 4, 7})
    assert monitor.detector.counts.two_cycles == 1


def _reused_id_trace(hot, hot2):
    """BUU 1 writes ``hot`` and commits; the id begins again and, before
    its first chosen operation, BUU 2 reads ``hot``: the edge 1 -> 2
    leaves a vertex that is alive again.  2 -> 1 on ``hot2`` closes the
    2-cycle."""
    return [("begin", (1, 0)),
            ("op", Operation(OpType.WRITE, 1, hot, 1)),
            ("commit", (1, 2)),
            ("begin", (1, 3)),
            ("begin", (2, 4)),
            ("op", Operation(OpType.READ, 2, hot, 5)),
            ("op", Operation(OpType.WRITE, 2, hot2, 6)),
            ("op", Operation(OpType.READ, 1, hot2, 7)),
            ("commit", (1, 8)),
            ("commit", (2, 9))]


@pytest.mark.parametrize("pruning", ("none",) + PRUNINGS)
@pytest.mark.parametrize("ingest", INGEST)
def test_an_id_that_begins_again_is_alive_before_its_first_chosen_operation(
        ingest, pruning):
    """Parking the second begin of an id left the detector holding the
    first incarnation's commit time: edges out of the id were refused
    and every pruner treated it as finished."""
    flavour, feed, batch = INGEST[ingest]
    hot = _a_key(20)
    events = _reused_id_trace(hot, _a_key(20, start=hot + 1))
    monitor = flavour(_config(20, batch_size=batch, pruning=pruning,
                              prune_interval=1))
    feed(monitor, events[:4])
    monitor.close_window()
    graph = monitor.detector.graph
    assert (set(graph.starts), set(graph.commits)) == ({1}, set())
    feed(monitor, events[4:])
    monitor.close_window()
    assert monitor.detector.counts == restricted_exact(_ops(events), 20)
    assert monitor.detector.counts.two_cycles == 1
    assert monitor.detector.edges_refused == 0
    assert assert_lifecycle_reconciles(monitor, 6) == (0, 0)


@pytest.mark.parametrize("sr", SAMPLING_RATES)
def test_a_rebegun_id_fed_in_one_call_is_delivered(sr):
    """A lifecycle-run ingest used to discard the gate's "deliver it
    now": the second begin of id 1 — fed in the same call as the rest of
    its frame, as in every ``serve`` frame — was neither
    parked, journaled nor counted, its operations met a committed vertex
    (``LifecycleOrderError``, a degraded window) and the lost update on
    ``hot2`` went uncounted."""
    hot = _a_key(sr)
    hot2 = _a_key(sr, start=hot + 1)
    events = ([("begin", (1, 0)), ("begin", (2, 0)),
               ("op", Operation(OpType.WRITE, 1, hot, 1)),
               ("commit", (1, 2)), ("begin", (1, 3))]
              + [("op", Operation(kind, buu, hot2, seq))
                 for seq, (kind, buu) in enumerate(
                     [(OpType.READ, 1), (OpType.READ, 2),
                      (OpType.WRITE, 1), (OpType.WRITE, 2)], start=4)]
              + [("commit", (1, 8)), ("commit", (2, 8))])
    exact = restricted_exact(_ops(events), sr)
    assert exact.ss == 1

    def settled(monitor):
        monitor.close_window()
        assert monitor.counts() == exact
        assert [report.health for report in monitor.reports] == ["ok"]
        assert monitor.processed_events == len(events)
        assert assert_lifecycle_reconciles(monitor, 6) == (0, 0)

    service = RushMonService(_config(sr))
    _feed_records(service, events)
    settled(service)
    for codec in (0, 1):
        wire = _WireMonitor(_config(sr))
        wire.frames = codec  # the whole trace in one frame of this codec
        wire.feed(events)
        settled(wire)


def _script_keys(sr):
    """Keys for ``k0`` .. ``k3``: chosen, not, chosen, not."""
    hot = _a_key(sr)
    return [hot, _a_key(sr, chosen=False), _a_key(sr, start=hot + 1),
            _a_key(sr, chosen=False, start=hot + 1)]


@given(script=reused_id_scripts(max_keys=4),
       sr=st.sampled_from(SAMPLING_RATES),
       prune_interval=st.sampled_from((1, 3)))
@settings(max_examples=60, deadline=None)
def test_sampled_runs_with_reused_ids_match_the_restricted_oracle(
        script, sr, prune_interval):
    """Ids as worker slots — the next BUU of a slot begins the moment
    the previous one commits, whether or not either touched the sample —
    through the whole serial monitor, under every strategy."""
    ops, cuts = script
    keys = _script_keys(sr)
    ops = [op._replace(key=keys[int(op.key[1:])]) for op in ops]
    exact = restricted_exact(ops, sr)
    last = {op.buu: op.seq for op in ops}
    for batched in (False, True):
        for pruning in ("none",) + PRUNINGS:
            monitor = RushMon(_config(sr, pruning=pruning,
                                      prune_interval=prune_interval))
            offered = 0
            begun = set()
            for op in ops:
                if op.buu not in begun:
                    begun.add(op.buu)
                    monitor.begin_buu(op.buu, op.seq)
                    offered += 1
                if batched:
                    monitor.on_operations([op])
                else:
                    monitor.on_operation(op)
                if op.seq in cuts or op.seq == last[op.buu]:
                    monitor.commit_buu(op.buu, op.seq)
                    offered += 1
                if op.seq in cuts:
                    monitor.begin_buu(op.buu, op.seq)
                    offered += 1
            assert monitor.detector.counts == exact, (pruning, batched)
            graph = monitor.detector.graph
            assert not graph.starts
            assert graph.present <= graph.commits.keys()
            elided, parked = assert_lifecycle_reconciles(monitor, offered)
            assert parked == 0 and elided % 2 == 0


@pytest.mark.parametrize("feed", (_feed_per_op, _feed_batched),
                         ids=("per-op", "batched"))
def test_resampling_promotes_on_whichever_sample_is_current(feed):
    """``resample_interval`` switches the chosen items mid-stream (and
    sends batches down the per-op path): a parked BUU is promoted by
    its first operation on an item of the sample current *then*, and
    the counts are those of a monitor that parks nothing."""
    events = _events(3000)
    config = _config(4, resample_interval=150, pruning="none")
    monitor, reference = RushMon(config), RushMon(config)
    reference.collector.lifecycle.engaged = False
    shadow = DataCentricCollector(sampling_rate=4, mob=False, seed=SEED,
                                  resample_interval=150)
    touched = set()
    for op in _ops(events):
        if shadow.sampler.chosen(op.key):
            touched.add(op.buu)
        shadow.handle(op)
    for mon in (monitor, reference):
        feed(mon, events)
        mon.close_window()
    assert monitor.collector._resample_epoch == 3000 // 150
    assert set(monitor.detector.graph.commits) == touched
    assert set(reference.detector.graph.commits) == _buus(events) != touched
    assert monitor.detector.counts == reference.detector.counts
    assert monitor.reports == reference.reports
    assert monitor.detector.counts.two_cycles > 0


def test_parked_buus_survive_an_armed_injector_and_a_degrade_shift():
    """Behind an armed (idle) injector the service still equals the
    serial monitor, and a degrade shift in mid-stream — the gate promotes
    on the base sample, the pass then collects fewer items — leaves
    every vertex with a known lifetime and every event accounted for."""
    events = _events(3000)
    serial = _serial(20, events)
    armed = RushMonService(_config(20), faults=FaultInjector())
    _feed_batched(armed, events)
    armed.close_window()
    _assert_matches_serial(armed, serial, events)
    assert set(armed.detector.graph.commits) == _chosen_buus(events, 20)

    degrading = RushMonService(_config(
        4, pruning="none", journal_capacity=64, overflow="degrade"))
    collector = degrading.collector
    _feed_batched(degrading, events[:1500])
    degrading.close_window()
    assert collector.degrade_shift > 0 and collector.lifecycle.num_parked
    _feed_batched(degrading, events[1500:])
    degrading.close_window()
    degrading.close_window()
    graph = degrading.detector.graph
    assert degrading.health == "ok"
    assert graph.present and graph.present <= graph.commits.keys()
    assert set(graph.commits) <= _chosen_buus(events, 4)
    assert not collector.lifecycle.num_parked
    assert degrading.processed_events == len(events)
    snap = degrading.metrics.snapshot()
    assert snap["rushmon_collector_lifecycle_events_total"] == \
        2 * len(_buus(events))
    assert snap["rushmon_collector_lifecycle_elided_total"] == \
        2 * (len(_buus(events)) - len(graph.commits))


def test_what_a_full_journal_sheds_never_reaches_the_gate():
    """``overflow="shed"`` drops records at offer, before the gate runs:
    the gate reconciles over the lifecycle events the journal took, and
    ``processed_events`` plus what was shed is every event offered."""
    events = _events(3000)
    service = RushMonService(_config(4, pruning="none", journal_capacity=6,
                                     overflow="shed"))
    for start in range(0, len(events), 25):
        _feed_batched(service, events[start:start + 25])
        service.close_window()
    collector = service.collector
    assert collector.shed_events > 0
    snap = service.metrics.snapshot()
    elided, parked = assert_lifecycle_reconciles(
        service, snap["rushmon_collector_lifecycle_events_total"])
    assert (snap["rushmon_collector_lifecycle_elided_total"],
            snap["rushmon_collector_lifecycle_parked"]) == (elided, parked)
    assert service.processed_events + collector.shed_events == len(events)


@pytest.mark.parametrize("consumed", (True, False),
                         ids=("in-detector", "in-journal"))
def test_a_restored_service_knows_the_ids_its_detector_holds(tmp_path,
                                                             consumed):
    """``known`` is not in the checkpoint: it is rebuilt from the
    detector's lifetimes (a pending lifecycle record has not met the
    gate yet), so an id that begins again after the restore is
    delivered, not parked."""
    hot = _a_key(20)
    events = _reused_id_trace(hot, _a_key(20, start=hot + 1))
    path = str(tmp_path / "svc.wal")
    service = RushMonService(_config(20, pruning="both", prune_interval=1))
    _feed_per_op(service, events[:3])
    if consumed:
        service.close_window()
    service.checkpoint(path)
    restored = RushMonService.restore(path)
    assert restored.collector.lifecycle.known == ({1} if consumed else set())
    _feed_per_op(restored, events[3:])
    restored.close_window()
    assert restored.counts() == restricted_exact(_ops(events), 20)
    assert restored.counts().two_cycles == 1
    assert restored.processed_events == len(events)


def test_two_producers_on_one_buu_promote_it_once():
    """Four threads issue the operations of the same BUUs at once: the
    pass delivers each BUU's begin exactly once, ahead of its edges."""
    hot = [_a_key(4, start=s) for s in (0, 40, 80)]
    hot = sorted({*hot, _a_key(4, start=max(hot) + 1)})
    cold = _a_key(4, chosen=False)
    buus = range(6)
    service = RushMonService(_config(4, pruning="none"))
    for buu in buus:
        service.begin_buu(buu, 0)
    start = threading.Barrier(4)

    def produce(thread):
        start.wait(timeout=30)
        for i in range(150):
            buu = buus[i % len(buus)]
            key = cold if i < 12 else hot[(i + thread) % len(hot)]
            op = Operation(OpType.WRITE, buu, key, thread * 1000 + i)
            if i % 3:
                service.on_operation(op)
            else:
                service.on_operations([op])

    threads = [threading.Thread(target=produce, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    service.close_window()
    graph = service.detector.graph
    assert set(graph.starts) == set(buus) and graph.present <= set(buus)
    assert service.detector.lifecycle_calls == len(buus)
    assert not service.collector.lifecycle.num_parked
    assert service.collector.lifecycle.elided == 0
    assert service.processed_events == len(buus) + 4 * 150


def test_checkpoint_with_parked_buus_restores_like_an_uninterrupted_run(
        tmp_path):
    events = _events(6000)
    serial = _serial(20, events)
    path = str(tmp_path / "svc.wal")
    whole, first = RushMonService(_config(20)), RushMonService(_config(20))
    for service in (whole, first):
        _feed_batched(service, events[:2000])
        service.close_window()
        _feed_batched(service, events[2000:3500])
    parked = first.collector.lifecycle.num_parked
    assert parked > 0 and first.collector.lifecycle.elided > 0
    first.checkpoint(path)
    del first  # simulated kill: nothing after the checkpoint survives
    restored = RushMonService.restore(path)
    assert restored.collector.lifecycle.num_parked == parked
    for service in (whole, restored):
        _feed_batched(service, events[3500:])
        service.close_window()
    _assert_matches_serial(restored, serial, events)
    a, b = restored.detector.graph, whole.detector.graph
    assert sorted(a.edges()) == sorted(b.edges())
    assert (a.present, a.starts, a.commits) == (b.present, b.starts,
                                                b.commits)
    assert set(a.commits) | set(a.starts) == _chosen_buus(events, 20)
    assert restored.processed_events == whole.processed_events
    assert restored.collector.lifecycle.elided == \
        whole.collector.lifecycle.elided
    assert restored.detector.edges_refused == whole.detector.edges_refused


# -- (d) refusal and the ordering it rests on -----------------------------------


def test_refused_edges_reconcile_and_never_enter_the_graph():
    """offered = admitted + duplicate + self-loop + refused, decided
    edge by edge against the graph as it stood."""
    tallies = dict.fromkeys(("admitted", "duplicate", "self-loop",
                             "refused"), 0)
    offered = 0
    for seed in range(6):
        det = CycleDetector(make_pruner("both"), prune_interval=10**9)
        graph = det.graph
        refused_before = 0
        for item in _lifecycle_stream(random_history(seed)):
            if isinstance(item, tuple) and item[0] in ("b", "c"):
                (det.begin_buu if item[0] == "b" else det.commit_buu)(
                    item[1], item[2])
                det.prune(now=item[2])
                continue
            offered += 1
            if item.src == item.dst:
                verdict = "self-loop"
            elif item.src not in graph.present and item.src in graph.commits:
                verdict = "refused"
            elif item.label in graph.edge_labels(item.src, item.dst):
                verdict = "duplicate"
            else:
                verdict = "admitted"
            tallies[verdict] += 1
            edges, vertices = det.num_edges, det.num_vertices
            det.add_edge(item)
            assert det.num_edges - edges == (verdict == "admitted")
            if verdict == "refused":
                assert det.num_vertices == vertices
        assert det.edges_refused - refused_before > 0
    assert sum(tallies.values()) == offered
    assert tallies["refused"] > 0 and tallies["admitted"] > 0


def test_refused_edges_still_count_as_collected():
    history = random_history(3, num_buus=120, num_keys=6)
    monitor = RushMon(_config(1, prune_interval=5))
    last = {op.buu: i for i, op in enumerate(history)}
    begun = set()
    for i, op in enumerate(history):
        if op.buu not in begun:
            begun.add(op.buu)
            monitor.begin_buu(op.buu, op.seq)
        monitor.on_operation(op)
        if last[op.buu] == i:
            monitor.commit_buu(op.buu, op.seq)
    report = monitor.close_window()
    assert monitor.detector.edges_refused > 0
    assert report.edges == monitor.collector.stats
    assert monitor.detector.counts == exact_cycle_counts(history)
    assert monitor.metrics.snapshot()[
        "rushmon_detector_edges_refused_total"] == \
        monitor.detector.edges_refused


def _late_operation_stream():
    """BUU 1 reads what BUU 2 wrote *after* its own commit."""
    return [("begin", (1, 0)), ("begin", (2, 0)),
            ("op", Operation(OpType.WRITE, 1, "y", 1)),
            ("op", Operation(OpType.WRITE, 2, "x", 2)),
            ("commit", (1, 3)),
            ("op", Operation(OpType.READ, 1, "x", 4))]


def test_an_operation_after_its_commit_raises_from_the_serial_monitor():
    """Per-op ingest only buffers: the walk finds the late operation.  A
    read walks and never raises; the next call that walks (here the
    close) raises, once, and the window it would have closed stays
    open."""
    monitor = RushMon(_config(1))
    _feed_per_op(monitor, _late_operation_stream())
    # What preceded the late edge is accounted for.
    assert monitor.detector.num_edges == 0
    with pytest.raises(LifecycleOrderError, match="BUU 1 "):
        monitor.close_window()
    assert not monitor.reports
    # Beginning again makes the BUU's operations welcome again.
    monitor.begin_buu(1, 5)
    monitor.on_operation(Operation(OpType.READ, 1, "x", 6))
    assert monitor.detector.num_edges == 1
    assert monitor.close_window().operations == 4


def _late_run_stream():
    """The late read sits inside a run of operations: the edges behind
    it (2 -> 3 on ``x``, then 3 -> 2 on ``z``) close a 2-cycle."""
    return [("begin", (1, 0)), ("begin", (2, 0)), ("begin", (3, 0)),
            ("op", Operation(OpType.WRITE, 1, "y", 1)),
            ("op", Operation(OpType.WRITE, 2, "x", 2)),
            ("commit", (1, 3)),
            ("op", Operation(OpType.READ, 1, "x", 4)),
            ("op", Operation(OpType.READ, 3, "x", 5)),
            ("op", Operation(OpType.WRITE, 3, "z", 6)),
            ("op", Operation(OpType.READ, 2, "z", 7)),
            ("commit", (2, 8)), ("commit", (3, 8))]


def test_a_late_operation_costs_its_own_edges_and_nothing_else():
    """The batch around a late edge is applied and attributed to the
    window before the error leaves the detector."""
    monitor = RushMon(_config(1))
    with pytest.raises(LifecycleOrderError, match="BUU 1 ") as raised:
        _feed_batched(monitor, _late_run_stream())
    assert raised.value.buu == 1 and raised.value.counts.two_cycles == 1
    monitor.commit_buu(2, 8)
    monitor.commit_buu(3, 8)
    report = monitor.close_window()
    assert report.raw == monitor.detector.counts
    assert report.raw.two_cycles == 1 and report.edges.total == 3
    assert monitor.detector.num_edges == 2


def _late_then_rest():
    """The late run, a clean stream behind it, that stream's serial
    monitor and the exact counts of both together."""
    late, rest = _late_run_stream(), _events(600, first_buu=10)
    reference = RushMon(_config(1))
    _feed_per_op(reference, rest)
    exact = exact_cycle_counts(_ops(rest))
    exact.dd += 1  # the 2-cycle behind the late edge (labels x, z)
    assert reference.detector.counts.dd + 1 == exact.dd
    return late, rest, reference, exact


@pytest.mark.parametrize("ingest", JOURNALED_INGEST)
def test_an_operation_after_its_commit_is_loud_and_blocks_nothing(ingest):
    """The pass that meets the late operation consumes it with the rest
    of the journal, publishes its window as degraded (a lower bound) and
    raises to the ``close_window()`` caller.  Later events are
    processed, later windows are healthy and nothing is counted
    twice."""
    flavour, feed, batch = INGEST[ingest]
    late, rest, reference, exact = _late_then_rest()
    inline = flavour(_config(1, batch_size=batch))
    feed(inline, late + rest[:300])
    with pytest.raises(LifecycleOrderError, match="BUU 1 "):
        inline.close_window()
    assert inline.processed_events == len(late) + 300
    degraded = inline.latest_report()
    assert degraded.health == "degraded" and inline.health == "ok"
    assert degraded.operations == len(_ops(late + rest[:300]))
    assert degraded.raw.two_cycles >= 1
    feed(inline, rest[300:])
    assert inline.close_window().health == "ok"
    assert inline.counts() == exact
    assert sum(r.raw.two_cycles for r in inline.reports) == exact.two_cycles
    assert sum(r.raw.three_cycles for r in inline.reports) == \
        exact.three_cycles
    assert inline.detector.edges_refused == reference.detector.edges_refused
    assert inline.processed_events == len(late) + len(rest)


def test_a_late_operation_restarts_background_detection_once():
    """On the background thread the error goes to the supervisor, which
    restarts detection; one bad record trips no breaker."""
    late, rest, _, exact = _late_then_rest()
    service = RushMonService(_config(1, detect_interval=0.005,
                                     max_restarts=1, restart_backoff=0.001,
                                     max_backoff=0.002)).start()
    tick = threading.Event()

    def wait_for(condition):
        for _ in range(4000):
            if condition():
                return
            tick.wait(0.005)
        raise AssertionError("timed out")

    try:
        _feed_per_op(service, late)
        wait_for(lambda: service.last_error is not None)
        assert isinstance(service.last_error, LifecycleOrderError)
        _feed_per_op(service, rest)
        wait_for(lambda: service.processed_events == len(late) + len(rest))
        assert not service.degraded  # one bad record trips no breaker
        assert (service.detect_failures, service.detect_restarts) == (1, 1)
    finally:
        service.stop()
    assert service.counts() == exact
    assert [r.health for r in service.reports].count("degraded") == 1


def test_stop_checkpoints_before_it_raises_a_late_operation(tmp_path):
    path = str(tmp_path / "svc.wal")
    service = RushMonService(_config(1, checkpoint_path=path))
    _feed_per_op(service, _late_run_stream())
    with pytest.raises(LifecycleOrderError):
        service.stop()
    assert service.latest_report().health == "degraded"
    restored = RushMonService.restore(path)
    assert restored.processed_events == len(_late_run_stream())
    assert restored.counts().two_cycles == 1
    assert restored.close_window() is None  # nothing left to replay


def test_replay_applies_a_commit_after_the_edges_of_its_last_write():
    """The simulator stamps a commit with its last write's time.  The
    timestamp-replay loops therefore hold a commit back on that tie
    (begins still go first); applying it ahead of the tied edges, as
    they used to, is the misordering the detector now rejects."""
    run = record_graph_workload(600, 200, seed=1)
    measured = measure_collector(BaselineCollector(), run, "us",
                                 prune_interval=50)
    assert measured.raw == exact_cycle_counts(run.ops)

    events = sorted([(t, 0, buu) for buu, t in run.begins]
                    + [(t, 1, buu) for buu, t in run.commits])
    detector = CycleDetector(make_pruner("both"), prune_interval=50)
    index = 0
    with pytest.raises(LifecycleOrderError):
        for edge in BaselineCollector().handle_all(run.ops):
            while index < len(events) and events[index][0] <= edge.seq:
                t, kind, buu = events[index]
                (detector.commit_buu if kind else detector.begin_buu)(buu, t)
                index += 1
            detector.add_edge(edge)


# -- (e) the batch filter is the per-op handle -------------------------------------


def _same_key_runs(seed):
    """Long runs of consecutive operations on one key, the shape the
    retired key-run cache was built for."""
    import random

    rng = random.Random(seed)
    ops = []
    while len(ops) < 1200:
        key = rng.randrange(40)
        for _ in range(rng.choice((1, 2, 30, 80))):
            kind = OpType.WRITE if rng.random() < 0.5 else OpType.READ
            ops.append(Operation(kind, rng.randrange(12), key, len(ops)))
    return ops


@pytest.mark.parametrize("mob", (False, True), ids=("full", "mob"))
def test_batch_filter_is_per_op_handle_across_sampler_changes(mob):
    ops = _same_key_runs(5)
    per_op, batched = (DataCentricCollector(sampling_rate=4, mob=mob, seed=2)
                       for _ in range(2))

    def phase(chunk, size):
        want = [edge for op in chunk for edge in per_op.handle(op)]
        got = []
        for start in range(0, len(chunk), size):
            got.extend(batched.handle_batch(chunk[start:start + size]))
        assert got == want
        assert batched.to_state() == per_op.to_state()

    phase(ops[:300], 64)
    for collector in (per_op, batched):
        collector.sampler.reseed(7)
    phase(ops[300:600], 1)
    for collector in (per_op, batched):
        collector.sampler.materialize(range(40))
    phase(ops[600:900], 300)
    state = DataCentricCollector(sampling_rate=4, mob=mob, seed=9).to_state()
    for collector in (per_op, batched):
        collector.load_state(state)
    phase(ops[900:], 37)
    assert 0 < batched.touches < len(ops[900:])
