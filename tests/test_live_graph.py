"""The live graph's storage contract and its durable form.

``LiveGraph`` keeps one adjacency in two directions whose entries are
shared: a one-label pair holds an interned ``(label, kind)`` entry, a
pair with more labels its own label dict.  Pinned here: the structural
invariants after every kind of mutation (edge inserts, arbitrary
``remove_vertices`` calls, prune passes), per-edge ingestion being the
batch of one, every ingestion path counting what the dict-only layout
counted (a brute-force recount over that layout), each triangle shape,
the intern table's bound, the lifetime tables staying as small as the
alive set, and checkpoints keeping the dict-only layout's bytes and
restoring into this layout, then evolving like an uninterrupted run.
"""

import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import BaselineCollector
from repro.core.concurrent import RushMonService
from repro.core.detector import CycleDetector, LifecycleOrderError, LiveGraph
from repro.core.monitor import RushMon
from repro.core.patterns import classify_two_cycle
from repro.core.pruning import make_pruner
from repro.core.types import CycleCounts, Edge, EdgeColumns, EdgeType
from repro.storage.wal import (
    CheckpointError,
    decode_detector_state,
    encode_detector_state,
)

from tests.strategies import op_streams
from tests.test_checkpoint import _feed
from tests.test_sampled_journal import _assert_matches_serial, _config, _events

KINDS = (EdgeType.WR, EdgeType.RW, EdgeType.WW)  # the intern tables' order

def assert_graph_invariants(graph: LiveGraph,
                            present_at_commit=None) -> None:
    """``present_at_commit``: for a graph fed through ``CycleDetector``,
    the committed BUUs that were vertices when they committed."""
    out, inc = graph.out, graph.inc
    assert out.keys() == inc.keys()
    assert graph.present == out.keys()
    assert graph.num_vertices() == len(out)
    tables = dict(zip(KINDS, graph._entries))
    for kind, table in tables.items():
        assert all(entry == (label, kind) for label, entry in table.items())
    total = 0
    for u, row in out.items():
        for v, labels in row.items():
            assert u != v
            assert inc[v][u] is labels  # KeyError: v is not a vertex
            if type(labels) is tuple:
                label, kind = labels
                assert tables[kind][label] is labels, "entry not interned"
                total += 1
            else:
                assert type(labels) is dict
                assert len(labels) >= 2, "a one-label pair owns a dict"
                total += len(labels)
    for v, row in inc.items():
        for u, labels in row.items():
            assert out[u][v] is labels
    assert graph.edge_count == graph.num_edges() == total
    assert [(u, v) for u, v, _ in graph.edges()] == \
        [(u, v) for u, row in out.items() for v in row]
    assert graph.commits.keys().isdisjoint(graph.starts)
    if present_at_commit is not None:
        # The detector refuses an edge out of a committed BUU without a
        # row, so a committed vertex with no in-edge was there before.
        assert {v for v in out if v in graph.commits and not inc[v]} <= \
            present_at_commit


# -- structural invariants under every mutation -------------------------------


@st.composite
def graph_scripts(draw):
    """An unstructured op stream with ``remove_vertices`` calls, commits
    and forced prune passes dropped in at drawn positions."""
    ops = draw(op_streams(max_ops=80, max_buus=10, max_keys=4))
    vertex = st.integers(min_value=0, max_value=11)  # two ids never used
    action = st.one_of(
        st.tuples(st.just("remove"), st.lists(vertex, max_size=5)),
        st.tuples(st.just("commit"), vertex),
        st.tuples(st.just("prune"), st.none()),
    )
    actions = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=len(ops)), action),
        max_size=12))
    return ops, sorted(actions, key=lambda pair: pair[0])


@given(script=graph_scripts(), prune_interval=st.sampled_from((1, 3, 1000)))
def test_invariants_hold_and_per_edge_is_the_batch_of_one(script,
                                                          prune_interval):
    ops, actions = script
    per_edge = CycleDetector(make_pruner("both"), prune_interval)
    batched = CycleDetector(make_pruner("both"), prune_interval)
    detectors = (per_edge, batched)
    collector = BaselineCollector()
    present_at_commit = set()

    def act(position):
        while actions and actions[0][0] <= position:
            kind, payload = actions.pop(0)[1]
            if kind == "commit" and payload in per_edge.graph.present:
                present_at_commit.add(payload)
            for det in detectors:
                if kind == "remove":
                    det.graph.remove_vertices(payload)
                    assert det.graph.present.isdisjoint(payload)
                elif kind == "commit":
                    det.commit_buu(payload, position)
                else:
                    det.prune(now=position)
            assert_graph_invariants(per_edge.graph, present_at_commit)

    for position, op in enumerate(ops):
        act(position)
        if op.buu not in per_edge.graph.alive:
            present_at_commit.discard(op.buu)
            for det in detectors:
                det.begin_buu(op.buu, op.seq)
        for edge in collector.handle(op):
            assert per_edge.add_edge(edge) == batched.add_edge_batch([edge])
            assert per_edge.counts == batched.counts
            assert per_edge.patterns.counts == batched.patterns.counts
            assert per_edge.prune_passes == batched.prune_passes
            assert list(per_edge.graph.edges()) == list(batched.graph.edges())
            assert_graph_invariants(per_edge.graph, present_at_commit)
    act(len(ops))
    assert per_edge.pruner.removed_by_strategy() == \
        batched.pruner.removed_by_strategy()
    assert per_edge.edges_refused == batched.edges_refused


def test_remove_vertices_skips_absent_and_repeated_vertices():
    graph = LiveGraph()
    graph.add_edge(1, 2, "x")
    graph.add_edge(1, 2, "y", EdgeType.WW)
    graph.add_edge(2, 3, "x")
    graph.add_edge(3, 1, "z")
    graph.remove_vertices([2, 7, 2])
    assert_graph_invariants(graph)
    assert graph.present == {1, 3}
    assert list(graph.edges()) == [(3, 1, {"z": EdgeType.WR})]
    graph.remove_vertices([3])
    # a vertex whose every neighbour went stays, with empty rows
    assert graph.present == {1} and graph.num_edges() == 0


# -- shared entries count what the dict-only layout counted --------------------


class DictOnlyGraph:
    """The live graph as the dict-only layout kept it — every connected
    pair owns a ``{label: kind}`` dict — under the detector's admission
    rules, with each admitted edge's new cycles recounted by brute force
    over every third vertex."""

    def __init__(self):
        self.labels = {}  # (src, dst) -> {label: kind}
        self.present = set()
        self.commits = set()
        self.counts = CycleCounts()
        self.patterns = Counter()
        self.refused = 0
        self.admitted_labels = set()

    def add(self, src, dst, kind, label):
        if src == dst or dst in self.commits:
            return
        if src not in self.present and src in self.commits:
            self.refused += 1
            return
        pair = self.labels.setdefault((src, dst), {})
        if label in pair:
            return
        pair[label] = kind
        self.present |= {src, dst}
        self.admitted_labels.add(label)
        counts = self.counts
        for back_label, back_kind in self.labels.get((dst, src), {}).items():
            if back_label == label:
                counts.ss += 1
            else:
                counts.dd += 1
            self.patterns[classify_two_cycle(kind, label, back_kind,
                                             back_label)] += 1
        for w in self.present - {src, dst}:
            for a in self.labels.get((dst, w), ()):
                for b in self.labels.get((w, src), ()):
                    distinct = len({label, a, b})
                    if distinct == 1:
                        counts.sss += 1
                    elif distinct == 2:
                        counts.ssd += 1
                    else:
                        counts.ddd += 1

    def keep(self, present):
        """Mirror a prune pass that left ``present``."""
        self.present &= present
        self.labels = {pair: labels for pair, labels in self.labels.items()
                       if pair[0] in self.present and pair[1] in self.present}


VERTEX = st.integers(min_value=0, max_value=5)


@st.composite
def edge_scripts(draw):
    """Edges over six vertices and four labels — so pairs and labels
    repeat and a pair gains a second label of another kind — with
    self-loops, begins, commits, forced prune passes and batch cuts."""
    edge = st.tuples(st.just("edge"), VERTEX, VERTEX, st.sampled_from(KINDS),
                     st.integers(min_value=0, max_value=3))
    other = st.one_of(st.tuples(st.sampled_from(("begin", "commit")), VERTEX),
                      st.just(("prune",)), st.just(("cut",)))
    return draw(st.lists(st.one_of(edge, edge, edge, other), max_size=60))


@given(script=edge_scripts())
def test_every_path_counts_what_the_dict_only_layout_counted(script):
    batched, per_edge, uncounted = detectors = tuple(
        CycleDetector(make_pruner("both"), prune_interval=10**9)
        for _ in range(3))
    reference = DictOnlyGraph()
    batch = EdgeColumns()

    def flush():
        nonlocal batch
        if batch:
            try:
                batched.add_edge_batch(batch)
            except LifecycleOrderError:
                pass
            batch = EdgeColumns()

    for seq, step in enumerate(script, start=1):
        if step[0] == "edge":
            edge = Edge(*step[1:], seq)
            for column, value in zip((batch.src, batch.dst, batch.kind,
                                      batch.label, batch.seq), edge):
                column.append(value)
            try:
                per_edge.add_edge(edge)
            except LifecycleOrderError:
                pass
            uncounted.add_edge_uncounted(edge)
            reference.add(*step[1:])
            continue
        flush()
        if step[0] == "begin":
            reference.commits.discard(step[1])
            for det in detectors:
                det.begin_buu(step[1], seq)
        elif step[0] == "commit":
            reference.commits.add(step[1])
            for det in detectors:
                det.commit_buu(step[1], seq)
        elif step[0] == "prune":
            for det in detectors:
                det.prune(now=seq)
            reference.keep(set(per_edge.graph.present))
    flush()

    layout = {pair: list(labels.items())
              for pair, labels in reference.labels.items()}
    for det in detectors:
        graph = det.graph
        assert_graph_invariants(graph)
        assert {(u, v): list(labels.items())
                for u, v, labels in graph.edges()} == layout
        assert graph.present == reference.present
        assert graph.edge_count == sum(map(len, reference.labels.values()))
        assert det.edges_refused == reference.refused
        assert set().union(*graph._entries) <= reference.admitted_labels
        assert sum(map(len, graph._entries)) <= \
            3 * len(reference.admitted_labels)
    assert list(batched.graph.edges()) == list(per_edge.graph.edges()) == \
        list(uncounted.graph.edges())
    for det in (batched, per_edge):
        assert det.counts == reference.counts
        assert det.patterns.counts == reference.patterns
    assert uncounted.counts == CycleCounts()


#: ``(labels of v -> w, labels of w -> u, (sss, ssd, ddd))`` for the
#: triangle that ``u -> v`` labelled ``"x"`` closes: a one-label leg is
#: a shared entry, a longer one a dict.
TRIANGLES = [
    (("x",), ("x",), (1, 0, 0)),
    (("x",), ("y",), (0, 1, 0)),
    (("y",), ("x",), (0, 1, 0)),
    (("y",), ("y",), (0, 1, 0)),
    (("y",), ("z",), (0, 0, 1)),
    (("x",), ("x", "y"), (1, 1, 0)),
    (("y",), ("x", "y", "z"), (0, 2, 1)),
    (("x", "y"), ("y",), (0, 2, 0)),
    (("y", "z"), ("w",), (0, 0, 2)),
    (("x", "y"), ("y", "z"), (0, 3, 1)),
    (("x", "y"), ("x", "y"), (1, 3, 0)),
]


@pytest.mark.parametrize("walk", ("out_v", "in_u"))
@pytest.mark.parametrize("leg_vw, leg_wu, expected", TRIANGLES)
def test_each_triangle_shape_counts_its_label_classes(leg_vw, leg_wu,
                                                      expected, walk):
    u, v, w, pad = 1, 2, 3, 4
    det = CycleDetector()
    graph = det.graph
    for label, kind in zip(leg_vw, KINDS):
        graph.add_edge(v, w, label, kind)
    for label, kind in zip(leg_wu, KINDS):
        graph.add_edge(w, u, label, kind)
    # A neighbour on no triangle makes the other row the larger, so the
    # walk yields the leg through the row ``walk`` names.
    if walk == "out_v":
        graph.add_edge(pad, u, "p")
    else:
        graph.add_edge(v, pad, "p")
    assert [type(graph.out[v][w]), type(graph.out[w][u])] == \
        [tuple if len(leg) == 1 else dict for leg in (leg_vw, leg_wu)]
    closed = det.add_edge(Edge(u, v, EdgeType.WR, "x"))
    assert (closed.sss, closed.ssd, closed.ddd) == expected
    assert closed.two_cycles == 0


def test_a_second_label_promotes_the_pair_and_leaves_the_entry_shared():
    graph = LiveGraph()
    assert graph.add_edge(1, 2, "x", EdgeType.RW)
    assert graph.add_edge(3, 4, "x", EdgeType.RW)
    entry = graph.out[1][2]
    assert entry == ("x", EdgeType.RW) and graph.out[3][4] is entry
    assert not graph.add_edge(1, 2, "x", EdgeType.WW)  # a duplicate label
    assert graph.add_edge(1, 2, "y", EdgeType.WW)
    # first label first: the checkpoint lists a pair's labels in order
    assert list(graph.out[1][2].items()) == [("x", EdgeType.RW),
                                             ("y", EdgeType.WW)]
    assert graph.inc[2][1] is graph.out[1][2]
    assert graph.out[3][4] is entry
    assert graph.edge_labels(1, 2) == {"x", "y"}
    assert graph.edge_labels(3, 4) == {"x"} and not graph.edge_labels(4, 3)
    assert_graph_invariants(graph)
    graph.remove_vertices([1])
    assert graph.num_edges() == 1


def test_the_intern_table_grows_with_labels_not_with_edges():
    events = _events(1200, num_keys=8)
    det = CycleDetector(make_pruner("both"), prune_interval=40)
    collector = BaselineCollector()
    _replay([det], collector, events[:600])
    before = [dict(table) for table in det.graph._entries]
    _replay([det], collector, events[600:])
    tables = det.graph._entries
    for old, new in zip(before, tables):
        assert all(new[label] is entry for label, entry in old.items())
    assert set().union(*tables) <= set(range(8))
    assert sum(map(len, tables)) <= 3 * 8
    assert det.prune_passes > 3 * 8  # edges admitted: prune_interval each


def test_starts_holds_alive_buus_only():
    graph = LiveGraph()
    for buu in range(200):
        graph.begin(buu, buu)
        if buu % 10:
            graph.commit(buu, buu + 5)
        assert len(graph.starts) == len(graph.alive)
    assert sorted(graph.starts) == list(range(0, 200, 10))
    assert len(graph.commits) == 180  # kept: a resurrected vertex needs it
    # A BUU that begins again after its commit is active from its *new*
    # start; one that is still running keeps its first.
    graph.begin(7, 500)
    graph.begin(10, 600)
    assert (graph.starts[7], graph.starts[10]) == (500, 10)
    for buu in range(0, 200, 10):
        graph.commit(buu, 700)
    assert graph.active_time() == 500.0


def test_detector_state_lists_starts_of_alive_buus_only():
    det = CycleDetector()
    for buu in range(50):
        det.begin_buu(buu, buu)
        det.add_edge(Edge(buu, buu + 1, EdgeType.WR, "k", buu))
        if buu % 5:
            det.commit_buu(buu, buu + 1)
    state = encode_detector_state(det)
    assert sorted(buu for buu, _ in state["starts"]) == list(range(0, 50, 5))
    assert "alive" not in state  # the keys of "starts"


# -- the durable form ---------------------------------------------------------


def _replay(detectors, collector, events):
    """Feed ``events`` to every detector, collecting each op once."""
    for kind, payload in events:
        if kind == "op":
            edges = collector.handle(payload)
            for det in detectors:
                det.add_edge_batch(edges)
        elif kind == "begin":
            for det in detectors:
                det.begin_buu(*payload)
        else:
            for det in detectors:
                det.commit_buu(*payload)


def _dense_detector():
    det = CycleDetector(make_pruner("both"), prune_interval=40)
    # the BUUs still running stay alive
    _replay([det], BaselineCollector(), _events(600, num_keys=8)[:-12])
    assert det.prune_passes and det.graph.alive and det.num_edges
    return det


#: sha256 of the checkpoint body's encoding (sorted-key JSON) of
#: ``encode_detector_state`` after ``_events(1200, num_keys=8)[:600]``
#: through a ``"both"`` / 40 detector, as written by the dict-only layout
#: (every connected pair its own label dict).
DICT_ONLY_STATE_SHA256 = \
    "63f7ae911b8c6f47d21ebc06216353c2259d217e286804c5ff83a0c4388bddd0"


def test_checkpoints_keep_the_dict_only_bytes_and_restore_then_continue():
    events = _events(1200, num_keys=8)
    collector = BaselineCollector()
    det = CycleDetector(make_pruner("both"), prune_interval=40)
    _replay([det], collector, events[:600])
    assert {type(labels) for row in det.graph.out.values()
            for labels in row.values()} == {tuple, dict}
    state = encode_detector_state(det)
    # The digest was taken by checkpoint format 1, which also stored
    # "alive" (the keys of "starts") and the pruner's split by strategy
    # (with ECT's share, 0 on this stream, while "both" ran ECT then
    # distance); every other byte is unchanged.
    total = state["pruner_removed_total"]
    assert det.pruner.removed_by_strategy() == {"distance": total}
    written = {**state, "alive": sorted(buu for buu, _ in state["starts"]),
               "pruner_removed_by_strategy": {"distance": total, "ect": 0}}
    body = json.dumps(written, sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == DICT_ONLY_STATE_SHA256
    restored = CycleDetector(make_pruner("both"), prune_interval=40)
    decode_detector_state(restored, json.loads(json.dumps(state)))
    assert_graph_invariants(restored.graph)
    _replay([det, restored], collector, events[600:])
    # the dict-only layout's counts for the uninterrupted stream
    assert restored.counts == det.counts == CycleCounts(126, 228, 164, 928,
                                                        749)
    assert restored.patterns.counts == det.patterns.counts
    assert sorted(restored.graph.edges()) == sorted(det.graph.edges())
    assert restored.prune_passes == det.prune_passes


def test_detector_state_round_trip_rebuilds_the_same_graph():
    det = _dense_detector()
    graph = det.graph
    lone = next(v for v in graph.out if graph.out[v] or graph.inc[v])
    graph.remove_vertices([*graph.out[lone], *graph.inc[lone]])
    assert lone in graph.present and not graph.out[lone] and not graph.inc[lone]
    state = encode_detector_state(det)
    clone = CycleDetector(make_pruner("both"), prune_interval=40)
    decode_detector_state(clone, state)
    assert_graph_invariants(clone.graph)
    assert clone.graph.present == det.graph.present  # isolated ones too
    assert sorted(clone.graph.edges()) == sorted(det.graph.edges())
    assert clone.graph.starts == det.graph.starts
    assert clone.graph.commits == det.graph.commits
    assert clone.counts == det.counts
    assert clone.pruner.removed_by_strategy() == \
        det.pruner.removed_by_strategy()
    # list order carries no meaning
    state["labels"].reverse()
    again = CycleDetector(make_pruner("both"), prune_interval=40)
    decode_detector_state(again, state)
    assert sorted(again.graph.edges()) == sorted(det.graph.edges())


def test_detector_state_with_a_wrong_edge_count_is_refused():
    state = encode_detector_state(_dense_detector())
    state["edge_count"] += 1
    with pytest.raises(CheckpointError, match="edge_count"):
        decode_detector_state(CycleDetector(make_pruner("both")), state)
    state["edge_count"] -= 1
    state["labels"].append(state["labels"][0])  # a duplicated entry
    state["edge_count"] += len(state["labels"][0][2])
    with pytest.raises(CheckpointError, match="edge_count"):
        decode_detector_state(CycleDetector(make_pruner("both")), state)


def test_a_restored_service_evolves_like_an_uninterrupted_run(tmp_path):
    """A dense graph (alive and committed vertices, parallel labels,
    prune passes) and 300 pending journal events, checkpointed: the
    restored service and the one that wrote it, fed the rest, end with
    the same graph, prune passes and counts, and those of the serial
    monitor."""
    events = _events(3000, num_keys=16)
    split = next(i for i, (kind, payload) in enumerate(events)
                 if kind == "op" and payload.seq == 1800)
    config = _config(1, prune_interval=200)
    whole = RushMonService(config)
    _feed(whole, events[:split - 300])
    whole.close_window()
    _feed(whole, events[split - 300:split])
    restored = RushMonService.restore(whole.checkpoint(
        str(tmp_path / "dense.wal")))
    graph = restored.detector.graph
    assert_graph_invariants(graph)
    assert any(len(labels) > 1 for _, _, labels in graph.edges())
    assert graph.alive & graph.present and graph.present - graph.alive
    assert restored.detector.prune_passes
    assert restored.collector.journal_depth == 300
    for service in (whole, restored):
        _feed(service, events[split:])
        service.close_window()
    serial = RushMon(config)
    _feed(serial, events)
    serial.close_window()
    _assert_matches_serial(restored, serial, events)
    a, b = restored.detector, whole.detector
    assert sorted(a.graph.edges()) == sorted(b.graph.edges())
    assert a.graph.present == b.graph.present
    assert a.prune_passes == b.prune_passes
    assert a.pruner.removed_total == b.pruner.removed_total
    assert a.patterns.counts == b.patterns.counts
