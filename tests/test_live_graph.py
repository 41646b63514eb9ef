"""The live graph's storage contract and its durable form.

``LiveGraph`` keeps one adjacency in two directions whose entries share
their label dicts.  Pinned here: the structural invariants after every
kind of mutation (edge inserts, arbitrary ``remove_vertices`` calls,
prune passes), per-edge ingestion being the batch of one, the lifetime
tables staying as small as the alive set, and a checkpoint written by
the commit *before* this layout restoring into it and evolving exactly
like an uninterrupted run.
"""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import BaselineCollector
from repro.core.concurrent import RushMonService
from repro.core.detector import CycleDetector, LiveGraph
from repro.core.monitor import RushMon
from repro.core.pruning import make_pruner
from repro.core.types import Edge, EdgeType
from repro.storage.wal import (
    CheckpointError,
    decode_detector_state,
    encode_detector_state,
)

from tests.strategies import op_streams
from tests.test_checkpoint import _feed
from tests.test_sampled_journal import _assert_matches_serial, _config, _events

#: Written by the commit before the adjacency carried the label dicts
#: (tuple-keyed ``labels`` table, ``starts`` never trimmed):
#: ``_events(3000, num_keys=16)`` up to the operation with ``seq ==
#: 1800``, fed per op into ``RushMonService(_config(1,
#: prune_interval=200))``, with one ``close_window()`` 300 events before
#: the cut so that the detector holds a dense graph (35 vertices, alive
#: and committed; 267 edges over 223 pairs, 42 of them with parallel
#: labels; 8 prune passes) and the journal 300 pending records.
PARENT_CHECKPOINT = os.path.join(os.path.dirname(__file__), "data",
                                 "checkpoint_detector_sr1.wal")


def assert_graph_invariants(graph: LiveGraph,
                            present_at_commit=None) -> None:
    """``present_at_commit``: for a graph fed through ``CycleDetector``,
    the committed BUUs that were vertices when they committed."""
    out, inc = graph.out, graph.inc
    assert out.keys() == inc.keys()
    assert graph.present == out.keys()
    assert graph.num_vertices() == len(out)
    total = 0
    for u, row in out.items():
        for v, labels in row.items():
            assert u != v
            assert labels, "empty label dict"
            assert inc[v][u] is labels  # KeyError: v is not a vertex
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


# -- lifetimes ----------------------------------------------------------------


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
    assert sorted(buu for buu, _ in state["starts"]) == state["alive"] == \
        list(range(0, 50, 5))


# -- the durable form ---------------------------------------------------------


def _dense_detector():
    det = CycleDetector(make_pruner("both"), prune_interval=40)
    collector = BaselineCollector()
    events = _events(600, num_keys=8)
    for kind, payload in events[:-12]:  # the BUUs still running stay alive
        if kind == "op":
            det.add_edge_batch(collector.handle(payload))
        elif kind == "begin":
            det.begin_buu(*payload)
        else:
            det.commit_buu(*payload)
    assert det.prune_passes and det.graph.alive and det.num_edges
    return det


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


def test_parent_checkpoint_restores_and_evolves_like_an_uninterrupted_run():
    events = _events(3000, num_keys=16)
    split = next(i for i, (kind, payload) in enumerate(events)
                 if kind == "op" and payload.seq == 1800)
    config = _config(1, prune_interval=200)

    restored = RushMonService.restore(PARENT_CHECKPOINT)
    graph = restored.detector.graph
    assert_graph_invariants(graph)
    assert (graph.num_vertices(), graph.num_edges()) == (35, 267)
    assert sum(1 for _, _, labels in graph.edges() if len(labels) > 1) == 42
    assert graph.alive & graph.present and graph.present - graph.alive
    assert graph.starts.keys() == graph.alive  # the document lists 163
    assert restored.detector.prune_passes == 8
    assert restored.collector.journal_depth == 300

    whole = RushMonService(config)
    _feed(whole, events[:split - 300])
    whole.close_window()
    _feed(whole, events[split - 300:split])
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
    # The document's tallies include the two vertices the parent build
    # resurrected before the cut (its ECT half removed them again); this
    # build refuses the edges that did it, so the uninterrupted run's
    # ECT pass finds nothing and the tallies differ by exactly those.
    assert b.pruner.removed_by_strategy()["ect"] == 0
    assert a.pruner.removed_by_strategy() == \
        {**b.pruner.removed_by_strategy(), "ect": 2}
    assert a.patterns.counts == b.patterns.counts
