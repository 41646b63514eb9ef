"""Safety and effectiveness tests for vertex pruning (§5.3).

The key invariant: pruning may shrink the live graph but must never
change the stream of newly detected cycles.  We verify it on random
simulated schedules by running pruned and unpruned detectors on the same
edge stream and comparing total counts.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import exact_cycle_counts
from repro.core.collector import BaselineCollector
from repro.core.detector import CycleDetector, LiveGraph
from repro.core.pruning import (
    DistancePruning,
    EctPruning,
    NoPruning,
    Pruner,
    make_pruner,
)
from repro.core.types import Edge, EdgeType, Operation, OpType

from tests.histgen import BuuProgram, interleaved_history, lifecycle_bounds
from tests.strategies import interleavings


def _simulated_run(detector, ops, bounds):
    """Feed a history into a detector with begin/commit lifecycle events."""
    collector = BaselineCollector()
    started = set()
    committed = set()
    ops_by_seq = sorted(ops, key=lambda o: o.seq)
    for op in ops_by_seq:
        if op.buu not in started:
            started.add(op.buu)
            detector.begin_buu(op.buu, bounds[op.buu][0])
        for edge in collector.handle(op):
            detector.add_edge(edge)
        if op.seq == bounds[op.buu][1]:
            committed.add(op.buu)
            detector.commit_buu(op.buu, op.seq)
    return detector


def _random_workload(seed, num_buus=40, keys=6, steps=4):
    rng = random.Random(seed)
    programs = []
    for buu in range(num_buus):
        prog = BuuProgram(buu)
        for _ in range(steps):
            key = rng.randrange(keys)
            if rng.random() < 0.5:
                prog.read(key)
            else:
                prog.write(key)
        programs.append(prog)
    return interleaved_history(programs, rng)


def _windowed_workload(seed, num_buus, keys, steps, window):
    """Interleave programs ``window`` at a time — bounded concurrency,
    like a real C-worker system."""
    rng = random.Random(seed)
    ops = []
    offset = 0
    for base in range(0, num_buus, window):
        programs = []
        for buu in range(base, min(base + window, num_buus)):
            prog = BuuProgram(buu)
            for _ in range(steps):
                key = rng.randrange(keys)
                if rng.random() < 0.5:
                    prog.read(key)
                else:
                    prog.write(key)
            programs.append(prog)
        batch = interleaved_history(programs, rng)
        for op in batch:
            ops.append(
                Operation(op.op, op.buu, op.key, op.seq + offset)
            )
        offset = ops[-1].seq
    return ops


PRUNER_NAMES = ["ect", "distance", "both"]


class EctThenDistance(Pruner):
    """The paper's "Both" as it once ran here: ECT, then distance on what
    ECT left.  ``make_pruner("both")`` runs the distance pass alone; this
    is the reference it must match."""

    def __init__(self) -> None:
        super().__init__()
        self.ect = EctPruning()
        self.distance = DistancePruning()

    def prune(self, graph, now):
        removed = self.ect.prune(graph, now) + self.distance.prune(graph, now)
        self.removed_total += removed
        return removed


def _check_pass(graph, now):
    """On copies of ``graph``: every vertex ECT removes, distance removes
    too, and ECT-then-distance leaves the same present set and rows as
    ``make_pruner("both")``, removing as many vertices."""
    before = set(graph.present)
    ect, distance, both, composed = (copy.deepcopy(graph) for _ in range(4))
    EctPruning().prune(ect, now)
    DistancePruning().prune(distance, now)
    assert before - ect.present <= before - distance.present
    assert (make_pruner("both").prune(both, now)
            == EctThenDistance().prune(composed, now))
    assert both.present == composed.present
    assert (both.out, both.inc) == (composed.out, composed.inc)
    assert both.edge_count == composed.edge_count


class CheckedBoth(Pruner):
    """``make_pruner("both")`` with :func:`_check_pass` ahead of every
    pass."""

    def __init__(self) -> None:
        super().__init__()
        self.inner = make_pruner("both")

    def prune(self, graph, now):
        _check_pass(graph, now)
        removed = self.inner.prune(graph, now)
        self.removed_total += removed
        return removed


def _assert_both_is_ect_then_distance(run):
    """``run(pruner)`` returns a detector fed through ``pruner``: the
    checked "both" and the reference composition count the same cycles
    over the same passes and remove as many vertices.  Returns both
    detectors, "both" first."""
    both = run(CheckedBoth())
    composed = run(EctThenDistance())
    assert both.counts == composed.counts
    assert both.prune_passes == composed.prune_passes
    assert both.pruner.removed_total == composed.pruner.removed_total
    assert both.graph.present == composed.graph.present
    return both, composed


@st.composite
def reused_id_scripts(draw, max_keys=3):
    """A history whose BUU ids are worker slots: each id runs several
    BUUs back to back, the next beginning the moment the previous one
    commits.  Returns ``(ops, cuts)``; ``cuts`` holds the ``seq`` of
    every operation that ends a BUU and is followed by another of the
    same id."""
    ops = draw(interleavings(max_buus=5, max_steps=8, max_keys=max_keys))
    cuts = set()
    for buu in {op.buu for op in ops}:
        seqs = [op.seq for op in ops if op.buu == buu]
        cuts.update(draw(st.sets(st.sampled_from(seqs[:-1]), max_size=3))
                    if len(seqs) > 1 else ())
    return ops, cuts


def _run_reused_ids(det, ops, cuts):
    """Feed a :func:`reused_id_scripts` history into ``det``: an id
    commits and begins again at each of its cuts."""
    collector = BaselineCollector()
    last = {op.buu: op.seq for op in ops}
    begun = set()
    for op in ops:
        if op.buu not in begun:
            begun.add(op.buu)
            det.begin_buu(op.buu, op.seq)
        for edge in collector.handle(op):
            det.add_edge(edge)
        if op.seq in cuts:
            det.commit_buu(op.buu, op.seq)
            det.begin_buu(op.buu, op.seq)
        elif op.seq == last[op.buu]:
            det.commit_buu(op.buu, op.seq)
    return det


class TestPruningSafety:
    @pytest.mark.parametrize("name", PRUNER_NAMES)
    @pytest.mark.parametrize("seed", range(5))
    def test_counts_unchanged(self, name, seed):
        ops = _random_workload(seed)
        bounds = lifecycle_bounds(ops)
        unpruned = _simulated_run(CycleDetector(pruner=NoPruning()), ops, bounds)
        pruned = _simulated_run(
            CycleDetector(pruner=make_pruner(name), prune_interval=10), ops, bounds
        )
        assert pruned.counts.two_cycles == unpruned.counts.two_cycles
        assert pruned.counts.three_cycles == unpruned.counts.three_cycles

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_combined_pruning_safe(self, seed):
        ops = _random_workload(seed, num_buus=30, keys=5, steps=3)
        bounds = lifecycle_bounds(ops)
        unpruned = _simulated_run(CycleDetector(pruner=NoPruning()), ops, bounds)
        pruned = _simulated_run(
            CycleDetector(pruner=make_pruner("both"), prune_interval=5), ops,
            bounds
        )
        assert (pruned.counts.ss, pruned.counts.dd) == (
            unpruned.counts.ss,
            unpruned.counts.dd,
        )
        assert (pruned.counts.sss, pruned.counts.ssd, pruned.counts.ddd) == (
            unpruned.counts.sss,
            unpruned.counts.ssd,
            unpruned.counts.ddd,
        )

    @given(script=reused_id_scripts(),
           prune_interval=st.sampled_from((1, 3)))
    def test_reused_buu_ids_still_match_the_checker(self, script,
                                                    prune_interval):
        """A BUU id that begins again right after its commit is the same
        vertex, alive again: under every strategy the counts stay the
        exact checker's over the history (ids as vertices)."""
        ops, cuts = script
        exact = exact_cycle_counts(ops)
        for name in ["none"] + PRUNER_NAMES:
            det = _run_reused_ids(
                CycleDetector(make_pruner(name), prune_interval), ops, cuts)
            assert det.counts == exact, name

    # Four ids and short scripts: the space in which 500 cheap examples
    # reliably hit "commit, someone else begins, the first begins again".
    @given(st.lists(st.tuples(st.sampled_from("bce"), st.integers(0, 3),
                              st.integers(0, 3)), max_size=16))
    @settings(max_examples=500, deadline=None)
    def test_no_pruner_removes_what_an_alive_vertex_reaches(self, script):
        """Begins, commits and edges in any order — ids re-used, with
        gaps: whatever lies within two hops of an alive vertex (a future
        3-cycle's closing edge lands on one) survives every pruner."""
        for name in PRUNER_NAMES:
            graph = LiveGraph()
            for t, (kind, u, v) in enumerate(script):
                if kind == "b":
                    graph.begin(u, t)
                elif kind == "c":
                    graph.commit(u, t)
                else:
                    graph.add_edge(u, v, "k")
            near = set(graph.alive & graph.present)
            for _ in range(2):
                near |= {w for v in near for w in graph.out[v]}
            make_pruner(name).prune(graph, now=len(script))
            assert near <= graph.present, name

    @pytest.mark.parametrize("name", ["none"] + PRUNER_NAMES)
    def test_a_buu_that_begins_again_is_alive_to_every_pruner(self, name):
        """The stale commit time of a BUU that began again kept ECT from
        seeding it, so everything reachable only from it was removed and
        the closing edge counted nothing."""
        det = CycleDetector(make_pruner(name), prune_interval=10**9)
        det.begin_buu(1, 0)
        det.begin_buu(2, 1)
        det.add_edge(Edge(1, 2, EdgeType.WR, "x", 2))
        det.commit_buu(1, 3)
        det.commit_buu(2, 4)
        det.begin_buu(3, 5)
        det.add_edge(Edge(2, 3, EdgeType.WR, "y", 6))
        det.commit_buu(3, 7)
        det.begin_buu(1, 10)
        det.begin_buu(9, 10)
        det.prune(now=11)
        assert det.graph.present == {1, 2, 3}
        assert 1 not in det.graph.commits
        assert det.add_edge(Edge(3, 1, EdgeType.WR, "z", 12)).three_cycles == 1

    @pytest.mark.parametrize("name", PRUNER_NAMES)
    def test_pruning_shrinks_graph(self, name):
        """With a long run at bounded concurrency, pruning keeps the live
        graph much smaller (400-way concurrency would pin t_active)."""
        ops = _windowed_workload(seed=1, num_buus=400, keys=8, steps=4, window=8)
        bounds = lifecycle_bounds(ops)
        unpruned = _simulated_run(CycleDetector(pruner=NoPruning()), ops, bounds)
        pruned = _simulated_run(
            CycleDetector(pruner=make_pruner(name), prune_interval=20), ops, bounds
        )
        assert pruned.num_vertices < unpruned.num_vertices
        assert pruned.num_edges < unpruned.num_edges


class TestBothIsTheDistancePass:
    """``"both"`` runs only its distance pass: ECT can never remove a
    vertex distance keeps, and what it removes lies on no path from an
    alive vertex, so ECT first changes nothing distance then does."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_workloads(self, seed):
        ops = _random_workload(seed)
        bounds = lifecycle_bounds(ops)
        both, _ = _assert_both_is_ect_then_distance(
            lambda pruner: _simulated_run(
                CycleDetector(pruner, prune_interval=10), ops, bounds))
        assert both.prune_passes > 0

    def test_bounded_concurrency_prunes_and_agrees(self):
        ops = _windowed_workload(seed=1, num_buus=200, keys=8, steps=4,
                                 window=8)
        bounds = lifecycle_bounds(ops)
        _, composed = _assert_both_is_ect_then_distance(
            lambda pruner: _simulated_run(
                CycleDetector(pruner, prune_interval=20), ops, bounds))
        # ECT's share is not empty here, so the subset is exercised.
        assert composed.pruner.ect.removed_total > 0

    @given(script=reused_id_scripts(),
           prune_interval=st.sampled_from((1, 3)))
    def test_reused_buu_ids(self, script, prune_interval):
        ops, cuts = script
        _assert_both_is_ect_then_distance(
            lambda pruner: _run_reused_ids(
                CycleDetector(pruner, prune_interval), ops, cuts))

    @given(st.lists(st.tuples(st.sampled_from("bce"), st.integers(0, 3),
                              st.integers(0, 3)), max_size=16))
    @settings(max_examples=500, deadline=None)
    def test_lifecycle_edge_scripts(self, script):
        """Begins, commits and edges in any order, a pass after each."""
        graphs = {"both": LiveGraph(), "composed": LiveGraph()}
        pruners = {"both": CheckedBoth(), "composed": EctThenDistance()}
        for t, (kind, u, v) in enumerate(script):
            for name, graph in graphs.items():
                if kind == "b":
                    graph.begin(u, t)
                elif kind == "c":
                    graph.commit(u, t)
                else:
                    graph.add_edge(u, v, "k")
                pruners[name].prune(graph, now=t)
            assert graphs["both"].out == graphs["composed"].out
        assert (pruners["both"].removed_total
                == pruners["composed"].removed_total)


class TestEctPruning:
    def test_old_committed_vertex_removed(self):
        graph = LiveGraph()
        # Vertex 1 committed long ago, only outgoing edges; 9 is alive.
        graph.begin(1, 0)
        graph.commit(1, 5)
        graph.begin(2, 6)
        graph.commit(2, 8)
        graph.begin(9, 10)
        graph.add_edge(1, 2, "x")
        graph.add_edge(2, 9, "x")
        removed = EctPruning().prune(graph, now=11)
        # t_active = 10; ect(1)=5 < 10 pruned; ect(2)=max(8, 5)=8 < 10 pruned.
        assert removed == 2
        assert graph.present == {9}

    def test_alive_ancestor_blocks_pruning(self):
        graph = LiveGraph()
        graph.begin(5, 0)  # alive forever
        graph.begin(1, 1)
        graph.commit(1, 2)
        graph.add_edge(5, 1, "x")  # alive -> committed: ect(1) = inf
        removed = EctPruning().prune(graph, now=10)
        assert removed == 0

    def test_scc_shares_ect(self):
        """A cycle between old vertices has one ect for the whole SCC."""
        graph = LiveGraph()
        graph.begin(1, 0)
        graph.commit(1, 3)
        graph.begin(2, 1)
        graph.commit(2, 4)
        graph.add_edge(1, 2, "x")
        graph.add_edge(2, 1, "y")
        graph.begin(9, 100)
        removed = EctPruning().prune(graph, now=101)
        assert removed == 2

    def test_no_alive_no_pruning(self):
        graph = LiveGraph()
        graph.begin(1, 0)
        graph.commit(1, 1)
        graph.add_edge(1, 2, "x")
        assert EctPruning().prune(graph, now=50) == 0

    def test_unknown_lifecycle_kept(self):
        graph = LiveGraph()
        graph.add_edge(1, 2, "x")  # no begin/commit ever reported
        graph.begin(9, 10)
        assert EctPruning().prune(graph, now=11) == 0
        assert graph.present == {1, 2}


class TestDistancePruning:
    def test_far_vertices_removed(self):
        graph = LiveGraph()
        # chain: alive -> a -> b -> c; with hops=2 only a, b are kept.
        for v, (st_t, ct) in {9: (10, None), 1: (0, 1), 2: (0, 2), 3: (0, 3)}.items():
            graph.begin(v, st_t)
            if ct is not None:
                graph.commit(v, ct)
        graph.add_edge(9, 1, "x")
        graph.add_edge(1, 2, "x")
        graph.add_edge(2, 3, "x")
        removed = DistancePruning(max_cycle_length=3).prune(graph, now=11)
        assert removed == 1
        assert graph.present == {9, 1, 2}

    def test_unreachable_committed_removed(self):
        graph = LiveGraph()
        graph.begin(1, 0)
        graph.commit(1, 1)
        graph.begin(2, 0)
        graph.commit(2, 1)
        graph.add_edge(1, 2, "x")
        graph.begin(9, 5)  # alive, no edges to 1 or 2
        graph.add_edge(9, 9, "x")  # rejected self-edge; 9 not in present
        removed = DistancePruning().prune(graph, now=6)
        assert removed == 2

    def test_hops_respects_max_cycle_length(self):
        graph = LiveGraph()
        graph.begin(9, 10)
        for v in (1, 2, 3):
            graph.begin(v, 0)
            graph.commit(v, v)
        graph.add_edge(9, 1, "x")
        graph.add_edge(1, 2, "x")
        graph.add_edge(2, 3, "x")
        # With 2-cycles only (k=2, hops=1) both 2 and 3 are out of range.
        removed = DistancePruning(max_cycle_length=2).prune(graph, now=11)
        assert removed == 2
        assert graph.present == {9, 1}

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            DistancePruning(max_cycle_length=1)


class TestMakePruner:
    def test_factory(self):
        assert isinstance(make_pruner("none"), NoPruning)
        assert isinstance(make_pruner("ect"), EctPruning)
        assert isinstance(make_pruner("distance"), DistancePruning)
        assert isinstance(make_pruner("both"), DistancePruning)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_pruner("everything")
