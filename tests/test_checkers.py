"""Unit and golden-corpus tests for the exact checker (``repro.checkers``).

The golden traces under ``tests/golden/`` are hand-built minimal
histories, one per G-class plus serializable controls; each file's full
classification is asserted *exactly*, so any drift in edge derivation,
cycle enumeration or taxonomy mapping fails loudly with the class name in
the assertion.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from repro.checkers import (
    CYCLE_CLASSES,
    GClass,
    check_operations,
    check_trace,
    classify_cycle,
    derive_dependency_edges,
    exact_cycle_counts,
)
from repro.checkers.checker import _adjacency, _enumerate_vertex_cycles, _scan
from repro.cli import main
from repro.core.config import RushMonConfig
from repro.core.monitor import OfflineAnomalyMonitor, RushMon
from repro.core.types import EdgeType, Operation, OpType
from repro.sim.traces import Trace

from tests.histgen import feed_with_lifecycle, streamed_history
from tests.strategies import interleavings

GOLDEN = Path(__file__).parent / "golden"

#: Bound on ``exact_cycle_counts``' tracemalloc peak, in bytes per op, on
#: :func:`dense_history`.  Measured on CPython 3.11 (x86_64): 656 B/op
#: when the checker materialised an edge list, pair-keyed label dicts and
#: successor sets; 285 B/op with edges streamed into one nested
#: adjacency; 77 B/op with one-label pairs sharing one label dict per
#: ``(label, kind)``.  The bound sits between the last two.
ORACLE_BYTES_PER_OP = 130

#: The same bound for ``check_operations`` (observations, the report and
#: its witnesses ride on the adjacency) on ``dense_history(20_000)``:
#: 331 B/op before the label dicts were shared, 152 after.
CHECK_BYTES_PER_OP = 200


def dense_history(num_ops=60_000):
    """A fixed dense history: 32 BUUs open at once on 1 000 skewed keys,
    about one distinct dependency edge per operation."""
    return streamed_history(1, num_ops)


def traced_peak(fn, *args):
    """``fn(*args)`` and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak

R, W = OpType.READ, OpType.WRITE


def history(*steps):
    """Build a history from (op, buu, key) triples; seq is the position."""
    return [Operation(op, buu, key, seq)
            for seq, (op, buu, key) in enumerate(steps, start=1)]


class TestClassifyCycle:
    def test_all_ww_is_g0(self):
        assert classify_cycle([EdgeType.WW, EdgeType.WW]) is GClass.G0

    def test_ww_wr_mix_is_g1c(self):
        assert classify_cycle([EdgeType.WW, EdgeType.WR]) is GClass.G1C
        assert classify_cycle([EdgeType.WR, EdgeType.WR]) is GClass.G1C

    def test_two_adjacent_rw_is_gsi(self):
        assert classify_cycle([EdgeType.RW, EdgeType.RW]) is GClass.G_SI
        assert classify_cycle(
            [EdgeType.WR, EdgeType.RW, EdgeType.RW]) is GClass.G_SI

    def test_wraparound_adjacency_counts(self):
        """The last and first edges are cyclically adjacent."""
        assert classify_cycle(
            [EdgeType.RW, EdgeType.WW, EdgeType.RW]) is GClass.G_SI

    def test_isolated_rw_is_g2(self):
        assert classify_cycle([EdgeType.RW, EdgeType.WW]) is GClass.G2
        assert classify_cycle(
            [EdgeType.RW, EdgeType.WR, EdgeType.RW, EdgeType.WW]
        ) is GClass.G2
        assert classify_cycle(
            [EdgeType.RW, EdgeType.WR, EdgeType.RW, EdgeType.WR]
        ) is GClass.G2

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            classify_cycle([])

    @given(kinds=st.lists(st.sampled_from(list(EdgeType)),
                          min_size=2, max_size=6),
           shift=st.integers(0, 5))
    def test_rotation_invariant(self, kinds, shift):
        """A cycle has no distinguished starting edge: classification
        must not depend on where the walk begins."""
        rotated = kinds[shift % len(kinds):] + kinds[:shift % len(kinds)]
        assert classify_cycle(kinds) is classify_cycle(rotated)

    @given(kinds=st.lists(st.sampled_from(list(EdgeType)),
                          min_size=2, max_size=6))
    def test_total_and_exclusive(self, kinds):
        """Every kind sequence maps to exactly one cycle class."""
        assert classify_cycle(kinds) in CYCLE_CLASSES


class TestEdgeDerivation:
    def test_wr_ww_rw_basics(self):
        ops = history((W, 1, "x"), (R, 2, "x"), (W, 3, "x"), (W, 4, "x"))
        edges, stats, _ = derive_dependency_edges(ops)
        kinds = {(e.src, e.dst, e.kind) for e in edges}
        assert kinds == {(1, 2, EdgeType.WR),   # read observes write
                         (2, 3, EdgeType.RW),   # write overwrites read
                         (3, 4, EdgeType.WW)}   # direct overwrite
        assert (stats.wr, stats.ww, stats.rw) == (1, 1, 1)

    def test_self_edges_skipped(self):
        ops = history((W, 1, "x"), (R, 1, "x"), (W, 1, "x"))
        edges, stats, _ = derive_dependency_edges(ops)
        assert edges == []
        assert stats.total == 0

    def test_non_integer_buu_ids(self):
        """BUU ids are opaque to the checker: nothing may assume they
        fit an integer column."""
        ops = history((W, "t1", "k"), (R, "t2", "k"), (W, "t3", "k"))
        edges, stats, observations = derive_dependency_edges(ops)
        assert stats.wr == 1 and stats.rw == 1
        assert [(e.src, e.dst) for e in edges] == [("t1", "t2"), ("t2", "t3")]
        assert len(observations) == 1

    def test_matches_offline_monitor_on_random_histories(self):
        """The independent per-key derivation reproduces Algorithm 1's
        aggregate edge stats on seeded random histories."""
        from repro.core.monitor import OfflineAnomalyMonitor
        from tests.histgen import random_history

        for seed in range(10):
            hist = random_history(seed)
            offline = OfflineAnomalyMonitor()
            offline.on_operations(hist)
            _, stats, _ = derive_dependency_edges(hist)
            assert stats == offline.collector.stats


class TestGoldenCorpus:
    """Each golden trace's classification, asserted exactly."""

    def check(self, name):
        return check_trace(Trace.load(GOLDEN / name))

    def test_g0_dirty_write(self):
        report = self.check("g0_dirty_write.jsonl")
        assert report.counts == {GClass.G0: 1}
        assert report.cycles.two_cycles == 1 and report.cycles.dd == 1
        assert not report.serializable

    def test_g1a_aborted_read(self):
        report = self.check("g1a_aborted_read.jsonl")
        assert report.counts == {GClass.G1A: 1}
        assert report.aborted == (1,)   # inferred: ops but no commit
        assert report.serializable      # graph itself is acyclic...
        assert not report.anomaly_free  # ...but the read is dirty

    def test_g1b_intermediate_read(self):
        report = self.check("g1b_intermediate_read.jsonl")
        # The re-write also closes a wr/rw cycle on x (unrepeatable
        # read), so G2 rides along with the intermediate read.
        assert report.counts == {GClass.G1B: 1, GClass.G2: 1}
        assert not report.serializable

    def test_g1c_circular_information_flow(self):
        report = self.check("g1c_circular_flow.jsonl")
        assert report.counts == {GClass.G1C: 1}
        assert report.cycles.dd == 1

    def test_gsi_write_skew(self):
        report = self.check("gsi_write_skew.jsonl")
        assert report.counts == {GClass.G_SI: 1}
        witness = report.witnesses[GClass.G_SI][0]
        assert all(e.kind is EdgeType.RW for e in witness.edges)

    def test_g2_lost_update(self):
        report = self.check("g2_lost_update.jsonl")
        assert report.counts == {GClass.G2: 1}
        assert report.cycles.ss == 1  # both edges on the same item

    @pytest.mark.parametrize("name", ["serializable_serial.jsonl",
                                      "serializable_concurrent.jsonl"])
    def test_serializable_controls_are_clean(self, name):
        report = self.check(name)
        assert report.counts == {}
        assert report.serializable
        assert report.anomaly_free
        assert report.cycles.two_cycles == 0
        assert report.cycles.three_cycles == 0

    def test_every_gclass_covered(self):
        """The corpus collectively exercises the whole taxonomy."""
        detected = set()
        for path in sorted(GOLDEN.glob("*.jsonl")):
            detected.update(check_trace(Trace.load(path)).detected_classes())
        assert detected == set(GClass)

    @pytest.mark.parametrize("name,expect_rc", [
        ("g0_dirty_write.jsonl", 1),
        ("g1a_aborted_read.jsonl", 1),
        ("g1b_intermediate_read.jsonl", 1),
        ("g1c_circular_flow.jsonl", 1),
        ("gsi_write_skew.jsonl", 1),
        ("g2_lost_update.jsonl", 1),
        ("serializable_serial.jsonl", 0),
        ("serializable_concurrent.jsonl", 0),
    ])
    def test_cli_check_verdicts(self, name, expect_rc, capsys):
        """`repro check` classifies the corpus correctly end to end."""
        assert main(["check", str(GOLDEN / name)]) == expect_rc
        out = capsys.readouterr().out
        if expect_rc:
            expected_class = {
                "g0_dirty_write.jsonl": "G0",
                "g1a_aborted_read.jsonl": "G1a",
                "g1b_intermediate_read.jsonl": "G1b",
                "g1c_circular_flow.jsonl": "G1c",
                "gsi_write_skew.jsonl": "G-SI",
                "g2_lost_update.jsonl": "G2",
            }[name]
            assert f"{expected_class} (" in out
            assert "anomaly-free: NO" in out
        else:
            assert "anomaly-free: yes" in out


class TestCheckOperations:
    def test_explicit_aborted_overrides_commit_inference(self):
        ops = history((W, 1, "x"), (R, 2, "x"))
        report = check_operations(ops, commits=[1, 2], aborted=[1])
        assert report.counts == {GClass.G1A: 1}

    def test_no_lifecycle_means_all_committed(self):
        ops = history((W, 1, "x"), (R, 2, "x"))
        report = check_operations(ops)
        assert report.counts == {}
        assert report.anomaly_free

    def test_g1b_needs_a_later_write(self):
        # The read observes the writer's *final* version: not G1b.
        ops = history((W, 1, "x"), (W, 1, "x"), (R, 2, "x"))
        assert GClass.G1B not in check_operations(ops).counts

    def test_long_cycle_beyond_bound_flagged(self):
        # A pure 5-cycle of ww edges: each key written by two BUUs.
        chain = []
        buus = [1, 2, 3, 4, 5]
        keys = ["a", "b", "c", "d", "e"]
        for i, key in enumerate(keys):
            chain.append((W, buus[i], key))
            chain.append((W, buus[(i + 1) % 5], key))
        report = check_operations(history(*chain), max_cycle_length=4)
        assert not report.serializable
        assert report.cycles_beyond_bound
        assert report.counts == {}
        # Raising the bound names it.
        report5 = check_operations(history(*chain), max_cycle_length=5)
        assert report5.counts == {GClass.G0: 1}
        assert not report5.cycles_beyond_bound

    def test_witness_cap_respected(self):
        ops = []
        step = 0
        # Many independent 2-item write skews -> many G-SI witnesses.
        for pair in range(6):
            a, b = 10 * pair, 10 * pair + 1
            x, y = f"x{pair}", f"y{pair}"
            ops += [(R, a, x), (R, b, y), (W, a, y), (W, b, x)]
        report = check_operations(history(*ops), max_witnesses=2)
        assert report.counts[GClass.G_SI] == 6
        assert len(report.witnesses[GClass.G_SI]) == 2

    def test_witnesses_are_shortest_first_whatever_the_discovery_order(self):
        """The search finds the G1c triangle (from BUU 1) first and the
        G0 triangle (from BUU 4) before the G0 2-cycle (from BUU 5); the
        report still lists classes and witnesses shortest-first."""
        ops = [(W, 1, "a"), (R, 2, "a"), (W, 2, "b"), (R, 3, "b"),
               (W, 3, "c"), (R, 1, "c"),
               (W, 4, "d"), (W, 5, "d"), (W, 5, "e"), (W, 6, "e"),
               (W, 6, "f"), (W, 4, "f"), (W, 6, "g"), (W, 5, "g")]
        report = check_operations(history(*ops), max_witnesses=2)
        assert report.counts == {GClass.G0: 2, GClass.G1C: 1}
        assert list(report.counts) == list(report.witnesses) == \
            [GClass.G0, GClass.G1C]
        assert [[e.src for e in w.edges] for w in
                report.witnesses[GClass.G0]] == [[5, 6], [4, 5, 6]]
        (only,) = check_operations(history(*ops),
                                   max_witnesses=1).witnesses[GClass.G0]
        assert len(only.edges) == 2

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            check_operations([], max_cycle_length=1)
        with pytest.raises(ValueError):
            check_operations([], max_witnesses=-1)

    @given(hist=interleavings(max_buus=8, max_steps=6))
    def test_exact_counts_equal_full_report_counts(self, hist):
        """The cheap entry point counts what the full report counts, and
        the report's edge stats and distinct edges equal what the
        offline monitor's collector and graph, which share no code with
        the checker, derive at sr=1."""
        report = check_operations(hist)
        assert exact_cycle_counts(hist) == report.cycles
        offline = OfflineAnomalyMonitor()
        offline.on_operations(hist)
        assert report.edges == offline.collector.stats
        assert report.distinct_edges == offline.graph.num_edges()


def reference_fold(edges):
    """:func:`_adjacency`'s graph built with a fresh label dict per pair
    (first kind wins), as ``(vertex, [(successor, [(label, kind)])])``
    lists, so that order counts too; and its distinct labelled edges."""
    hop = {}
    distinct = 0
    for src, dst, kind, label in edges:
        labels = hop.setdefault(src, {}).setdefault(dst, {})
        hop.setdefault(dst, {})
        if label not in labels:
            labels[label] = kind
            distinct += 1
    return plain(hop), distinct


def plain(hop):
    return [(u, [(v, list(labels.items())) for v, labels in out.items()])
            for u, out in hop.items()]


def reference_vertex_cycles(hop, max_length):
    """The reference cycle search: a full-length path's last vertex
    walks all its successors, where the checker looks the root up."""
    for root in sorted(hop):
        stack = [(root, (root,))]
        while stack:
            current, path = stack.pop()
            for nxt in hop[current]:
                if nxt == root:
                    if len(path) >= 2:
                        yield path
                    continue
                if nxt < root or nxt in path:
                    continue
                if len(path) < max_length:
                    stack.append((nxt, path + (nxt,)))


#: Pairs (1, 2) and (3, 4) both hold wr on ``k0`` only, and (1, 2) then
#: gains rw on ``k1``: a label added in place to a shared dict would
#: reach (3, 4) too.
_SHARED_THEN_PROMOTED = history((W, 1, "k0"), (R, 2, "k0"), (W, 3, "k0"),
                                (R, 4, "k0"), (R, 1, "k1"), (W, 2, "k1"))


class TestAdjacency:
    @example(hist=_SHARED_THEN_PROMOTED)
    @given(hist=interleavings(max_buus=6, max_steps=6, max_keys=3))
    def test_shared_label_dicts_read_as_fresh_ones(self, hist):
        """One-label pairs share one dict per (label, kind): the graph
        reads as the fold with a fresh dict per pair, first kind wins
        and label order included, and a dict two pairs reach holds one
        label."""
        hop, distinct = _adjacency(_scan(hist))
        assert (plain(hop), distinct) == reference_fold(_scan(hist))
        reached: dict[int, list] = {}
        for out in hop.values():
            for labels in out.values():
                reached.setdefault(id(labels), []).append(labels)
        assert all(len(dicts[0]) == 1 for dicts in reached.values()
                   if len(dicts) > 1)

    @given(hist=interleavings(max_buus=8, max_steps=6),
           max_length=st.sampled_from((2, 3, 4, 5)))
    def test_cycle_search_finds_the_reference_paths(self, hist, max_length):
        """Looking the root up at the last hop yields the paths the
        successor walk yields, in the same order."""
        hop, _ = _adjacency(_scan(hist))
        assert list(_enumerate_vertex_cycles(hop, max_length)) == \
            list(reference_vertex_cycles(hop, max_length))


class TestOracleMemory:
    def test_exact_counts_peak_bytes_per_op(self):
        """The oracle's memory per op on a dense history stays under
        :data:`ORACLE_BYTES_PER_OP`: the size of history it can check
        in a given memory is a property of the checker, not of luck."""
        hist = dense_history()
        counts, peak = traced_peak(exact_cycle_counts, hist)
        assert counts.two_cycles > 0 and counts.three_cycles > 0
        assert peak / len(hist) < ORACLE_BYTES_PER_OP

    def test_check_operations_peak_bytes_per_op(self):
        """The full report's memory per op on the same history stays
        under :data:`CHECK_BYTES_PER_OP` (a third of its length: the
        cycle search is the slow part)."""
        hist = dense_history(20_000)
        report, peak = traced_peak(check_operations, hist)
        assert not report.serializable
        assert peak / len(hist) < CHECK_BYTES_PER_OP


@pytest.mark.oracle
def test_checker_at_a_million_ops():
    """10**6 dense operations: the sr=1 monitor's counts equal the
    checker's bit for bit, and the checker's memory per op holds the
    tier-1 bound at 16x the tier-1 history's length."""
    hist = dense_history(1_000_000)
    monitor = RushMon(RushMonConfig(sampling_rate=1, mob=False))
    feed_with_lifecycle([monitor], hist)
    exact, peak = traced_peak(exact_cycle_counts, hist)
    assert monitor.detector.counts == exact
    assert peak / len(hist) < ORACLE_BYTES_PER_OP
