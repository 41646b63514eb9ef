"""Tests for the core value types."""

import pytest

from repro.core.types import (
    AnomalyReport,
    CycleCounts,
    Edge,
    EdgeStats,
    EdgeType,
    Operation,
    OpType,
)


class TestOperation:
    def test_predicates(self):
        read = Operation(OpType.READ, 1, "x", 1)
        write = Operation(OpType.WRITE, 1, "x", 2)
        assert read.is_read() and not read.is_write()
        assert write.is_write() and not write.is_read()

    def test_frozen(self):
        op = Operation(OpType.READ, 1, "x", 1)
        with pytest.raises(AttributeError):
            op.buu = 2

    def test_equality_and_hash(self):
        a = Operation(OpType.READ, 1, "x", 1)
        b = Operation(OpType.READ, 1, "x", 1)
        assert a == b
        assert hash(a) == hash(b)


class TestEdge:
    def test_frozen_and_hashable(self):
        edge = Edge(1, 2, EdgeType.WW, "x")
        assert edge in {edge}


class TestCycleCounts:
    def test_totals(self):
        counts = CycleCounts(ss=1, dd=2, sss=3, ssd=4, ddd=5)
        assert counts.two_cycles == 3
        assert counts.three_cycles == 12

    def test_add(self):
        a = CycleCounts(ss=1, ddd=1)
        b = CycleCounts(ss=2, dd=1)
        a.add(b)
        assert (a.ss, a.dd, a.ddd) == (3, 1, 1)

    def test_copy_independent(self):
        a = CycleCounts(ss=1)
        b = a.copy()
        a.ss = 99
        assert b.ss == 1


class TestEdgeStats:
    def test_record_and_total(self):
        stats = EdgeStats()
        stats.record(EdgeType.WR)
        stats.record(EdgeType.WW)
        stats.record(EdgeType.RW)
        stats.record(EdgeType.RW)
        assert stats.total == 4
        assert stats.as_dict() == {"wr": 1, "ww": 1, "rw": 2}


class TestAnomalyReport:
    def test_anomalies_sum(self):
        report = AnomalyReport(window_start=0, window_end=10,
                               estimated_2=3.0, estimated_3=4.0)
        assert report.anomalies == 7.0

    def test_defaults(self):
        report = AnomalyReport(window_start=0, window_end=1,
                               estimated_2=0.0, estimated_3=0.0)
        assert report.operations == 0
        assert report.patterns == {}
        assert report.raw.two_cycles == 0
