"""Tests for history builders and the Theorem B.1 property."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import OpType

from tests.histgen import (
    BuuProgram,
    count_consecutive_write_pairs,
    interleaved_history,
    lifecycle_bounds,
    program,
    random_rw_permutation,
    serial_history,
)


class TestBuilders:
    def test_program_shorthand(self):
        prog = program(3, ("r", "x"), ("w", "y"))
        assert prog.buu == 3
        assert prog.steps == [(OpType.READ, "x"), (OpType.WRITE, "y")]

    def test_program_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            program(1, ("q", "x"))

    def test_serial_history_order(self):
        programs = [program(1, ("r", "x")), program(2, ("w", "x"))]
        ops = serial_history(programs)
        assert [op.buu for op in ops] == [1, 2]
        assert [op.seq for op in ops] == [1, 2]

    def test_interleaved_preserves_program_order(self):
        prog = BuuProgram(1)
        for i in range(10):
            prog.read(i)
        ops = interleaved_history([prog, program(2, ("w", "a"), ("w", "b"))],
                                  random.Random(0))
        mine = [op.key for op in ops if op.buu == 1]
        assert mine == list(range(10))

    def test_interleaved_contains_all_ops(self):
        programs = [program(i, ("r", "x"), ("w", "x")) for i in range(5)]
        ops = interleaved_history(programs, random.Random(1))
        assert len(ops) == 10
        assert sorted({op.buu for op in ops}) == list(range(5))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_property_interleaving_seqs_strictly_increase(self, seed):
        programs = [program(i, ("r", "x"), ("w", "y"), ("w", "x"))
                    for i in range(6)]
        ops = interleaved_history(programs, random.Random(seed))
        seqs = [op.seq for op in ops]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)

    def test_lifecycle_bounds(self):
        programs = [program(1, ("r", "x"), ("w", "x")), program(2, ("w", "y"))]
        ops = serial_history(programs)
        bounds = lifecycle_bounds(ops)
        assert bounds[1] == (1, 2)
        assert bounds[2] == (3, 3)


class TestTheoremB1:
    """E[#adjacent write-write pairs] = (n-1)/2 for n reads, n writes."""

    def test_counting(self):
        ops = random_rw_permutation(0, 4, random.Random(0))
        assert count_consecutive_write_pairs(ops) == 3

    def test_no_writes(self):
        ops = random_rw_permutation(5, 0, random.Random(0))
        assert count_consecutive_write_pairs(ops) == 0

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_expectation(self, n):
        rng = random.Random(42)
        trials = 4000
        total = sum(
            count_consecutive_write_pairs(random_rw_permutation(n, n, rng))
            for _ in range(trials)
        )
        assert total / trials == pytest.approx((n - 1) / 2, rel=0.08)

    def test_reads_per_write_pair_near_two(self):
        """The §5.2 consequence: expected reads between consecutive writes
        approaches 2, so a single read slot captures most information."""
        n = 50
        rng = random.Random(7)
        trials = 2000
        ww_pairs = sum(
            count_consecutive_write_pairs(random_rw_permutation(n, n, rng))
            for _ in range(trials)
        ) / trials
        # n writes create n inter-write gaps on average containing
        # n reads; 2n/(n-1) ~= 2 reads per *non-empty* gap.
        reads_per_gap = 2 * n / (n - 1)
        assert reads_per_gap == pytest.approx(2.0, abs=0.1)
        assert ww_pairs == pytest.approx((n - 1) / 2, rel=0.1)
