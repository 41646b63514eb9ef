"""Tests for the three collectors (Algorithm 1, ES, Algorithm 2/DCS)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import collector as collector_module
from repro.core.collector import (
    BaselineCollector,
    CollectorShard,
    DataCentricCollector,
    EdgeSamplingCollector,
    ItemSampler,
)
from repro.core.types import Edge, EdgeType, Operation, OpType


def ops_from(spec):
    """Build operations from ("r"|"w", buu, key) triples."""
    out = []
    for seq, (kind, buu, key) in enumerate(spec, start=1):
        op_type = OpType.READ if kind == "r" else OpType.WRITE
        out.append(Operation(op_type, buu, key, seq))
    return out


#: The Figure 5(a) history: three BUUs over items x, y, z.
FIG5_HISTORY = ops_from(
    [
        ("w", 1, "x"),
        ("r", 2, "x"),
        ("w", 2, "y"),
        ("w", 3, "y"),
        ("w", 3, "x"),
        ("r", 1, "x"),
        ("r", 2, "y"),
        ("w", 2, "z"),
        ("w", 2, "y"),
        ("w", 1, "z"),
    ]
)


def edge_triples(edges):
    return sorted((e.src, e.dst, e.kind.value, e.label) for e in edges)


class TestBaselineCollector:
    def test_fig5_history(self):
        """Algorithm 1 applied to the paper's Figure 5(a) example.

        Derived by hand from the pseudocode; note the paper's simplified
        figure omits the rw(x) edge from T2 to T3 that Algorithm 1
        produces (r2(x) is overwritten by w3(x)).
        """
        collector = BaselineCollector()
        edges = collector.handle_all(FIG5_HISTORY)
        assert edge_triples(edges) == sorted(
            [
                (1, 2, "wr", "x"),  # r2(x) reads w1(x)
                (2, 3, "ww", "y"),  # w3(y) overwrites w2(y), no readers
                (2, 3, "rw", "x"),  # w3(x) overwrites r2(x)'s read
                (3, 1, "wr", "x"),  # r1(x) reads w3(x)
                (3, 2, "wr", "y"),  # r2(y) reads w3(y)
                (2, 1, "ww", "z"),  # w1(z) overwrites w2(z), no readers
            ]
        )

    def test_wr_edge_requires_previous_write(self):
        collector = BaselineCollector()
        assert collector.handle_all(ops_from([("r", 1, "x")])) == []

    def test_self_edges_suppressed(self):
        collector = BaselineCollector()
        edges = collector.handle_all(
            ops_from([("w", 1, "x"), ("r", 1, "x"), ("w", 1, "x")])
        )
        assert edges == []

    def test_lost_update_pattern(self):
        """r1 r2 w1 w2 on one item: the classic lost-update 2-cycle."""
        collector = BaselineCollector()
        edges = collector.handle_all(
            ops_from(
                [("w", 0, "x"), ("r", 1, "x"), ("r", 2, "x"),
                 ("w", 1, "x"), ("w", 2, "x")]
            )
        )
        triples = edge_triples(edges)
        # w1's rw edges fire for readers {1, 2}; the self-edge 1->1 is
        # suppressed, so only 2->1 rw.  w1 clears readIDs, so w2 then sees
        # an empty reader set and emits ww 1->2 — completing the 2-cycle.
        assert (2, 1, "rw", "x") in triples
        assert (1, 2, "ww", "x") in triples

    def test_lost_update_forms_two_cycle(self):
        collector = BaselineCollector()
        edges = collector.handle_all(
            ops_from(
                [("w", 0, "x"), ("r", 1, "x"), ("r", 2, "x"),
                 ("w", 1, "x"), ("w", 2, "x")]
            )
        )
        triples = {(e.src, e.dst) for e in edges}
        assert (2, 1) in triples and (1, 2) in triples

    def test_ww_chain(self):
        collector = BaselineCollector()
        edges = collector.handle_all(
            ops_from([("w", 1, "x"), ("w", 2, "x"), ("w", 3, "x")])
        )
        assert edge_triples(edges) == [
            (1, 2, "ww", "x"),
            (2, 3, "ww", "x"),
        ]

    def test_multiple_readers_fan_in(self):
        collector = BaselineCollector()
        edges = collector.handle_all(
            ops_from(
                [("w", 1, "x"), ("r", 2, "x"), ("r", 3, "x"), ("r", 4, "x"),
                 ("w", 5, "x")]
            )
        )
        rw = sorted((e.src, e.dst) for e in edges if e.kind is EdgeType.RW)
        assert rw == [(2, 5), (3, 5), (4, 5)]

    def test_edge_stats(self):
        collector = BaselineCollector()
        collector.handle_all(FIG5_HISTORY)
        assert collector.stats.as_dict() == {"wr": 3, "ww": 2, "rw": 1}

    def test_touches_counts_all_ops(self):
        collector = BaselineCollector()
        collector.handle_all(FIG5_HISTORY)
        assert collector.touches == len(FIG5_HISTORY)


class TestEdgeSamplingCollector:
    def test_rate_one_equals_baseline(self):
        baseline = BaselineCollector()
        es = EdgeSamplingCollector(sampling_rate=1)
        assert edge_triples(es.handle_all(FIG5_HISTORY)) == edge_triples(
            baseline.handle_all(FIG5_HISTORY)
        )

    def test_bookkeeping_cost_unchanged(self):
        """The §4.2 point: ES pays full bookkeeping regardless of rate."""
        es = EdgeSamplingCollector(sampling_rate=100)
        es.handle_all(FIG5_HISTORY)
        assert es.touches == len(FIG5_HISTORY)

    def test_samples_subset_of_baseline(self):
        history = _random_history(seed=3, n=500, buus=20, keys=10)
        baseline = set(edge_triples(BaselineCollector().handle_all(history)))
        es = EdgeSamplingCollector(sampling_rate=5, rng=random.Random(1))
        sampled = edge_triples(es.handle_all(history))
        assert set(sampled) <= baseline
        assert 0 < len(sampled) < len(baseline)

    def test_sampling_rate_controls_fraction(self):
        history = _random_history(seed=5, n=4000, buus=100, keys=20)
        full = len(BaselineCollector().handle_all(history))
        es = EdgeSamplingCollector(sampling_rate=4, rng=random.Random(2))
        kept = len(es.handle_all(history))
        assert kept == pytest.approx(full / 4, rel=0.3)

    def test_stats_reflect_post_sampling(self):
        history = _random_history(seed=5, n=2000, buus=50, keys=10)
        es = EdgeSamplingCollector(sampling_rate=10, rng=random.Random(0))
        kept = es.handle_all(history)
        assert es.stats.total == len(kept)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            EdgeSamplingCollector(sampling_rate=0)


class TestItemSampler:
    def test_rate_one_chooses_all(self):
        sampler = ItemSampler(1)
        assert all(sampler.chosen(k) for k in range(100))

    def test_materialized_sample_size(self):
        sampler = ItemSampler(10)
        sampler.materialize(range(5000))
        chosen = sum(sampler.chosen(k) for k in range(5000))
        assert chosen == pytest.approx(500, rel=0.15)

    def test_materialized_inclusion_independent(self):
        """Pairwise joint inclusion ~ p^2 (no fixed-size correlation)."""
        trials, hits = 2000, 0
        for seed in range(trials):
            sampler = ItemSampler(2, seed=seed)
            sampler.materialize(range(10))
            if sampler.chosen(0) and sampler.chosen(1):
                hits += 1
        assert hits / trials == pytest.approx(0.25, abs=0.03)

    def test_hash_inclusion_independent(self):
        trials, hits = 2000, 0
        for seed in range(trials):
            sampler = ItemSampler(2, seed=seed)
            if sampler.chosen(0) and sampler.chosen(1):
                hits += 1
        assert hits / trials == pytest.approx(0.25, abs=0.03)

    def test_hash_sampling_fraction(self):
        sampler = ItemSampler(5, seed=42)
        chosen = sum(sampler.chosen(k) for k in range(5000))
        assert chosen == pytest.approx(1000, rel=0.15)

    def test_deterministic(self):
        a = ItemSampler(7, seed=1)
        b = ItemSampler(7, seed=1)
        assert [a.chosen(k) for k in range(200)] == [b.chosen(k) for k in range(200)]

    def test_reseed_changes_sample(self):
        sampler = ItemSampler(5, seed=1)
        before = {k for k in range(500) if sampler.chosen(k)}
        sampler.reseed(999)
        after = {k for k in range(500) if sampler.chosen(k)}
        assert before != after

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ItemSampler(0)

    def test_lookup_is_chosen_and_follows_every_sample_switch(self):
        """``lookup`` is one callable for the sampler's life; each way
        the sample can change empties its memo instead of replacing it,
        so a caller that kept the reference never reads a stale answer."""
        keys = list(range(300)) + [f"k{i}" for i in range(100)]
        sampler = ItemSampler(4, seed=1)
        lookup = sampler.lookup
        pure = ItemSampler(4, seed=1)

        def agree():
            assert sampler.lookup is lookup
            assert [lookup(k) for k in keys] == \
                [sampler.chosen(k) for k in keys]
            return [lookup(k) for k in keys]

        assert agree() == [pure.chosen(k) for k in keys]
        first = agree()  # memo hits answer what the misses did
        sampler.reseed(999)
        assert agree() != first
        sampler.materialize(keys[:200])
        inside = agree()
        assert not any(inside[200:])
        sampler.reseed(5)
        assert agree() != inside
        other = ItemSampler(9, seed=77)
        sampler.load_state(other.to_state())
        assert agree() == [other.chosen(k) for k in keys]
        sampler.load_state(ItemSampler(1).to_state())
        assert all(agree())


#: Keys of three types, the decisions below are bit ``i`` for ``_KEYS[i]``.
_KEYS = [*range(40), *(f"k{i}" for i in range(40)),
         *(("t", i) for i in range(40))]

#: ``(salt, sampling_rate) -> bitmask`` of the chosen keys among
#: ``_KEYS``, recorded before the salt was premixed once per memo.
_GOLDEN_DECISIONS = {
    (0, 2): 0x10a38370f2a9c4abac0dcbb2a7d0d6,
    (0, 20): 0x1000008000000040000,
    (7, 2): 0x2148e4187aa9d95d3c5dc7656ee72c,
    (7, 20): 0x200000000001101004000040000100,
    (-3, 2): 0x39dc117c58c6462f09e590b54cd480,
    (-3, 20): 0x4000900000000000000,
}


def _decisions(sampler):
    return sum(1 << i for i, key in enumerate(_KEYS) if sampler.chosen(key))


class TestDecisionMemo:
    @pytest.mark.parametrize("salt, sampling_rate", sorted(_GOLDEN_DECISIONS))
    def test_decisions_match_the_golden_vector(self, salt, sampling_rate):
        sampler = ItemSampler(sampling_rate, seed=salt)
        assert _decisions(sampler) == _GOLDEN_DECISIONS[salt, sampling_rate]
        # hits answer what the misses did
        assert _decisions(sampler) == _GOLDEN_DECISIONS[salt, sampling_rate]

    def test_reseed_and_restore_rearm_the_salt(self):
        sampler = ItemSampler(2, seed=0)
        sampler.reseed(7)
        assert _decisions(sampler) == _GOLDEN_DECISIONS[7, 2]
        sampler.load_state(ItemSampler(20, seed=-3).to_state())
        assert _decisions(sampler) == _GOLDEN_DECISIONS[-3, 20]

    def test_a_capped_memo_decides_identically_and_stops_growing(
            self, monkeypatch):
        unbounded = ItemSampler(2, seed=7)
        expected = [unbounded.lookup(key) for key in _KEYS]
        monkeypatch.setattr(collector_module, "KEY_CACHE_MAX", 16)
        capped = ItemSampler(2, seed=7)
        for _ in range(2):
            assert [capped.lookup(key) for key in _KEYS] == expected
            assert [capped.chosen(key) for key in _KEYS] == expected
            assert len(capped._memo) == 16
        capped.reseed(7)
        assert [capped.lookup(key) for key in reversed(_KEYS)] == \
            expected[::-1]
        assert len(capped._memo) == 16


class TestDataCentricCollector:
    def test_rate_one_no_mob_equals_baseline(self):
        history = _random_history(seed=11, n=1000, buus=30, keys=8)
        baseline = BaselineCollector()
        dcs = DataCentricCollector(sampling_rate=1, mob=False)
        assert edge_triples(dcs.handle_all(history)) == edge_triples(
            baseline.handle_all(history)
        )

    def test_fig5_sampled_items(self):
        """Example 5.1: with x and z chosen, only x/z edges are issued."""
        dcs = DataCentricCollector(sampling_rate=2, mob=False, items=["x", "z"])
        dcs.sampler._chosen = {"x", "z"}  # pin the paper's exact choice
        dcs.sampler._forget()
        edges = dcs.handle_all(FIG5_HISTORY)
        assert edge_triples(edges) == sorted(
            [
                (1, 2, "wr", "x"),
                (2, 3, "rw", "x"),
                (3, 1, "wr", "x"),
                (2, 1, "ww", "z"),
            ]
        )

    def test_unchosen_items_pay_no_bookkeeping(self):
        dcs = DataCentricCollector(sampling_rate=2, mob=False, items=["x", "z"])
        dcs.sampler._chosen = {"x"}
        dcs.sampler._forget()
        dcs.handle_all(FIG5_HISTORY)
        # Only the 4 x-operations touch bookkeeping.
        assert dcs.touches == 4

    def test_mob_equals_full_when_single_reader(self):
        """rwrw interleavings (the ML pattern) lose nothing under MOB."""
        spec = []
        for i in range(1, 40):
            spec.append(("r", i, "x"))
            spec.append(("w", i, "x"))
        history = ops_from(spec)
        full = DataCentricCollector(sampling_rate=1, mob=False)
        mob = DataCentricCollector(sampling_rate=1, mob=True)
        assert edge_triples(mob.handle_all(history)) == edge_triples(
            full.handle_all(history)
        )
        assert mob.discard_ratio == 0.0

    def test_mob_keeps_one_rw_edge_per_write(self):
        history = ops_from(
            [("w", 0, "x"), ("r", 1, "x"), ("r", 2, "x"), ("r", 3, "x"),
             ("w", 4, "x")]
        )
        mob = DataCentricCollector(sampling_rate=1, mob=True, seed=3,
                                   mob_slots=1)
        edges = mob.handle_all(history)
        rw = [e for e in edges if e.kind is EdgeType.RW]
        assert len(rw) == 1
        assert rw[0].src in {1, 2, 3} and rw[0].dst == 4
        assert mob.discarded_reads == 2

    def test_mob_reservoir_uniform(self):
        """The surviving reader is uniform among the readers (Vitter)."""
        winners = {1: 0, 2: 0, 3: 0}
        trials = 3000
        for seed in range(trials):
            history = ops_from(
                [("w", 0, "x"), ("r", 1, "x"), ("r", 2, "x"), ("r", 3, "x"),
                 ("w", 4, "x")]
            )
            mob = DataCentricCollector(sampling_rate=1, mob=True, seed=seed,
                                       mob_slots=1)
            edges = mob.handle_all(history)
            rw = [e for e in edges if e.kind is EdgeType.RW]
            winners[rw[0].src] += 1
        for count in winners.values():
            assert count == pytest.approx(trials / 3, rel=0.15)

    def test_ww_calibration_discards(self):
        """Once reads are being discarded, ww edges thin at the same ratio."""
        spec = [("w", 0, "x")]
        # Phase 1: many multi-reader groups to drive the discard ratio up.
        buu = 1
        for _ in range(200):
            for _ in range(4):
                spec.append(("r", buu, "x"))
                buu += 1
            spec.append(("w", buu, "x"))
            buu += 1
        # Phase 2: many pure ww pairs.
        ww_writes = 400
        for _ in range(ww_writes):
            spec.append(("w", buu, "x"))
            buu += 1
        mob = DataCentricCollector(sampling_rate=1, mob=True, seed=7)
        edges = mob.handle_all(ops_from(spec))
        ww = sum(1 for e in edges if e.kind is EdgeType.WW)
        # 2 of every 4 reads are discarded (default 2-slot array), so the
        # discard ratio converges to 1/2 and ~1/2 of ww edges survive.
        assert ww == pytest.approx(ww_writes * 0.5, rel=0.3)

    def test_resampling_switches_items(self):
        dcs = DataCentricCollector(
            sampling_rate=2, mob=False, seed=1, resample_interval=100
        )
        epoch0 = {k for k in range(100) if dcs.sampler.chosen(k)}
        dcs.handle_all(_random_history(seed=1, n=150, buus=10, keys=20))
        epoch1 = {k for k in range(100) if dcs.sampler.chosen(k)}
        assert epoch0 != epoch1

    def test_resampling_resets_state(self):
        dcs = DataCentricCollector(
            sampling_rate=1, mob=False, seed=1, resample_interval=3
        )
        # The switch after op 3 forgets lastWrite, so the read at op 4
        # produces no wr edge (the §5.1 warm-up phase).
        history = ops_from(
            [("w", 1, "x"), ("r", 2, "x"), ("w", 3, "x"), ("r", 4, "x")]
        )
        edges = dcs.handle_all(history)
        kinds = [(e.src, e.dst, e.kind.value) for e in edges]
        assert (1, 2, "wr") in kinds
        assert all(dst != 4 for _, dst, _ in kinds)


def test_resampling_salts_every_switch_with_the_seed():
    """After a sample switch (§5.1) the sample still depends on the
    configured seed: twenty seeds pick twenty different item sets, and
    one seed picks the same set every time it runs."""
    history = _random_history(seed=3, n=120, buus=10, keys=20)

    def after_switches(seed):
        dcs = DataCentricCollector(sampling_rate=4, mob=False, seed=seed,
                                   resample_interval=50)
        dcs.handle_all(history)
        return frozenset(k for k in range(256) if dcs.sampler.chosen(k))

    samples = [after_switches(seed) for seed in range(20)]
    assert len(set(samples)) == len(samples)
    assert after_switches(7) == samples[7]


def _rng_words(rng):
    version, internal, gauss_next = rng.getstate()
    return [version, list(internal), gauss_next]


@pytest.mark.parametrize("batched", [True, False], ids=["batch", "per-op"])
def test_a_shard_seeded_at_its_first_draw_draws_the_eager_stream(batched):
    """A MOB shard seeds its reservoir generator at its first draw, from
    the seed it was given.  Against a shard whose generator was seeded
    up front (``_rng`` read before any draw), it derives the same edges,
    discard ratio and snapshot, generator words included, over a history
    and across a ``load_state`` round trip.  A shard that never drew
    snapshots its seed and no generator words, and restored onto a shard
    built with another seed it still derives the same edges."""
    seed = 9 ^ 0x5EED
    history = _random_history(seed=9, n=800, buus=12, keys=8)
    first, rest = history[:431], history[431:]

    eager = CollectorShard(seed=seed)
    assert eager._rng.getstate() == random.Random(seed).getstate()
    assert eager.to_state()["rng"] == _rng_words(random.Random(seed))
    lazy = CollectorShard(seed=seed)
    undrawn = lazy.to_state()
    assert (undrawn["seed"], undrawn["rng"]) == (seed, None)
    assert lazy._generator is None
    reseeded = CollectorShard(seed=0)
    reseeded.load_state(undrawn)
    assert reseeded.to_state() == undrawn

    def feed(shard, ops):
        if batched:
            return list(shard.handle_batch(ops).rows())
        return [edge for op in ops for edge in shard.handle(op)]

    assert feed(lazy, first) == feed(eager, first) == feed(reseeded, first)
    assert lazy.discarded_reads and lazy.discard_ratio == eager.discard_ratio
    assert lazy.to_state() == eager.to_state() == reseeded.to_state()
    assert lazy.to_state()["rng"] != _rng_words(random.Random(seed))

    restored = CollectorShard(seed=0)
    restored.load_state(lazy.to_state())
    assert restored.to_state() == lazy.to_state()
    tails = [feed(shard, rest) for shard in (lazy, eager, restored)]
    assert tails[0] == tails[1] == tails[2]
    assert lazy.discard_ratio == eager.discard_ratio == restored.discard_ratio
    assert lazy.to_state() == eager.to_state() == restored.to_state()


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_dcs_edges_subset_of_baseline(seed):
    """Every DCS edge (any rate, no MOB) exists in the baseline stream."""
    history = _random_history(seed=seed, n=300, buus=20, keys=12)
    baseline = set(edge_triples(BaselineCollector().handle_all(history)))
    dcs = DataCentricCollector(sampling_rate=3, mob=False, seed=seed)
    assert set(edge_triples(dcs.handle_all(history))) <= baseline


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_property_dcs_keeps_all_edges_on_chosen_items(seed):
    """Data-centric sampling is all-or-nothing per item."""
    history = _random_history(seed=seed, n=300, buus=20, keys=12)
    baseline = BaselineCollector().handle_all(history)
    dcs = DataCentricCollector(sampling_rate=3, mob=False, seed=seed)
    sampled = set(edge_triples(dcs.handle_all(history)))
    chosen_labels = {k for k in range(12) if dcs.sampler.chosen(k)}
    expected = {
        t for t in edge_triples(baseline) if t[3] in chosen_labels
    }
    assert sampled == expected


def _random_history(seed, n, buus, keys):
    rng = random.Random(seed)
    spec = []
    for _ in range(n):
        kind = "r" if rng.random() < 0.5 else "w"
        spec.append((kind, rng.randrange(buus), rng.randrange(keys)))
    return ops_from(spec)
