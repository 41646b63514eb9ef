"""Tests for workloads: synthetic graph workload, datasets, bookstore."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.graph.random_graphs import preferential_attachment_graph
from repro.workloads.bookstore import Bookstore, BookstoreConfig
from repro.workloads.datasets import (
    REAL_GRAPH_SPECS,
    scaled_real_graph_standin,
    synthetic_click_dataset,
)
from repro.workloads.graph_workload import GraphWorkload, GraphWorkloadConfig
from repro.sim import SimConfig, Simulator


class TestPreferentialAttachment:
    def test_degree_close_to_target(self):
        graph = preferential_attachment_graph(2000, 10, rng=random.Random(0))
        assert graph.average_degree() == pytest.approx(10, rel=0.25)

    def test_heavy_tail(self):
        """Preferential attachment produces hubs: the max degree is far
        above the average."""
        graph = preferential_attachment_graph(2000, 10, rng=random.Random(0))
        max_degree = max(graph.degree(v) for v in range(graph.num_vertices))
        assert max_degree > 5 * graph.average_degree()

    def test_degree_lower_bound(self):
        graph = preferential_attachment_graph(
            500, 4, degree_lower_bound=5, rng=random.Random(1)
        )
        assert min(graph.degree(v) for v in range(graph.num_vertices)) >= 5

    def test_too_small(self):
        with pytest.raises(ValueError):
            preferential_attachment_graph(1, 5)


class TestGraphWorkload:
    def test_buu_reads_vertex_and_neighbors(self):
        workload = GraphWorkload(GraphWorkloadConfig(num_vertices=200, seed=2))
        buu = workload.make_buu()
        assert 1 <= len(buu.reads) <= 1 + workload.config.neighbor_cap
        vertex = buu.reads[0]
        neighbors = set(workload.graph.neighbors(vertex))
        assert all(r in neighbors for r in buu.reads[1:])

    def test_buus_runnable(self):
        workload = GraphWorkload(GraphWorkloadConfig(num_vertices=100, seed=3))
        sim = Simulator(SimConfig(num_workers=4, seed=0))
        assert sim.run(workload.buus(50)) == 50

    def test_default_writes_everything_read(self):
        workload = GraphWorkload(GraphWorkloadConfig(num_vertices=100, seed=4))
        for _ in range(20):
            buu = workload.make_buu()
            writes = buu.run_compute({k: 1.0 for k in buu.reads})
            assert set(writes) == set(buu.reads)

    def test_bounded_write_back(self):
        workload = GraphWorkload(
            GraphWorkloadConfig(num_vertices=100, seed=4, write_back=2)
        )
        for _ in range(20):
            buu = workload.make_buu()
            writes = buu.run_compute({k: 1.0 for k in buu.reads})
            assert set(writes) <= set(buu.reads)
            assert len(writes) <= 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GraphWorkloadConfig(num_vertices=1)
        with pytest.raises(ValueError):
            GraphWorkloadConfig(neighbor_cap=0)
        with pytest.raises(ValueError):
            GraphWorkloadConfig(write_back=0)


class TestDatasets:
    def test_real_graph_standins(self):
        for name in REAL_GRAPH_SPECS:
            graph = scaled_real_graph_standin(name, scale=2e-5)
            spec = REAL_GRAPH_SPECS[name]
            assert graph.num_vertices == max(100, int(spec["vertices"] * 2e-5))
            assert graph.average_degree() == pytest.approx(spec["degree"], rel=0.4)

    def test_standins_do_not_depend_on_the_hash_seed(self):
        """Fig 17's stand-ins are the same graphs in every interpreter:
        their seed must not come from the salted ``hash(str)``."""
        script = (
            "import hashlib\n"
            "from repro.workloads.datasets import REAL_GRAPH_SPECS, "
            "scaled_real_graph_standin\n"
            "for name in REAL_GRAPH_SPECS:\n"
            "    graph = scaled_real_graph_standin(name)\n"
            "    print(name, hashlib.sha256(repr(graph.adj).encode())"
            ".hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60).stdout)
        assert len(outputs[0].splitlines()) == len(REAL_GRAPH_SPECS)
        assert outputs[0] == outputs[1]

    def test_unknown_standin(self):
        with pytest.raises(ValueError):
            scaled_real_graph_standin("orkut")

    def test_click_dataset_shape(self):
        ds = synthetic_click_dataset(100, 50, 4, rng=random.Random(0))
        assert len(ds.samples) == 100
        assert ds.num_features == 50
        for s in ds.samples:
            assert len(s.features) == 4
            assert s.label in (-1, 1)
            assert all(0 <= f < 50 for f in s.features)

    def test_click_labels_follow_planted_model(self):
        """Samples with a high planted score should mostly be positive."""
        ds = synthetic_click_dataset(2000, 30, 5, noise=0.0,
                                     rng=random.Random(7))
        agree = 0
        for s in ds.samples:
            z = sum(ds.true_weights[f] for f in s.features)
            predicted = 1 if z > 0 else -1
            agree += predicted == s.label
        assert agree / len(ds.samples) > 0.7


class TestBookstore:
    def test_serial_single_customer_no_violations(self):
        store = Bookstore(
            BookstoreConfig(num_books=30, customers=1, books_per_order=2,
                            initial_stock=5, seed=0),
        )
        counter = store.run(300)
        assert counter.violations == 0

    def test_concurrent_customers_violate(self):
        store = Bookstore(
            BookstoreConfig(num_books=10, customers=16, books_per_order=3,
                            initial_stock=3, think_time=50, seed=1),
            SimConfig(num_workers=16, seed=1, write_latency=300,
                      compute_jitter=50),
        )
        counter = store.run(1500)
        assert counter.violations > 0
        assert 0 < counter.violation_rate < 1

    def test_stock_never_negative_serially(self):
        store = Bookstore(
            BookstoreConfig(num_books=10, customers=1, books_per_order=1,
                            initial_stock=2, seed=2),
        )
        store.run(100)
        for key in store.items:
            assert store.simulator.store[key] >= 0

    def test_curator_resets(self):
        config = BookstoreConfig(num_books=5, customers=1, books_per_order=1,
                                 initial_stock=1, curator_interval=50, seed=3)
        store = Bookstore(config)
        store.run(200)
        # after the final curator sweep, every stock is positive
        assert all(store.simulator.store[k] > 0 for k in store.items)

    def test_violations_correlate_with_anomalies(self):
        """The Fig 11 relationship on two operating points."""
        from repro.core.config import RushMonConfig
        from repro.core.monitor import RushMon

        def run(latency):
            mon = RushMon(RushMonConfig(sampling_rate=1, mob=False))
            store = Bookstore(
                BookstoreConfig(num_books=10, customers=16, books_per_order=3,
                                initial_stock=3, seed=4),
                SimConfig(num_workers=16, seed=4, write_latency=latency,
                          compute_jitter=30),
            )
            store.simulator.subscribe(mon)
            counter = store.run(800)
            e2, e3 = mon.cumulative_estimates()
            return counter.violation_rate, e2 + e3

        calm_violations, calm_anomalies = run(0)
        wild_violations, wild_anomalies = run(500)
        assert wild_anomalies > calm_anomalies
        assert wild_violations >= calm_violations

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BookstoreConfig(num_books=0)
        with pytest.raises(ValueError):
            BookstoreConfig(num_books=5, books_per_order=6)
