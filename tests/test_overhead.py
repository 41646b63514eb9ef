"""Smoke tests for the monitoring-overhead harness."""

import os

from repro.bench.overhead import run_overhead


def test_quick_overhead_reports_ratios(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    rows = run_overhead(buus=60, keys=32, touch=2, threads=2,
                        sampling_rates=(1,), repeats=1, name="overhead_test")

    # One bare row plus serial+service per sampling rate.
    assert [r["mode"] for r in rows] == ["bare", "serial", "service"]
    bare = rows[0]
    assert bare["ratio"] == 1.0 and bare["overhead_pct"] == 0.0
    for row in rows[1:]:
        assert row["seconds"] > 0
        assert row["ratio"] > 0
        assert row["overhead_pct"] == (row["ratio"] - 1.0) * 100.0

    # The table was printed and persisted.
    out = capsys.readouterr().out
    assert "overhead %" in out
    path = os.path.join(str(tmp_path), "overhead_test.txt")
    with open(path) as handle:
        assert "Monitoring overhead" in handle.read()


def test_main_quick_flag(tmp_path, monkeypatch):
    """The harness's one entry point is the CLI verb; ``--quick`` only
    shrinks what was not given explicitly."""
    from repro.cli import main

    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert main(["bench-overhead", "--quick", "--buus", "40", "--keys", "16",
                 "--rates", "1", "--threads", "2"]) == 0
    with open(os.path.join(str(tmp_path), "overhead.txt")) as handle:
        table = handle.read()
    assert "40 BUUs" in table and "2 threads, min of 1" in table
    assert "service" in table
