"""Checks of the benchmark harness itself.

Run explicitly: ``python -m pytest perf/tests -q`` (the tier-1 suite's
``testpaths`` does not include this directory).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
sys.path[:0] = [str(PERF), str(ROOT / "src")]

import gen  # noqa: E402
import harness  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import sut_serial  # noqa: E402
import workloads  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perf/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# -- BENCHMARK.json -------------------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["perf"]
    assert CONTRACT["command"] == ["python3", "perf/run.py"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 18) <= 3420
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    names = []
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    for metric in CONTRACT["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    for metric in CONTRACT["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    setup = [m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in CONTRACT["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_workload_names_match_the_harness():
    assert ([w["name"] for w in CONTRACT["workloads"]]
            == list(workloads.WORKLOADS))


# -- inputs -----------------------------------------------------------------------------


@pytest.mark.parametrize("family", [gen.HOT, gen.WIDE])
def test_generator_is_a_function_of_the_seed(family):
    first = gen.make_stream(family, 7, 3_000)
    again = gen.make_stream(family, 7, 3_000)
    other = gen.make_stream(family, 8, 3_000)
    assert gen.stream_hash([first]) == gen.stream_hash([again])
    assert gen.stream_hash([first]) != gen.stream_hash([other])


def test_stream_shape():
    stream = gen.make_stream(gen.WIDE, 3, 4_800, producer=1, producers=2)
    assert len(stream.ops) == 4_800
    assert {op.buu % 2 for op in stream.ops} == {1}
    assert len({op.seq for op in stream.ops}) == len(stream.ops)
    by_buu = {}
    for op in stream.ops:
        by_buu.setdefault(op.buu, []).append(op)
    assert {len(ops) for ops in by_buu.values()} == {gen.WIDE.ops_per_buu}
    assert all(len({op.key for op in ops}) <= gen.WIDE.keys_per_buu
               for ops in by_buu.values())
    # Every op of a BUU lies between the BUU's begin and its commit in
    # the call order the chunks prescribe.
    alive = set()
    for chunk in gen.chunked(stream, 500):
        alive.update(buu for buu, _ in chunk.begins)
        assert all(op.buu in alive for op in chunk.ops)
        alive.difference_update(buu for buu, _ in chunk.commits)
    assert not alive


# -- the command ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    done = _run("--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout, json.loads(out.read_text())["runs"]


def test_smoke_emits_every_workload_and_metric(smoke):
    stdout, records = smoke
    by_key = {(r["workload"], r["trace"]): r for r in records}
    for workload in CONTRACT["workloads"]:
        for trace, wanted in ((0, CONTRACT["end_to_end"]),
                              (1, CONTRACT["per_layer"])):
            record = by_key[workload["name"], trace]
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
            assert list(record["metrics"]) == [m["name"] for m in wanted]
            for metric in wanted:
                entry = record["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
                assert f"  {metric['name']} " in stdout
            assert len(record["input_hash"]) == 64
            env = record["environment"]
            assert env["cpus"] >= 1 and env["python"] and "numpy" in env
    assert "where the time goes" in stdout


def test_end_to_end_metrics_are_never_zero(smoke):
    _, records = smoke
    for record in records:
        if not record["trace"]:
            assert all(m["value"] > 0 for m in record["metrics"].values())


def test_same_seed_same_input_hash(smoke):
    _, records = smoke
    hashes = {r["workload"]: r["input_hash"] for r in records
              if not r["trace"]}
    # cluster_closed must see the very stream serial_sampled sees.
    assert hashes["cluster_closed"] == hashes["serial_sampled"]
    assert len(set(hashes.values())) == len(hashes) - 1


def test_single_run_prints_one_result_object_last():
    done = _run("--workload", "serial_sampled", "--smoke", "--seed", "3",
                "--seconds", "0.3", "--trace", "0")
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"]
                                      for m in CONTRACT["end_to_end"]}


def test_command_leaves_no_process_behind():
    """The cluster's multiprocessing resource tracker outlives the process
    that measures; the command must not return before it has ended.  With
    this process as the reaper of its orphaned descendants, anything the
    command left behind, running or not yet waited for, is a child here."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    assert prctl(run.PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    try:
        done = _run("--workload", "cluster_closed", "--smoke",
                    "--seconds", "0.3")
        assert done.returncode == 0, done.stderr[-2000:]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        prctl(run.PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)


def test_corrupted_oracle_fails_the_command(monkeypatch, capsys):
    real = sut_serial.exact_cycle_counts

    def corrupted(ops):
        counts = real(ops)
        counts.ss += 1
        return counts

    monkeypatch.setattr(sut_serial, "exact_cycle_counts", corrupted)
    code = run.main(["--workload", "serial_exact", "--smoke",
                     "--seconds", "0.2"])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is False
    assert any("oracle_bit_exact" in line and "FAIL" in line
               for line in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run("--workload", "serial_exact", "--seed", "0", "--seconds",
                "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- host speed -------------------------------------------------------------------------


def test_durations_are_reported_at_nominal_host_speed():
    assert measure.reference_kernel() == measure.reference_kernel()

    class TwiceAsSlow:
        def slowdown(self):
            return 2.0

    raw = {"ops_per_s": 100.0, "cpu_us_per_op": 4.0, "ack_ms_p50": 2.0,
           "setup_s": 1.0, "peak_rss_mb": 50.0}
    serial = harness.Outcome(metrics=dict(raw))
    serial.scale_to_nominal_speed(TwiceAsSlow(), "serial")
    assert serial.metrics == {"ops_per_s": 200.0, "cpu_us_per_op": 2.0,
                              "ack_ms_p50": 1.0, "setup_s": 0.5,
                              "peak_rss_mb": 50.0}
    assert serial.layers["host.slowdown"] == 2.0
    # Beside their caller, systems feel a part of the slowdown; a paced
    # one's rate is its schedule's.
    part = 2 ** harness.HOST_SENSITIVITY["cluster"]
    assert 1.0 < part < 2.0
    cluster = harness.Outcome(metrics=dict(raw))
    cluster.scale_to_nominal_speed(TwiceAsSlow(), "cluster")
    assert cluster.metrics["ops_per_s"] == pytest.approx(100.0 * part)
    assert cluster.metrics["cpu_us_per_op"] == pytest.approx(4.0 / part)
    paced = harness.Outcome(metrics=dict(raw))
    paced.scale_to_nominal_speed(TwiceAsSlow(), "wire")
    assert paced.metrics["ops_per_s"] == 100.0
    assert paced.metrics["cpu_us_per_op"] == pytest.approx(
        4.0 / 2 ** harness.HOST_SENSITIVITY["wire"])
    assert paced.layers["host.slowdown"] == 2.0


# -- comparing runs ---------------------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert run.verdict(steady, steady, "lower", 0.1)[0] == "same"
    assert run.verdict(steady, [v * 1.2 for v in steady],
                       "lower", 0.1)[0] == "worse"
    assert run.verdict(steady, [v * 1.2 for v in steady],
                       "higher", 0.1)[0] == "better"
    noisy = [80.0, 100.0, 120.0, 90.0, 130.0]
    assert run.verdict(noisy, [v * 1.05 for v in noisy],
                       "lower", 0.1)[0] == "unresolved"
    # Wide spread, but every run of one side beats every run of the other.
    assert run.verdict(noisy, [v / 3 for v in noisy],
                       "lower", 0.1)[0] == "better"
    # A single run per side has no spread to speak of: the bound decides.
    assert run.verdict([10.0], [10.5], "lower", 0.1)[0] == "same"
    assert run.verdict([10.0], [12.0], "lower", 0.1)[0] == "worse"


def test_compare_reads_saved_results(smoke, tmp_path, capsys):
    _, records = smoke
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"runs": records}))
    assert run.main(["--compare", str(path), str(path)]) == 0
    table = capsys.readouterr().out
    assert table.count(" same") == (len(CONTRACT["workloads"])
                                    * len(CONTRACT["end_to_end"]))


# -- what the harness may touch -----------------------------------------------------------


def test_harness_uses_public_entry_points_only():
    private = re.compile(r"(?<![\w.])(?!self\b)[A-Za-z]\w*(?:\.\w+)*\._(?!_)\w+")
    for path in PERF.glob("*.py"):
        source = path.read_text()
        for banned in ("repro.bench", "repro.sim", "repro.workloads"):
            assert banned not in source.replace(
                "``" + banned + "``", ""), (path.name, banned)
        for match in private.finditer(source):
            # NamedTuple._replace is documented public API.
            assert match.group().endswith("._replace"), (path.name,
                                                         match.group())
