"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_quickstart_defaults(self):
        args = build_parser().parse_args(["quickstart"])
        assert args.sampling_rate == 1
        assert args.pruning == "both"
        assert args.windows == 5

    def test_sweep_knob_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--knob", "magic"])

    def test_quickstart_service_flags(self):
        args = build_parser().parse_args(
            ["quickstart", "--threads", "4", "--detect-interval", "0.01"]
        )
        assert args.threads == 4
        assert args.detect_interval == 0.01

    def test_quickstart_serial_by_default(self):
        assert build_parser().parse_args(["quickstart"]).threads == 0

    def test_bench_threads_defaults(self):
        args = build_parser().parse_args(["bench-threads"])
        assert args.threads == "1,2,4,8"

    @pytest.mark.parametrize(
        "verb", [f"bench-{name}" for name in ("regress", "cluster")])
    def test_retired_bench_verbs_are_unknown(self, verb, capsys):
        """The performance ledger (``perf/run.py``) measures every row
        these two produced; they are gone, not deprecated.  (Names are
        spelled in halves so a grep for stale references stays empty.)"""
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


#: One command line per verb (with its required arguments), as a user
#: would type it.
_ONE_PER_VERB = [
    ["quickstart", "--threads", "2", "--windows", "3"],
    ["sweep", "--knob", "latency", "--values", "0,5"],
    ["bookstore", "--purchases", "10", "--no-mob"],
    ["record", "--out", "run.jsonl", "--buus", "5"],
    ["analyze", "run.jsonl", "--sampling-rate", "5"],
    ["bench-threads", "--threads", "1,2"],
    ["monitor", "--live", "--export-port", "0", "--workers", "2"],
    ["serve", "--port", "0", "--export-port", "0"],
    ["emit", "--port", "1234", "--net-batch", "8"],
    ["bench-overhead", "--quick"],
    ["bench-serving", "--quick", "--check"],
    ["check", "run.jsonl", "--json"],
]


class TestOneVerbParser:
    """``main`` builds only the invoked verb's subparser; what a verb
    receives must not depend on that."""

    def test_every_verb_has_a_command_line_here(self):
        assert sorted(argv[0] for argv in _ONE_PER_VERB) == \
            sorted(cli._VERBS)

    @pytest.mark.parametrize("argv", _ONE_PER_VERB,
                             ids=[argv[0] for argv in _ONE_PER_VERB])
    def test_main_hands_the_verb_the_full_parsers_namespace(
            self, argv, monkeypatch):
        reached = []
        for name in cli._VERBS:
            command = "cmd_" + name.replace("-", "_")
            monkeypatch.setattr(
                cli, command,
                lambda args, command=command: reached.append(
                    (command, args)) or 0)
        assert main(list(argv)) == 0
        expected = build_parser().parse_args(argv)
        [(command, args)] = reached
        assert command == "cmd_" + argv[0].replace("-", "_")
        assert args.func is expected.func
        # The bound ``usage_error`` belongs to a different parser object
        # of the same verb; everything else is equal.
        assert args.usage_error.__self__.prog == \
            expected.usage_error.__self__.prog == f"repro {argv[0]}"
        got, want = vars(args), vars(expected)
        got.pop("usage_error")
        want.pop("usage_error")
        assert got == want

    def test_serve_accepts_no_trace_and_ignores_it(self, capsys):
        """The service records no trace, so ``--no-trace`` selects
        nothing; the benchmark's serve child still passes it, so it
        parses to the same configuration and ``--help`` hides it."""
        from repro.core.config import RushMonConfig

        argv = ["serve", "--port", "0", "--sampling-rate", "20"]
        plain = build_parser().parse_args(argv)
        flagged = build_parser().parse_args(argv + ["--no-trace"])
        assert RushMonConfig.from_cli_args(flagged) == \
            RushMonConfig.from_cli_args(plain)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        assert "--no-trace" not in capsys.readouterr().out

    def test_main_builds_the_invoked_verb_only(self, monkeypatch):
        built = []
        for name, (summary, add_flags) in cli._VERBS.items():
            monkeypatch.setitem(cli._VERBS, name, (
                summary, lambda parser, add_flags=add_flags, name=name: (
                    built.append(name), add_flags(parser))))
        monkeypatch.setattr(cli, "cmd_serve", lambda args: 0)
        assert main(["serve", "--port", "0"]) == 0
        assert built == ["serve"]
        with pytest.raises(SystemExit):
            main(["--help"])
        assert built == ["serve", *cli._VERBS]

    def test_a_verbs_help_prints_its_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro serve [-h]")
        assert "--export-port EXPORT_PORT" in out

    def test_the_top_level_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: repro [-h]")
        for name, (summary, _) in cli._VERBS.items():
            assert name in out and summary[:20] in out

    @pytest.mark.parametrize("argv", [["no-such-verb"], []],
                             ids=["unknown", "none"])
    def test_an_unknown_or_missing_verb_lists_every_verb(self, argv,
                                                         capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "{" + ",".join(cli._VERBS) + "}" in err  # the usage line
        if argv:
            assert "invalid choice: 'no-such-verb'" in err
            assert all(repr(name) in err for name in cli._VERBS)

    def test_a_bad_flag_reads_as_it_does_with_every_verb_built(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--bogus"])
        full = capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--bogus"])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == full


_BAD_FLAG_VALUES = [
    (["monitor", "--detect-interval", "0"], "detect_interval"),
    (["quickstart", "--sampling-rate", "0"], "sampling_rate"),
    (["serve", "--port", "0", "--checkpoint-every", "0"], "checkpoint_every"),
    (["monitor", "--batch-size", "0"], "batch_size"),
    (["serve", "--port", "0", "--max-connections", "0"], "max_connections"),
    (["serve", "--port", "0", "--idle-timeout", "-2"], "idle_timeout"),
    (["serve", "--port", "0", "--drain-timeout", "0"], "drain_timeout"),
]


@pytest.mark.parametrize(
    "argv, named", _BAD_FLAG_VALUES,
    ids=[f"{argv[0]}{argv[-2]}" for argv, _ in _BAD_FLAG_VALUES])
def test_bad_flag_value_is_a_usage_error(argv, named, capsys):
    """A value the verb's config / service / server refuses while it is
    being constructed is answered like any argparse error — the verb's
    usage, one ``error:`` line naming the field, exit 2 — not with a
    traceback, and before any workload runs."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert f"repro {argv[0]}: error: " in captured.err
    assert named in captured.err.split("error: ", 1)[1]
    assert argv[-2] in captured.err  # the flag, in the verb's usage
    assert "Traceback" not in captured.err
    assert captured.out == ""


class TestCommands:
    def test_quickstart_runs(self, capsys):
        assert main(["quickstart", "--windows", "2", "--buus", "100",
                     "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "est 2-cycles" in out
        assert "total:" in out

    def test_sweep_runs(self, capsys):
        assert main(["sweep", "--knob", "staleness", "--values", "1,0",
                     "--buus", "150", "--workers", "4"]) == 0
        out = capsys.readouterr().out
        assert "per-kstep" in out
        assert len(out.strip().splitlines()) == 3  # header + 2 values

    def test_sweep_latency(self, capsys):
        assert main(["sweep", "--knob", "latency", "--values", "0,200",
                     "--buus", "150", "--workers", "4"]) == 0

    def test_bookstore_runs(self, capsys):
        assert main(["bookstore", "--purchases", "200", "--workers", "8",
                     "--books", "20"]) == 0
        out = capsys.readouterr().out
        assert "violation rate" in out

    def test_record_and_analyze(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        assert main(["record", "--out", trace_path, "--buus", "150",
                     "--workers", "4"]) == 0
        assert main(["analyze", trace_path]) == 0
        out = capsys.readouterr().out
        assert "exact:" in out
        assert "estimated:" in out

    def test_analyze_unsampled_matches_exact(self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.jsonl")
        main(["record", "--out", trace_path, "--buus", "200",
              "--workers", "8", "--latency", "200"])
        capsys.readouterr()
        main(["analyze", trace_path, "--no-mob"])
        out = capsys.readouterr().out
        exact_line = next(l for l in out.splitlines() if l.startswith("exact"))
        est_line = next(l for l in out.splitlines() if l.startswith("estimated"))
        exact_two = int(exact_line.split()[1])
        est_two = float(est_line.split()[1])
        assert est_two == exact_two

    def test_serializable_quickstart_quiet(self, capsys):
        assert main(["quickstart", "--windows", "1", "--buus", "150",
                     "--workers", "8", "--isolation", "serializable",
                     "--latency", "0"]) == 0
        out = capsys.readouterr().out
        assert "total: 0 two-cycles, 0 three-cycles" in out


class TestServiceCommands:
    def test_quickstart_threaded_runs(self, capsys):
        assert main(["quickstart", "--threads", "2", "--windows", "2", "--buus", "80", "--keys", "10"]) == 0
        out = capsys.readouterr().out
        assert "threads: 2\n" in out
        assert "est 2-cycles" in out
        assert "total:" in out

    def test_quickstart_threaded_single_thread(self, capsys):
        assert main(["quickstart", "--threads", "1", "--windows", "1",
                     "--buus", "50", "--keys", "8"]) == 0
        assert "threads: 1" in capsys.readouterr().out

    def test_bench_threads_runs_and_records(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["bench-threads", "--threads", "1,2", "--buus", "120",
                     "--keys", "32"]) == 0
        out = capsys.readouterr().out
        assert "ops/sec" in out
        assert "serial" in out
        recorded = (tmp_path / "thread_scaling.txt").read_text()
        assert "service" in recorded


class TestCheckCommand:
    def test_check_serializable_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "clean.jsonl")
        main(["record", "--out", trace_path, "--buus", "100",
              "--workers", "4", "--isolation", "serializable",
              "--latency", "0"])
        capsys.readouterr()
        assert main(["check", trace_path]) == 0
        out = capsys.readouterr().out
        assert "serializable: yes" in out
        assert "witness serial order" in out

    def test_check_chaotic_trace(self, tmp_path, capsys):
        trace_path = str(tmp_path / "chaos.jsonl")
        main(["record", "--out", trace_path, "--buus", "300",
              "--workers", "16", "--latency", "300"])
        capsys.readouterr()
        assert main(["check", trace_path]) == 1
        out = capsys.readouterr().out
        assert "serializable: NO" in out
        assert "violating cycle" in out

    def test_check_classifies_and_counts_exactly(self, tmp_path, capsys):
        """The check verb reports the exact cycle counts the monitor
        estimates, plus G-class lines with labelled witnesses."""
        trace_path = str(tmp_path / "chaos.jsonl")
        main(["record", "--out", trace_path, "--buus", "200",
              "--workers", "8", "--latency", "200"])
        capsys.readouterr()
        assert main(["check", trace_path]) == 1
        out = capsys.readouterr().out
        assert "exact cycles:" in out
        assert "anomaly classes" in out
        assert "anomaly-free: NO" in out
        # Witnesses carry edge kinds and item labels.
        assert "-rw[" in out or "-ww[" in out or "-wr[" in out

    def test_check_json_output(self, tmp_path, capsys):
        import json

        trace_path = str(tmp_path / "chaos.jsonl")
        main(["record", "--out", trace_path, "--buus", "200",
              "--workers", "8", "--latency", "200"])
        capsys.readouterr()
        rc = main(["check", trace_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == (0 if payload["anomaly_free"] else 1)
        assert payload["operations"] == 1200
        assert set(payload["cycles"]) == {"two", "three", "ss", "dd",
                                          "sss", "ssd", "ddd"}
        assert sum(payload["counts"].values()) > 0
        for witnesses in payload["witnesses"].values():
            assert witnesses  # every reported class has a witness

    def test_check_json_matches_analyze_exact(self, tmp_path, capsys):
        """`check --json` cycle totals equal `analyze`'s offline exact
        line — the two exact paths agree on the same trace."""
        import json

        trace_path = str(tmp_path / "run.jsonl")
        main(["record", "--out", trace_path, "--buus", "200",
              "--workers", "8", "--latency", "200"])
        capsys.readouterr()
        main(["check", trace_path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        main(["analyze", trace_path, "--no-mob"])
        out = capsys.readouterr().out
        exact_line = next(l for l in out.splitlines()
                          if l.startswith("exact"))
        assert payload["cycles"]["two"] == int(exact_line.split()[1])


class TestMonitorOracle:
    def test_monitor_oracle_sr1_matches(self, capsys):
        """--oracle at sr=1 --no-mob replays the recorded trace through
        the exact checker and must match bit-exactly (exit 0)."""
        assert main(["monitor", "--oracle", "--sampling-rate", "1",
                     "--no-mob", "--buus", "200", "--keys", "16",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "oracle: exact" in out
        assert "match the exact checker bit-exactly" in out

    @pytest.mark.parametrize("seed", range(4))
    def test_monitor_oracle_sr1_matches_on_hot_keys(self, capsys, seed):
        """Eight threads on six keys race for every key; the trace
        recorded beside the service still holds each key's operations
        in journal order, so the anomalies match bit-exactly."""
        assert main(["monitor", "--seed", str(seed), "--oracle",
                     "--sampling-rate", "1", "--no-mob", "--buus", "300",
                     "--keys", "6", "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "match the exact checker bit-exactly" in out
        exact = next(line for line in out.splitlines()
                     if line.startswith("oracle: exact"))
        assert int(exact.split()[2]) > 0  # two-cycles: not vacuous

    def test_monitor_oracle_sampled_reports_error(self, capsys):
        """At sr>1 the oracle reports relative error instead of failing."""
        assert main(["monitor", "--oracle", "--sampling-rate", "4",
                     "--buus", "200", "--keys", "16",
                     "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "rel. error" in out


class TestMonitorGracefulShutdown:
    def test_sigterm_drains_and_writes_stop_time_checkpoint(self, tmp_path):
        """SIGTERM mid-run takes the Ctrl-C path: drain the final
        window, write the --checkpoint, report, exit 0."""
        import os
        import signal
        import subprocess
        import sys
        import time

        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        ckpt = str(tmp_path / "monitor.ckpt")
        # --live prints a header right after the service starts — the
        # cue that SIGTERM will land mid-run, not during setup.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "monitor",
             "--buus", "100000", "--no-mob", "--sampling-rate", "1",
             "--checkpoint", ckpt, "--live", "--interval", "0.1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            assert proc.stdout.readline() != ""  # the --live header
            time.sleep(0.3)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0
        assert "interrupted — stopping service" in out
        assert f"stop-time checkpoint written to {ckpt}" in out
        assert "final metrics snapshot" in out

        from repro.core.concurrent import RushMonService

        # The stop-time checkpoint restores into a working service (the
        # monitor runs without trace recording, so the differential
        # replay lives in the net/chaos suites, not here).
        restored = RushMonService.restore(ckpt)
        assert restored.processed_events > 0
        assert restored.counts() is not None
