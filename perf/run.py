"""The performance ledger's one command.

    python3 perf/run.py --seed 0              all workloads, untraced + traced
    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run, one JSON result line
    python3 perf/run.py --smoke               same code paths, tiny inputs
    python3 perf/run.py --selfcheck           two full sets, compared
    python3 perf/run.py --compare A.json B.json
    python3 perf/run.py --profile W           cProfile dump beside the trace

Every metric is printed by name with its unit; the names, units, directions
and regression bounds live in ``BENCHMARK.json`` at the repository root.
The exit code is non-zero when any correctness check fails.
The command returns only when every process it started has ended: the work
runs in a child of the process you start (see ``supervise``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT_DIR = PERF / "out"
# Cluster workers re-import this file as their main module, so nothing
# beyond the stdlib is imported at module level.
sys.path.insert(0, str(ROOT / "src"))


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(contract: dict, workload: str, seed: int, seconds: float,
             trace: bool, profile_name: str) -> dict:
    """One run of one workload; the record kept in result files."""
    import harness
    import layers
    import workloads
    from measure import environment

    spec = workloads.WORKLOADS[workload]
    profile = harness.SMOKE if profile_name == "smoke" else harness.FULL
    started = time.perf_counter()
    rows = []
    if trace:
        outcome, values, tracer, rows = layers.traced_run(
            spec, seed, seconds, profile)
        wanted = contract["per_layer"]
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{workload}.json", "w") as fh:
            json.dump(tracer.to_json(), fh)
    else:
        outcome = workloads.run_workload(spec, seed, seconds, profile)
        values = outcome.metrics
        wanted = contract["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"{workload}: metrics not produced: {missing}")
    return {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "profile": profile.name,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_fraction": outcome.failed / max(outcome.attempted, 1),
        "host_slowdown": outcome.layers["host.slowdown"],
        "host_correction": outcome.layers["host.correction"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
        "checks": [list(c) for c in outcome.checks],
        "ledger": rows,
        "input_hash": outcome.input_hash,
        "prep_s": outcome.prep_s,
        "wall_s": time.perf_counter() - started,
        "environment": environment(seed),
    }


def show(record: dict) -> None:
    kind = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {record['workload']} · {kind} · seed "
          f"{record['environment']['seed']} · {record['seconds']} s "
          f"measured · {record['wall_s']:.1f} s wall "
          f"(prep {record['prep_s']:.1f} s) ==")
    for name, entry in record["metrics"].items():
        print(f"  {name:<58} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  {'failed_fraction':<58} {record['failed_fraction']:>16.6g} "
          f"ratio  ({record['failed']} of {record['attempted']} events)")
    if not record["trace"]:
        print(f"  durations are at nominal host speed: the probe ran "
              f"{record['host_slowdown']:.3f}x slower than that, and this "
              f"system's durations were divided by "
              f"{record['host_correction']:.3f}")
    if record["ledger"]:
        total = sum(value for _, value in record["ledger"])
        print(f"  where the time goes ({total:.3f} us of CPU per op):")
        for name, value in record["ledger"]:
            share = value / total if total else 0.0
            print(f"    {name:<66} {value:>8.3f} us {share:>7.1%}")
    for name, ok, detail in record["checks"]:
        print(f"  check {name:<24} {'ok  ' if ok else 'FAIL'} {detail}")
    print(f"  input {record['input_hash'][:16]}  environment "
          f"{json.dumps(record['environment'], sort_keys=True)}")


def result_line(record: dict) -> str:
    """The one-object summary the benchmark driver parses."""
    return json.dumps({key: record[key] for key in
                       ("correct", "attempted", "failed", "metrics")})


def run_set(seed: int, seconds: float, profile: str,
            names: list[str]) -> list[dict]:
    """Every workload, untraced then traced, each run in a process of
    its own — as the driver runs them — so that peak RSS, set-up time
    and allocator state never carry over from one workload to the next."""
    OUT_DIR.mkdir(exist_ok=True)
    scratch = OUT_DIR / f"record-{os.getpid()}.json"
    records = []
    for name in names:
        for trace in (0, 1):
            argv = [sys.executable, str(PERF / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(trace), "--record", str(scratch)]
            if profile == "smoke":
                argv.append("--smoke")
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            # The child's last line is the driver's result object; the
            # full record comes through the scratch file.
            print("\n".join(done.stdout.splitlines()[:-1]))
            if not scratch.exists():
                raise SystemExit(f"{name} (trace {trace}) produced no "
                                 f"record; exit code {done.returncode}")
            with open(scratch) as fh:
                records.append(json.load(fh))
            scratch.unlink()
    return records


def save(records: list[dict], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"runs": records}, fh, indent=1)
    print(f"wrote {path}")


# -- comparing two sets of runs -----------------------------------------------------


def _spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median (needs 4+ runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(before: list[float], after: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(better | same | worse | unresolved, relative change of the median
    in the worse direction).  A spread wider than the bound leaves the
    pair unresolved unless one side's every run beats the other's."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(before)
    change = sign * (statistics.median(after) - base) / base
    spreads = [s for s in (_spread(before), _spread(after)) if s is not None]
    if spreads and max(spreads) > bound:
        if max(sign * v for v in after) < min(sign * v for v in before):
            return "better", change
        if min(sign * v for v in after) > max(sign * v for v in before):
            return "worse", change
        return "unresolved", change
    if change > bound:
        return "worse", change
    if change < -bound:
        return "better", change
    return "same", change


def compare(contract: dict, before: list[dict], after: list[dict]) -> bool:
    """Print one row per workload x end-to-end metric; True when no row
    is worse or unresolved."""
    def values(records, workload, metric):
        return [r["metrics"][metric]["value"] for r in records
                if r["workload"] == workload and not r["trace"]]

    clean = True
    print(f"{'workload':<16}{'metric':<24}{'before':>12}{'after':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    for workload in [w["name"] for w in contract["workloads"]]:
        for metric in contract["end_to_end"]:
            a = values(before, workload, metric["name"])
            b = values(after, workload, metric["name"])
            if not a or not b:
                continue
            word, change = verdict(a, b, metric["better"], metric["bound"])
            clean = clean and word in ("same", "better")
            print(f"{workload:<16}{metric['name']:<24}"
                  f"{statistics.median(a):>12.5g}{statistics.median(b):>12.5g}"
                  f"{change:>+9.1%}{metric['bound']:>7.0%}  {word}")
    return clean


def load_runs(path: str) -> list[dict]:
    with open(path) as fh:
        return json.load(fh)["runs"]


# -- profiling ------------------------------------------------------------------------


def profile_workload(workload: str, seed: int, seconds: float) -> None:
    """cProfile one short, unmeasured drive of the workload's system."""
    import cProfile
    import pstats

    import harness
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"profile-{workload}.prof"
    profiler = cProfile.Profile()
    profiler.enable()
    workloads.run_workload(workloads.WORKLOADS[workload], seed, seconds,
                           harness.FULL, verify=False)
    profiler.disable()
    profiler.dump_stats(path)
    pstats.Stats(str(path)).sort_stats("cumulative").print_stats(20)
    print(f"wrote {path} (profiled time is not a measurement: cProfile "
          f"taxes every Python call and no native one)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--profile", metavar="WORKLOAD")
    parser.add_argument("--out", type=Path,
                        help="where the full set's results are written")
    parser.add_argument("--record", type=Path,
                        help="with --workload: also write the run's full "
                             "record (checks, ledger, environment) here")
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.compare:
        return 0 if compare(contract, load_runs(args.compare[0]),
                            load_runs(args.compare[1])) else 1

    if not (ROOT / "src" / "repro").is_dir():
        # Never measure a copy of the program found elsewhere on the path.
        raise SystemExit(f"the program under test is not in this checkout "
                         f"({ROOT / 'src' / 'repro'} is missing)")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # The throw-away spawn before the timed set-ups must be able to leave
    # the bytecode cache warm, as it is for a user of the program; else
    # every `serve` child and cluster worker recompiles its imports
    # (+0.1 s of set-up) on hosts that export this variable.  (The flag
    # is what multiprocessing hands its spawned workers as ``-B``.)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    import workloads

    names = [w["name"] for w in contract["workloads"]]
    if set(names) != set(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and perf/workloads.py disagree on "
                         "the workload names")
    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds or (0.5 if args.smoke
                               else float(contract["run_seconds"]))

    if args.profile:
        profile_workload(args.profile, args.seed, min(seconds, 3.0))
        return 0
    if args.workload:
        record = run_once(contract, args.workload, args.seed, seconds,
                          bool(args.trace), profile)
        show(record)
        if args.record:
            with open(args.record, "w") as fh:
                json.dump(record, fh)
        print(result_line(record))
        return 0 if record["correct"] and not record["failed"] else 1

    started = time.perf_counter()
    out = args.out or OUT_DIR / f"result-seed{args.seed}.json"
    records = run_set(args.seed, seconds, profile, names)
    save(records, out)
    ok = all(r["correct"] and not r["failed"] for r in records)
    if args.selfcheck:
        again = run_set(args.seed, seconds, profile, names)
        save(again, out.with_name(out.stem + "-again.json"))
        ok = ok and all(r["correct"] and not r["failed"] for r in again)
        print("\nselfcheck: second set against the first")
        ok = compare(contract, records, again) and ok
    print(f"total wall time {time.perf_counter() - started:.1f} s; "
          f"{'all checks passed' if ok else 'CHECKS FAILED'}")
    return 0 if ok else 1


# -- leaving no process behind --------------------------------------------------------

#: Set in the environment of the child that does the work.
SUPERVISED = "RUSHMON_PERF_SUPERVISED"
#: How long a process that outlived the work may take to end by itself.
ORPHAN_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def supervise(argv: list[str]) -> int:
    """Run ``main(argv)`` in a child and return its exit code only when
    every process it started has ended and has been waited for.

    The command cannot do that from inside the process that measures:
    ``ClusterMonitor`` spawns its workers through ``multiprocessing``,
    whose resource tracker ends only after the process that started it
    has, so that process always leaves the tracker running behind it.
    This one therefore becomes the parent that orphaned descendants fall
    to (``prctl(2)``), reaps them as they end, and kills what is still
    there ``ORPHAN_GRACE_S`` after the work ended — or at once when it
    is itself told to stop."""
    import ctypes
    import signal

    from measure import proc_children

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.stdout.flush()
    body = os.spawnve(os.P_NOWAIT, sys.executable,
                      [sys.executable, str(PERF / "run.py"), *argv],
                      {**os.environ, SUPERVISED: "1"})
    code = None
    try:
        while code is None:
            pid, status = os.wait()
            if pid == body:
                code = os.waitstatus_to_exitcode(status)
    finally:
        patience = time.monotonic() + (0.0 if code is None else ORPHAN_GRACE_S)
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid:
                continue
            if time.monotonic() >= patience:
                # Their own children fall to this process in turn.
                for child in proc_children(os.getpid()):
                    os.kill(child, signal.SIGKILL)
            time.sleep(0.01)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main() if SUPERVISED in os.environ
             else supervise(sys.argv[1:]))
