"""``check``: the exact offline isolation check of a recorded trace."""

from __future__ import annotations

import argparse
import json

from repro.checkers import CYCLE_CLASSES, GClass, check_trace
from repro.sim.traces import Trace

#: Human-readable gloss per anomaly class, for ``check`` output.
_GCLASS_GLOSS = {
    "G0": "dirty write",
    "G1a": "aborted read",
    "G1b": "intermediate read",
    "G1c": "circular information flow",
    "G-SI": "write skew",
    "G2": "anti-dependency cycle",
}


def cmd_check(args: argparse.Namespace) -> int:
    """Exact offline isolation check of a recorded trace.

    Rebuilds the full dependency graph (no sampling), reports the exact
    2-/3-cycle counts the monitor estimates, and classifies every cycle
    and bad read into the G-class taxonomy with concrete witnesses.
    Exit 0 iff the history is anomaly-free.
    """
    trace = Trace.load(args.trace)
    report = check_trace(trace, max_cycle_length=args.max_cycle_len,
                         max_witnesses=args.witnesses)
    if args.json:
        payload = {
            "operations": report.operations,
            "buus": report.buus,
            "aborted": list(report.aborted),
            "edges": {"wr": report.edges.wr, "ww": report.edges.ww,
                      "rw": report.edges.rw,
                      "distinct": report.distinct_edges},
            "cycles": {"two": report.cycles.two_cycles,
                       "three": report.cycles.three_cycles,
                       "ss": report.cycles.ss, "dd": report.cycles.dd,
                       "sss": report.cycles.sss, "ssd": report.cycles.ssd,
                       "ddd": report.cycles.ddd},
            "serializable": report.serializable,
            "anomaly_free": report.anomaly_free,
            "max_cycle_length": report.max_cycle_length,
            "counts": {g.value: n for g, n in sorted(
                report.counts.items(), key=lambda kv: kv[0].value)},
            "witnesses": {g.value: [w.pretty() for w in ws]
                          for g, ws in report.witnesses.items()},
        }
        print(json.dumps(payload, indent=2))
        return 0 if report.anomaly_free else 1

    aborted = f"   aborted: {len(report.aborted)}" if report.aborted else ""
    print(f"operations: {report.operations}   BUUs: {report.buus}{aborted}")
    print(f"edges: wr={report.edges.wr} ww={report.edges.ww} "
          f"rw={report.edges.rw} ({report.distinct_edges} distinct)")
    print(f"exact cycles: {report.cycles.two_cycles} two-cycles "
          f"(ss={report.cycles.ss} dd={report.cycles.dd}), "
          f"{report.cycles.three_cycles} three-cycles "
          f"(sss={report.cycles.sss} ssd={report.cycles.ssd} "
          f"ddd={report.cycles.ddd})")
    if report.serializable:
        print("serializable: yes")
        head = ", ".join(str(b) for b in report.serial_order[:12])
        more = "..." if len(report.serial_order) > 12 else ""
        print(f"witness serial order: {head}{more}")
    else:
        print("serializable: NO")
    if report.counts:
        print(f"anomaly classes (cycles up to length "
              f"{report.max_cycle_length}):")
        for gclass in GClass:
            count = report.counts.get(gclass, 0)
            if not count:
                continue
            gloss = _GCLASS_GLOSS[gclass.value]
            print(f"  {gclass.value} ({gloss}): {count}")
            prefix = ("violating cycle: " if gclass in CYCLE_CLASSES
                      else "")
            for witness in report.witnesses.get(gclass, ()):
                print(f"    {prefix}{witness.pretty()}")
    if report.cycles_beyond_bound:
        print(f"  violating cycle: every cycle is longer than "
              f"--max-cycle-len {report.max_cycle_length} "
              f"(raise it to witness one)")
    if report.anomaly_free:
        print("anomaly-free: yes")
        return 0
    print("anomaly-free: NO")
    return 1


def _check_flags(chk: argparse.ArgumentParser) -> None:
    chk.add_argument("trace")
    chk.add_argument("--witnesses", type=int, default=3,
                     help="max witnesses to keep per anomaly class")
    chk.add_argument("--max-cycle-len", type=int, default=4,
                     help="classify cycles up to this many edges "
                          "(2-/3-cycle counts and the serializable "
                          "verdict are exact regardless)")
    chk.add_argument("--json", action="store_true",
                     help="emit the CheckReport as JSON")
    chk.set_defaults(func=cmd_check)


FLAGS = {"check": _check_flags}
