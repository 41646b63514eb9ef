"""Extension bench: serial vs. service monitored throughput (ops/sec).

Not a paper figure — the paper's overhead numbers come from a 32/128-core
C++ deployment — but the reproduction's concurrent service needs the
same question answered at its own scale: what does monitoring cost when
N real threads feed the concurrent service, relative to the serial
monitor?  See ``repro.bench.threads`` for the CPython/GIL caveat.
"""

from repro.bench.harness import scale
from repro.bench.threads import run_thread_scaling


def test_thread_scaling(benchmark):
    def run():
        return run_thread_scaling(
            thread_counts=(1, 2, 4, 8),
            buus=scale(3000),
            keys=256,
            touch=3,
            sampling_rate=4,
            seed=0,
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rows[0]["mode"] == "serial"
    assert all(row["ops_per_sec"] > 0 for row in rows)
    # Every mode must have monitored the full workload.
    ops = {row["ops"] for row in rows}
    assert len(ops) == 1
