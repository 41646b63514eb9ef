"""Measurement primitives shared by every workload: order statistics,
per-process CPU/RSS readings, the host-speed probe, the environment block
and the span tracer."""

from __future__ import annotations

import importlib
import os
import platform
import random
import threading
import time
from collections import defaultdict

_TICKS = os.sysconf("SC_CLK_TCK")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile of a non-empty sample (no interpolation, so
    the value is one that was actually measured)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def median(values) -> float:
    return quantile(values, 0.5)


def proc_cpu_seconds(pid: int) -> tuple[float, float]:
    """(user, system) CPU seconds consumed so far by a live process."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may contain spaces; fields resume after ")".
        fields = fh.read().rsplit(")", 1)[1].split()
    return int(fields[11]) / _TICKS, int(fields[12]) / _TICKS


def proc_cpu_clock(pid: int) -> float:
    """CPU seconds (user + system, every thread, exited ones included)
    consumed so far by a live process, from the clock that
    ``clock_getcpuclockid(3)`` names: nanosecond resolution where
    ``/proc/<pid>/stat`` counts 10 ms ticks, which on a 2-second lap of
    a mostly idle server are 2.5 % of the reading each."""
    return time.clock_gettime((~pid << 3) | 2)


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def proc_children(pid: int) -> list[int]:
    """Pids whose parent is ``pid`` right now (zombies included)."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except OSError:   # ended while the directory was being read
                continue
            if int(fields[1]) == pid:
                children.append(int(entry))
    return children


def cpus() -> int:
    return len(os.sched_getaffinity(0))


# -- host speed ------------------------------------------------------------------------
#
# The recording host is a shared 2-vCPU guest whose speed moves by 20-60 %
# for minutes at a time (README, "Host speed").  Two sets of runs of the
# same code then differ by more than any bound worth having, so every run
# measures how fast the host is *while* it measures the system: a fixed
# piece of interpreter work is timed between the passes of the run, and
# the run's durations are divided by the slowdown those probes saw.

#: CPU seconds one ``reference_kernel()`` call takes on the recording host
#: when it is calm; durations are reported at this host speed.
REFERENCE_KERNEL_S = 0.0135


class _Vertex:
    __slots__ = ("succ", "pred")

    def __init__(self) -> None:
        self.succ: dict = {}
        self.pred: dict = {}


def reference_kernel(edges: int = 12_000) -> int:
    """A fixed amount of the kind of work the monitor does — the churn
    of a small conflict graph: vertex lookups, edge inserts, a 2-cycle
    test per edge, a pruning sweep now and then — written here so that
    no change under ``src/`` can move it.  Of the kernels tried, this
    one followed the serial workloads' CPU time most closely while the
    host's speed moved (README, "Host speed")."""
    rng = random.Random(2)
    graph: dict = {}
    cycles = 0
    for i in range(edges):
        a = rng.randrange(400)
        b = rng.randrange(400)
        tail = graph.get(a) or graph.setdefault(a, _Vertex())
        head = graph.get(b) or graph.setdefault(b, _Vertex())
        tail.succ[b] = i
        head.pred[a] = i
        for other in tail.pred:
            if other in head.succ:
                cycles += 1
        if not i % 2000:
            for name in list(graph)[:100]:
                gone = graph.pop(name)
                for peer in gone.succ:
                    if peer in graph:
                        graph[peer].pred.pop(name, None)
                for peer in gone.pred:
                    if peer in graph:
                        graph[peer].succ.pop(name, None)
    return cycles


class HostSpeed:
    """Probes of the host's speed, taken between the passes of one run."""

    def __init__(self, reps: int) -> None:
        self.reps = reps
        self.times: list[float] = []
        self.probe()

    def probe(self) -> None:
        """``reps`` timed kernel calls (CPU time of the calling thread,
        so waiting does not count)."""
        for _ in range(self.reps):
            began = time.thread_time()
            reference_kernel()
            self.times.append(time.thread_time() - began)

    def slowdown(self) -> float:
        """How many times slower than nominal the host ran during the
        run: the median probe against the calm host's."""
        return median(self.times) / REFERENCE_KERNEL_S


def environment(seed: int) -> dict:
    """What a reader needs to judge whether two results are comparable."""
    versions = {}
    for name in ("numpy", "orjson", "msgpack"):
        try:
            versions[name] = getattr(importlib.import_module(name),
                                     "__version__", "present")
        except ImportError:
            versions[name] = None
    return {
        "cpus": cpus(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        **versions,
    }


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``[name, start, end, parent index]``; parents are tracked
    per thread, so spans opened by different producer threads never nest
    into each other.  ``begin``/``end`` are plain method calls rather
    than a context manager to keep the recording cost per span small.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, span count): a span's duration minus
        the part of it its child spans cover."""
        child = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = total[name]
            entry[0] += (end - start) - child[index]
            entry[1] += 1
        return {name: (secs, count) for name, (secs, count) in total.items()}

    def to_json(self) -> dict:
        return {
            "workload": self.workload,
            "fields": ["name", "start", "end", "parent"],
            "spans": self.spans,
        }


def begin_span(tracer: Tracer | None, name: str) -> int:
    """Open a span if the run is traced; pair with :func:`end_span`."""
    return tracer.begin(name) if tracer else -1


def end_span(tracer: Tracer | None, index: int) -> None:
    if tracer:
        tracer.end(index)
