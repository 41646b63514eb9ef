"""Lightweight, thread-safe metrics primitives for RushMon's self-monitoring.

A monitor whose headline claim is "~1% overhead" must be able to account
for itself; this module is the substrate.  Three instrument kinds:

- :class:`Counter` — monotone accumulator with **per-thread cells**: each
  thread increments its own slot keyed by thread id, so the hot path is a
  single dict update with no lock (safe under the GIL: only the owning
  thread writes its cell).  ``value`` sums the cells.
- :class:`Gauge` — a point-in-time value.  Either *set* explicitly or
  backed by a zero-cost **callback** evaluated at snapshot time, which is
  how structural readings (live-graph size, journal depth, thread
  liveness) are exported without touching any hot path.
- :class:`Histogram` — bucketed latency distribution (detection-pass
  time).  Observations take a small lock; intended for low-frequency
  paths (one observation per detection pass, not per operation).

The :class:`MetricsRegistry` names and owns instruments, renders a
Prometheus text exposition (:meth:`~MetricsRegistry.render_prometheus`)
and a JSON-friendly :meth:`~MetricsRegistry.snapshot`.  Instruments are
get-or-create by name, so independent components can share a registry
without coordination.  Callback gauges are registered through
:meth:`~MetricsRegistry.defer`: a component queues the step that
registers them, and the registry runs it on its first read, so a
registry nobody reads costs its owner nothing but the queueing.

Consistency note: snapshots taken while producer threads are running are
*per-instrument* consistent but not globally atomic (cells are summed
without stopping writers).  The reconciliation tests therefore snapshot
after drain; live views tolerate the skew.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram buckets, in seconds (detection passes are ms-scale).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    """Coerce a metric name into the Prometheus grammar."""
    cleaned = _NAME_RE.sub("_", name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


class Counter:
    """Monotone counter with lock-free per-thread accumulation."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        # thread id -> that thread's partial sum.  Only the owning thread
        # mutates its cell; dict insertion is atomic under the GIL.
        self._cells: dict[int, float] = {}

    def inc(self, amount: float = 1.0) -> None:
        tid = threading.get_ident()
        cells = self._cells
        try:
            cells[tid] += amount
        except KeyError:
            cells[tid] = amount

    @property
    def value(self) -> float:
        return sum(self._cells.values())


class Gauge:
    """Point-in-time value: set explicitly, or computed by a callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 fn: Callable[[], float] | None = None) -> None:
        self.name = name
        self.help = help
        self._fn = fn
        self._value = 0.0

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed")
        self._value = float(value)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Cumulative-bucket histogram (Prometheus ``le`` convention)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be non-empty and ascending")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def value(self) -> dict:
        """JSON-friendly summary (count / sum / mean / max / buckets)."""
        with self._lock:
            cumulative = 0
            by_bound: dict[str, int] = {}
            for bound, count in zip(self.buckets, self._counts):
                cumulative += count
                by_bound[repr(bound)] = cumulative
            by_bound["+Inf"] = cumulative + self._counts[-1]
            return {
                "count": self.count,
                "sum": self.sum,
                "mean": (self.sum / self.count) if self.count else 0.0,
                "max": self.max,
                "buckets": by_bound,
            }


class MetricsRegistry:
    """Central, named registry of instruments.

    Instruments are get-or-create: asking twice for the same name returns
    the same object (and raises if the kinds conflict), so loosely
    coupled components can share one registry safely.

    Registration may be deferred (:meth:`defer`): the queued steps run on
    the registry's first read — :meth:`snapshot`, either render,
    :meth:`names`, :meth:`get` or any get-or-create — in the order they
    were queued, under the registry's lock, before the read itself.  So
    every read sees what eager registration in the same order would have
    built: the same names, kinds and help text, and the last callback
    registered under a name wins.  Instruments that hot code writes are
    created eagerly, before their owner queues anything, or creating
    them would be the first read.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Re-entrant: a deferred step registers through the public
        # get-or-create calls while the read that runs it holds the lock.
        self._lock = threading.RLock()
        self._deferred: list[tuple[Callable[..., None], tuple]] = []

    # -- registration --------------------------------------------------------

    def defer(self, step: Callable[..., None], *parts: Any) -> None:
        """Queue ``step(self, *parts)`` to run on the first read.

        ``parts`` are bound now: a step reads what its owner held when it
        queued, never an attribute looked up later.  A step that raises
        is dropped and its error reaches the read that ran it; the steps
        queued after it stay queued."""
        with self._lock:
            self._deferred.append((step, parts))

    def _run_deferred(self) -> None:
        """Run the queued steps in queue order.  Caller holds the lock."""
        while self._deferred:
            steps, self._deferred = self._deferred, []
            for i, (step, parts) in enumerate(steps):
                try:
                    step(self, *parts)
                except BaseException:
                    self._deferred[:0] = steps[i + 1:]
                    raise

    def _get_or_create(self, name: str, factory: Callable[[str], object]):
        name = _sanitize(name)
        with self._lock:
            self._run_deferred()
            existing = self._metrics.get(name)
            if existing is None:
                existing = factory(name)  # type: ignore[assignment]
                self._metrics[name] = existing  # type: ignore[assignment]
            return existing

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._get_or_create(name, lambda n: Counter(n, help))
        if not isinstance(metric, Counter):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._get_or_create(name, lambda n: Gauge(n, help))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        return metric

    def gauge_fn(self, name: str, fn: Callable[[], float],
                 help: str = "") -> Gauge:
        """Register (or replace the callback of) a callback-backed gauge."""
        metric = self._get_or_create(name, lambda n: Gauge(n, help, fn=fn))
        if not isinstance(metric, Gauge):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        metric._fn = fn
        return metric

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        metric = self._get_or_create(
            name, lambda n: Histogram(n, help, buckets)
        )
        if not isinstance(metric, Histogram):
            raise TypeError(f"{name} is already registered as {metric.kind}")
        return metric

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        name = _sanitize(name)
        with self._lock:
            self._run_deferred()
            return self._metrics.get(name)

    def names(self) -> list[str]:
        with self._lock:
            self._run_deferred()
            return sorted(self._metrics)

    # -- exposition ----------------------------------------------------------

    def snapshot(self) -> dict:
        """All instruments as a JSON-serializable ``{name: value}`` dict.

        Counters and gauges map to floats; histograms to a summary dict.
        Callback gauges are evaluated here, so a snapshot is also how
        structural readings get refreshed.
        """
        with self._lock:
            self._run_deferred()
            metrics = list(self._metrics.values())
        return {metric.name: metric.value for metric in metrics}

    def render_json(self) -> str:
        return json.dumps(self.snapshot(), sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            self._run_deferred()
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: list[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                summary = metric.value
                buckets: Mapping[str, int] = summary["buckets"]
                for bound, cumulative in buckets.items():
                    lines.append(
                        f'{metric.name}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(f"{metric.name}_sum {_fmt(summary['sum'])}")
                lines.append(f"{metric.name}_count {summary['count']}")
            else:
                lines.append(f"{metric.name} {_fmt(metric.value)}")
        return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Render a float without trailing noise (ints stay integral)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
