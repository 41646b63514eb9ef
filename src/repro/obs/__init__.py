"""RushMon observability: metrics registry, instrumentation, exposition.

The paper's headline claim is real-time monitoring at ~1% overhead; this
package lets the reproduction *measure itself* making that claim —
counters/gauges/histograms (:mod:`repro.obs.metrics`), callback-based
component wiring (:mod:`repro.obs.instrument`) and an opt-in
Prometheus-style HTTP endpoint (:mod:`repro.obs.exporter`).  The
companion overhead harness is ``python -m repro bench-overhead``.

Every monitor imports this package for its registry; only a process that
serves ``/metrics`` needs an HTTP stack, so :class:`MetricsExporter`
(``http.server`` → ``http.client``, ``ssl``, ``email``) is loaded by the
first access to the name (DESIGN.md §13.2).
"""

from repro._lazy import lazy_exports
from repro.obs.instrument import instrument_detector, instrument_serial_monitor
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsExporter",
    "DEFAULT_BUCKETS",
    "instrument_detector",
    "instrument_serial_monitor",
]

__getattr__ = lazy_exports(globals(), {
    "MetricsExporter": "repro.obs.exporter",
})
