"""RushMon observability: metrics registry, instrumentation, exposition.

The paper's headline claim is real-time monitoring at ~1% overhead; this
package lets the reproduction *measure itself* making that claim —
counters/gauges/histograms (:mod:`repro.obs.metrics`), callback-based
component wiring (:mod:`repro.obs.instrument`) and an opt-in
Prometheus-style HTTP endpoint (:mod:`repro.obs.exporter`).  The
companion overhead harness is ``python -m repro bench-overhead``.
"""

from repro.obs.exporter import MetricsExporter
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
