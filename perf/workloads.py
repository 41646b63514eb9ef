"""The five workloads: which system, which input family, which config.
Why each exists is recorded beside its name in ``BENCHMARK.json``."""

from __future__ import annotations

import gen
from harness import Outcome, Profile, Spec
from measure import Tracer
from repro.core import RushMonConfig
from sut_cluster import run_cluster
from sut_serial import run_serial
from sut_service import run_service
from sut_wire import run_wire

DEFAULTS = RushMonConfig()
WORKLOADS = {spec.name: spec for spec in (
    Spec("serial_exact", "serial", gen.HOT,
         RushMonConfig(sampling_rate=1, mob=False)),
    Spec("serial_sampled", "serial", gen.WIDE, DEFAULTS),
    Spec("service_paced", "service", gen.WIDE, DEFAULTS),
    Spec("wire_mixed", "wire", gen.WIDE, DEFAULTS),
    Spec("cluster_closed", "cluster", gen.WIDE, DEFAULTS),
)}

RUNNERS = {"serial": run_serial, "service": run_service,
           "wire": run_wire, "cluster": run_cluster}


def run_workload(spec: Spec, seed: int, seconds: float, profile: Profile,
                 tracer: Tracer | None = None, system: str | None = None,
                 verify: bool = True) -> Outcome:
    """Drive ``spec``'s input and config through its own system, or —
    for the traced run's layer legs — through another one."""
    return RUNNERS[system or spec.system](spec, seed, seconds, profile,
                                          tracer, verify)
