"""What a process imports follows what it runs (DESIGN.md §13.2).

Start-up is time nobody is monitoring: a ``serve`` child after a deploy,
a cluster worker inside the supervisor's respawn-and-replay, the
application that embeds a listener.  numpy (~0.1 s, ~12 MB), the HTTP
stack behind the exporter and ``multiprocessing`` behind the cluster are
each used by one kind of process only, and these tests keep them out of
every other kind — in fresh interpreters, asserting on what *was*
imported (numpy is installed where tier-1 runs; that is the point).
"""

import os
import re
import signal
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _loaded_after(statements):
    """``sys.modules`` of a fresh interpreter that ran ``statements``."""
    done = subprocess.run(
        [sys.executable, "-c",
         statements + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


def _offenders(loaded, forbidden):
    return sorted(name for name in loaded for banned in forbidden
                  if name == banned or name.startswith(banned + "."))


HTTP_STACK = ("http.server", "http.client", "ssl", "email.parser")


@pytest.mark.parametrize("statement, forbidden", (
    ("import repro",
     ("numpy", "multiprocessing", *HTTP_STACK, "repro.core", "repro.net",
      "repro.cluster", "repro.obs")),
    ("import repro.core",
     ("numpy", "multiprocessing", *HTTP_STACK, "repro.core.columnar",
      "repro.cluster", "repro.net")),
    ("import repro.net.server",
     ("numpy", "multiprocessing", "repro.net.client", "repro.cluster",
      "repro.obs.exporter")),
    ("import repro.net.client",          # the embedded listener
     ("numpy", "multiprocessing", *HTTP_STACK, "repro.net.server",
      "repro.net.eventloop", "repro.cluster")),
    ("import repro.cluster.worker",      # what a worker process loads
     ("numpy", *HTTP_STACK, "repro.cli", "repro.cluster.monitor",
      "repro.net.server", "repro.net.client")),
), ids=("repro", "core", "server", "client", "worker"))
def test_importing_a_layer_loads_only_what_it_runs(statement, forbidden):
    assert _offenders(_loaded_after(statement), forbidden) == []


#: ``python -m repro`` with ``sys.modules`` written to stderr at exit.
_MAIN_THEN_MODULES = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("\\n".join(sys.modules)))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_serve_start_path_imports_no_accelerator_cluster_or_http_stack():
    """The real thing: ``serve`` up to its ``listening`` line and through
    a graceful drain, then what the process had loaded by then."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _MAIN_THEN_MODULES, "serve", "--port", "0",
         "--no-trace"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        assert re.fullmatch(
            r"rushmon server listening on 127\.0\.0\.1:\d+\n", line), line
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0 and "drained." in out, err
    loaded = set(err.split())
    assert {"repro.cli", "repro.net.server", "repro.core.detector"} <= loaded
    assert _offenders(loaded, (
        "numpy", "multiprocessing", *HTTP_STACK, "repro.cluster", "repro.sim",
        "repro.bench", "repro.workloads", "repro.ml", "repro.checkers",
        "repro.net.client", "repro.core.columnar", "repro.obs.exporter",
    )) == []


def test_the_lazy_names_still_resolve_and_load_their_dependency_on_use():
    loaded = _loaded_after("""
import sys
import repro
from repro import ClusterMonitor, RushMonService, RushMon
from repro.cluster import ClusterWorker, worker_main
from repro.net import RushMonClient, RushMonServer, ProtocolError
assert "multiprocessing" in sys.modules      # the router's, now loaded
assert sorted(n for n in repro.__all__ if not hasattr(repro, n)) == []
assert "http.server" not in sys.modules
from repro.obs import MetricsExporter
assert MetricsExporter.__module__ == "repro.obs.exporter"
assert "http.server" in sys.modules

from repro.core.columnar import HAVE_NUMPY, OpBatch
from repro.core.types import Operation, OpType
assert "numpy" not in sys.modules
batch = OpBatch.from_ops([Operation(OpType.WRITE, 1, "k", 1)])
try:
    import numpy
except ImportError:
    assert not HAVE_NUMPY and type(batch.op) is list
else:                                         # the kernel's first use
    assert HAVE_NUMPY and isinstance(batch.op, numpy.ndarray)
""")
    assert "repro.cluster.monitor" in loaded
