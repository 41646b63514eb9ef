"""What a process imports follows what it runs (DESIGN.md §13.2).

Start-up is time nobody is monitoring: a ``serve`` child after a deploy,
a cluster worker inside the supervisor's respawn-and-replay, the
application that embeds a listener.  numpy (~0.1 s, ~12 MB) and
``multiprocessing`` behind the cluster are each used by one kind of
process only, and these tests keep them out of every other kind; the
HTTP stack (the exporter speaks its HTTP on ``socketserver``) and
``logging`` (imported by the first failure logged) are loaded by none —
in fresh interpreters, asserting on what *was* imported (numpy is
installed where tier-1 runs; that is the point).
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request

import pytest

from repro.cli import _VERBS
from repro.net import protocol

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
     ("numpy", "multiprocessing", *HTTP_STACK, "logging",
      "repro.core.columnar", "repro.core.controller",
      "repro.core.prediction", "repro.core.concurrent.sharded",
      "repro.core.frontier", "repro.cluster", "repro.net")),
    ("import repro.net.server",
     ("numpy", "multiprocessing", "logging", "repro.net.client",
      "repro.cluster", "repro.obs.exporter", "repro.core.controller",
      "repro.core.concurrent.sharded")),
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
        [sys.executable, "-c", _MAIN_THEN_MODULES, "serve", "--port", "0"],
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
    assert {"repro.cli", "repro.cli.serve", "repro.net.server",
            "repro.core.detector"} <= loaded
    assert _offenders(loaded, (
        "numpy", "multiprocessing", *HTTP_STACK, "repro.cluster", "repro.sim",
        "repro.bench", "repro.workloads", "repro.ml", "repro.checkers",
        "repro.net.client", "repro.core.columnar", "repro.obs.exporter",
        # every other verb family (``emit`` alone would bring repro.sim
        # and repro.net.client)
        *{f"repro.cli.{family}" for _, family in _VERBS.values()
          if family != "serve"},
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
from repro.obs import MetricsExporter, MetricsRegistry
assert MetricsExporter.__module__ == "repro.obs.exporter"
MetricsExporter(MetricsRegistry()).start().stop()
assert [name for name in ("http.server", "http.client", "email.parser", "ssl")
        if name in sys.modules] == []

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


def test_every_core_name_resolves_to_its_defining_module():
    """``repro.core`` and ``repro.core.concurrent`` re-export lazily; each
    advertised name is the object its module defines."""
    _loaded_after("""
import importlib
import repro.core, repro.core.concurrent
for package in (repro.core, repro.core.concurrent):
    for name in package.__all__:
        value = getattr(package, name)
        home = getattr(value, "__module__", None)
        if home is not None and home.startswith("repro."):
            assert getattr(importlib.import_module(home), name) is value, name
""")


#: ``python -m repro`` that writes ``sys.modules`` to ``<dir>/<n>`` on
#: its n-th SIGUSR1 (numbered from 0), the first argument being ``<dir>``.
_MAIN_DUMPING_MODULES = """
import os, signal, sys
where, dumps = sys.argv.pop(1), []
def _dump(signum, frame):
    path = os.path.join(where, str(len(dumps)))
    dumps.append(path)
    with open(path + ".part", "w") as out:
        out.write("\\n".join(sys.modules))
    os.replace(path + ".part", path)
signal.signal(signal.SIGUSR1, _dump)
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _modules_of(proc, path):
    proc.send_signal(signal.SIGUSR1)
    deadline = time.monotonic() + 30
    while not path.exists():
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)
    return set(path.read_text().split())


def test_serve_with_an_exporter_loads_no_http_stack_logging_or_unused_core(
        tmp_path):
    """The start the ledger's ``wire_mixed`` times: ``serve`` with
    ``--export-port 0``, read at its ``listening`` line and again after a
    client's hello was welcomed.  The exporter answers on ``socketserver``;
    ``logging`` waits for a failure to log; ``repro.core`` loads what the
    service runs."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _MAIN_DUMPING_MODULES, str(tmp_path), "serve",
         "--port", "0", "--export-port", "0"],
        env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        exported = re.fullmatch(
            r"metrics exported at (http://127\.0\.0\.1:\d+)/metrics\n",
            proc.stdout.readline())
        listening = re.fullmatch(
            r"rushmon server listening on 127\.0\.0\.1:(\d+)\n",
            proc.stdout.readline())
        assert exported and listening
        at_listening = _modules_of(proc, tmp_path / "0")
        with socket.create_connection(("127.0.0.1", int(listening[1])),
                                      timeout=10) as client:
            client.sendall(protocol.encode_frame(protocol.hello("s", 0)))
            reader, replies = protocol.FrameReader(), []
            while not replies:
                replies = list(reader.feed(client.recv(65536)))
            assert replies[0]["type"] == "welcome"
            after_welcome = _modules_of(proc, tmp_path / "1")
        with urllib.request.urlopen(f"{exported[1]}/metrics.json",
                                    timeout=10) as reply:
            assert "rushmon_net_frames_total" in json.load(reply)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode == 0 and "drained." in out, err
    for loaded in (at_listening, after_welcome):
        assert {"repro.obs.exporter", "repro.net.server",
                "repro.core.concurrent.service"} <= loaded
        assert _offenders(loaded, (
            *HTTP_STACK, "logging", "repro.core.controller",
            "repro.core.concurrent.sharded")) == []
