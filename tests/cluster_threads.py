"""In-process cluster worker incarnations for the recovery tests.

``ClusterMonitor(config, spawn=ThreadIncarnations())`` runs every worker
incarnation as a thread of the test process: the same
:class:`~repro.cluster.worker.ClusterWorker` a worker process runs, over
the same loopback TCP links, but started in microseconds, armed with a
:class:`~repro.testing.faults.FaultInjector` passed directly, and killed
in one call.  ``kill()`` resets every socket the incarnation owns, so —
like SIGKILL — it sends nothing after the kill point, and the router's
next write to it fails at once.  That is what lets a test place one
kill at a chosen control frame and get the same outcome on every run.
"""

from __future__ import annotations

import socket
import struct
import threading

from repro.cluster.worker import ClusterWorker
from repro.core.config import RushMonConfig

#: ``SO_LINGER`` on with a zero timeout: ``close()`` sends RST.
_ABORT = struct.pack("ii", 1, 0)


class ThreadIncarnation:
    """One worker incarnation running on a thread (the handle contract
    of :mod:`repro.cluster.process`: ``kill``, ``join``, ``sentinel``)."""

    def __init__(self, index, num_workers, host, port, config, faults,
                 dies) -> None:
        self.index = index
        self.worker = ClusterWorker(index, num_workers,
                                    RushMonConfig(**config), faults=faults)
        #: What ended the incarnation's ``run`` (a process would have
        #: died of it), else ``None``.
        self.error: BaseException | None = None
        self.sentinel, self._exit = socket.socketpair()
        self._thread = threading.Thread(
            target=self._run, args=(host, port, dies), daemon=True,
            name=f"incarnation-{index}")
        self._thread.start()

    def _run(self, host, port, dies) -> None:
        try:
            if not dies:
                self.worker.run(host, port)
        except Exception as exc:
            self.error = exc
        finally:
            self._exit.close()   # the sentinel reads EOF

    def kill(self) -> None:
        with self.worker._sockets_lock:
            owned = list(self.worker._sockets)
        for sock in owned:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _ABORT)
            except OSError:
                pass
        self.worker.close()

    def join(self, timeout: float | None = None) -> None:
        self._thread.join(timeout)
        if not self._thread.is_alive():
            self.sentinel.close()


class ThreadIncarnations:
    """The incarnation factory.  ``faults`` maps a worker index to the
    injector every incarnation of that worker is armed with;
    ``dies(index, n)`` says whether the ``n``-th incarnation (from 1) of
    worker ``index`` exits before it dials the router."""

    def __init__(self, faults: dict | None = None, dies=None) -> None:
        self.faults = faults or {}
        self.dies = dies or (lambda index, n: False)
        #: Every incarnation started, per worker index, in order.
        self.born: dict[int, list[ThreadIncarnation]] = {}

    def __call__(self, index, num_workers, host, port, config):
        born = self.born.setdefault(index, [])
        handle = ThreadIncarnation(index, num_workers, host, port, config,
                                   self.faults.get(index),
                                   self.dies(index, len(born) + 1))
        born.append(handle)
        return handle
