"""Worker incarnations as ``spawn`` processes — the only module of
:mod:`repro.cluster` that imports :mod:`multiprocessing`.

:class:`~repro.cluster.ClusterMonitor` takes an *incarnation factory*,
``spawn(index, num_workers, host, port, config) -> handle``, whose
incarnation of worker ``index`` dials the router at ``host:port``.  The
router uses three things of a handle: ``kill()`` (end it at once, so it
sends nothing more; a no-op once it has exited), ``join(timeout)``, and
``sentinel``, which :mod:`selectors` can wait on and which turns
readable when the incarnation exits.  Death itself needs no handle: a
dead incarnation's control link reads EOF.  :class:`WorkerProcess` is
the default factory (``spawn`` start method — no inherited locks or
sockets — and daemon children).
"""

from __future__ import annotations

import multiprocessing

from repro.cluster.worker import ClusterWorker
from repro.core.config import RushMonConfig

__all__ = ["WorkerProcess", "worker_main"]


def worker_main(index: int, num_workers: int, host: str, port: int,
                config: dict) -> None:
    """Entry point of a worker process (top-level importable for the
    ``spawn`` start method): build the engine and serve."""
    ClusterWorker(index, num_workers, RushMonConfig(**config)).run(host, port)


class WorkerProcess:
    """One worker incarnation as a ``spawn`` child process."""

    def __init__(self, index: int, num_workers: int, host: str, port: int,
                 config: dict) -> None:
        self.index = index
        self._proc = multiprocessing.get_context("spawn").Process(
            target=worker_main,
            args=(index, num_workers, host, port, config),
            daemon=True,
            name=f"rushmon-cluster-{index}",
        )
        self._proc.start()
        self.sentinel = self._proc.sentinel

    def kill(self) -> None:
        """SIGKILL the process."""
        self._proc.kill()

    def join(self, timeout: float | None = None) -> None:
        self._proc.join(timeout)
