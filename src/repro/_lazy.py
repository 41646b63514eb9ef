"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package's public names stay importable from the package, but the
module that defines one is imported by the first access to it — so
``import repro`` (paid by every cluster worker, every ``serve`` child
and every application that embeds a listener) loads what that process
uses, not ``multiprocessing`` and the cluster for a process that never
builds a ``ClusterMonitor`` (DESIGN.md §13.2).  :func:`logger` does the
same for ``logging``, which only a failure uses.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import logging


def lazy_exports(namespace: dict, exports: dict[str, str]):
    """The module-level ``__getattr__`` of the package whose ``globals()``
    is ``namespace``.  ``exports`` maps each public name to the module
    that defines it; the first access imports that module and stores the
    value in the namespace, so later accesses never reach this function."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    return __getattr__


def logger(name: str) -> logging.Logger:
    """``logging.getLogger(name)``, with ``logging`` imported by the first
    call.  A module logs only when something fails, and ``logging`` costs
    every ``serve`` start ~5 ms that a healthy run never uses."""
    import logging

    return logging.getLogger(name)
