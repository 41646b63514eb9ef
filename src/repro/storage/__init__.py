"""Shared-storage substrate: history builders and the write-ahead log."""

from repro.storage.history import (
    BuuProgram,
    count_consecutive_write_pairs,
    interleaved_history,
    lifecycle_bounds,
    program,
    random_rw_permutation,
    serial_history,
)
from repro.storage.wal import LogParser, LogRecord, WriteAheadLog

__all__ = [
    "BuuProgram",
    "count_consecutive_write_pairs",
    "interleaved_history",
    "lifecycle_bounds",
    "program",
    "random_rw_permutation",
    "serial_history",
    "LogParser",
    "LogRecord",
    "WriteAheadLog",
]
