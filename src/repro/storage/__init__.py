"""Shared-storage substrate: the write-ahead log."""

from repro.storage.wal import LogParser, LogRecord, WriteAheadLog

__all__ = [
    "LogParser",
    "LogRecord",
    "WriteAheadLog",
]
