"""Shared-storage substrate: the monitor checkpoint format
(:mod:`repro.storage.wal`)."""

__all__: list[str] = []
