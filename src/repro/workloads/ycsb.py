"""A YCSB-style configurable key-value workload.

The paper's motivating class includes "a transaction in a weak
consistent key-value database" (§2.2).  This module provides the
standard benchmark shape for that: a mix of reads, blind updates and
read-modify-writes over a keyspace with Zipfian skew — hot keys are
where conflicts, and therefore anomalies, concentrate.

The Zipfian generator is the rejection-inversion-free classic from the
original YCSB paper (Gray et al.'s algorithm): O(1) per sample after a
small precomputation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.sim.buu import Buu


class ZipfianGenerator:
    """Zipfian-distributed integers in [0, n) (YCSB's generator).

    ``theta`` is the skew: 0 < theta < 1; larger means more skew toward
    small ranks.  theta -> 0 approaches uniform.
    """

    def __init__(self, n: int, theta: float = 0.99,
                 rng: random.Random | None = None) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < theta < 1.0:
            raise ValueError("theta must be in (0, 1)")
        self.n = n
        self.theta = theta
        self._rng = rng or random.Random(0)
        self._zetan = self._zeta(n, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self._zeta2 / self._zetan
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / i**theta for i in range(1, n + 1))

    def next(self) -> int:
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.n * (self._eta * u - self._eta + 1.0) ** self._alpha)

    def sample(self, count: int) -> list[int]:
        return [self.next() for _ in range(count)]


@dataclass
class YcsbConfig:
    """Workload mix, YCSB style.

    ``read``/``update``/``rmw`` proportions must sum to 1.  ``update``
    is a blind write; ``rmw`` reads then writes the same key — the
    conflict-prone primitive.  ``records`` is the keyspace size,
    ``keys_per_txn`` how many keys one BUU touches.
    """

    records: int = 1000
    keys_per_txn: int = 2
    read: float = 0.5
    update: float = 0.0
    rmw: float = 0.5
    theta: float = 0.9
    seed: int = 0

    def __post_init__(self) -> None:
        total = self.read + self.update + self.rmw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mix must sum to 1, got {total}")
        if self.records < 1 or self.keys_per_txn < 1:
            raise ValueError("records and keys_per_txn must be >= 1")
        if self.keys_per_txn > self.records:
            raise ValueError("keys_per_txn cannot exceed records")


class YcsbWorkload:
    """BUU factory for the configured mix over a Zipfian keyspace."""

    def __init__(self, config: YcsbConfig | None = None) -> None:
        self.config = config or YcsbConfig()
        self._rng = random.Random(self.config.seed)
        self._zipf = ZipfianGenerator(self.config.records, self.config.theta,
                                      random.Random(self.config.seed + 1))

    @property
    def items(self) -> list[str]:
        return [self._key(i) for i in range(self.config.records)]

    def _key(self, record: int) -> str:
        return f"user{record}"

    def _pick_keys(self) -> list[str]:
        chosen: set[int] = set()
        guard = 0
        while len(chosen) < self.config.keys_per_txn and guard < 1000:
            chosen.add(self._zipf.next())
            guard += 1
        while len(chosen) < self.config.keys_per_txn:
            chosen.add(self._rng.randrange(self.config.records))
        return [self._key(r) for r in chosen]

    def make_buu(self) -> Buu:
        keys = self._pick_keys()
        roll = self._rng.random()
        if roll < self.config.read:
            return Buu(reads=keys, compute=lambda values: {})
        if roll < self.config.read + self.config.update:
            value = self._rng.random()
            return Buu(reads=[],
                       compute=lambda values, v=value, ks=keys: {
                           k: v for k in ks
                       },
                       writes_hint=keys)
        return Buu(reads=keys,
                   compute=lambda values, ks=keys: {
                       k: (values.get(k) or 0) + 1 for k in ks
                   })

    def buus(self, count: int) -> Iterator[Buu]:
        for _ in range(count):
            yield self.make_buu()
