"""Configuration for the RushMon monitor family.

:class:`RushMonConfig` is the **single construction path** for every
monitor flavour: the serial :class:`~repro.core.monitor.RushMon` reads
the sampling/detector fields, the concurrent
:class:`~repro.core.concurrent.RushMonService` additionally reads the
service fields (``detect_interval`` … ``checkpoint_path``), and the
multi-process :class:`~repro.cluster.ClusterMonitor` reads the cluster
fields (``num_workers``, ``cluster_batch``).  Fields a flavour does not
use are simply ignored, so one config object can describe a whole
deployment.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

#: Default journaled ops per journal record (service).  Big enough to
#: amortize the journal lock and the collector/detector dispatch, small
#: enough that a pass's incremental progress (crash-safe consumed-count
#: advancement) stays fine-grained.
DEFAULT_BATCH_SIZE = 256

#: Default ops buffered per worker before the cluster router flushes.
DEFAULT_CLUSTER_BATCH = 512


@dataclass
class RushMonConfig:
    """Tunables for :class:`~repro.core.monitor.RushMon` and friends.

    Attributes
    ----------
    sampling_rate:
        The paper's ``sr``: each data item is sampled with ``p = 1/sr``.
        ``1`` disables sampling (the "US" configuration).
    mob:
        Memory-optimized bookkeeping (Algorithm 2).  On by default, as in
        the paper's deployed configuration.
    pruning:
        Detector vertex-pruning strategy: ``"none"``, ``"ect"``,
        ``"distance"`` or ``"both"`` (paper default, the distance pass:
        see :mod:`repro.core.pruning`; ECT's share reads 0 under it).
    prune_interval:
        Edges between periodic pruning passes.
    resample_interval:
        Operations between chosen-item re-samples (§5.1 variance
        reduction); ``None`` disables.  The paper uses a 30-second wall
        interval; logical operations are this reproduction's clock.
    count_three_cycles:
        Disable to monitor only 2-cycles.
    seed:
        Seed for all of the monitor's internal randomness.
    num_shards:
        Key-hash partitions of a
        :class:`~repro.core.concurrent.ShardedCollector` built from this
        config (no CLI flag sets it).  The service does not read it: its
        producers share one journal and its detection pass collects
        (:mod:`repro.core.concurrent.journaled`).
    detect_interval:
        Service: seconds between background detection passes.
    journal_capacity / overflow / block_timeout:
        Service: bounded-journal backpressure (see
        :mod:`repro.core.concurrent.journaled`).
    max_restarts / restart_backoff / max_backoff:
        Service: detection-thread supervision schedule.
    batch_size:
        Service: most journaled operations per journal record, and so
        per collector call and detector batch of a detection pass.
    checkpoint_path:
        Service: where ``stop()`` writes a crash-consistent checkpoint
        after its final drain (a server's group commit writes there
        too).
    num_workers:
        Cluster: worker *processes*, each owning a key partition of
        the collector+detector (see :mod:`repro.cluster`).
    cluster_batch:
        Cluster: ops buffered per worker before the router flushes a
        frame to every worker (batching amortizes framing; every
        flush also advances the cross-worker watermarks).
    max_worker_restarts:
        Cluster: respawns allowed *per worker* before the supervisor's
        circuit breaker trips and the cluster runs DEGRADED without
        that shard (mirrors the service's ``max_restarts``).
    replay_journal_capacity:
        Cluster: control frames the router retains per worker for
        respawn-and-replay (and broadcasts each worker retains for peer
        resume).  A snapshot round runs whenever some worker's replay
        journal reaches half of it.  A respawn whose snapshot falls
        outside the retained window cannot be replayed bit-exactly and
        degrades instead.
    max_connections:
        Serving: admission-control cap on concurrent connections;
        ``None`` = unlimited.
    idle_timeout:
        Serving: seconds of connection silence before disconnect;
        ``None`` disables the idle deadline.
    drain_timeout:
        Serving: hard bound on total graceful-drain time, seconds.
    """

    sampling_rate: int = 20
    mob: bool = True
    pruning: str = "both"
    prune_interval: int = 1000
    resample_interval: int | None = None
    count_three_cycles: bool = True
    seed: int = 0
    # -- service (repro.core.concurrent.RushMonService) ----------------
    num_shards: int = 8
    detect_interval: float = 0.05
    journal_capacity: int | None = None
    overflow: str = "block"
    block_timeout: float = 5.0
    max_restarts: int = 5
    restart_backoff: float = 0.05
    max_backoff: float = 2.0
    batch_size: int = DEFAULT_BATCH_SIZE
    checkpoint_path: str | None = None
    # -- cluster (repro.cluster.ClusterMonitor) ------------------------
    num_workers: int = 4
    cluster_batch: int = DEFAULT_CLUSTER_BATCH
    max_worker_restarts: int = 3
    replay_journal_capacity: int = 4096
    # -- serving (repro.net.server.RushMonServer) ----------------------
    max_connections: int | None = None
    idle_timeout: float | None = 30.0
    drain_timeout: float = 5.0

    #: Valid ``pruning`` strategies (mirrors repro.core.pruning.make_pruner).
    PRUNING_CHOICES = ("none", "ect", "distance", "both")
    #: Valid ``overflow`` policies (mirrors journaled.OVERFLOW_POLICIES).
    OVERFLOW_CHOICES = ("block", "shed", "degrade")

    @classmethod
    def from_cli_args(cls, args: argparse.Namespace) -> "RushMonConfig":
        """Build a config from an ``argparse`` namespace.

        Understands the flag names the CLI uses (``--sampling-rate``,
        ``--no-mob``, ``--workers`` …); flags absent from
        the namespace fall back to the dataclass defaults, so every
        subcommand — whichever argument groups it registered — goes
        through this one path.
        """
        defaults = cls()

        def pick(attr: str, default):
            value = getattr(args, attr, None)
            return default if value is None else value

        # --idle-timeout 0 means "no idle deadline" on the CLI.
        idle = getattr(args, "idle_timeout", None)
        idle_timeout = defaults.idle_timeout if idle is None \
            else (idle or None)
        return cls(
            sampling_rate=pick("sampling_rate", defaults.sampling_rate),
            mob=not getattr(args, "no_mob", False),
            pruning=pick("pruning", defaults.pruning),
            seed=pick("seed", defaults.seed),
            resample_interval=getattr(args, "resample_interval", None),
            detect_interval=pick("detect_interval", defaults.detect_interval),
            journal_capacity=getattr(args, "journal_capacity", None),
            overflow=pick("overflow", defaults.overflow),
            max_restarts=pick("max_restarts", defaults.max_restarts),
            batch_size=pick("batch_size", defaults.batch_size),
            checkpoint_path=getattr(args, "checkpoint", None),
            # --workers 0 means "no cluster" on the CLI; keep the config
            # default so the value always validates.
            num_workers=getattr(args, "workers", None)
            or defaults.num_workers,
            max_worker_restarts=pick(
                "max_worker_restarts", defaults.max_worker_restarts
            ),
            replay_journal_capacity=pick(
                "replay_journal_capacity", defaults.replay_journal_capacity
            ),
            max_connections=getattr(args, "max_connections", None),
            idle_timeout=idle_timeout,
            drain_timeout=pick("drain_timeout", defaults.drain_timeout),
        )

    def __post_init__(self) -> None:
        if not isinstance(self.sampling_rate, int) or isinstance(
            self.sampling_rate, bool
        ):
            raise ValueError(
                f"sampling_rate must be an int, got "
                f"{type(self.sampling_rate).__name__}"
            )
        if self.sampling_rate < 1:
            raise ValueError(
                f"sampling_rate must be >= 1 (p = 1/sr), got "
                f"{self.sampling_rate}"
            )
        if not isinstance(self.prune_interval, int) or isinstance(
            self.prune_interval, bool
        ):
            raise ValueError(
                f"prune_interval must be an int, got "
                f"{type(self.prune_interval).__name__}"
            )
        if self.prune_interval < 1:
            raise ValueError(
                f"prune_interval must be > 0 edges between pruning passes, "
                f"got {self.prune_interval}"
            )
        if self.resample_interval is not None and (
            not isinstance(self.resample_interval, int)
            or isinstance(self.resample_interval, bool)
            or self.resample_interval < 1
        ):
            raise ValueError(
                f"resample_interval must be >= 1 operations or None, got "
                f"{self.resample_interval!r}"
            )
        if self.pruning not in self.PRUNING_CHOICES:
            raise ValueError(
                f"pruning must be one of {self.PRUNING_CHOICES}, got "
                f"{self.pruning!r}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(
                f"seed must be an int, got {type(self.seed).__name__}"
            )
        # -- service fields (validated here so RushMonService can trust
        # -- any config object it is handed) -----------------------------
        if not isinstance(self.num_shards, int) or isinstance(
            self.num_shards, bool
        ) or self.num_shards < 1:
            raise ValueError(
                f"num_shards must be an integer >= 1 key-hash partitions, "
                f"got {self.num_shards!r}"
            )
        if self.detect_interval <= 0:
            raise ValueError("detect_interval must be > 0")
        if self.journal_capacity is not None and (
            not isinstance(self.journal_capacity, int)
            or isinstance(self.journal_capacity, bool)
            or self.journal_capacity < 1
        ):
            raise ValueError(
                f"journal_capacity must be an integer >= 1 buffered events, "
                f"or None for unbounded, got {self.journal_capacity!r}"
            )
        if self.overflow not in self.OVERFLOW_CHOICES:
            raise ValueError(
                f"overflow must be one of {self.OVERFLOW_CHOICES}, got "
                f"{self.overflow!r}"
            )
        if self.block_timeout <= 0:
            raise ValueError(
                f"block_timeout must be > 0 seconds, got "
                f"{self.block_timeout!r}"
            )
        if not isinstance(self.batch_size, int) or isinstance(
            self.batch_size, bool
        ) or self.batch_size < 1:
            raise ValueError(
                f"batch_size must be an integer >= 1 (journaled ops per "
                f"journal record, collected as one batch by the "
                f"detection pass), got {self.batch_size!r}; the default "
                f"{DEFAULT_BATCH_SIZE} suits most workloads"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.restart_backoff <= 0 or self.max_backoff <= 0:
            raise ValueError("restart_backoff and max_backoff must be > 0")
        # -- cluster fields ----------------------------------------------
        if not isinstance(self.num_workers, int) or isinstance(
            self.num_workers, bool
        ) or self.num_workers < 1:
            raise ValueError(
                f"num_workers must be an integer >= 1 worker process, got "
                f"{self.num_workers!r}"
            )
        if not isinstance(self.cluster_batch, int) or isinstance(
            self.cluster_batch, bool
        ) or self.cluster_batch < 1:
            raise ValueError(
                f"cluster_batch must be an integer >= 1 ops buffered per "
                f"worker between router flushes, got {self.cluster_batch!r}"
            )
        if not isinstance(self.max_worker_restarts, int) or isinstance(
            self.max_worker_restarts, bool
        ) or self.max_worker_restarts < 0:
            raise ValueError(
                f"max_worker_restarts must be an integer >= 0 respawns per "
                f"worker before the circuit breaker trips, got "
                f"{self.max_worker_restarts!r}"
            )
        if not isinstance(self.replay_journal_capacity, int) or isinstance(
            self.replay_journal_capacity, bool
        ) or self.replay_journal_capacity < 1:
            raise ValueError(
                f"replay_journal_capacity must be an integer >= 1 retained "
                f"control frames per worker, got "
                f"{self.replay_journal_capacity!r}"
            )
        # -- serving fields ----------------------------------------------
        if self.max_connections is not None and (
            not isinstance(self.max_connections, int)
            or isinstance(self.max_connections, bool)
            or self.max_connections < 1
        ):
            raise ValueError(
                f"max_connections must be an integer >= 1 concurrent "
                f"connections, or None for unlimited, got "
                f"{self.max_connections!r}"
            )
        if self.idle_timeout is not None and self.idle_timeout <= 0:
            raise ValueError(
                f"idle_timeout must be > 0 seconds, or None to disable "
                f"the idle deadline, got {self.idle_timeout!r}"
            )
        if self.drain_timeout <= 0:
            raise ValueError(
                f"drain_timeout must be > 0 seconds of total graceful-"
                f"drain budget, got {self.drain_timeout!r}"
            )
