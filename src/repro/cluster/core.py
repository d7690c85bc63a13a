"""The coordinator's contract: what goes in (the configs).

The coordinator itself -- the one implementation of the paper's §3 round
protocol -- lives a layer up, in :mod:`repro.distrib.coordinator`, because
it speaks :mod:`repro.distrib.messages` over a
:class:`repro.net.transport.Transport`.  This module holds the plain data
both sides of that boundary share: :class:`ClusterConfig` (the knobs every
carrier understands; :class:`~repro.distrib.cluster.ProcessClusterConfig`
and :class:`~repro.distrib.cluster.TcpClusterConfig` add the process and
socket ones) and :class:`StaticPartitionConfig` (the §2
strawman as a policy on the same coordinator).  What comes out is the
:class:`~repro.engine.result.RunResult` every backend returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["ClusterConfig", "StaticPartitionConfig"]


@dataclass
class ClusterConfig:
    """Configuration of a Cloud9 cluster, whatever carries its messages."""

    num_workers: int = 2
    instructions_per_round: int = 500
    balance_interval: int = 1
    delta: float = 1.0
    # None = "resolve at build time": a SymbolicTest substitutes its own
    # strategy, a bare cluster falls back to DEFAULT_STRATEGY.  (A concrete
    # default here used to silently override the test's strategy.)
    strategy: Optional[str] = None
    # Disable load balancing from this round on (None = never; 0 = the
    # cluster never balances): Fig. 13.
    disable_balancing_after_round: Optional[int] = None
    #: Write a :class:`~repro.cluster.checkpoint.ClusterCheckpoint` every N
    #: rounds (None = never).  The latest checkpoint is kept on the cluster
    #: (``last_checkpoint``) and, when ``checkpoint_path`` is set, saved to
    #: that file so a killed run can resume via ``run(resume_from=...)``.
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    #: Bind a read-only live-status endpoint (:mod:`repro.obs.status`) on
    #: this ``host:port`` for the duration of the run (``"127.0.0.1:0"``
    #: picks a free port; see ``cluster.status_address``).  None = no server.
    status_listen: Optional[str] = None
    # The failure policy (§2.3), the same under every carrier.
    #: Seconds to keep waiting for a reply from a member already known dead
    #: (a drain grace for replies still in the channel).  A *live* member is
    #: waited on indefinitely -- a big ``instructions_per_round``
    #: legitimately takes long; bound total time with
    #: ``ExplorationLimits.max_wall_time`` instead.
    reply_timeout: float = 30.0
    #: Total member failures tolerated before the run raises
    #: ``WorkerProcessError``.  ``None`` (the default) tolerates any number
    #: as long as at least one member survives or can be respawned; ``0``
    #: ends the run on the first failure.
    max_worker_failures: Optional[int] = None
    #: Launch a replacement for every dead member, keeping the cluster at
    #: its configured size through worker churn.
    respawn: bool = False
    #: Seconds granted to a member at each escalation step of teardown
    #: (cooperative join, then terminate, then kill).
    shutdown_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.instructions_per_round < 1:
            raise ValueError("instructions_per_round must be positive")
        if self.balance_interval < 1:
            raise ValueError("balance_interval must be positive")
        if not 0 < self.delta < math.inf:  # NaN fails both comparisons
            raise ValueError("delta must be positive and finite")
        if (self.disable_balancing_after_round or 0) < 0:
            raise ValueError("disable_balancing_after_round must be "
                             "non-negative (or None)")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be positive (or None)")
        if self.checkpoint_path is not None and self.checkpoint_every is None:
            raise ValueError("checkpoint_path needs checkpoint_every: "
                             "without it no checkpoint is ever written")
        if self.reply_timeout <= 0:
            raise ValueError("reply_timeout must be positive")
        if self.shutdown_timeout <= 0:
            raise ValueError("shutdown_timeout must be positive")
        if self.max_worker_failures is not None and self.max_worker_failures < 0:
            raise ValueError("max_worker_failures must be non-negative")


@dataclass
class StaticPartitionConfig(ClusterConfig):
    """The static-partitioning baseline: the same cluster, never balanced."""

    disable_balancing_after_round: Optional[int] = 0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.disable_balancing_after_round != 0:
            raise ValueError("static partitioning never balances; use "
                             "ClusterConfig for a balanced cluster")
