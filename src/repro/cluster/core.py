"""The coordinator's contract: what goes in (configs) and what comes out.

The coordinator itself -- the one implementation of the paper's §3 round
protocol -- lives a layer up, in :mod:`repro.distrib.coordinator`, because
it speaks :mod:`repro.distrib.messages` over a
:class:`repro.net.transport.Transport`.  This module holds the plain data
both sides of that boundary share: :class:`ClusterConfig` (the knobs every
carrier understands; :class:`~repro.distrib.cluster.ProcessClusterConfig`
adds the process/socket ones), :class:`StaticPartitionConfig` (the §2
strawman as a policy on the same coordinator) and :class:`ClusterResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.autoscale import AutoscalePolicy
from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats
from repro.engine.errors import BugReport
from repro.engine.test_case import TestCase

__all__ = ["ClusterConfig", "StaticPartitionConfig", "ClusterResult",
           "_dedupe_bugs"]


@dataclass
class ClusterConfig:
    """Configuration of a Cloud9 cluster, whatever carries its messages."""

    num_workers: int = 2
    instructions_per_round: int = 500
    status_update_interval: int = 1
    balance_interval: int = 1
    delta: float = 1.0
    min_transfer: int = 1
    # None = "resolve at build time": a SymbolicTest substitutes its own
    # strategy, a bare cluster falls back to DEFAULT_STRATEGY.  (A concrete
    # default here used to silently override the test's strategy.)
    strategy: Optional[str] = None
    load_balancing_enabled: bool = True
    # Disable load balancing from this round on (None = never): Fig. 13.
    disable_balancing_after_round: Optional[int] = None
    max_rounds: int = 10_000
    #: Write a :class:`~repro.cluster.checkpoint.ClusterCheckpoint` every N
    #: rounds (None = never).  The latest checkpoint is kept on the cluster
    #: (``last_checkpoint``) and, when ``checkpoint_path`` is set, saved to
    #: that file so a killed run can resume via ``run(resume_from=...)``.
    checkpoint_every: Optional[int] = None
    checkpoint_path: Optional[str] = None
    #: Autoscaling policy driving elastic membership from the round hook
    #: (None = fixed size; ``True`` = default :class:`AutoscalePolicy`).
    #: ``num_workers`` is the *initial* size; the policy's min/max bound it
    #: from there.
    autoscale: Optional[AutoscalePolicy] = None
    #: Jobs a retiring worker hands over per round: ``remove_worker`` keeps
    #: the worker as a non-exploring *draining* member and exports at most
    #: this many jobs per round until its frontier is empty, so scale-down
    #: never stalls a round on a large frontier.
    drain_chunk: int = 16
    #: Bind a read-only live-status endpoint (:mod:`repro.obs.status`) on
    #: this ``host:port`` for the duration of the run (``"127.0.0.1:0"``
    #: picks a free port; see ``cluster.status_address``).  None = no server.
    status_listen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_workers < 1:
            raise ValueError("a cluster needs at least one worker")
        if self.instructions_per_round < 1:
            raise ValueError("instructions_per_round must be positive")
        if self.drain_chunk < 1:
            raise ValueError("drain_chunk must be positive")
        self.autoscale = AutoscalePolicy.coerce(self.autoscale)


@dataclass
class StaticPartitionConfig(ClusterConfig):
    """The static-partitioning baseline: the same cluster, never balanced."""

    load_balancing_enabled: bool = False
    # How many partitions to carve out per worker during the bootstrap split.
    partitions_per_worker: int = 1
    # Hard limit on the bootstrap exploration itself.
    max_bootstrap_steps: int = 2_000

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.load_balancing_enabled:
            raise ValueError("static partitioning never balances; use "
                             "ClusterConfig for a balanced cluster")
        if self.partitions_per_worker < 1:
            raise ValueError("partitions_per_worker must be positive")


@dataclass
class ClusterResult:
    """Summary and timeline of one cluster run."""

    num_workers: int
    rounds_executed: int = 0
    exhausted: bool = False
    goal_reached: bool = False
    paths_completed: int = 0
    total_useful_instructions: int = 0
    total_replay_instructions: int = 0
    coverage_percent: float = 0.0
    covered_lines: Set[int] = field(default_factory=set)
    line_count: int = 0
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    worker_stats: Dict[int, WorkerStats] = field(default_factory=dict)
    timeline: ClusterTimeline = field(default_factory=ClusterTimeline)
    total_states_transferred: int = 0
    transfer_commands: int = 0
    messages_sent: int = 0
    # Real elapsed seconds of the run (rounds are virtual time; wall-clock
    # speedup across worker processes is only visible here).
    wall_time: float = 0.0
    # Wire cost of the path-encoded job transfers (prefix-sharing savings).
    transfer_cost: TransferCost = field(default_factory=TransferCost)
    # Aggregated solver-cache hit/miss counters across all worker solvers.
    cache_stats: Dict[str, float] = field(default_factory=dict)
    # Fault tolerance and elasticity (§2.3: workers may die, join and leave).
    worker_failures: int = 0
    jobs_recovered: int = 0
    respawns: int = 0
    # Last-known counters of workers that died mid-run (their final results
    # were lost; survivors re-explored their territory, so these are kept
    # separate from the totals to avoid double counting).
    failed_worker_stats: Dict[int, WorkerStats] = field(default_factory=dict)
    # Round index of the checkpoint this run resumed from (None = fresh run).
    resumed_from_round: Optional[int] = None
    # Elastic-membership accounting: workers that joined/left (voluntarily
    # or via autoscaling) and the largest live membership the run reached.
    # The per-round trace is ``timeline`` (RoundSnapshot.num_workers).
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    # TCP-transport liveness accounting (repro.net): worker deaths detected
    # by heartbeat silence specifically, and agents admitted into an
    # already-running cluster (respawn replacements + elastic joins).
    heartbeat_misses: int = 0
    agents_reconnected: int = 0

    @property
    def useful_instructions_per_worker(self) -> float:
        if not self.num_workers:
            return 0.0
        return self.total_useful_instructions / self.num_workers

    @property
    def replay_overhead(self) -> float:
        total = self.total_useful_instructions + self.total_replay_instructions
        return self.total_replay_instructions / total if total else 0.0

    def rounds_to_coverage(self, target_percent: float) -> Optional[int]:
        return self.timeline.rounds_to_coverage(target_percent)

    def bug_summaries(self) -> List[str]:
        return sorted({b.summary() for b in self.bugs})


def _dedupe_bugs(bugs: Sequence[BugReport]) -> List[BugReport]:
    seen: Set[Tuple[object, ...]] = set()
    unique: List[BugReport] = []
    for bug in bugs:
        key = (bug.kind, bug.message, bug.function, bug.line)
        if key not in seen:
            seen.add(key)
            unique.append(bug)
    return unique
