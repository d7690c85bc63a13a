"""The unified result type returned by every execution backend.

The legacy surface returns two incompatible types -- the single engine's
:class:`~repro.engine.executor.ExplorationResult` and the clusters'
:class:`~repro.cluster.core.ClusterResult` -- with overlapping but
differently named fields, so comparing backends meant per-backend glue in
every benchmark.  :class:`RunResult` adapts both into one shape:

* common fields are first-class (paths, coverage, bugs, test cases,
  useful/replay instruction counts, exhaustion/goal flags);
* backend-specific detail is optional (``rounds_executed`` and ``timeline``
  are ``None`` for single-engine runs; ``steps`` is ``None`` for clusters);
* the original result object stays reachable through ``raw``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.core import ClusterResult
from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats
from repro.engine.errors import BugKind, BugReport
from repro.engine.executor import ExplorationResult
from repro.engine.test_case import TestCase

from repro.api.limits import ExplorationLimits

__all__ = ["RunResult"]


@dataclass
class RunResult:
    """Backend-independent summary of one exploration run."""

    backend: str
    test_name: str
    num_workers: int = 1
    paths_completed: int = 0
    covered_lines: Set[int] = field(default_factory=set)
    line_count: int = 0
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    useful_instructions: int = 0
    replay_instructions: int = 0
    exhausted: bool = False
    goal_reached: bool = False
    states_remaining: int = 0
    # Backend-specific extras (None when the backend has no such notion).
    wall_time: Optional[float] = None
    rounds_executed: Optional[int] = None
    steps: Optional[int] = None
    timeline: Optional[ClusterTimeline] = None
    worker_stats: Optional[Dict[int, WorkerStats]] = None
    states_transferred: Optional[int] = None
    #: Wire cost of path-encoded job transfers (None for single-engine runs,
    #: which never transfer; zeroed for clusters that happened not to).
    transfer_cost: Optional[TransferCost] = None
    #: Aggregated solver counters and hit rates (§6: replay rebuilds the
    #: relevant cache entries at the destination worker): constraint/cex
    #: cache hits and misses plus the independence-layer counters
    #: (``independence_groups``, ``groups_solved``, ``independence_hits``,
    #: ``unknown_cache_hits``) summed across every worker's solver.
    cache_stats: Optional[Dict[str, float]] = None
    #: Fault-tolerance counters (cluster backends; §2.3 failure model):
    #: workers that died mid-run, frontier jobs requeued to survivors, and
    #: replacement workers spawned under ``respawn=True``.
    worker_failures: int = 0
    jobs_recovered: int = 0
    respawns: int = 0
    #: Elastic-membership counters (cluster backends): workers that joined /
    #: left mid-run -- voluntarily or via ``autoscale=`` -- and the largest
    #: live membership reached.  The per-round trace is
    #: ``timeline.worker_count_series()``.
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    #: TCP-transport liveness counters (``backend="tcp"``, :mod:`repro.net`):
    #: worker deaths detected by heartbeat silence (as opposed to connection
    #: loss or a local process exit), and agents admitted into an
    #: already-running cluster -- respawn replacements plus elastic joins.
    heartbeat_misses: int = 0
    agents_reconnected: int = 0
    #: Round index of the checkpoint this run resumed from (None = fresh).
    resumed_from_round: Optional[int] = None
    #: The legacy result object this facade was adapted from.
    raw: object = None

    # -- derived metrics --------------------------------------------------------------

    @property
    def coverage_percent(self) -> float:
        if not self.line_count:
            return 0.0
        return 100.0 * len(self.covered_lines) / self.line_count

    @property
    def total_instructions(self) -> int:
        """All instructions executed, useful and replayed alike."""
        return self.useful_instructions + self.replay_instructions

    @property
    def replay_overhead(self) -> float:
        total = self.total_instructions
        return self.replay_instructions / total if total else 0.0

    @property
    def useful_instructions_per_worker(self) -> float:
        if not self.num_workers:
            return 0.0
        return self.useful_instructions / self.num_workers

    @property
    def independence_hit_rate(self) -> float:
        """Fraction of independent constraint groups answered without a
        fresh search (cache or recent-model reuse), across all workers;
        0.0 when independence partitioning was disabled."""
        return (self.cache_stats or {}).get("independence_hit_rate", 0.0)

    @property
    def worker_rounds(self) -> Optional[int]:
        """Total worker-rounds consumed (Σ live workers over rounds) -- the
        capacity bill an autoscaled run tries to keep below a fixed-size
        one's.  None when the backend keeps no timeline."""
        if self.timeline is None:
            return None
        return self.timeline.worker_rounds()

    @property
    def found_bug(self) -> bool:
        return bool(self.bugs)

    def bug_kinds(self) -> Set[BugKind]:
        return {b.kind for b in self.bugs}

    def bug_summaries(self) -> List[str]:
        return sorted({b.summary() for b in self.bugs})

    def rounds_to_coverage(self, target_percent: float) -> Optional[int]:
        """Rounds until the timeline first reached the target (None when the
        backend keeps no timeline or never reached it)."""
        if self.timeline is None:
            return None
        return self.timeline.rounds_to_coverage(target_percent)

    # -- adapters from the legacy result types ----------------------------------------

    @property
    def transfer_savings_ratio(self) -> float:
        """Prefix-sharing savings of the JobTree transfer encoding."""
        return self.transfer_cost.savings_ratio if self.transfer_cost else 0.0

    @classmethod
    def from_exploration(cls, result: ExplorationResult, *, backend: str = "single",
                         test_name: Optional[str] = None,
                         limits: Optional[ExplorationLimits] = None,
                         cache_stats: Optional[Dict[str, float]] = None) -> "RunResult":
        """Adapt a single-engine :class:`ExplorationResult`.

        ``goal_reached`` is recomputed from ``limits`` because the legacy type
        never recorded why the loop stopped.
        """
        goal = False
        if limits is not None:
            goal = limits.satisfied_by(result.paths_completed,
                                       result.coverage_percent, len(result.bugs))
        return cls(
            backend=backend,
            test_name=test_name if test_name is not None else result.program_name,
            num_workers=1,
            paths_completed=result.paths_completed,
            covered_lines=set(result.covered_lines),
            line_count=result.line_count,
            bugs=list(result.bugs),
            test_cases=list(result.test_cases),
            useful_instructions=result.instructions_executed,
            replay_instructions=0,
            exhausted=result.exhausted,
            goal_reached=goal,
            states_remaining=result.states_remaining,
            wall_time=result.wall_time,
            rounds_executed=None,
            steps=result.steps,
            timeline=None,
            worker_stats=None,
            states_transferred=None,
            transfer_cost=None,
            cache_stats=cache_stats,
            raw=result,
        )

    @classmethod
    def from_cluster(cls, result: ClusterResult, *, backend: str,
                     test_name: str) -> "RunResult":
        """Adapt a :class:`ClusterResult` from any cluster backend."""
        return cls(
            backend=backend,
            test_name=test_name,
            num_workers=result.num_workers,
            paths_completed=result.paths_completed,
            covered_lines=set(result.covered_lines),
            line_count=result.line_count,
            bugs=list(result.bugs),
            test_cases=list(result.test_cases),
            useful_instructions=result.total_useful_instructions,
            replay_instructions=result.total_replay_instructions,
            exhausted=result.exhausted,
            goal_reached=result.goal_reached,
            states_remaining=(result.timeline.snapshots[-1].total_candidates
                              if result.timeline.snapshots else 0),
            wall_time=result.wall_time,
            rounds_executed=result.rounds_executed,
            steps=None,
            timeline=result.timeline,
            worker_stats=dict(result.worker_stats),
            states_transferred=result.total_states_transferred,
            transfer_cost=result.transfer_cost,
            cache_stats=dict(result.cache_stats) if result.cache_stats else None,
            worker_failures=result.worker_failures,
            jobs_recovered=result.jobs_recovered,
            respawns=result.respawns,
            workers_added=result.workers_added,
            workers_removed=result.workers_removed,
            peak_workers=result.peak_workers,
            heartbeat_misses=result.heartbeat_misses,
            agents_reconnected=result.agents_reconnected,
            resumed_from_round=result.resumed_from_round,
            raw=result,
        )
