"""The one result type: what every ``run()`` returns.

The paper measures every configuration -- "1-worker Cloud9" (KLEE) and an
N-worker cluster alike -- with the same metrics (§7.2: time to goal, useful
instructions), so one class describes one run, built directly by
:meth:`repro.engine.executor.SymbolicExecutor.run` and by
:meth:`repro.distrib.coordinator.Coordinator.run` under every cluster
backend.  Common fields are first-class; backend-specific detail is
optional (``rounds_executed``, ``timeline``, ``worker_stats``,
``states_transferred`` and ``transfer_cost`` are ``None`` for single-engine
runs, ``steps`` is ``None`` for clusters).

Like :mod:`repro.engine.limits`, the module lives under :mod:`repro.engine`
so every layer can import it (the cluster-only field types are named for
the type checker only);
:meth:`repro.testing.symbolic_test.SymbolicTest.run` stamps a cluster's
result with the test's name through :meth:`RunResult.from_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.engine.errors import BugKind, BugReport
from repro.engine.test_case import TestCase

if TYPE_CHECKING:  # pragma: no cover - the cluster layer imports the engine
    from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats

__all__ = ["RunResult", "dedupe_bugs"]


def dedupe_bugs(bugs: Sequence[BugReport]) -> List[BugReport]:
    """One report per distinct defect (kind, message, function, line), in
    first-seen order: many paths reach the same bug, and a run reports it
    once (each path's inputs stay in ``test_cases``)."""
    seen: Set[Tuple[object, ...]] = set()
    unique: List[BugReport] = []
    for bug in bugs:
        key = (bug.kind, bug.message, bug.function, bug.line)
        if key not in seen:
            seen.add(key)
            unique.append(bug)
    return unique


@dataclass
class RunResult:
    """Backend-independent summary of one exploration run."""

    backend: str
    test_name: str
    num_workers: int = 1
    paths_completed: int = 0
    #: The explorer's lines on one engine; on a cluster, the coordinator's
    #: coverage overlay, which the round records and the goal read too.
    covered_lines: Set[int] = field(default_factory=set)
    line_count: int = 0
    #: Distinct defects (:func:`dedupe_bugs`), the same on every backend.
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    useful_instructions: int = 0
    replay_instructions: int = 0
    #: No candidate states were left when the run stopped.
    exhausted: bool = False
    #: A goal of the run's limits (``max_paths``, ``coverage_target``,
    #: ``stop_on_first_bug``) was met when it stopped; a spent budget is not
    #: a goal.  Independent of ``exhausted``: both can hold.
    goal_reached: bool = False
    states_remaining: int = 0
    # Real elapsed seconds (cluster rounds are virtual time; wall-clock
    # speedup across worker processes is only visible here).
    wall_time: Optional[float] = None
    # Backend-specific extras (None when the backend has no such notion).
    rounds_executed: Optional[int] = None
    steps: Optional[int] = None
    timeline: Optional[ClusterTimeline] = None
    worker_stats: Optional[Dict[int, WorkerStats]] = None
    states_transferred: Optional[int] = None
    #: Wire cost of path-encoded job transfers (None for single-engine runs,
    #: which never transfer; zeroed for clusters that happened not to).
    transfer_cost: Optional[TransferCost] = None
    #: Coordinator traffic: balancing decisions brokered and commands sent.
    transfer_commands: int = 0
    messages_sent: int = 0
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
    #: Last-known counters of workers that died mid-run (their final results
    #: were lost; survivors re-explored their territory, so these are kept
    #: separate from the totals to avoid double counting).
    failed_worker_stats: Dict[int, WorkerStats] = field(default_factory=dict)
    #: Elastic-membership counters (cluster backends): workers that joined /
    #: left mid-run through ``add_worker`` / ``remove_worker``, and the
    #: largest live membership reached.  Each round's live count is its
    #: snapshot's ``num_workers`` on ``timeline``.
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    #: TCP-transport liveness (``backend="tcp"``, :mod:`repro.net`): worker
    #: deaths detected by heartbeat silence (as opposed to connection loss
    #: or a local process exit).  Agents admitted into an already-running
    #: cluster are ``workers_added + respawns``.
    heartbeat_misses: int = 0
    #: Round index of the checkpoint this run resumed from (None = fresh).
    resumed_from_round: Optional[int] = None

    @classmethod
    def from_cluster(cls, result: "RunResult", *, backend: str,
                     test_name: str) -> "RunResult":
        """Label a coordinator's result with the backend name and the
        test it ran (a coordinator knows its carrier and spec, not
        ``test.name``)."""
        result.backend = backend
        result.test_name = test_name
        return result

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
    def independence_hit_rate(self) -> float:
        """Fraction of independent constraint groups answered without a
        fresh search (cache or recent-model reuse), across all workers;
        0.0 when independence partitioning was disabled."""
        return (self.cache_stats or {}).get("independence_hit_rate", 0.0)

    @property
    def transfer_savings_ratio(self) -> float:
        """Prefix-sharing savings of the JobTree transfer encoding."""
        return self.transfer_cost.savings_ratio if self.transfer_cost else 0.0

    @property
    def found_bug(self) -> bool:
        return bool(self.bugs)

    def bug_kinds(self) -> Set[BugKind]:
        return {b.kind for b in self.bugs}

    def bug_summaries(self) -> List[str]:
        return sorted({b.summary() for b in self.bugs})

    def summary(self) -> Dict[str, Any]:
        """The ``run_finished`` trace payload on every backend (``rounds``
        is None on a single engine, ``steps`` on a cluster)."""
        return dict(
            rounds=self.rounds_executed, steps=self.steps,
            paths=self.paths_completed, coverage_percent=self.coverage_percent,
            bugs=len(self.bugs), useful=self.useful_instructions,
            replay=self.replay_instructions, exhausted=self.exhausted,
            goal_reached=self.goal_reached, wall_time=self.wall_time)

    def rounds_to_coverage(self, target_percent: float) -> Optional[int]:
        """Rounds until the timeline first reached the target (None when the
        backend keeps no timeline or never reached it)."""
        if self.timeline is None:
            return None
        return next((snap.round_index for snap in self.timeline.snapshots
                     if snap.coverage_percent >= target_percent), None)
