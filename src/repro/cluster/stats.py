"""Statistics collected by workers and the cluster runtime.

The evaluation section of the paper is phrased in terms of two metrics
(§7.2): the time to reach a goal (external) and the *useful work* performed,
"measured as the number of useful (non-replay) instructions executed
symbolically" (internal).  Workers therefore keep useful and replay
instruction counters separately, and the cluster timeline records per-round
snapshots that the benchmark harness turns into the paper's figures
(7, 8, 9, 10, 12, 13).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass
class WorkerStats:
    """Per-worker counters: plain ``int`` fields the worker bumps in place.

    A copy crosses the process boundary inside every ``StatusReply``, so
    equality is the dataclass's own and the wire codec sends it field by
    field; a new per-worker counter is a field here and nothing else.
    """

    worker_id: int
    useful_instructions: int = 0
    replay_instructions: int = 0
    paths_completed: int = 0
    jobs_imported: int = 0
    jobs_exported: int = 0
    # Jobs imported as part of a dead worker's frontier recovery (a subset
    # of ``jobs_imported``; the failure model is described in §2.3).
    jobs_recovered: int = 0
    replays: int = 0
    broken_replays: int = 0
    schedule_steps: int = 0
    # Transfer-encoding cost (§3.2: jobs ship as a prefix-sharing job tree).
    transfers: int = 0
    transfer_encoded_nodes: int = 0
    transfer_naive_nodes: int = 0
    # Solver work spent inside path replay (§6: the destination worker
    # rebuilds the relevant constraint-cache entries as a side effect of
    # replay, so replay queries seed later cache/independence hits).
    replay_solver_queries: int = 0
    replay_cache_hits: int = 0

    @property
    def total_instructions(self) -> int:
        return self.useful_instructions + self.replay_instructions

    @property
    def replay_overhead(self) -> float:
        total = self.total_instructions
        return self.replay_instructions / total if total else 0.0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class TransferCost:
    """Aggregate wire cost of every job transfer in a run.

    ``encoded_nodes`` counts trie edges actually shipped (the JobTree
    encoding); ``naive_nodes`` counts what shipping each path separately
    would have cost.  The difference is the prefix-sharing savings the paper
    claims for path-encoded job transfers (§3.2).
    """

    transfers: int = 0
    jobs: int = 0
    encoded_nodes: int = 0
    naive_nodes: int = 0

    @property
    def savings_ratio(self) -> float:
        """Fraction of naive wire cost avoided by the trie encoding."""
        if not self.naive_nodes:
            return 0.0
        return 1.0 - self.encoded_nodes / self.naive_nodes

    @classmethod
    def from_worker_stats(cls, stats: Iterable[WorkerStats]) -> "TransferCost":
        total = cls()
        for s in stats:
            total.transfers += s.transfers
            total.jobs += s.jobs_exported
            total.encoded_nodes += s.transfer_encoded_nodes
            total.naive_nodes += s.transfer_naive_nodes
        return total


@dataclass
class RoundSnapshot:
    """One entry of the cluster timeline (one virtual-time round)."""

    round_index: int
    queue_lengths: Dict[int, int]
    total_candidates: int
    states_transferred: int
    useful_instructions: int
    replay_instructions: int
    covered_lines: int
    coverage_percent: float
    paths_completed: int
    bugs_found: int
    load_balancing_enabled: bool
    #: Live (exploring) workers this round -- the elastic-membership trace.
    #: 0 on snapshots from before the field existed.
    num_workers: int = 0
    #: Monotonic seconds since the run started when the round closed, so the
    #: per-round series (worker counts, coverage) can be plotted against
    #: wall time.  0.0 on snapshots from before the field existed.
    elapsed: float = 0.0

    @property
    def transfer_fraction(self) -> float:
        """Fraction of all candidate states transferred during this round."""
        if self.total_candidates == 0:
            return 0.0
        return self.states_transferred / self.total_candidates


@dataclass
class ClusterTimeline:
    """The full per-round history of a cluster run."""

    snapshots: List[RoundSnapshot] = field(default_factory=list)

    def record(self, snapshot: RoundSnapshot) -> None:
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)

    def useful_work_series(self) -> List[int]:
        """Cumulative useful instructions per round."""
        series: List[int] = []
        total = 0
        for snap in self.snapshots:
            total += snap.useful_instructions
            series.append(total)
        return series

    def elapsed_series(self) -> List[float]:
        """Monotonic elapsed seconds at each round close -- the time axis
        for plotting any other per-round series."""
        return [snap.elapsed for snap in self.snapshots]

    def rounds_to_coverage(self, target_percent: float) -> Optional[int]:
        """First round index at which coverage reached the target, if any."""
        for snap in self.snapshots:
            if snap.coverage_percent >= target_percent:
                return snap.round_index
        return None
