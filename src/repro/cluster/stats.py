"""Statistics collected by workers and the cluster runtime.

The evaluation section of the paper is phrased in terms of two metrics
(§7.2): the time to reach a goal (external) and the *useful work* performed,
"measured as the number of useful (non-replay) instructions executed
symbolically" (internal).  Workers therefore keep useful and replay
instruction counters separately, and the cluster timeline records one
:class:`~repro.obs.schema.RoundSnapshot` per round -- the same record the
``round_completed`` trace event and the live-status document carry -- which
the benchmark harness turns into the paper's figures (7, 8, 9, 10, 12, 13).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List

from repro.obs.schema import RoundSnapshot


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
class ClusterTimeline:
    """The full per-round history of a cluster run."""

    snapshots: List[RoundSnapshot] = field(default_factory=list)

    def record(self, snapshot: RoundSnapshot) -> None:
        self.snapshots.append(snapshot)

    def __len__(self) -> int:
        return len(self.snapshots)
