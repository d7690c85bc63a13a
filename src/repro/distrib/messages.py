"""Wire messages between the coordinator process and worker processes.

Everything crossing the process boundary is one of these small picklable
dataclasses.  Jobs travel as the nested-list encoding of a
:class:`~repro.cluster.jobs.JobTree` (prefix-sharing trie, §3.2), coverage as
the overlay bit vector packed into an int (§3.3), and final results as plain
dataclasses (:class:`~repro.cluster.stats.WorkerStats`, bug reports, test
cases).  Program state never does -- that is the point of path-encoded job
shipping.

Every command sent to a worker produces exactly one reply -- :data:`REPLY_OF`
says of which class -- which keeps the coordinator's request/reply
bookkeeping trivial and makes worker death detectable as a reply timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.stats import WorkerStats
from repro.engine.errors import BugReport
from repro.engine.test_case import TestCase
from repro.obs.metrics import Histogram

__all__ = [
    "SeedCommand", "ExploreCommand", "DrainStatusCommand", "ExportCommand",
    "ImportCommand", "FinalizeCommand", "StopCommand",
    "ReadyReply", "StatusReply", "ExportReply", "ImportReply", "FinalReply",
    "ErrorReply", "REPLY_OF",
]


# -- commands (coordinator -> worker) ----------------------------------------------------


@dataclass(frozen=True)
class SeedCommand:
    """Give this worker the initial job covering the whole tree (§3.1)."""


@dataclass(frozen=True)
class ExploreCommand:
    """Explore for one round of the given instruction budget.

    ``global_coverage_bits`` piggybacks the load balancer's merged coverage
    vector (§3.3), exactly as the in-process cluster's COVERAGE_UPDATE
    message does; ``None`` means no update this round.

    ``report_frontier`` asks the worker to attach its full frontier (as an
    encoded JobTree) to the status reply; the coordinator sets it on
    checkpoint rounds only, to keep the steady-state wire cost flat.
    """

    budget: int
    global_coverage_bits: Optional[int] = None
    report_frontier: bool = False
    #: Buffer trace events (:class:`repro.obs.trace.BufferTracer`) and
    #: attach them to status replies; set once the coordinator runs traced.
    trace: bool = False


@dataclass(frozen=True)
class DrainStatusCommand:
    """Report status without exploring (the lightweight drain heartbeat).

    Draining members used to answer zero-budget :class:`ExploreCommand`\\ s
    to stay visible; this carries none of the explore machinery (no global
    coverage merge, no budget bookkeeping) and says what it is on the wire.
    ``report_frontier`` has the same checkpoint-round meaning as on
    :class:`ExploreCommand`.
    """

    report_frontier: bool = False


@dataclass(frozen=True)
class ExportCommand:
    """Export up to ``count`` candidate jobs as an encoded JobTree."""

    count: int


@dataclass(frozen=True)
class ImportCommand:
    """Import the encoded JobTree into this worker's frontier.

    ``fence_paths`` accompany recovered jobs (a dead worker's re-queued
    territory): subtrees nested inside the imported region that live workers
    still own, installed as fence nodes before the import.  ``recovered``
    marks the import as failure recovery for the worker's statistics.
    """

    encoded_jobs: object
    fence_paths: Tuple[Tuple[int, ...], ...] = ()
    recovered: bool = False


@dataclass(frozen=True)
class FinalizeCommand:
    """Ship back the full per-worker results."""


@dataclass(frozen=True)
class StopCommand:
    """Exit the worker loop."""


# -- replies (worker -> coordinator) -----------------------------------------------------


@dataclass(frozen=True)
class ReadyReply:
    """Worker built its program/executor; ``line_count`` lets the coordinator
    verify every process compiled the same program (replay depends on it)."""

    worker_id: int
    line_count: int


@dataclass(frozen=True)
class StatusReply:
    """Post-round status: the §3.3 status update, plus result counters."""

    worker_id: int
    queue_length: int
    useful_instructions: int
    replay_instructions: int
    coverage_bits: int
    paths_completed: int
    bugs_found: int
    broken_replays: int
    #: Encoded JobTree of the worker's candidate paths; present only when
    #: the coordinator asked for it (checkpoint rounds).
    frontier: Optional[object] = None
    #: Bug reports and generated test cases found so far; attached only on
    #: checkpoint rounds (``report_frontier``) so snapshots are
    #: self-contained without inflating the steady-state wire cost.
    bugs: Optional[Tuple[BugReport, ...]] = None
    test_cases: Optional[Tuple[TestCase, ...]] = None
    #: Buffered trace events since the last reply (only when the run is
    #: traced; the coordinator ingests them into the single trace file).
    events: Optional[Tuple[Dict, ...]] = None
    #: The worker solver's raw cache/solver counters.  Piggybacked on every
    #: status so the coordinator holds a last-known copy: when a worker dies
    #: before its FinalReply, these counters still enter the aggregate and
    #: post-recovery cache hit rates are not inflated.
    cache_counters: Optional[Dict[str, int]] = None


@dataclass(frozen=True)
class ExportReply:
    """The encoded job tree (None when the worker had nothing to give)."""

    worker_id: int
    encoded_jobs: Optional[object]
    job_count: int


@dataclass(frozen=True)
class ImportReply:
    worker_id: int
    imported: int


@dataclass
class FinalReply:
    """Everything the coordinator needs to build the merged RunResult."""

    worker_id: int
    stats: WorkerStats
    paths_completed: int
    covered_lines: Set[int] = field(default_factory=set)
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    cache_counters: Dict[str, int] = field(default_factory=dict)
    #: The worker solver's query-latency histogram (bounded reservoir, a
    #: few KB), merged coordinator-side into the run-level p50/p99 on the
    #: final ``solver_query`` trace event.
    latency: Optional[Histogram] = None


@dataclass(frozen=True)
class ErrorReply:
    """A worker crashed; ``details`` carries the formatted traceback."""

    worker_id: int
    details: str


#: Which reply answers which command (an :class:`ErrorReply` may stand in for
#: any of them; :class:`StopCommand` ends the serving loop unanswered).  The
#: coordinator expects exactly this class after sending the command, and
#: ``tests/test_distrib_process.py`` holds ``DistribWorker.handle`` to it.
REPLY_OF: Dict[type, type] = {
    SeedCommand: StatusReply,
    ExploreCommand: StatusReply,
    DrainStatusCommand: StatusReply,
    ExportCommand: ExportReply,
    ImportCommand: ImportReply,
    FinalizeCommand: FinalReply,
}
