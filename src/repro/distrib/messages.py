"""Wire messages between the coordinator process and worker processes.

Everything crossing the process boundary is one of these small dataclasses,
plain data that the TCP carrier writes as JSON (:mod:`repro.net.framing`,
where every dataclass in this module is a registered wire class) and the mp
carrier pickles.  Jobs travel as the nested-list encoding of a
:class:`~repro.cluster.jobs.JobTree` (prefix-sharing trie, §3.2), coverage as
the overlay bit vector packed into an int (§3.3), and results as plain
dataclasses (:class:`~repro.cluster.stats.WorkerStats`, bug reports, test
cases).  Program state never does -- that is the point of path-encoded job
shipping.

A member tells the coordinator about itself one way: the
:class:`StatusReply`, which answers the seed, every round of exploration and
every :class:`ReportCommand` -- the full report a member files when it
leaves the cluster and at the end of the run.

Every command sent to a worker produces exactly one reply -- :data:`REPLY_OF`
says of which class -- which keeps the coordinator's request/reply
bookkeeping trivial and makes worker death detectable as a reply timeout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cluster.jobs import EncodedJobTree
from repro.cluster.stats import WorkerStats
from repro.engine.coverage import CoverageBits
from repro.engine.errors import BugReport
from repro.engine.test_case import TestCase
from repro.obs.metrics import Histogram

__all__ = [
    "SeedCommand", "ExploreCommand", "ReportCommand", "ExportCommand",
    "ImportCommand", "StopCommand",
    "ReadyReply", "StatusReply", "ExportReply", "ImportReply", "ErrorReply",
    "REPLY_OF",
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

    ``full`` asks for the status reply in full (see :class:`StatusReply`);
    the coordinator sets it on checkpoint rounds only, to keep the
    steady-state wire cost flat.
    """

    budget: int
    global_coverage_bits: Optional[CoverageBits] = None
    full: bool = False
    #: Buffer trace events (:class:`repro.obs.trace.BufferTracer`) and
    #: attach them to status replies; set once the coordinator runs traced.
    trace: bool = False


@dataclass(frozen=True)
class ReportCommand:
    """File the full report (see :class:`StatusReply`) without exploring:
    how a member files its results when it is removed and at the end of
    the run."""


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

    encoded_jobs: EncodedJobTree
    fence_paths: Tuple[Tuple[int, ...], ...] = ()
    recovered: bool = False


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
    """A member's one report: the §3.3 status update plus its counters, and
    -- when the command asked for it in ``full`` -- its results so far."""

    worker_id: int
    queue_length: int
    #: Every line the member's explorer covered (§3.3); the coordinator ORs
    #: it into the overlay, which is the run's coverage.
    coverage_bits: CoverageBits
    bugs_found: int
    #: The worker's counters as they stand (a copy: the worker keeps bumping
    #: its own).  A new per-worker counter is a field there, nowhere else.
    stats: WorkerStats
    #: The worker solver's raw cache/solver counters, on every report so the
    #: last one a member files before dying still enters the aggregate and
    #: post-recovery cache hit rates are not inflated.
    cache_counters: Dict[str, int]
    #: Buffered trace events since the last reply (only when the run is
    #: traced; the coordinator ingests them into the single trace file).
    events: Optional[Tuple[Dict, ...]] = None
    # -- present only on a full report -----------------------------------------
    #: Encoded JobTree of the worker's candidate paths.
    frontier: Optional[EncodedJobTree] = None
    #: Bug reports and generated test cases found so far, so a checkpoint is
    #: self-contained (a resumed run never re-explores the paths they came
    #: from) and the final result needs no second message.
    bugs: Optional[Tuple[BugReport, ...]] = None
    test_cases: Optional[Tuple[TestCase, ...]] = None
    #: The worker solver's query-latency histogram (bounded reservoir, a
    #: few KB), merged coordinator-side into the run-level p50/p99 on the
    #: final ``solver_query`` trace event.
    latency: Optional[Histogram] = None


@dataclass(frozen=True)
class ExportReply:
    """The encoded job tree (None when the worker had nothing to give)."""

    worker_id: int
    encoded_jobs: Optional[EncodedJobTree]
    job_count: int


@dataclass(frozen=True)
class ImportReply:
    worker_id: int
    imported: int


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
    ReportCommand: StatusReply,
    ExportCommand: ExportReply,
    ImportCommand: ImportReply,
}
