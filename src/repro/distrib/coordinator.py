"""The one coordinator: the paper's §3 round protocol over one ``Transport``.

Every cluster backend is this class plus a carrier.  Each member sits behind
a :class:`~repro.net.transport.Transport` -- a worker process on an mp-queue
pair, an agent on a TCP socket, or an in-process worker on the loopback --
and the coordinator drives it with the command/reply messages of
:mod:`repro.distrib.messages`: every command gets exactly one reply, work
moves as path-encoded job trees the destination replays (§3.2), and the
coordinator only ever sees queue lengths and coverage bit vectors
(§3.1/§3.3).  :class:`Coordinator` owns the protocol end to end:

* the round loop -- round hook, one instruction budget of
  exploration on every live member, status collection into the
  :class:`~repro.cluster.load_balancer.LoadBalancer`, brokered
  ⟨source, destination, count⟩ transfers, per-round recording -- in
  virtual time, so results compare across carriers;
* elastic membership (:meth:`add_worker` / :meth:`remove_worker`, each one
  step at the membership barrier) and the membership trace events;
* fault tolerance (§2.3): because the seed job and every transfer flow
  through it, the coordinator keeps a
  :class:`~repro.cluster.ledger.FrontierLedger` of the execution-tree
  territory each member owns; when a member's channel fails it re-materializes
  that territory as path-encoded jobs (fencing off subtrees live members
  own), requeues them to the survivors and optionally respawns a
  replacement;
* the one checkpoint path (:class:`~repro.cluster.checkpoint.ClusterCheckpoint`
  cadence, ``resume_from=`` restore) and the one finalization;
* tracing (``run_started`` ... ``run_finished``), the live
  :class:`~repro.obs.status.StatusServer` and the round wall-time /
  solver-latency histograms.

What the run has produced so far is one set of books (``Coordinator.books``).
Each member has one account, on its handle, for its whole life: its latest
``StatusReply`` -- asked for in full on checkpoint rounds, when it retires
and at the end of the run -- plus a ``dead`` mark when its channel fails (its
work is redone by whoever recovers its territory, so it then adds nothing).
Work done before these members existed -- a resumed checkpoint's totals, the
static bootstrap's exploration -- is the one :class:`CarriedIn` account.
Only :meth:`Coordinator._totals` adds the accounts up; the round record, the
checkpoint and the final ``RunResult`` all read it.  Coverage is the one
figure not in the accounts: the balancer's
:class:`~repro.cluster.overlay.CoverageOverlay`, into which every status
phase ORs each member's coverage bits and :meth:`Coordinator._carry_in` the
carried-in lines, is the run's coverage for the round record, the coverage
goal, the checkpoint and the result alike -- a line a member covered stays
covered after it dies.  The books, the balancer
and the ledger live exactly as long as the membership
(:meth:`Coordinator._shutdown_workers` replaces them).

A shell supplies :meth:`Coordinator._launch` -- how one member's channel
comes to exist -- and decides whether members outlive a run:
:class:`~repro.distrib.cluster.ProcessCloud9Cluster` (mp) and
:class:`~repro.distrib.cluster.TcpCloud9Cluster` (tcp) have per-run
members, so every ``run()`` starts clean;
:class:`~repro.distrib.loopback.Cloud9Cluster` (loopback) keeps its members
across runs, so its books are cumulative across ``run()`` calls.  The
coordinator reads a member's channel only through the
:class:`~repro.net.transport.Transport` interface and never asks which
carrier it is.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Set, Tuple, Type,
                    TypeVar, Union)

from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats
from repro.distrib.messages import (
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ExportReply,
    ImportCommand,
    ImportReply,
    ReadyReply,
    ReportCommand,
    SeedCommand,
    StatusReply,
    StopCommand,
)
from repro.engine.coverage import CoverageBitVector
from repro.engine.errors import BugReport
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult, dedupe_bugs
from repro.engine.test_case import TestCase
from repro.net.transport import (
    ReceiveTimeout,
    Transport,
    TransportError,
    parse_address,
)
from repro.obs import schema as trace_schema
from repro.obs.metrics import Histogram
from repro.obs.schema import RoundSnapshot
from repro.obs.status import StatusServer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, emit_solver_query
from repro.solver.cache import aggregate_cache_counters

__all__ = ["Coordinator", "CarriedIn", "WorkerProcessError"]

Path = Tuple[int, ...]
_Reply = TypeVar("_Reply")

#: Rounds a run may take when its limits set no ``max_rounds``.
MAX_ROUNDS = 10_000


class WorkerProcessError(RuntimeError):
    """A member crashed and the run could not (or was configured not to)
    recover: startup failure, failure budget exhausted, or no survivors."""


class _WorkerFailure(Exception):
    """Internal: one member's channel failed or it reported a crash."""

    def __init__(self, handle: "_WorkerHandle", reason: str):
        super().__init__(reason)
        self.handle = handle
        self.reason = reason


class _WorkerHandle:
    """One member behind its transport, and its account in the books."""

    def __init__(self, worker_id: int, transport: Transport):
        self.worker_id = worker_id
        self.transport = transport
        #: The coordinator's own estimate between statuses: imports and
        #: exports adjust it (the balancer's report may lag behind it).
        self.queue_length = 0
        #: Merged coverage bits to piggyback on the next explore command.
        self.pending_coverage_bits: Optional[int] = None
        #: The account: the member's latest report, verbatim.
        self.status: Optional[StatusReply] = None
        #: The channel failed.  The last report stays for the failure report
        #: and the cache aggregate, but counts toward no total.
        self.dead = False


@dataclass
class CarriedIn:
    """The account of work done before the members existed: a resumed
    checkpoint's totals, or the static bootstrap's own exploration."""

    paths_completed: int = 0
    useful_instructions: int = 0
    replay_instructions: int = 0
    covered_lines: Set[int] = field(default_factory=set)
    bugs: List[BugReport] = field(default_factory=list)
    test_cases: List[TestCase] = field(default_factory=list)
    wall_time: float = 0.0
    #: Round index of the checkpoint it came from (None = not resumed).
    resumed_from_round: Optional[int] = None


@dataclass
class _Books:
    """What one membership has produced and been through; replaced as a
    whole when the membership is (:meth:`Coordinator._new_membership`)."""

    carried: CarriedIn = field(default_factory=CarriedIn)
    #: Closed accounts: members that retired (their last report is a full
    #: one) or died.
    departed: List[_WorkerHandle] = field(default_factory=list)
    messages_sent: int = 0
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    heartbeat_misses: int = 0
    #: Booked by the tcp shell: agents admitted past the initial membership.
    agents_reconnected: int = 0


@dataclass
class _Totals:
    """The accounts added up (:meth:`Coordinator._totals`)."""

    paths_completed: int
    bugs_found: int
    useful_instructions: int
    replay_instructions: int
    #: These two are complete when every report is a full one: on
    #: checkpoint rounds and at the end.  Coverage is not added up here: the
    #: overlay is the run's.
    bugs: List[BugReport]
    test_cases: List[TestCase]


@dataclass
class _RoundWork:
    """What one round of exploration produced."""

    #: :attr:`RoundSnapshot.workers_detail` of the round.
    detail: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Candidate paths the members listed (checkpoint rounds only).
    frontier: List[Path] = field(default_factory=list)


class Coordinator:
    """The §3 round protocol, the same under every carrier."""

    #: Name this backend reports in trace/status events and checkpoints.
    backend_name: str

    def __init__(self, config: ClusterConfig, line_count: int,
                 spec_name: Optional[str] = None,
                 spec_params: Optional[Dict[str, object]] = None,
                 strategy: Optional[str] = None):
        self.config = config
        self.line_count = line_count
        #: Identity of the test under exploration, stamped on ``run_started``
        #: and on checkpoints (None for tests built outside the registry).
        self.spec_name = spec_name
        self.spec_params = dict(spec_params or {})
        self.strategy = strategy if strategy is not None else config.strategy
        #: Optional callback invoked at the start of every round as
        #: ``round_hook(round_index, cluster)`` -- the supported place to
        #: exercise elastic membership (add/remove workers) mid-run.
        self.round_hook: Optional[Callable[[int, Any], None]] = None
        #: Most recent checkpoint written by this run (None until the first).
        self.last_checkpoint: Optional[ClusterCheckpoint] = None
        #: Structured event trace of the current run (:mod:`repro.obs.trace`);
        #: the no-op tracer outside a traced ``run()``.
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        #: Live-status endpoint of the current run (None unless
        #: ``config.status_listen`` is set; fresh per ``run()``).
        self.status_server: Optional[StatusServer] = None
        # The result of the run in progress (a scratch one between runs, so
        # membership changes outside ``run()`` need no special casing).
        self._result = self._new_result()
        self._run_started = 0.0
        self._new_membership()

    def _new_membership(self) -> None:
        """No members, and everything that is about *these* members made
        anew with them: nothing of one membership reaches the next."""
        #: The live members; a member that leaves or dies moves to
        #: ``books.departed``.
        self.handles: List[_WorkerHandle] = []
        self.load_balancer = LoadBalancer(line_count=self.line_count,
                                          delta=self.config.delta,
                                          min_transfer=self.config.min_transfer)
        #: Which execution-tree territory each member owns (for recovery).
        self.ledger = FrontierLedger()
        #: What the members have produced so far (see the module docstring).
        self.books = _Books()
        self._next_worker_id = 1
        # Whether the members hold a frontier yet (the seed job, a restored
        # checkpoint or dealt partitions).
        self._seeded = False
        self._pending_recovery: List[RecoveryJob] = []
        self._pending_respawns = 0

    # -- members: launch, enroll, tear down ----------------------------------------------

    def _launch(self) -> _WorkerHandle:
        """Provision one member's channel (without waiting for its
        ReadyReply) under the next worker id -- the carrier-specific part."""
        raise NotImplementedError

    def _take_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id

    def _check_ready(self, handle: _WorkerHandle,
                     queue_length: Optional[int] = None) -> None:
        """Wait for the ReadyReply and enroll the member; _WorkerFailure when
        it died or is not the member this cluster needs."""
        ready = self._expect(handle, ReadyReply)
        if ready.line_count != self.line_count:
            raise _WorkerFailure(
                handle, "compiled a program with %d lines, coordinator "
                "expected %d -- the spec factory is not deterministic"
                % (ready.line_count, self.line_count))
        self.handles.append(handle)
        self.load_balancer.register_worker(handle.worker_id,
                                           queue_length=queue_length)
        self.ledger.register(handle.worker_id)

    def _start_workers(self) -> None:
        launched: List[_WorkerHandle] = []
        try:
            for _ in range(self.config.num_workers):
                launched.append(self._launch())
            for handle in launched:
                self._check_ready(handle)
        except (_WorkerFailure, WorkerProcessError) as failure:
            # Startup failures are configuration errors, not churn -- and no
            # member launched so far, enrolled or not, may outlive the error.
            self.handles = launched
            self._shutdown_workers()
            if isinstance(failure, _WorkerFailure):
                raise WorkerProcessError(
                    "worker %d %s" % (failure.handle.worker_id,
                                      failure.reason)) from None
            raise
        self._note_peak()

    def _note_peak(self) -> None:
        self.books.peak_workers = max(self.books.peak_workers,
                                      len(self.handles))

    def _spawn_worker(self) -> _WorkerHandle:
        """Start one member and wait for it (respawn / elastic join path)."""
        # Seed the newcomer's balancer report with the mean queue length:
        # until its first real status arrives, a fabricated zero would read
        # as an idle member and draw spurious transfers (computed before
        # registration so the newcomer's own empty report is excluded).
        seed_length = round(self.load_balancer.mean_queue_length())
        handle = self._launch()
        self._check_ready(handle, queue_length=seed_length)
        # A joining member starts from the merged global coverage (§3.3).
        handle.pending_coverage_bits = (
            self.load_balancer.overlay.global_vector.as_int() or None)
        return handle

    def _cleanup_handle(self, handle: _WorkerHandle) -> None:
        """Tear down a member's channel (alive, stuck, or dead).

        The transport owns the escalation: the queue pair reaps its child
        process (join -> terminate -> kill) and drains its queues; the TCP
        transport grants a drain window for a graceful hang-up, cuts the
        socket and reaps the local agent it was admitted with, if any.
        """
        handle.transport.close(timeout=self.config.shutdown_timeout)

    def _shutdown_workers(self) -> None:
        """Stop every member; the membership's books go with it."""
        for handle in self.handles:
            if handle.transport.is_alive():
                try:
                    handle.transport.send(StopCommand())
                except TransportError:  # pragma: no cover - channel torn down
                    pass
        for handle in self.handles:
            self._cleanup_handle(handle)
        self._new_membership()

    # -- messaging ---------------------------------------------------------------------

    def _send(self, handle: _WorkerHandle, command: object) -> None:
        try:
            handle.transport.send(command)
        except TransportError as exc:
            raise _WorkerFailure(handle, str(exc)) from None
        self.books.messages_sent += 1

    def _receive(self, handle: _WorkerHandle) -> object:
        transport = handle.transport
        death_deadline: Optional[float] = None
        while True:
            try:
                reply = transport.recv(timeout=0.5)
            except ReceiveTimeout:
                if transport.is_alive():
                    # Still computing; a long round is legitimate.  Total run
                    # time is bounded by limits, not by this loop.
                    continue
                # Dead peer (process exit, connection lost, or heartbeats
                # missed): give in-flight replies a grace period to drain,
                # then report the death.
                if death_deadline is None:
                    death_deadline = (time.monotonic()
                                      + self.config.reply_timeout)
                if time.monotonic() >= death_deadline:
                    raise _WorkerFailure(
                        handle, transport.liveness_error()) from None
                continue
            except TransportError as exc:
                # The channel itself broke (peer hung up, corrupt or
                # oversized frame): this member is lost, the run is not.
                raise _WorkerFailure(handle, str(exc)) from None
            if isinstance(reply, ErrorReply):
                raise _WorkerFailure(
                    handle, "failed:\n%s" % reply.details)
            return reply

    def _expect(self, handle: _WorkerHandle, reply_type: Type[_Reply]) -> _Reply:
        """The member's next reply, which must be a ``reply_type`` (the
        answer :data:`~repro.distrib.messages.REPLY_OF` names for the command
        just sent).  Any other class is a protocol violation, handled like
        any other member failure instead of crashing the coordinator with an
        AttributeError three frames later."""
        reply = self._receive(handle)
        if not isinstance(reply, reply_type):
            raise _WorkerFailure(handle, "sent %r instead of %s"
                                 % (reply, reply_type.__name__))
        return reply

    def _ask(self, handle: _WorkerHandle, command: object,
             reply_type: Type[_Reply]) -> Optional[_Reply]:
        """Command a member at a protocol barrier and return its reply, or
        None when it died instead (it has been recovered by then)."""
        try:
            self._send(handle, command)
            return self._expect(handle, reply_type)
        except _WorkerFailure as failure:
            self._lose(failure)
            return None

    def _import_into(self, handle: _WorkerHandle,
                     command: ImportCommand) -> Optional[int]:
        """Ship one job tree to a member; returns the jobs it took on (None
        when it died) and keeps the balancer's view of its queue fresh
        within the round."""
        reply = self._ask(handle, command, ImportReply)
        if reply is None:
            return None
        handle.queue_length += reply.imported
        self._refresh_report(handle)
        return reply.imported

    def _refresh_report(self, handle: _WorkerHandle) -> None:
        report = self.load_balancer.reports.get(handle.worker_id)
        if report is not None:
            report.queue_length = handle.queue_length

    # -- fault tolerance ----------------------------------------------------------------

    def _handle_failure(self, failure: _WorkerFailure,
                        requeue: bool = True) -> None:
        """Mark a member dead and stage its territory for recovery.

        Covers live and leaving members alike (a member can die during its
        removal; its not-yet-handed-over territory is requeued from the
        ledger exactly like any other death).  Raises
        :class:`WorkerProcessError` when the failure budget is exhausted.
        The staged recovery jobs (and the replacement member, under
        ``respawn``) materialize at the next :meth:`_flush_recovery` call
        -- a point where no commands are outstanding, so request/reply
        pairing stays intact.
        """
        handle = failure.handle
        if handle.dead:
            return  # already accounted
        leaving = handle not in self.handles  # removal took it out already
        if not leaving:
            self.handles.remove(handle)
        # The account closes on its last report.
        handle.dead = True
        self.books.departed.append(handle)
        if handle.transport.heartbeat_missed:
            # Death detected by heartbeat silence (vs. connection loss or
            # process exit) -- kept as its own counter on the result.
            self.books.heartbeat_misses += 1
            if self.tracer.enabled:
                self.tracer.emit(trace_schema.HEARTBEAT_MISS, worker=handle.worker_id)
        if self.tracer.enabled:
            self.tracer.emit(trace_schema.WORKER_DIED, worker=handle.worker_id,
                             reason=failure.reason)
        self._result.failed_worker_stats[handle.worker_id] = (
            handle.status.stats if handle.status is not None
            else WorkerStats(worker_id=handle.worker_id))
        self.load_balancer.deregister_worker(handle.worker_id)
        self._charge_failure(failure)
        if requeue:
            self._pending_recovery.extend(
                self.ledger.recovery_jobs(handle.worker_id))
            # A member being removed was leaving anyway: recover its
            # territory but do not respawn a replacement for it.
            if self.config.respawn and not leaving:
                self._pending_respawns += 1
        self.ledger.forget(handle.worker_id)
        self._cleanup_handle(handle)

    def _charge_failure(self, failure: _WorkerFailure) -> None:
        """Count one member failure against ``max_worker_failures``; past
        the budget, tear the member down and end the run."""
        self._result.worker_failures += 1
        budget = self.config.max_worker_failures
        if budget is not None and self._result.worker_failures > budget:
            self._cleanup_handle(failure.handle)
            raise WorkerProcessError(
                "worker %d %s; failure budget exhausted "
                "(max_worker_failures=%d)"
                % (failure.handle.worker_id, failure.reason, budget)) from None

    def _flush_recovery(self) -> None:
        """Respawn replacements and requeue dead members' territories.

        Only called at protocol barriers (every outstanding command has been
        answered or its member declared dead).
        """
        result = self._result
        while self._pending_respawns or self._pending_recovery:
            if self._pending_respawns:
                self._pending_respawns -= 1
                try:
                    replacement = self._spawn_worker()
                    result.respawns += 1
                    if self.tracer.enabled:
                        self.tracer.emit(trace_schema.WORKER_RESPAWNED,
                                         worker=replacement.worker_id)
                except _WorkerFailure as failure:
                    # The replacement never started; it owned nothing yet.
                    self._charge_failure(failure)
                    self._cleanup_handle(failure.handle)
                continue
            if not self.handles:
                raise WorkerProcessError(
                    "every worker died and respawn is disabled; "
                    "%d recovery job(s) have nowhere to go"
                    % len(self._pending_recovery))
            job = self._pending_recovery.pop(0)
            handle = min(self.handles, key=lambda h: h.queue_length)
            # The fences keep their labels: the survivor takes exactly what
            # the dead member held under the root.
            self.ledger.acquire(handle.worker_id, job.root)
            tree = JobTree.from_jobs([Job(job.root)])
            imported = self._import_into(handle, ImportCommand(
                encoded_jobs=tree.encode(), fence_paths=job.fences,
                recovered=True))
            if imported is None:
                # The survivor died too; its ledger included this job by
                # then, so it has been staged and requeued again.
                continue
            result.jobs_recovered += 1
            if self.tracer.enabled:
                self.tracer.emit(trace_schema.JOBS_RECOVERED, worker=handle.worker_id,
                                 jobs=imported)

    def _lose(self, failure: _WorkerFailure) -> None:
        """A member died at a protocol barrier: recover it right away."""
        self._handle_failure(failure)
        self._flush_recovery()

    # -- elastic membership (§2.3: workers join and leave mid-run) -----------------------

    @property
    def live_worker_ids(self) -> List[int]:
        """Ids of the live members."""
        return [h.worker_id for h in self.handles]

    @property
    def status_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the live-status endpoint, if one is running."""
        return self.status_server.address if self.status_server else None

    def add_worker(self) -> int:
        """Join a fresh, empty member; the load balancer will feed it.

        Returns the new worker id.  Callable between rounds (e.g. from
        ``round_hook``).
        """
        if not self.handles:
            raise RuntimeError("add_worker() requires a running cluster "
                               "(call it from round_hook)")
        try:
            handle = self._spawn_worker()
        except _WorkerFailure as failure:
            # The newcomer died during startup; it owned nothing yet.
            self._cleanup_handle(failure.handle)
            raise WorkerProcessError(
                "worker %d %s while joining"
                % (failure.handle.worker_id, failure.reason)) from None
        self.books.workers_added += 1
        self._note_peak()
        self.tracer.emit(trace_schema.WORKER_JOINED, worker=handle.worker_id,
                         workers=len(self.handles))
        return handle.worker_id

    def remove_worker(self, worker_id: int) -> int:
        """Retire a member in one step: its whole frontier goes to the
        least-loaded survivor, then it files its full report and stops.

        Callable between rounds (e.g. from ``round_hook``, the membership
        barrier), so no command is outstanding.  Its results (paths, bugs,
        coverage, stats) still count toward the final result.  Returns the
        number of jobs handed over.  A member that dies during its removal
        is recovered from the ledger like any death, and not replaced.
        """
        handle = next((h for h in self.handles if h.worker_id == worker_id),
                      None)
        if handle is None:
            raise ValueError("no live worker with id %d" % worker_id)
        if len(self.handles) == 1:
            raise ValueError("cannot remove the last worker")
        self.handles.remove(handle)
        self.load_balancer.deregister_worker(worker_id)
        self.books.workers_removed += 1
        export = self._ask(handle, ExportCommand(count=handle.queue_length),
                           ExportReply)
        if export is None:
            return 0
        target = min(self.handles, key=lambda h: h.queue_length)
        moved = self._hand_over(worker_id, target, export)
        report = self._ask(handle, ReportCommand(), StatusReply)
        if report is None:
            return moved
        self._apply_status(handle, report)
        if report.queue_length:
            self._lose(_WorkerFailure(
                handle, "still held %d job(s) after handing over its "
                "frontier" % report.queue_length))
            return moved
        self.books.departed.append(handle)
        self.ledger.forget(worker_id)
        self.tracer.emit(trace_schema.WORKER_LEFT, worker=worker_id,
                         workers=len(self.handles))
        try:
            self._send(handle, StopCommand())
        except _WorkerFailure:  # pragma: no cover - channel torn down
            pass
        self._cleanup_handle(handle)
        return moved

    def _hand_over(self, source_id: int, target: _WorkerHandle,
                   export: ExportReply) -> int:
        """Move an export's jobs into ``target``, ledger first: a target
        that dies mid-handover is recovered with these jobs included.
        Returns the jobs it took on (0 when it died)."""
        if export.encoded_jobs is None:
            return 0
        for job in JobTree.decode(export.encoded_jobs).jobs():
            self.ledger.cede(source_id, job.path)
            self.ledger.acquire(target.worker_id, job.path)
        return self._import_into(target, ImportCommand(
            encoded_jobs=export.encoded_jobs)) or 0

    # -- the round protocol --------------------------------------------------------------

    def run(self, limits: Optional[ExplorationLimits] = None,
            resume_from: Optional[Union[ClusterCheckpoint, str]] = None,
            **limit_fields: object) -> RunResult:
        """Run rounds until exhaustion, a goal, or a budget is spent.

        Limits come as an :class:`~repro.engine.limits.ExplorationLimits`
        bundle, as loose limit fields (``max_rounds=...``), or both (a loose
        field wins); ``max_steps`` does not apply to cluster runs.

        ``resume_from`` (a :class:`~repro.cluster.checkpoint.ClusterCheckpoint`
        or a path to a saved one) restores a checkpointed frontier, coverage
        and counters instead of starting from the seed job.

        ``limits.trace_path`` turns on structured event tracing for the run,
        and ``config.status_listen`` serves a live status snapshot
        (:mod:`repro.obs`) on every backend; both are torn down when the
        run returns.
        """
        lim = ExplorationLimits.pop_from(limit_fields, base=limits, strict=True)
        try:
            # Opened inside the ``try``, so a failing one closes the rest.
            if lim.trace_path:
                self.tracer = Tracer(lim.trace_path)
            if self.config.status_listen is not None:
                self.status_server = StatusServer(
                    parse_address(self.config.status_listen))
            return self._run(lim, resume_from)
        finally:
            try:
                self._teardown_run()
            finally:
                self.tracer.close()
                self.tracer = NULL_TRACER
                if self.status_server is not None:
                    self.status_server.close()
                    self.status_server = None

    def _new_result(self) -> RunResult:
        return RunResult(backend=self.backend_name,
                         test_name=self.spec_name or "",
                         num_workers=self.config.num_workers,
                         line_count=self.line_count)

    def _seed(self) -> None:
        """Give fresh members their first frontier: the first worker to
        join receives the seed job (§3.1)."""
        self._seeded = True
        seed_handle = self.handles[0]
        self.ledger.acquire(seed_handle.worker_id, ())
        status = self._ask(seed_handle, SeedCommand(), StatusReply)
        if status is not None:
            self._apply_status(seed_handle, status)

    def _teardown_run(self) -> None:
        """End of ``run()``: members of a process/tcp cluster are per-run."""
        self._shutdown_workers()

    def _balancing_active(self, round_index: int) -> bool:
        cutoff = self.config.disable_balancing_after_round
        return cutoff is None or round_index < cutoff

    def _run(self, lim: ExplorationLimits,
             resume_from: Optional[Union[ClusterCheckpoint, str]]
             ) -> RunResult:
        config = self.config
        limit = lim.max_rounds if lim.max_rounds is not None else MAX_ROUNDS
        start = self._run_started = time.monotonic()
        # Round wall-time distribution (p50/p99 on ``run_finished``).
        round_seconds = Histogram("round_seconds")
        result = self._result = self._new_result()
        timeline = result.timeline = ClusterTimeline()
        if not self.handles:
            self._start_workers()
        if resume_from is not None:
            self._restore(resume_from)
        elif not self._seeded:
            self._seed()

        tracer = self.tracer
        tracer.emit(trace_schema.RUN_STARTED, backend=self.backend_name,
                    workers=len(self.handles),
                    test=self.spec_name, line_count=self.line_count,
                    resumed_from_round=self.books.carried.resumed_from_round)
        instructions_executed = 0
        traced_bugs = 0
        round_index = 0
        while round_index < limit:
            if self.round_hook is not None:
                self.round_hook(round_index, self)
            if not self.handles:
                raise WorkerProcessError("no live workers left")
            self._note_peak()
            balancing = self._balancing_active(round_index)
            # A snapshot lands after every checkpoint_every *completed* rounds.
            checkpoint_due = bool(
                config.checkpoint_every
                and (round_index + 1) % config.checkpoint_every == 0)
            failures_before = result.worker_failures
            round_started = time.monotonic()

            # 1. Explore one round of virtual time.
            work = self._explore_phase(round_index, checkpoint_due)

            # 2. Status updates into the load balancer (+ merged coverage
            # back out to the members, §3.3).
            self._status_phase(round_index)

            # 3. Balancing decisions, brokered synchronously.
            states_transferred = 0
            if balancing and round_index % config.balance_interval == 0:
                for command in self.load_balancer.balance(round_index):
                    states_transferred += self._dispatch_transfer(
                        command, round_index)

            # 4. Record the round.
            snapshot = self._record_round(round_index, work,
                                          states_transferred, balancing,
                                          traced_bugs)
            traced_bugs = max(traced_bugs, snapshot.bugs_found)
            instructions_executed += (snapshot.useful_instructions
                                      + snapshot.replay_instructions)
            round_seconds.observe(time.monotonic() - round_started)
            round_index += 1

            # 4b. Periodic checkpoint (between rounds, after status merge);
            # skipped when this round lost a member, so a snapshot never
            # captures a half-recovered frontier.
            if checkpoint_due and result.worker_failures == failures_before:
                self._write_checkpoint(round_index, work.frontier)
                tracer.emit(trace_schema.CHECKPOINT_WRITTEN, round=round_index,
                            path=config.checkpoint_path)

            # 5. Termination checks: a goal met and a frontier run dry are
            # independent (the last path can be the one the goal asked for).
            result.goal_reached = lim.satisfied_by(
                snapshot.paths_completed, snapshot.coverage_percent,
                snapshot.bugs_found)
            result.exhausted = snapshot.total_candidates == 0
            if result.goal_reached or result.exhausted:
                break
            # Budget limits (spent, not reached: goal_reached stays False).
            if (lim.max_instructions is not None
                    and instructions_executed >= lim.max_instructions):
                break
            if (lim.max_wall_time is not None
                    and time.monotonic() - start >= lim.max_wall_time):
                break

        # Cumulative across resume_from= segments: the checkpoint carries the
        # wall time already spent, this run adds its own elapsed time.
        result.wall_time = (self.books.carried.wall_time
                            + (time.monotonic() - start))
        result.states_transferred = sum(snap.states_transferred
                                        for snap in timeline.snapshots)
        result.states_remaining = (timeline.snapshots[-1].total_candidates
                                   if timeline.snapshots else 0)
        self._finalize(result, round_index, round_seconds)
        return result

    # -- round phases --------------------------------------------------------------------

    def _explore_phase(self, round_index: int,
                       checkpoint_due: bool) -> _RoundWork:
        # One round of exploration on every live member (concurrently, where
        # the carrier has real processes behind it): send every command, then
        # collect the replies of the members that took one (one whose channel
        # is already broken is marked dead instead).
        reached = []
        for handle in list(self.handles):
            try:
                self._send(handle, ExploreCommand(
                    budget=self.config.instructions_per_round,
                    global_coverage_bits=handle.pending_coverage_bits,
                    full=checkpoint_due, trace=self.tracer.enabled))
            except _WorkerFailure as failure:
                self._handle_failure(failure)
            else:
                reached.append(handle)
        work = _RoundWork()
        for handle in reached:
            handle.pending_coverage_bits = None
            try:
                status = self._expect(handle, StatusReply)
            except _WorkerFailure as failure:
                self._handle_failure(failure)
                continue
            before = (handle.status.stats if handle.status is not None
                      else WorkerStats(worker_id=handle.worker_id))
            work.detail[handle.worker_id] = {
                "useful": (status.stats.useful_instructions
                           - before.useful_instructions),
                "replay": (status.stats.replay_instructions
                           - before.replay_instructions)}
            if status.frontier is not None:
                work.frontier.extend(
                    job.path for job in JobTree.decode(status.frontier).jobs())
            self._apply_status(handle, status)
        # Requeue dead members' territories / respawn replacements now that
        # every outstanding command has been resolved.
        self._flush_recovery()
        return work

    def _status_phase(self, round_index: int) -> None:
        # A member that joined after this round's statuses were collected
        # has none yet.
        for handle in self.handles:
            status = handle.status
            if status is None:
                continue
            handle.pending_coverage_bits = self.load_balancer.receive_status(
                worker_id=handle.worker_id,
                queue_length=handle.queue_length,
                useful_instructions=status.stats.useful_instructions,
                coverage_bits=status.coverage_bits,
                round_index=round_index)

    def _dispatch_transfer(self, command: TransferCommand,
                           round_index: int) -> int:
        """Broker one source->destination job transfer; returns jobs moved."""
        by_id = {h.worker_id: h for h in self.handles}
        source = by_id.get(command.source)
        destination = by_id.get(command.destination)
        if source is None or destination is None:
            # One end died or departed after the balance decision.
            self.load_balancer.cancel_transfer(command)
            return 0
        self._result.transfer_commands += 1
        try:
            self._send(source, ExportCommand(count=command.job_count))
            export = self._expect(source, ExportReply)
        except _WorkerFailure as failure:
            self.load_balancer.cancel_transfer(command)
            self._lose(failure)
            return 0
        source.queue_length -= export.job_count
        self._refresh_report(source)
        # Should the destination die here, the jobs are in its territory
        # already, so recovery requeues them; nothing is lost.
        imported = self._hand_over(command.source, destination, export)
        if self.tracer.enabled and imported:
            self.tracer.emit(trace_schema.JOB_TRANSFERRED, round=round_index,
                             source=command.source,
                             destination=command.destination,
                             jobs=imported)
        return imported

    def _apply_status(self, handle: _WorkerHandle, status: StatusReply) -> None:
        handle.status = status
        handle.queue_length = status.queue_length
        if status.events:
            # Member-side buffered events (explore spans, ...) merge into
            # the single coordinator-owned trace file.
            self.tracer.ingest(status.events, worker=handle.worker_id)

    # -- the books, added up -------------------------------------------------------------

    def _totals(self) -> _Totals:
        """The one place results are added up: the carried-in account plus
        every member's, each counted once by its latest report -- no number
        drops when a member retires."""
        carried = self.books.carried
        total = _Totals(
            paths_completed=carried.paths_completed,
            bugs_found=len(carried.bugs),
            useful_instructions=carried.useful_instructions,
            replay_instructions=carried.replay_instructions,
            bugs=list(carried.bugs), test_cases=list(carried.test_cases))
        for member in self.handles + self.books.departed:
            status = member.status
            if status is None or member.dead:
                continue
            total.paths_completed += status.stats.paths_completed
            total.bugs_found += status.bugs_found
            total.useful_instructions += status.stats.useful_instructions
            total.replay_instructions += status.stats.replay_instructions
            total.bugs.extend(status.bugs or ())
            total.test_cases.extend(status.test_cases or ())
        return total

    def _record_round(self, round_index: int, work: _RoundWork,
                      states_transferred: int, balancing: bool,
                      traced_bugs: int) -> RoundSnapshot:
        """Close one round: one snapshot of the books, which is the timeline
        entry, the ``round_completed`` payload and the live-status
        document."""
        live = self.handles
        totals = self._totals()
        overlay = self.load_balancer.overlay
        queues = {h.worker_id: h.queue_length for h in live}
        snapshot = RoundSnapshot(
            round_index=round_index,
            elapsed=time.monotonic() - self._run_started,
            coverage_percent=overlay.coverage_percent,
            covered_lines=overlay.covered_count,
            paths_completed=totals.paths_completed,
            bugs_found=totals.bugs_found,
            total_candidates=sum(queues.values()),
            num_workers=len(live),
            useful_instructions=sum(d["useful"] for d in work.detail.values()),
            replay_instructions=sum(d["replay"] for d in work.detail.values()),
            states_transferred=states_transferred,
            queue_lengths=queues,
            workers_detail=work.detail,
            load_balancing_enabled=balancing,
        )
        self._result.timeline.record(snapshot)
        tracer = self.tracer
        if not tracer.enabled and self.status_server is None:
            return snapshot
        record = snapshot.as_record()
        if tracer.enabled:
            if snapshot.bugs_found > traced_bugs:
                tracer.emit(trace_schema.BUG_FOUND, round=round_index,
                            bugs=snapshot.bugs_found,
                            new=snapshot.bugs_found - traced_bugs)
            tracer.emit(trace_schema.ROUND_COMPLETED, **record)
        if self.status_server is not None:
            self.status_server.update(dict(record, backend=self.backend_name))
        return snapshot

    # -- checkpoint / resume -------------------------------------------------------------

    def _write_checkpoint(self, round_index: int,
                          frontier: List[Path]) -> None:
        """Snapshot the books and ``frontier``, the candidate paths every
        member listed in this round's full status.  Bug reports and
        generated inputs travel with the snapshot (statuses carry them on
        checkpoint rounds only)."""
        totals = self._totals()
        checkpoint = ClusterCheckpoint(
            round_index=round_index,
            frontier_paths=sorted(frontier),
            coverage_bits=self.load_balancer.overlay.global_vector.as_int(),
            line_count=self.line_count,
            paths_completed=totals.paths_completed,
            useful_instructions=totals.useful_instructions,
            replay_instructions=totals.replay_instructions,
            wall_time=(self.books.carried.wall_time
                       + (time.monotonic() - self._run_started)),
            bug_reports=dedupe_bugs(totals.bugs),
            test_cases=totals.test_cases,
            spec_name=self.spec_name,
            spec_params=dict(self.spec_params),
            backend=self.backend_name,
        )
        if self.config.checkpoint_path:
            checkpoint.save(self.config.checkpoint_path)
        self.last_checkpoint = checkpoint

    def _restore(self, checkpoint: Union[ClusterCheckpoint, str]) -> None:
        checkpoint = ClusterCheckpoint.coerce(checkpoint)
        if checkpoint.line_count != self.line_count:
            raise WorkerProcessError(
                "checkpoint was taken against a %d-line program, this "
                "cluster's spec builds %d lines -- wrong spec?"
                % (checkpoint.line_count, self.line_count))
        if self._seeded:
            raise ValueError("resume_from= needs a fresh cluster: these "
                             "members already hold a frontier")
        self._carry_in(
            CarriedIn(paths_completed=checkpoint.paths_completed,
                      useful_instructions=checkpoint.useful_instructions,
                      replay_instructions=checkpoint.replay_instructions,
                      covered_lines=checkpoint.covered_lines(),
                      bugs=checkpoint.bug_reports,
                      test_cases=checkpoint.test_cases,
                      wall_time=checkpoint.wall_time,
                      resumed_from_round=checkpoint.round_index),
            checkpoint.frontier_paths)

    def _carry_in(self, carried: CarriedIn, frontier: List[Path]) -> None:
        """Open the books with work done before these members existed, and
        deal the frontier it left round-robin to them as ordinary job
        imports, primed with the coverage that came with it."""
        self.books.carried = carried
        self._seeded = True
        coverage_bits = CoverageBitVector.from_lines(
            self.line_count, carried.covered_lines).as_int()
        self.load_balancer.overlay.merge_from_worker(coverage_bits)
        live = list(self.handles)
        shares: Dict[int, List[Path]] = {h.worker_id: [] for h in live}
        for index, path in enumerate(sorted(frontier)):
            shares[live[index % len(live)].worker_id].append(tuple(path))
        for handle in live:
            share = shares[handle.worker_id]
            handle.pending_coverage_bits = coverage_bits or None
            if not share:
                continue
            for path in share:
                self.ledger.acquire(handle.worker_id, path)
            tree = JobTree.from_jobs([Job(p) for p in share])
            self._import_into(handle,
                              ImportCommand(encoded_jobs=tree.encode()))

    # -- finalization --------------------------------------------------------------------

    def _finalize(self, result: RunResult, rounds: int,
                  round_seconds: Histogram) -> None:
        """Close the run: every member still enrolled files a full report,
        ``result`` is filled from the books, and the run's last trace events
        go out."""
        for handle in list(self.handles):
            try:
                self._send(handle, ReportCommand())
                self._apply_status(handle, self._expect(handle, StatusReply))
            except _WorkerFailure as failure:
                # Too late to re-explore; its last report stays in
                # ``failed_worker_stats`` and counts toward no total.
                self._handle_failure(failure, requeue=False)

        books = self.books
        live = self.handles
        result.num_workers = len(live) or result.num_workers
        result.rounds_executed = rounds
        result.resumed_from_round = books.carried.resumed_from_round
        result.workers_added = books.workers_added
        result.workers_removed = books.workers_removed
        result.peak_workers = max(books.peak_workers, len(live))
        result.heartbeat_misses = books.heartbeat_misses
        result.agents_reconnected = books.agents_reconnected
        result.messages_sent = books.messages_sent
        totals = self._totals()
        result.paths_completed = totals.paths_completed
        result.useful_instructions = totals.useful_instructions
        result.replay_instructions = totals.replay_instructions
        result.covered_lines = self.load_balancer.overlay.covered_lines()
        result.bugs = dedupe_bugs(totals.bugs)
        result.test_cases.extend(totals.test_cases)
        worker_stats: Dict[int, WorkerStats] = {}
        counter_maps: List[Dict[str, int]] = []
        latency = Histogram("solver_query_seconds")
        for member in live + books.departed:
            status = member.status
            if status is None:
                continue
            # A dead member's solver counters still enter the aggregate, so
            # the run's cache hit rates reflect the whole fleet.
            counter_maps.append(dict(status.cache_counters))
            if member.dead:
                continue
            worker_stats[member.worker_id] = status.stats
            if status.latency is not None:
                latency.merge_from(status.latency)
        result.worker_stats = worker_stats
        result.transfer_cost = TransferCost.from_worker_stats(
            worker_stats.values())
        result.cache_stats = aggregate_cache_counters(counter_maps)

        tracer = self.tracer
        if tracer.enabled:
            emit_solver_query(tracer, result.cache_stats, latency)
            tracer.emit(trace_schema.RUN_FINISHED, **result.summary(),
                        round_time_p50=round_seconds.percentile(50.0),
                        round_time_p99=round_seconds.percentile(99.0))
