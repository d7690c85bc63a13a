"""The one coordinator: the paper's §3 round protocol over one ``Transport``.

Every cluster backend is this class plus a carrier.  Each member sits behind
a :class:`~repro.net.transport.Transport` -- a worker process on an mp-queue
pair, an agent on a TCP socket, or an in-process worker on the loopback --
and the coordinator drives it with the command/reply messages of
:mod:`repro.distrib.messages`: every command gets exactly one reply, work
moves as path-encoded job trees the destination replays (§3.2), and the
coordinator only ever sees queue lengths and coverage bit vectors
(§3.1/§3.3).  :class:`Coordinator` owns the protocol end to end:

* the round loop -- round hook, autoscaler, one instruction budget of
  exploration on every live member, status collection into the
  :class:`~repro.cluster.load_balancer.LoadBalancer`, brokered
  ⟨source, destination, count⟩ transfers, drain advancement, per-round
  recording -- in virtual time, so results compare across carriers;
* elastic membership (:meth:`add_worker` / :meth:`remove_worker` with
  incremental drains) and the membership trace events;
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

A shell supplies :meth:`Coordinator._launch` -- how one member's channel
comes to exist -- and decides whether members outlive a run:
:class:`~repro.distrib.cluster.ProcessCloud9Cluster` (mp / tcp) and
:class:`~repro.distrib.loopback.Cloud9Cluster` (loopback).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Set, Tuple, Type,
                    TypeVar, Union)

from repro.cluster.autoscale import Autoscaler
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.stats import (
    ClusterTimeline,
    RoundSnapshot,
    TransferCost,
    WorkerStats,
)
from repro.distrib.messages import (
    DrainStatusCommand,
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ExportReply,
    FinalizeCommand,
    FinalReply,
    ImportCommand,
    ImportReply,
    ReadyReply,
    SeedCommand,
    StatusReply,
    StopCommand,
)
from repro.engine.errors import BugReport
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult, dedupe_bugs
from repro.engine.test_case import TestCase
from repro.net.transport import (
    ReceiveTimeout,
    Transport,
    TransportError,
    reap_process,
)
from repro.obs import schema as trace_schema
from repro.obs.metrics import Histogram
from repro.obs.status import StatusServer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, emit_solver_query
from repro.solver.cache import aggregate_cache_counters

__all__ = ["Coordinator", "WorkerProcessError"]

Path = Tuple[int, ...]
_Reply = TypeVar("_Reply")


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
    """Coordinator-side bookkeeping for one member, behind its transport."""

    def __init__(self, worker_id: int, transport: Transport,
                 agent_process: Any = None):
        self.worker_id = worker_id
        self.transport = transport
        #: The loopback agent process, when this coordinator spawned one
        #: itself (``spawn_local_agents=True``); None for external agents.
        self.agent_process = agent_process
        self.queue_length = 0
        self.paths_completed = 0
        self.bugs_found = 0
        self.useful_instructions = 0
        self.replay_instructions = 0
        #: Merged coverage bits to piggyback on the next explore command.
        self.pending_coverage_bits: Optional[int] = None
        #: Last-known solver/cache counters, piggybacked on every status
        #: reply: when this member dies before its FinalReply, these still
        #: enter the run's aggregated cache statistics.
        self.cache_counters: Dict[str, int] = {}

    @property
    def process(self) -> Any:
        """The underlying worker process, where one exists on this host
        (the mp-queue pair's child, or a coordinator-spawned loopback
        agent); None for a remote agent or an in-process member."""
        return getattr(self.transport, "process", None) or self.agent_process


@dataclass
class _RoundWork:
    """What one round of exploration produced."""

    useful_delta: int = 0
    replay_delta: int = 0
    #: Per-worker ``{"useful": .., "replay": .., "queue": ..}`` for the
    #: ``round_completed`` trace event.
    detail: Dict[int, Dict[str, int]] = field(default_factory=dict)


class Coordinator:
    """The §3 round protocol, the same under every carrier."""

    #: Name this backend reports in trace/status events and checkpoints.
    backend_name: str

    # Failure policy and channel timeouts.  The in-process shell keeps these
    # defaults; the process shell copies its config's values over them.
    #: Seconds to keep waiting for a reply from a member already known dead
    #: (a drain grace for replies still in the channel).
    reply_timeout = 30.0
    #: Seconds granted to a member at each escalation step of teardown.
    shutdown_timeout = 5.0
    #: Total member failures tolerated before the run raises
    #: :class:`WorkerProcessError` (None = any number, as long as one member
    #: survives or can be respawned).
    max_worker_failures: Optional[int] = None
    #: Launch a replacement for every dead member.
    respawn = False

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
        self.load_balancer = LoadBalancer(line_count=line_count,
                                          delta=config.delta,
                                          min_transfer=config.min_transfer)
        #: The live (exploring) members.
        self.handles: List[_WorkerHandle] = []
        # Members retiring incrementally: no longer exploring or balanced,
        # handing over drain_chunk jobs per round until empty.
        self._draining: List[_WorkerHandle] = []
        # Final accounting of members that finished draining; it still counts.
        self._departed_finals: List[FinalReply] = []
        self.messages_sent = 0
        #: Which execution-tree territory each member owns (for recovery).
        self.ledger = FrontierLedger()
        #: Optional callback invoked at the start of every round as
        #: ``round_hook(round_index, cluster)`` -- the supported place to
        #: exercise elastic membership (add/remove workers) mid-run.
        self.round_hook: Optional[Callable[[int, Any], None]] = None
        #: The Autoscaler driving the current run (None unless
        #: ``config.autoscale`` is set; fresh per ``run()`` call).
        self.autoscaler: Optional[Autoscaler] = None
        #: Most recent checkpoint written by this run (None until the first).
        self.last_checkpoint: Optional[ClusterCheckpoint] = None
        #: Structured event trace of the current run (:mod:`repro.obs.trace`);
        #: the no-op tracer outside a traced ``run()``.
        self.tracer: Union[Tracer, NullTracer] = NULL_TRACER
        #: Live-status endpoint of the current run (None unless
        #: ``config.status_listen`` is set; fresh per ``run()``).
        self.status_server: Optional[StatusServer] = None
        self._next_worker_id = 1
        # Whether the members hold a frontier yet (the seed job, a restored
        # checkpoint or dealt partitions); reset when they are shut down.
        self._seeded = False
        self._pending_recovery: List[RecoveryJob] = []
        self._pending_respawns = 0
        # The result of the run in progress (a scratch one between runs, so
        # membership changes outside ``run()`` need no special casing).
        self._result = self._new_result()
        self._round_statuses: Dict[int, StatusReply] = {}
        self._heartbeat_misses = 0
        self._agents_reconnected = 0
        # Dead members' last-known cache counters: the run's cache aggregate
        # must include members that never finalized.
        self._failed_cache_counters: Dict[int, Dict[str, int]] = {}
        # Elastic-membership accounting (reported on the result).
        self._workers_added = 0
        self._workers_removed = 0
        self._peak_workers = 0
        # Counters carried in from before this coordinator's members started:
        # a checkpoint being resumed, or a static bootstrap exploration.
        self._base_paths = 0
        self._base_useful = 0
        self._base_replay = 0
        self._base_wall = 0.0
        self._base_covered: Set[int] = set()
        self._base_bugs: List[BugReport] = []
        self._base_tests: List[TestCase] = []
        self._resumed_from_round: Optional[int] = None
        self._run_started = 0.0
        # Round wall-time distribution of the current run (p50/p99 on
        # ``run_finished``); fresh per ``run()``.
        self._round_seconds = Histogram("round_seconds")

    # -- members: launch, enroll, tear down ----------------------------------------------

    def _launch(self) -> _WorkerHandle:
        """Provision one member's channel (without waiting for its
        ReadyReply) under the next worker id -- the carrier-specific part."""
        raise NotImplementedError

    def _take_worker_id(self) -> int:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        return worker_id

    def _check_ready(self, handle: _WorkerHandle) -> None:
        """Wait for the ReadyReply and enroll the member; _WorkerFailure on death."""
        ready = self._receive(handle)
        if not isinstance(ready, ReadyReply):
            raise WorkerProcessError(
                "worker %d sent %r instead of ReadyReply"
                % (handle.worker_id, ready))
        if ready.line_count != self.line_count:
            raise WorkerProcessError(
                "worker %d compiled a program with %d lines, coordinator "
                "expected %d -- the spec factory is not deterministic"
                % (handle.worker_id, ready.line_count, self.line_count))
        self.handles.append(handle)
        self.load_balancer.register_worker(handle.worker_id)
        self.ledger.register(handle.worker_id)

    def _start_workers(self) -> None:
        launched = [self._launch() for _ in range(self.config.num_workers)]
        for handle in launched:
            try:
                self._check_ready(handle)
            except _WorkerFailure as failure:
                # Startup failures are configuration errors, not churn.
                raise WorkerProcessError(
                    "worker %d %s" % (failure.handle.worker_id,
                                      failure.reason)) from None
        self._peak_workers = max(self._peak_workers, len(self.handles))

    def _spawn_worker(self) -> _WorkerHandle:
        """Start one member and wait for it (respawn / elastic join path)."""
        # Seed the newcomer's balancer report with the mean queue length:
        # until its first real status arrives, a fabricated zero would skew
        # queue_length_spread() and draw spurious transfers (computed before
        # registration so the newcomer's own empty report is excluded).
        seed_length = round(self.load_balancer.mean_queue_length())
        handle = self._launch()
        self._check_ready(handle)
        if handle.transport.kind == "tcp":
            # Every admission past the initial membership is an agent
            # (re)connecting into a running cluster: a respawn replacement
            # or an elastic join.
            self._agents_reconnected += 1
        self.load_balancer.register_worker(handle.worker_id,
                                           queue_length=seed_length)
        # A joining member starts from the merged global coverage (§3.3).
        bits = self.load_balancer.overlay.global_vector.as_int()
        if bits:
            handle.pending_coverage_bits = bits
        return handle

    def _cleanup_handle(self, handle: _WorkerHandle) -> None:
        """Tear down a member's channel (alive, stuck, or dead).

        The transport owns the escalation: the queue pair reaps its child
        process (join -> terminate -> kill) and drains its queues; the TCP
        transport grants a drain window for a graceful hang-up, then cuts
        the socket.  A coordinator-spawned loopback agent process is reaped
        here too, with the same escalation.
        """
        handle.transport.close(timeout=self.shutdown_timeout)
        if handle.agent_process is not None:
            reap_process(handle.agent_process, timeout=self.shutdown_timeout)

    def _shutdown_workers(self) -> None:
        everyone = self.handles + self._draining
        for handle in everyone:
            if handle.transport.is_alive():
                try:
                    handle.transport.send(StopCommand())
                except TransportError:  # pragma: no cover - channel torn down
                    pass
        for handle in everyone:
            self._cleanup_handle(handle)
        self.handles = []
        self._draining = []
        self._seeded = False

    # -- messaging ---------------------------------------------------------------------

    def _send(self, handle: _WorkerHandle, command: object) -> None:
        try:
            handle.transport.send(command)
        except TransportError as exc:
            raise _WorkerFailure(handle, str(exc)) from None
        self.messages_sent += 1

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
                    death_deadline = time.monotonic() + self.reply_timeout
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

    def _broadcast(self, handles: List[_WorkerHandle],
                   command_for: Callable[[_WorkerHandle], object]
                   ) -> List[_WorkerHandle]:
        """Send each member its command; returns the members that took it
        (one whose channel is already broken is marked dead instead)."""
        reached = []
        for handle in list(handles):
            try:
                self._send(handle, command_for(handle))
            except _WorkerFailure as failure:
                self._handle_failure(failure)
            else:
                reached.append(handle)
        return reached

    def _import_into(self, handle: _WorkerHandle,
                     command: ImportCommand) -> int:
        """Ship one job tree to a member; returns the jobs it took on and
        keeps the balancer's view of its queue fresh within the round."""
        self._send(handle, command)
        imported = self._expect(handle, ImportReply).imported
        handle.queue_length += imported
        self._refresh_report(handle)
        return imported

    def _refresh_report(self, handle: _WorkerHandle) -> None:
        report = self.load_balancer.reports.get(handle.worker_id)
        if report is not None:
            report.queue_length = handle.queue_length

    # -- fault tolerance ----------------------------------------------------------------

    def _handle_failure(self, failure: _WorkerFailure,
                        requeue: bool = True) -> None:
        """Mark a member dead and stage its territory for recovery.

        Covers live and draining members alike (a member can die mid-drain;
        its not-yet-exported territory is requeued from the ledger exactly
        like any other death).  Raises :class:`WorkerProcessError` when the
        failure budget is exhausted.  The staged recovery jobs (and the
        replacement member, under ``respawn``) materialize at the next
        :meth:`_flush_recovery` call -- a point where no commands are
        outstanding, so request/reply pairing stays intact.
        """
        handle = failure.handle
        result = self._result
        was_draining = handle in self._draining
        if was_draining:
            self._draining.remove(handle)
        elif handle in self.handles:
            self.handles.remove(handle)
        else:
            return  # already accounted
        result.worker_failures += 1
        if getattr(handle.transport, "heartbeat_missed", False):
            # Death detected by heartbeat silence (vs. connection loss or
            # process exit) -- kept as its own counter on the result.
            self._heartbeat_misses += 1
            if self.tracer.enabled:
                self.tracer.emit(trace_schema.HEARTBEAT_MISS, worker=handle.worker_id)
        if self.tracer.enabled:
            self.tracer.emit(trace_schema.WORKER_DIED, worker=handle.worker_id,
                             reason=failure.reason, draining=was_draining)
        if handle.cache_counters:
            # Its FinalReply will never arrive; the last piggybacked
            # counters keep the run's cache aggregate honest.
            self._failed_cache_counters[handle.worker_id] = dict(
                handle.cache_counters)
        result.failed_worker_stats[handle.worker_id] = WorkerStats(
            worker_id=handle.worker_id,
            useful_instructions=handle.useful_instructions,
            replay_instructions=handle.replay_instructions,
            paths_completed=handle.paths_completed)
        self.load_balancer.deregister_worker(handle.worker_id)
        budget = self.max_worker_failures
        if budget is not None and result.worker_failures > budget:
            self._cleanup_handle(handle)
            raise WorkerProcessError(
                "worker %d %s; failure budget exhausted "
                "(max_worker_failures=%d)"
                % (handle.worker_id, failure.reason, budget)) from None
        if requeue:
            self._pending_recovery.extend(
                self.ledger.recovery_jobs(handle.worker_id))
            # A draining member was leaving anyway: recover its territory
            # but do not respawn a replacement for it.
            if self.respawn and not was_draining:
                self._pending_respawns += 1
        self.ledger.forget(handle.worker_id)
        self._cleanup_handle(handle)

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
                    result.worker_failures += 1
                    budget = self.max_worker_failures
                    if (budget is not None
                            and result.worker_failures > budget):
                        raise WorkerProcessError(
                            "respawned worker %d %s; failure budget "
                            "exhausted (max_worker_failures=%d)"
                            % (failure.handle.worker_id, failure.reason,
                               budget)) from None
                    self._cleanup_handle(failure.handle)
                continue
            if not self.handles:
                raise WorkerProcessError(
                    "every worker died and respawn is disabled; "
                    "%d recovery job(s) have nowhere to go"
                    % len(self._pending_recovery))
            job = self._pending_recovery.pop(0)
            handle = min(self.handles, key=lambda h: h.queue_length)
            # Fences are live territory inside the root -- possibly the
            # survivor's own, which it keeps rather than cedes.
            foreign = [fence for fence in job.fences
                       if not self.ledger.covers(handle.worker_id, fence)]
            self.ledger.acquire(handle.worker_id, job.root)
            for fence in foreign:
                self.ledger.cede(handle.worker_id, fence)
            tree = JobTree.from_jobs([Job(job.root)])
            try:
                imported = self._import_into(handle, ImportCommand(
                    encoded_jobs=tree.encode(),
                    fence_paths=job.fences,
                    recovered=True))
            except _WorkerFailure as failure:
                # The survivor died too; its ledger now includes this job,
                # so _handle_failure re-stages it (budget permitting).
                self._handle_failure(failure)
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
        """Ids of the live (exploring) members, excluding draining ones."""
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
        self._workers_added += 1
        self._peak_workers = max(self._peak_workers, len(self.handles))
        self.tracer.emit(trace_schema.WORKER_JOINED, worker=handle.worker_id,
                         workers=len(self.handles))
        return handle.worker_id

    def remove_worker(self, worker_id: int) -> int:
        """Start retiring a member, handing its frontier over incrementally.

        The member immediately stops exploring and leaves the load
        balancer's view, but its frontier drains in ``drain_chunk``-sized
        job exports across the following rounds (it stays a *draining*
        member until empty), so removal never stalls a round.  Its results
        (paths, bugs, coverage, stats) still count toward the final
        result.  Returns the number of jobs handed over in the first drain
        chunk.
        """
        handle = next((h for h in self.handles if h.worker_id == worker_id),
                      None)
        if handle is None:
            raise ValueError("no live worker with id %d" % worker_id)
        if len(self.handles) == 1:
            raise ValueError("cannot remove the last worker")
        self.handles.remove(handle)
        self._draining.append(handle)
        self._workers_removed += 1
        self.tracer.emit(trace_schema.WORKER_DRAINING, worker=worker_id,
                         queue=handle.queue_length)
        self.load_balancer.deregister_worker(worker_id)
        return self._drain_member(handle)

    def _drain_member(self, handle: _WorkerHandle) -> int:
        """Export one drain chunk from a draining member to the least-loaded
        survivor; retire it (collect final results, stop it) once its
        frontier is empty.  Returns jobs moved."""
        if not self.handles:
            # Nobody to hand jobs to; try again once a survivor exists.
            return 0
        try:
            self._send(handle, ExportCommand(count=self.config.drain_chunk))
            export = self._expect(handle, ExportReply)
        except _WorkerFailure as failure:
            # Died mid-drain: its remaining territory is recovered from the
            # ledger like any other member death.
            self._lose(failure)
            return 0
        moved = 0
        if export.encoded_jobs is not None and self.handles:
            target = min(self.handles, key=lambda h: h.queue_length)
            try:
                moved = self._hand_over(handle.worker_id, target,
                                        export.encoded_jobs)
            except _WorkerFailure as failure:
                self._lose(failure)
        # An export smaller than the chunk means the frontier is empty now.
        if export.job_count < self.config.drain_chunk:
            handle.queue_length = 0
        else:
            handle.queue_length = max(0, handle.queue_length
                                      - export.job_count)
        if handle.queue_length == 0:
            self._retire_draining(handle)
        return moved

    def _hand_over(self, source_id: int, target: _WorkerHandle,
                   encoded_jobs: bytes) -> int:
        """Move exported jobs into ``target``, ledger first: a target that
        dies mid-handover is recovered with these jobs included."""
        for job in JobTree.decode(encoded_jobs).jobs():
            self.ledger.cede(source_id, job.path)
            self.ledger.acquire(target.worker_id, job.path)
        return self._import_into(target,
                                 ImportCommand(encoded_jobs=encoded_jobs))

    def _retire_draining(self, handle: _WorkerHandle) -> None:
        """Collect a drained member's final results and stop it."""
        try:
            self._send(handle, FinalizeCommand())
            final = self._expect(handle, FinalReply)
        except _WorkerFailure as failure:
            self._lose(failure)
            return
        self._departed_finals.append(final)
        if handle in self._draining:
            self._draining.remove(handle)
        self.tracer.emit(trace_schema.WORKER_LEFT, worker=handle.worker_id,
                         workers=len(self.handles))
        self.ledger.forget(handle.worker_id)
        try:
            self._send(handle, StopCommand())
        except _WorkerFailure:  # pragma: no cover - channel torn down
            pass
        self._cleanup_handle(handle)

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
        tracer = Tracer(lim.trace_path) if lim.trace_path else NULL_TRACER
        self.tracer = tracer
        if self.config.status_listen is not None:
            self.status_server = StatusServer(self.config.status_listen)
        try:
            return self._run(lim, resume_from)
        finally:
            try:
                self._teardown_run()
            finally:
                self.tracer = NULL_TRACER
                tracer.close()
                if self.status_server is not None:
                    self.status_server.close()
                    self.status_server = None

    def _new_result(self) -> RunResult:
        return RunResult(backend=self.backend_name,
                         test_name=self.spec_name or "",
                         num_workers=self.config.num_workers,
                         line_count=self.line_count)

    def _begin_run(self, result: RunResult,
                   resume_from: Optional[Union[ClusterCheckpoint, str]]
                   ) -> None:
        self._result = result
        self._failed_cache_counters = {}
        self._round_statuses = {}
        if not self.handles:
            self._start_workers()
        if resume_from is not None:
            self._restore(resume_from)
        elif not self._seeded:
            self._seed()

    def _seed(self) -> None:
        """Give fresh members their first frontier: the first worker to
        join receives the seed job (§3.1)."""
        self._seeded = True
        seed_handle = self.handles[0]
        self.ledger.acquire(seed_handle.worker_id, ())
        try:
            self._send(seed_handle, SeedCommand())
            self._apply_status(seed_handle,
                               self._expect(seed_handle, StatusReply))
        except _WorkerFailure as failure:
            self._lose(failure)

    def _teardown_run(self) -> None:
        """End of ``run()``: members of a process/tcp cluster are per-run."""
        self._shutdown_workers()

    def _balancing_active(self, round_index: int) -> bool:
        if not self.config.load_balancing_enabled:
            return False
        cutoff = self.config.disable_balancing_after_round
        return cutoff is None or round_index < cutoff

    def _run(self, lim: ExplorationLimits,
             resume_from: Optional[Union[ClusterCheckpoint, str]]
             ) -> RunResult:
        config = self.config
        limit = lim.max_rounds if lim.max_rounds is not None else config.max_rounds
        start = time.monotonic()
        self._run_started = start
        instructions_executed = 0
        policy = config.autoscale
        self.autoscaler = Autoscaler(policy) if policy is not None else None
        self._round_seconds = Histogram("round_seconds")

        line_count = self.line_count
        result = self._new_result()
        timeline = result.timeline = ClusterTimeline()
        transferred = 0
        candidates = 0
        self._begin_run(result, resume_from)

        tracer = self.tracer
        tracer.emit(trace_schema.RUN_STARTED, backend=self.backend_name,
                    workers=len(self.handles),
                    test=self.spec_name, line_count=line_count,
                    resumed_from_round=self._resumed_from_round)
        traced_bugs = 0

        round_index = 0
        while round_index < limit:
            if self.round_hook is not None:
                self.round_hook(round_index, self)
            if self.autoscaler is not None:
                self.autoscaler(round_index, self)
            if not self.handles:
                raise WorkerProcessError("no live workers left")
            self._peak_workers = max(self._peak_workers, len(self.handles))
            balancing = self._balancing_active(round_index)
            # A snapshot lands after every checkpoint_every *completed* rounds.
            checkpoint_due = bool(
                config.checkpoint_every
                and (round_index + 1) % config.checkpoint_every == 0)
            failures_before = result.worker_failures
            round_started = time.monotonic()

            # 1. Explore one round of virtual time.
            work = self._explore_phase(round_index, checkpoint_due)
            instructions_executed += work.useful_delta + work.replay_delta

            # 2. Status updates into the load balancer (+ merged coverage
            # back out to the members, §3.3).
            if round_index % config.status_update_interval == 0:
                self._status_phase(round_index)

            # 3. Balancing decisions, brokered synchronously; then drain
            # chunks move, once transfers have settled the queues.
            states_transferred = 0
            if balancing and round_index % config.balance_interval == 0:
                for command in self.load_balancer.balance(round_index):
                    states_transferred += self._dispatch_transfer(
                        command, round_index)
            for handle in list(self._draining):
                self._drain_member(handle)

            # 4. Record the round.
            live = self.handles
            covered_count = self.load_balancer.overlay.covered_count
            coverage_percent = (100.0 * covered_count / line_count
                                if line_count else 0.0)
            paths_completed = self._paths_completed()
            bugs_found = self._bugs_found()
            # Draining members' outstanding jobs count: they are still part
            # of the global frontier (survivors receive them chunk by chunk).
            candidates = sum(h.queue_length
                             for h in live + self._draining)
            elapsed = time.monotonic() - start
            queues = {h.worker_id: h.queue_length for h in live}
            timeline.record(RoundSnapshot(
                round_index=round_index,
                queue_lengths=dict(queues),
                total_candidates=candidates,
                states_transferred=states_transferred,
                useful_instructions=work.useful_delta,
                replay_instructions=work.replay_delta,
                covered_lines=covered_count,
                coverage_percent=coverage_percent,
                paths_completed=paths_completed,
                bugs_found=bugs_found,
                load_balancing_enabled=balancing,
                num_workers=len(live),
                elapsed=elapsed,
            ))
            transferred += states_transferred
            if tracer.enabled:
                if bugs_found > traced_bugs:
                    tracer.emit(trace_schema.BUG_FOUND, round=round_index,
                                bugs=bugs_found, new=bugs_found - traced_bugs)
                    traced_bugs = bugs_found
                tracer.emit(
                    trace_schema.ROUND_COMPLETED, round=round_index,
                    elapsed=round(elapsed, 6),
                    coverage_percent=round(coverage_percent, 3),
                    covered_lines=covered_count, paths=paths_completed,
                    candidates=candidates,
                    workers=len(live),
                    useful=work.useful_delta, replay=work.replay_delta,
                    transferred=states_transferred,
                    queues=queues, workers_detail=work.detail)
            if self.status_server is not None:
                self.status_server.update({
                    "backend": self.backend_name,
                    "round": round_index,
                    "elapsed": round(elapsed, 3),
                    "coverage_percent": round(coverage_percent, 3),
                    "covered_lines": covered_count,
                    "paths_completed": paths_completed,
                    "bugs_found": bugs_found,
                    "candidates": candidates,
                    "live_workers": len(live),
                    "draining_workers": len(self._draining),
                    "queues": dict(queues),
                })
            self._round_seconds.observe(time.monotonic() - round_started)
            round_index += 1

            # 4b. Periodic checkpoint (between rounds, after status merge);
            # skipped when this round lost a member, so a snapshot never
            # captures a half-recovered frontier.
            if checkpoint_due and result.worker_failures == failures_before:
                self._write_checkpoint(round_index)
                tracer.emit(trace_schema.CHECKPOINT_WRITTEN, round=round_index,
                            path=config.checkpoint_path)

            # 5. Termination checks: a goal met and a frontier run dry are
            # independent (the last path can be the one the goal asked for).
            result.goal_reached = lim.satisfied_by(
                paths_completed, coverage_percent, bugs_found)
            result.exhausted = candidates == 0
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
        result.wall_time = self._base_wall + (time.monotonic() - start)
        result.states_transferred = transferred
        result.states_remaining = candidates
        latency = self._finalize(result, round_index)
        if tracer.enabled:
            emit_solver_query(tracer, result.cache_stats, latency)
            round_p50 = self._round_seconds.percentile(50.0)
            round_p99 = self._round_seconds.percentile(99.0)
            tracer.emit(trace_schema.RUN_FINISHED, rounds=result.rounds_executed,
                        paths=result.paths_completed,
                        coverage_percent=round(result.coverage_percent, 3),
                        bugs=len(result.bugs),
                        useful=result.useful_instructions,
                        replay=result.replay_instructions,
                        exhausted=result.exhausted,
                        goal_reached=result.goal_reached,
                        wall_time=round(result.wall_time, 6),
                        round_time_p50=(None if round_p50 is None
                                        else round(round_p50, 6)),
                        round_time_p99=(None if round_p99 is None
                                        else round(round_p99, 6)))
        return result

    # -- round phases --------------------------------------------------------------------

    def _explore_phase(self, round_index: int,
                       checkpoint_due: bool) -> _RoundWork:
        # One round of exploration on every live member (concurrently, where
        # the carrier has real processes behind it).  Draining members take
        # part with a status-only heartbeat: they no longer explore, but
        # their replies keep queue lengths fresh and carry their frontier
        # into checkpoints.
        previous = {h.worker_id: (h.useful_instructions,
                                  h.replay_instructions)
                    for h in self.handles}
        round_handles = self._broadcast(
            self.handles, lambda handle: ExploreCommand(
                budget=self.config.instructions_per_round,
                global_coverage_bits=handle.pending_coverage_bits,
                report_frontier=checkpoint_due,
                trace=self.tracer.enabled))
        for handle in round_handles:
            handle.pending_coverage_bits = None
        drain_handles = self._broadcast(
            self._draining, lambda handle: DrainStatusCommand(
                report_frontier=checkpoint_due))
        statuses: Dict[int, StatusReply] = {}
        work = _RoundWork()
        for handle in round_handles:
            try:
                status = self._expect(handle, StatusReply)
            except _WorkerFailure as failure:
                self._handle_failure(failure)
                continue
            statuses[handle.worker_id] = status
            prev_useful, prev_replay = previous[handle.worker_id]
            work.useful_delta += status.useful_instructions - prev_useful
            work.replay_delta += status.replay_instructions - prev_replay
            self._apply_status(handle, status)
        for handle in drain_handles:
            try:
                status = self._expect(handle, StatusReply)
            except _WorkerFailure as failure:
                self._handle_failure(failure)
                continue
            statuses[handle.worker_id] = status
            self._apply_status(handle, status)
        # Requeue dead members' territories / respawn replacements now that
        # every outstanding command has been resolved.
        self._flush_recovery()
        for worker_id, status in statuses.items():
            prev_u, prev_r = previous.get(
                worker_id, (status.useful_instructions,
                            status.replay_instructions))
            work.detail[worker_id] = {
                "useful": status.useful_instructions - prev_u,
                "replay": status.replay_instructions - prev_r,
                "queue": status.queue_length,
            }
        self._round_statuses = statuses
        return work

    def _status_phase(self, round_index: int) -> None:
        # Live members only: draining members left the balancer's view
        # when their removal began.
        for handle in self.handles:
            status = self._round_statuses.get(handle.worker_id)
            if status is None:
                continue
            merged_bits = self.load_balancer.receive_status(
                worker_id=handle.worker_id,
                queue_length=handle.queue_length,
                useful_instructions=status.useful_instructions,
                coverage_bits=status.coverage_bits,
                round_index=round_index)
            handle.pending_coverage_bits = merged_bits

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
        if export.encoded_jobs is None:
            return 0
        try:
            imported = self._hand_over(command.source, destination,
                                       export.encoded_jobs)
        except _WorkerFailure as failure:
            # The jobs are in the dead destination's territory already, so
            # recovery requeues them; nothing is lost.
            self._lose(failure)
            return 0
        if self.tracer.enabled and imported:
            self.tracer.emit(trace_schema.JOB_TRANSFERRED, round=round_index,
                             source=command.source,
                             destination=command.destination,
                             jobs=imported)
        return imported

    def _apply_status(self, handle: _WorkerHandle, status: StatusReply) -> None:
        handle.queue_length = status.queue_length
        handle.paths_completed = status.paths_completed
        handle.bugs_found = status.bugs_found
        handle.useful_instructions = status.useful_instructions
        handle.replay_instructions = status.replay_instructions
        if status.cache_counters is not None:
            handle.cache_counters = dict(status.cache_counters)
        if status.events:
            # Member-side buffered events (explore spans, ...) merge into
            # the single coordinator-owned trace file.
            self.tracer.ingest(status.events, worker=handle.worker_id)

    # -- what the recorder reports -------------------------------------------------------
    # Base (resumed checkpoint / bootstrap) + departed + live and draining,
    # each counted once, so neither number drops when a member retires.

    def _paths_completed(self) -> int:
        return (self._base_paths
                + sum(f.paths_completed for f in self._departed_finals)
                + sum(h.paths_completed
                      for h in self.handles + self._draining))

    def _bugs_found(self) -> int:
        return (len(self._base_bugs)
                + sum(len(f.bugs) for f in self._departed_finals)
                + sum(h.bugs_found for h in self.handles + self._draining))

    # -- checkpoint / resume -------------------------------------------------------------

    def _write_checkpoint(self, round_index: int) -> ClusterCheckpoint:
        statuses = self._round_statuses
        frontier: List[Path] = []
        # Frontiers come from every status: a member that finished draining
        # after the statuses were collected listed its final chunk's jobs,
        # which the receiving survivor's (earlier) status does not -- the
        # union still holds each job exactly once.
        for status in statuses.values():
            if status.frontier is None:
                continue
            frontier.extend(job.path
                            for job in JobTree.decode(status.frontier).jobs())
        # Counters and results are different: a member retired between
        # status collection and this snapshot already moved its totals into
        # _departed_finals, so summing its status too would double count.
        active_ids = {h.worker_id for h in self.handles + self._draining}
        statuses = {worker_id: status
                    for worker_id, status in statuses.items()
                    if worker_id in active_ids}
        departed = self._departed_finals
        # The overlay lags by up to status_update_interval rounds; fold in
        # the coverage bits just collected so lines covered on completed
        # paths (never re-explored on resume) cannot be lost.
        coverage_bits = self.load_balancer.overlay.global_vector.as_int()
        for status in statuses.values():
            coverage_bits |= status.coverage_bits
        # Self-contained resume: bug reports and generated inputs found
        # before the snapshot travel with it (members attach them to their
        # status replies on checkpoint rounds only).
        bugs = list(self._base_bugs)
        test_cases = list(self._base_tests)
        for final in departed:
            bugs.extend(final.bugs)
            test_cases.extend(final.test_cases)
        for status in statuses.values():
            bugs.extend(status.bugs or ())
            test_cases.extend(status.test_cases or ())
        checkpoint = ClusterCheckpoint(
            round_index=round_index,
            frontier_paths=sorted(frontier),
            coverage_bits=coverage_bits,
            line_count=self.line_count,
            paths_completed=(self._base_paths
                             + sum(f.paths_completed for f in departed)
                             + sum(s.paths_completed
                                   for s in statuses.values())),
            useful_instructions=(self._base_useful
                                 + sum(f.stats.useful_instructions
                                       for f in departed)
                                 + sum(s.useful_instructions
                                       for s in statuses.values())),
            replay_instructions=(self._base_replay
                                 + sum(f.stats.replay_instructions
                                       for f in departed)
                                 + sum(s.replay_instructions
                                       for s in statuses.values())),
            wall_time=(self._base_wall
                       + (time.monotonic() - self._run_started)),
            bug_reports=[ClusterCheckpoint.encode_bug(b)
                         for b in dedupe_bugs(bugs)],
            test_cases=[ClusterCheckpoint.encode_test_case(t)
                        for t in test_cases],
            worker_stats={
                worker_id: {
                    "useful_instructions": s.useful_instructions,
                    "replay_instructions": s.replay_instructions,
                    "paths_completed": s.paths_completed,
                    "queue_length": s.queue_length,
                }
                for worker_id, s in statuses.items()},
            strategy_seeds={h.worker_id: h.worker_id for h in self.handles},
            spec_name=self.spec_name,
            spec_params=dict(self.spec_params),
            backend=self.backend_name,
        )
        if self.config.checkpoint_path:
            checkpoint.save(self.config.checkpoint_path)
        self.last_checkpoint = checkpoint
        return checkpoint

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
        self._base_paths = checkpoint.paths_completed
        self._base_useful = checkpoint.useful_instructions
        self._base_replay = checkpoint.replay_instructions
        self._base_wall = checkpoint.wall_time
        self._base_covered = checkpoint.covered_lines()
        self._base_bugs = checkpoint.decode_bugs()
        self._base_tests = checkpoint.decode_test_cases()
        self._resumed_from_round = checkpoint.round_index
        self._deal_frontier(checkpoint.frontier_paths,
                            checkpoint.coverage_bits)

    def _deal_frontier(self, paths: List[Path], coverage_bits: int) -> None:
        """Deal a frontier round-robin to the live members as ordinary job
        imports, priming them with the coverage that came with it."""
        self._seeded = True
        self.load_balancer.overlay.merge_from_worker(coverage_bits)
        live = list(self.handles)
        shares: Dict[int, List[Path]] = {h.worker_id: [] for h in live}
        for index, path in enumerate(sorted(paths)):
            shares[live[index % len(live)].worker_id].append(tuple(path))
        for handle in live:
            share = shares[handle.worker_id]
            handle.pending_coverage_bits = coverage_bits or None
            if not share:
                continue
            for path in share:
                self.ledger.acquire(handle.worker_id, path)
            tree = JobTree.from_jobs([Job(p) for p in share])
            try:
                self._import_into(handle,
                                  ImportCommand(encoded_jobs=tree.encode()))
            except _WorkerFailure as failure:
                self._lose(failure)

    # -- finalization --------------------------------------------------------------------

    def _finalize(self, result: RunResult, rounds: int) -> Histogram:
        """Fill ``result`` from every member's final accounting (live,
        draining and departed); returns the merged solver-query latency."""
        finals: List[FinalReply] = []
        # Members still draining when the run ends are finalized like live
        # ones: their results count, and any jobs left on them were already
        # counted as unexplored candidates by the termination checks.
        for handle in self.handles + self._draining:
            try:
                self._send(handle, FinalizeCommand())
                finals.append(self._expect(handle, FinalReply))
            except _WorkerFailure as failure:
                # Too late to re-explore; keep its last-known counters.
                self._handle_failure(failure, requeue=False)
        finals.extend(self._departed_finals)

        live = self.handles
        result.num_workers = len(live) or result.num_workers
        result.rounds_executed = rounds
        result.resumed_from_round = self._resumed_from_round
        result.workers_added = self._workers_added
        result.workers_removed = self._workers_removed
        result.peak_workers = max(self._peak_workers, len(live))
        result.paths_completed = (self._base_paths
                                  + sum(f.paths_completed for f in finals))
        result.useful_instructions = self._base_useful + sum(
            f.stats.useful_instructions for f in finals)
        result.replay_instructions = self._base_replay + sum(
            f.stats.replay_instructions for f in finals)
        covered: Set[int] = set(self._base_covered)
        all_bugs: List[BugReport] = list(self._base_bugs)
        result.test_cases.extend(self._base_tests)
        worker_stats: Dict[int, WorkerStats] = {}
        latency = Histogram("solver_query_seconds")
        for final in finals:
            covered.update(final.covered_lines)
            all_bugs.extend(final.bugs)
            result.test_cases.extend(final.test_cases)
            worker_stats[final.worker_id] = final.stats
            if final.latency is not None:
                latency.merge_from(final.latency)
        result.covered_lines = covered
        result.bugs = dedupe_bugs(all_bugs)
        result.worker_stats = worker_stats
        result.transfer_cost = TransferCost.from_worker_stats(
            worker_stats.values())
        # Dead members never sent a FinalReply; their last piggybacked
        # counters (from the status replies) still enter the aggregate so
        # the run's cache hit rates reflect the whole fleet.
        finalized_ids = {f.worker_id for f in finals}
        counter_maps = [dict(f.cache_counters) for f in finals]
        counter_maps.extend(
            counters
            for worker_id, counters in self._failed_cache_counters.items()
            if worker_id not in finalized_ids)
        result.cache_stats = aggregate_cache_counters(counter_maps)
        result.heartbeat_misses = self._heartbeat_misses
        result.agents_reconnected = self._agents_reconnected
        result.messages_sent = self.messages_sent
        return latency
