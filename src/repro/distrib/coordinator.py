"""The one driver: the protocol core's commands carried over ``Transport`` s.

Every cluster backend is :class:`Coordinator` plus a carrier.  The decisions
of the paper's §3 protocol are the transport-free
:class:`~repro.distrib.protocol.ProtocolCore`; the driver owns the rest:
each member's :class:`~repro.net.transport.Transport`, reply timeouts and
liveness, the clock, the tracer, the live
:class:`~repro.obs.status.StatusServer`, saving checkpoints, teardown and
reaping.  :meth:`Coordinator._drive` is its one loop -- carry out what the
core returned, then deliver the next event -- and :meth:`Coordinator._fail`
the one place a failed send or receive becomes a
:class:`~repro.distrib.protocol.Failure`.

A shell supplies :meth:`Coordinator._launch` (how one member's channel comes
to exist) and decides whether members outlive a run:
:class:`~repro.distrib.cluster.ProcessCloud9Cluster` (mp) and
:class:`~repro.distrib.cluster.TcpCloud9Cluster` (tcp) start every ``run()``
with fresh members and a fresh core; the loopback
:class:`~repro.distrib.loopback.Cloud9Cluster` keeps both, so its books are
cumulative across runs.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.load_balancer import TransferCommand
from repro.distrib.messages import ErrorReply, StatusReply, StopCommand
from repro.distrib.protocol import (
    Action,
    Failure,
    Member,
    Note,
    Operation,
    ProtocolCore,
    Send,
    WorkerProcessError,
)
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult
from repro.net.transport import ReceiveTimeout, TransportError, parse_address
from repro.obs import schema as trace_schema
from repro.obs.metrics import Histogram
from repro.obs.schema import RoundSnapshot
from repro.obs.status import StatusServer
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, emit_solver_query

__all__ = ["Coordinator", "WorkerProcessError"]

#: Rounds a run may take when its limits set no ``max_rounds``.
MAX_ROUNDS = 10_000


class Coordinator:
    """The driver: the core's §3 protocol over any carrier."""

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
        #: The protocol's decisions; replaced with the membership.
        self.core = self._new_core()
        #: Every member whose channel is open, by worker id: the live ones,
        #: and one the core has let go of before it was stopped.
        self._roster: Dict[int, Member] = {}

    def _new_core(self) -> ProtocolCore:
        return ProtocolCore(self.config, self.line_count, self.backend_name,
                            self.spec_name, self.spec_params)

    @property
    def handles(self) -> List[Member]:
        """The live members (the core's)."""
        return self.core.members

    @property
    def status_address(self) -> Optional[Tuple[str, int]]:
        """``(host, port)`` of the live-status endpoint, if one is running."""
        return self.status_server.address if self.status_server else None

    # -- members: launch, tear down --------------------------------------------------------

    def _launch(self) -> Member:
        """Provision one member's channel (without waiting for its
        ReadyReply) under the next worker id -- the carrier-specific part."""
        raise NotImplementedError

    def _open(self) -> Member:
        """Launch one member onto the roster."""
        member = self._launch()
        self._roster[member.worker_id] = member
        return member

    def _start_workers(self) -> None:
        try:
            for _ in range(self.config.num_workers):
                self._open()
            self._drive(self.core.start(list(self._roster.values())))
        except WorkerProcessError:
            # No member launched so far, enrolled or not, may outlive the
            # error.
            self._shutdown_workers()
            raise

    def _cleanup_handle(self, handle: Member) -> None:
        """Tear down a member's channel (alive, stuck, or dead).

        The transport owns the escalation: the queue pair reaps its child
        process (join -> terminate -> kill) and drains its queues; the TCP
        transport grants a drain window for a graceful hang-up, cuts the
        socket and reaps the local agent it was admitted with, if any.
        """
        self._roster.pop(handle.worker_id, None)
        handle.transport.close(timeout=self.config.shutdown_timeout)

    def _shutdown_workers(self) -> None:
        """Stop every member whose channel is open, one the core let go of
        mid-removal included; the membership's core goes with them."""
        handles = list(self._roster.values())
        for handle in handles:
            if handle.transport.is_alive():
                try:
                    handle.transport.send(StopCommand())
                except TransportError:  # pragma: no cover - channel torn down
                    pass
        for handle in handles:
            self._cleanup_handle(handle)
        self.core = self._new_core()

    # -- the one loop ------------------------------------------------------------------

    def _drive(self, op: Operation) -> Any:
        """Run one core operation to its end; returns its outcome."""
        core = self.core
        actions = core.begin(op)
        while True:
            self._perform(actions)
            member = core.awaited()
            if member is not None:
                event = self._receive(member)
                actions = (core.fail(event) if isinstance(event, Failure)
                           else core.reply(member, event))
            elif core.busy:
                actions = core.proceed()
            else:
                return core.outcome

    def _perform(self, actions: List[Action]) -> None:
        for action in actions:
            if isinstance(action, Send):
                failure = self._send(action.member, action.message)
                if isinstance(action.message, StopCommand):
                    # A retiring member is gone, whatever the send did.
                    self._cleanup_handle(action.member)
                elif failure is not None:
                    self._perform(self.core.fail(failure))
            elif isinstance(action, Note):
                if self.tracer.enabled:
                    self.tracer.emit(action.event, **action.fields)
            elif isinstance(action, Failure):
                self._perform(self.core.fail(
                    self._fail(action.member, action.reason)))
            else:  # Launch: a member the core asked for
                self.core.join(self._open())

    def _fail(self, handle: Member, reason: str) -> Failure:
        """The one place a member fails: its channel closes first."""
        failure = Failure(handle, reason, handle.transport.heartbeat_missed)
        self._cleanup_handle(handle)
        return failure

    def _send(self, handle: Member, command: object) -> Optional[Failure]:
        try:
            handle.transport.send(command)
        except TransportError as exc:
            return self._fail(handle, str(exc))
        self.core.books.messages_sent += 1
        return None

    def _receive(self, handle: Member) -> object:
        """The member's next reply, or its :class:`Failure`."""
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
                # missed): give in-flight replies a grace period to drain.
                if death_deadline is None:
                    death_deadline = (time.monotonic()
                                      + self.config.reply_timeout)
                if time.monotonic() >= death_deadline:
                    return self._fail(handle, transport.liveness_error())
                continue
            except TransportError as exc:
                # The channel itself broke (peer hung up, corrupt or
                # oversized frame): this member is lost, the run is not.
                return self._fail(handle, str(exc))
            if isinstance(reply, ErrorReply):
                return self._fail(handle, "failed:\n%s" % reply.details)
            if isinstance(reply, StatusReply) and reply.events:
                # Member-side buffered events (explore spans, ...) merge into
                # the single coordinator-owned trace file.
                self.tracer.ingest(reply.events, worker=handle.worker_id)
            return reply

    # -- elastic membership (§2.3: workers join and leave mid-run) -----------------------

    def add_worker(self) -> int:
        """Join a fresh, empty member; the load balancer will feed it.
        Returns the new worker id.  Callable between rounds (e.g. from
        ``round_hook``)."""
        return self._drive(self.core.add_worker())

    def remove_worker(self, worker_id: int) -> int:
        """Retire a member (:meth:`ProtocolCore.leave
        <repro.distrib.protocol.ProtocolCore.leave>`) between rounds, e.g.
        from ``round_hook``; its results still count.  Returns the number of
        jobs handed over."""
        return self._drive(self.core.leave(worker_id))

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

    def _seed(self) -> Operation:
        return self.core.seed()

    def _teardown_run(self) -> None:
        """End of ``run()``: members of a process/tcp cluster are per-run."""
        self._shutdown_workers()

    def _run(self, lim: ExplorationLimits,
             resume_from: Optional[Union[ClusterCheckpoint, str]]
             ) -> RunResult:
        limit = lim.max_rounds if lim.max_rounds is not None else MAX_ROUNDS
        start = time.monotonic()
        # Round wall-time distribution (p50/p99 on ``run_finished``).
        round_seconds = Histogram("round_seconds")
        tracer = self.tracer
        result = self.core.open_run(traced=tracer.enabled)
        if not self.handles:
            self._start_workers()
        core = self.core
        if resume_from is not None:
            self._drive(core.restore(ClusterCheckpoint.coerce(resume_from)))
        elif not core.seeded:
            self._drive(self._seed())
        tracer.emit(trace_schema.RUN_STARTED, backend=self.backend_name,
                    workers=len(core.members),
                    test=self.spec_name, line_count=self.line_count,
                    resumed_from_round=core.books.carried.resumed_from_round)
        traced_bugs = 0
        round_index = 0
        while round_index < limit:
            if self.round_hook is not None:
                self.round_hook(round_index, self)
            core.open_round(round_index)
            round_started = time.monotonic()
            self._explore_phase()
            self._status_phase()
            for command in core.transfers():
                self._dispatch_transfer(command)
            record = core.close_round(time.monotonic() - start, lim)
            traced_bugs = self._publish(record.snapshot, traced_bugs)
            round_seconds.observe(time.monotonic() - round_started)
            round_index += 1
            if record.checkpoint is not None:
                if self.config.checkpoint_path:
                    record.checkpoint.save(self.config.checkpoint_path)
                self.last_checkpoint = record.checkpoint
                tracer.emit(trace_schema.CHECKPOINT_WRITTEN, round=round_index,
                            path=self.config.checkpoint_path)
            if record.stop or (lim.max_wall_time is not None
                               and time.monotonic() - start
                               >= lim.max_wall_time):
                break

        # Cumulative across resume_from= segments: the checkpoint carries the
        # wall time already spent, this run adds its own elapsed time.
        result.wall_time = (core.books.carried.wall_time
                            + (time.monotonic() - start))
        latency = self._drive(core.finish(round_index))
        if tracer.enabled:
            emit_solver_query(tracer, result.cache_stats, latency)
            tracer.emit(trace_schema.RUN_FINISHED, **result.summary(),
                        round_time_p50=round_seconds.percentile(50.0),
                        round_time_p99=round_seconds.percentile(99.0))
        return result

    # -- round phases (each a span in the benchmark harness) -----------------------------

    def _explore_phase(self) -> None:
        self._drive(self.core.explore())

    def _status_phase(self) -> None:
        self.core.merge_statuses()

    def _dispatch_transfer(self, command: TransferCommand) -> int:
        """Broker one source->destination job transfer; returns jobs moved."""
        return self._drive(self.core.transfer(command))

    def _publish(self, snapshot: RoundSnapshot, traced_bugs: int) -> int:
        """The round record to the trace and the live-status document;
        returns the bug count traced so far."""
        tracer = self.tracer
        if not tracer.enabled and self.status_server is None:
            return traced_bugs
        record = snapshot.as_record()
        if tracer.enabled:
            if snapshot.bugs_found > traced_bugs:
                tracer.emit(trace_schema.BUG_FOUND, round=snapshot.round_index,
                            bugs=snapshot.bugs_found,
                            new=snapshot.bugs_found - traced_bugs)
            tracer.emit(trace_schema.ROUND_COMPLETED, **record)
        if self.status_server is not None:
            self.status_server.update(dict(record, backend=self.backend_name))
        return max(traced_bugs, snapshot.bugs_found)
