"""The protocol core: the paper's §3 round protocol, events in, commands out.

The coordinator only ever sees queue lengths and coverage bit vectors
(§3.1/§3.3) and moves work as path-encoded job trees the destination replays
(§3.2).  :class:`ProtocolCore` makes every decision of that protocol: it owns
the membership, the :class:`~repro.cluster.ledger.FrontierLedger`, the
:class:`~repro.cluster.load_balancer.LoadBalancer`, the books and the run's
result, and imports no transport, reads no clock and holds no tracer.

Each operation -- an explore round, a transfer, a retirement, the seed, the
final reports -- is a generator that yields a batch of commands
(:class:`Send`, :class:`Launch`, :class:`Failure`, trace :class:`Note` s) and
resumes with the batch's answers once it has settled (every command gets
exactly one reply, :data:`~repro.distrib.messages.REPLY_OF`).  The driver
(:class:`~repro.distrib.coordinator.Coordinator`) starts one with
:meth:`~ProtocolCore.begin`, carries the commands out and delivers the events:
a reply, a :class:`Failure`, a launched member, and "settled"
(:meth:`~ProtocolCore.proceed`).  Recovery (§2.3) has one place,
:meth:`~ProtocolCore._recover`: a failure only buries the member, staging its
ledger territory (and, under ``respawn``, a replacement), and the operation
that lost it recovers once its batch has settled.

Each member's account is its latest ``StatusReply`` plus a ``dead`` mark once
it fails (its work is then redone by whoever recovers its territory); work
done before the members existed is the one :class:`CarriedIn` account; only
:meth:`~ProtocolCore._totals` adds them up.  Coverage is the balancer's
overlay: a line a member covered stays covered after it dies.  A core lives
exactly as long as its membership.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (Any, Dict, Generator, List, Optional, Set, Tuple, Type,
                    TypeVar, Union)

from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.stats import ClusterTimeline, TransferCost, WorkerStats
from repro.distrib.messages import (
    REPLY_OF,
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
from repro.obs import schema as trace_schema
from repro.obs.metrics import Histogram
from repro.obs.schema import RoundSnapshot
from repro.solver.cache import aggregate_cache_counters

__all__ = ["ProtocolCore", "Member", "CarriedIn", "RoundRecord", "Failure",
           "Send", "Launch", "Note", "Action", "WorkerProcessError"]

Path = Tuple[int, ...]
_Reply = TypeVar("_Reply")


class WorkerProcessError(RuntimeError):
    """A member crashed and the run could not (or was configured not to)
    recover: startup failure, failure budget exhausted, or no survivors."""


@dataclass(eq=False)
class Member:
    """One member, and its account in the books."""

    worker_id: int
    #: The driver's channel to the member; the core never reads it.
    transport: Any = None
    #: The core's estimate between statuses: imports and exports adjust it
    #: (the balancer's report may lag behind it).
    queue_length: int = 0
    #: Merged coverage bits to piggyback on the next explore command.
    pending_coverage_bits: Optional[int] = None
    #: The account: the member's latest report, verbatim.
    status: Optional[StatusReply] = None
    #: The member failed: its last report stays for the failure report and
    #: the cache aggregate, but counts toward no total.
    dead: bool = False


@dataclass(frozen=True)
class Failure:
    """Event: a member's channel failed.  As a command: the member broke the
    protocol -- close its channel and deliver the event back."""

    member: Member
    reason: str
    #: Liveness was lost to heartbeat silence (a result counter of its own).
    heartbeat_missed: bool = False


@dataclass(frozen=True)
class Send:
    """Command: send ``message``.  Its reply is awaited, except after a
    ``StopCommand``, which retires the member: its channel is closed."""

    member: Member
    message: object


@dataclass(frozen=True)
class Launch:
    """Command: provision one more member and deliver it to
    :meth:`ProtocolCore.join`."""


@dataclass(frozen=True)
class Note:
    """Command: one trace record."""

    event: str
    fields: Dict[str, object]


Action = Union[Send, Launch, Failure, Note]
#: What a settled batch answers: each member's reply, or its Failure.
Answers = List[Tuple[Member, object]]
Operation = Generator[List[Action], Answers, Any]


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
    """What one membership has produced and been through."""

    carried: CarriedIn = field(default_factory=CarriedIn)
    #: Closed accounts: members that retired (on a full report) or died.
    departed: List[Member] = field(default_factory=list)
    messages_sent: int = 0
    workers_added: int = 0
    workers_removed: int = 0
    peak_workers: int = 0
    heartbeat_misses: int = 0


@dataclass
class _Totals:
    """The accounts added up.  ``bugs`` and ``test_cases`` are complete when
    every report is a full one: on checkpoint rounds and at the end."""

    paths_completed: int
    bugs_found: int
    useful_instructions: int
    replay_instructions: int
    bugs: List[BugReport]
    test_cases: List[TestCase]


@dataclass
class _Round:
    index: int
    balancing: bool
    checkpoint_due: bool
    failures_before: int
    #: :attr:`RoundSnapshot.workers_detail` of the round.
    detail: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: Candidate paths the members listed (checkpoint rounds only).
    frontier: List[Path] = field(default_factory=list)
    transferred: int = 0


@dataclass
class RoundRecord:
    """A closed round: its snapshot, the checkpoint to write after it (none
    unless due, and none after a round that lost a member, so a snapshot
    never captures a half-recovered frontier), and whether the run stops."""

    snapshot: RoundSnapshot
    checkpoint: Optional[ClusterCheckpoint]
    stop: bool


class ProtocolCore:
    """The §3 protocol's decisions for one membership."""

    def __init__(self, config: ClusterConfig, line_count: int,
                 backend_name: str, spec_name: Optional[str] = None,
                 spec_params: Optional[Dict[str, object]] = None):
        self.config = config
        self.line_count = line_count
        self.backend_name = backend_name
        self.spec_name = spec_name
        self.spec_params = dict(spec_params or {})
        #: The live members; one that leaves or dies moves to
        #: ``books.departed``.
        self.members: List[Member] = []
        self.worker_ids = itertools.count(1)
        self.load_balancer = LoadBalancer(line_count=line_count,
                                          delta=config.delta,
                                          min_transfer=config.min_transfer)
        #: Which execution-tree territory each member owns (for recovery).
        self.ledger = FrontierLedger()
        self.books = _Books()
        #: The members hold a frontier (the seed job, a restored checkpoint
        #: or dealt partitions).
        self.seeded = False
        #: What the last finished operation returned.
        self.outcome: Any = None
        self._recovery: List[RecoveryJob] = []
        self._respawns = 0
        self._round: Optional[_Round] = None
        self._op: Optional[Operation] = None
        # Who owes a reply, and of which class, in the order to read them.
        self._awaiting: Dict[int, Tuple[Member, type]] = {}
        self._answers: Answers = []
        # A scratch run between runs, so that membership changes outside a
        # run need no special casing.
        self.open_run(traced=False)

    # -- events ------------------------------------------------------------------------

    def begin(self, op: Operation) -> List[Action]:
        """Start an operation (one of the generator methods below)."""
        self._op, self._answers = op, []
        self._awaiting.clear()
        return self._resume(None)

    def reply(self, member: Member, message: object) -> List[Action]:
        """Event: ``member`` answered its outstanding command."""
        expected = self._awaiting[member.worker_id][1]
        if not isinstance(message, expected):
            return [Failure(member, "sent %r instead of %s"
                            % (message, expected.__name__))]
        if (isinstance(message, ReadyReply)
                and message.line_count != self.line_count):
            return [Failure(member, "compiled a program with %d lines, "
                            "coordinator expected %d -- the spec factory is "
                            "not deterministic" % (message.line_count,
                                                   self.line_count))]
        del self._awaiting[member.worker_id]
        self._answers.append((member, message))
        return []

    def fail(self, failure: Failure) -> List[Action]:
        """Event: a member failed.  An enrolled or leaving member is buried;
        one still joining is the launching operation's to judge."""
        member = failure.member
        awaited = self._awaiting.pop(member.worker_id, None)
        if awaited is not None:
            self._answers.append((member, failure))
            if awaited[1] is ReadyReply:
                return []
        return self._bury(failure)

    def join(self, member: Member) -> None:
        """Event: the member a :class:`Launch` asked for exists."""
        self._awaiting[member.worker_id] = (member, ReadyReply)

    def proceed(self) -> List[Action]:
        """Event: the batch has settled -- every command was carried out and
        every awaited answer delivered."""
        answers, self._answers = self._answers, []
        return self._resume(answers)

    @property
    def busy(self) -> bool:
        return self._op is not None

    def awaited(self) -> Optional[Member]:
        """The member whose answer is to be read next, if any is owed."""
        return next((member for member, _ in self._awaiting.values()), None)

    def _resume(self, answers: Optional[Answers]) -> List[Action]:
        op = self._op
        assert op is not None, "no operation in progress"
        try:
            actions = next(op) if answers is None else op.send(answers)
        except StopIteration as stop:
            self._op = None
            self.outcome = stop.value
            return []
        for action in actions:
            if isinstance(action, Send) and type(action.message) in REPLY_OF:
                self._awaiting[action.member.worker_id] = (
                    action.member, REPLY_OF[type(action.message)])
        return actions

    # -- exchanges -----------------------------------------------------------------------

    def _ask(self, member: Member, command: object, reply_type: Type[_Reply]
             ) -> Generator[List[Action], Answers, Optional[_Reply]]:
        """Command one member; its reply, or None when it failed instead
        (and has been recovered)."""
        ((_, answer),) = yield [Send(member, command)]
        if isinstance(answer, reply_type):
            return answer
        yield from self._recover()
        return None

    def _import(self, member: Member, command: ImportCommand
                ) -> Generator[List[Action], Answers, Optional[int]]:
        """Ship one job tree; the jobs taken on (None when the member
        failed), keeping the balancer's view of its queue fresh."""
        reply = yield from self._ask(member, command, ImportReply)
        if reply is None:
            return None
        member.queue_length += reply.imported
        self._refresh_report(member)
        return reply.imported

    def _hand_over(self, source_id: int, target: Member, export: ExportReply
                   ) -> Generator[List[Action], Answers, int]:
        """Move an export's jobs into ``target``, ledger first: a target
        that dies mid-handover is recovered with these jobs included."""
        if export.encoded_jobs is None:
            return 0
        for job in JobTree.decode(export.encoded_jobs).jobs():
            self.ledger.cede(source_id, job.path)
            self.ledger.acquire(target.worker_id, job.path)
        imported = yield from self._import(target, ImportCommand(
            encoded_jobs=export.encoded_jobs))
        return imported or 0

    def _refresh_report(self, member: Member) -> None:
        report = self.load_balancer.reports.get(member.worker_id)
        if report is not None:
            report.queue_length = member.queue_length

    def _apply_status(self, member: Member, status: StatusReply) -> None:
        member.status = status
        member.queue_length = status.queue_length

    # -- membership ----------------------------------------------------------------------

    def start(self, members: List[Member]) -> Operation:
        """Enroll the first members, which the driver launched; a failure
        here is a configuration error, not churn."""
        for member in members:
            self.join(member)
        for member, answer in (yield []):
            if isinstance(answer, Failure):
                raise WorkerProcessError("worker %d %s"
                                         % (member.worker_id, answer.reason))
            self._enroll(member, late=False)
        self._note_peak()

    def _enroll(self, member: Member, late: bool) -> None:
        # A member joining a running cluster reports the mean queue length
        # until its first status (a fabricated zero would read as an idle
        # member and draw spurious transfers), and starts from the merged
        # global coverage (§3.3).
        self.members.append(member)
        self.load_balancer.register_worker(member.worker_id, queue_length=(
            round(self.load_balancer.mean_queue_length()) if late else None))
        if late:
            member.pending_coverage_bits = (
                self.load_balancer.overlay.global_vector.as_int() or None)

    def _note_peak(self) -> None:
        self.books.peak_workers = max(self.books.peak_workers,
                                      len(self.members))

    def add_worker(self) -> Operation:
        """Join a fresh, empty member between rounds; the outcome is its
        worker id."""
        if not self.members:
            raise RuntimeError("add_worker() requires a running cluster "
                               "(call it from round_hook)")
        ((member, answer),) = yield [Launch()]
        if isinstance(answer, Failure):
            raise WorkerProcessError("worker %d %s while joining"
                                     % (member.worker_id, answer.reason))
        self._enroll(member, late=True)
        self.books.workers_added += 1
        self._note_peak()
        yield [Note(trace_schema.WORKER_JOINED, dict(
            worker=member.worker_id, workers=len(self.members)))]
        return member.worker_id

    def leave(self, worker_id: int) -> Operation:
        """Retire a member in one step: its whole frontier goes to the
        least-loaded survivor, then it files its full report and stops.  The
        outcome is the number of jobs handed over.  A member that dies
        during its removal is recovered like any death, and not replaced."""
        member = next((m for m in self.members if m.worker_id == worker_id),
                      None)
        if member is None:
            raise ValueError("no live worker with id %d" % worker_id)
        if len(self.members) == 1:
            raise ValueError("cannot remove the last worker")
        self.members.remove(member)
        self.load_balancer.deregister_worker(worker_id)
        self.books.workers_removed += 1
        export = yield from self._ask(
            member, ExportCommand(count=member.queue_length), ExportReply)
        if export is None:
            return 0
        target = min(self.members, key=lambda m: m.queue_length)
        moved = yield from self._hand_over(worker_id, target, export)
        report = yield from self._ask(member, ReportCommand(), StatusReply)
        if report is None:
            return moved
        self._apply_status(member, report)
        if report.queue_length:
            yield [Failure(member, "still held %d job(s) after handing over "
                           "its frontier" % report.queue_length)]
            yield from self._recover()
            return moved
        self.books.departed.append(member)
        self.ledger.forget(worker_id)
        yield [Note(trace_schema.WORKER_LEFT, dict(
            worker=worker_id, workers=len(self.members))),
               Send(member, StopCommand())]
        return moved

    # -- failure and recovery (§2.3) -----------------------------------------------------

    def _bury(self, failure: Failure) -> List[Action]:
        """Close a failed member's account and stage its territory for
        :meth:`_recover`."""
        member = failure.member
        if member.dead:
            return []
        leaving = member not in self.members  # its removal took it out
        if not leaving:
            self.members.remove(member)
        member.dead = True
        self.books.departed.append(member)
        notes: List[Action] = []
        if failure.heartbeat_missed:
            self.books.heartbeat_misses += 1
            notes.append(Note(trace_schema.HEARTBEAT_MISS,
                              dict(worker=member.worker_id)))
        notes.append(Note(trace_schema.WORKER_DIED, dict(
            worker=member.worker_id, reason=failure.reason)))
        self.result.failed_worker_stats[member.worker_id] = (
            member.status.stats if member.status is not None
            else WorkerStats(worker_id=member.worker_id))
        self.load_balancer.deregister_worker(member.worker_id)
        self._charge(failure)
        if not self._closing:
            self._recovery.extend(self.ledger.recovery_jobs(member.worker_id))
            # A member being removed was leaving anyway: recover its
            # territory but do not replace it.
            if self.config.respawn and not leaving:
                self._respawns += 1
        self.ledger.forget(member.worker_id)
        return notes

    def _charge(self, failure: Failure) -> None:
        """Count one failure against ``max_worker_failures``; past the
        budget, end the run."""
        self.result.worker_failures += 1
        budget = self.config.max_worker_failures
        if budget is not None and self.result.worker_failures > budget:
            raise WorkerProcessError(
                "worker %d %s; failure budget exhausted "
                "(max_worker_failures=%d)"
                % (failure.member.worker_id, failure.reason, budget))

    def _recover(self) -> Generator[List[Action], Answers, None]:
        """Respawn the replacements owed, then requeue buried members'
        territories to the least-loaded survivors, one fenced job each."""
        while self._respawns or self._recovery:
            if self._respawns:
                self._respawns -= 1
                ((member, answer),) = yield [Launch()]
                if isinstance(answer, Failure):
                    # The replacement never started; it owned nothing yet.
                    self._charge(answer)
                    continue
                self._enroll(member, late=True)
                self.result.respawns += 1
                yield [Note(trace_schema.WORKER_RESPAWNED,
                            dict(worker=member.worker_id))]
                continue
            if not self.members:
                raise WorkerProcessError(
                    "every worker died and respawn is disabled; "
                    "%d recovery job(s) have nowhere to go"
                    % len(self._recovery))
            job = self._recovery.pop(0)
            survivor = min(self.members, key=lambda m: m.queue_length)
            # The fences keep their labels: the survivor takes exactly what
            # the dead member held under the root.
            self.ledger.acquire(survivor.worker_id, job.root)
            imported = yield from self._import(survivor, ImportCommand(
                encoded_jobs=JobTree.from_jobs([Job(job.root)]).encode(),
                fence_paths=job.fences, recovered=True))
            # A survivor that died too held the job by then: it is staged
            # again.
            if imported is not None:
                self.result.jobs_recovered += 1
                yield [Note(trace_schema.JOBS_RECOVERED, dict(
                    worker=survivor.worker_id, jobs=imported))]

    # -- the run and its frontier --------------------------------------------------------

    def open_run(self, traced: bool) -> RunResult:
        """A run begins: a fresh result (the books stay the membership's).
        ``traced`` makes members buffer trace events for their replies."""
        self.traced = traced
        # A death while the run closes is too late to re-explore.
        self._closing = False
        self._instructions = 0
        self.result = RunResult(
            backend=self.backend_name, test_name=self.spec_name or "",
            num_workers=self.config.num_workers, line_count=self.line_count,
            timeline=ClusterTimeline())
        return self.result

    def seed(self) -> Operation:
        """The first worker to join receives the seed job (§3.1)."""
        self.seeded = True
        member = self.members[0]
        self.ledger.acquire(member.worker_id, ())
        status = yield from self._ask(member, SeedCommand(), StatusReply)
        if status is not None:
            self._apply_status(member, status)

    def restore(self, checkpoint: ClusterCheckpoint) -> Operation:
        """Resume a checkpoint instead of seeding."""
        if checkpoint.line_count != self.line_count:
            raise WorkerProcessError(
                "checkpoint was taken against a %d-line program, this "
                "cluster's spec builds %d lines -- wrong spec?"
                % (checkpoint.line_count, self.line_count))
        if self.seeded:
            raise ValueError("resume_from= needs a fresh cluster: these "
                             "members already hold a frontier")
        yield from self.carry_in(
            CarriedIn(paths_completed=checkpoint.paths_completed,
                      useful_instructions=checkpoint.useful_instructions,
                      replay_instructions=checkpoint.replay_instructions,
                      covered_lines=checkpoint.covered_lines(),
                      bugs=checkpoint.bug_reports,
                      test_cases=checkpoint.test_cases,
                      wall_time=checkpoint.wall_time,
                      resumed_from_round=checkpoint.round_index),
            checkpoint.frontier_paths)

    def carry_in(self, carried: CarriedIn, frontier: List[Path]) -> Operation:
        """Open the books with work done before these members existed, and
        deal the frontier it left round-robin to them as ordinary job
        imports, primed with the coverage that came with it."""
        self.books.carried = carried
        self.seeded = True
        coverage_bits = CoverageBitVector.from_lines(
            self.line_count, carried.covered_lines).as_int()
        self.load_balancer.overlay.merge_from_worker(coverage_bits)
        live = list(self.members)
        shares: Dict[int, List[Path]] = {m.worker_id: [] for m in live}
        for index, path in enumerate(sorted(frontier)):
            shares[live[index % len(live)].worker_id].append(tuple(path))
        for member in live:
            share = shares[member.worker_id]
            member.pending_coverage_bits = coverage_bits or None
            if not share:
                continue
            for path in share:
                self.ledger.acquire(member.worker_id, path)
            tree = JobTree.from_jobs([Job(p) for p in share])
            yield from self._import(member,
                                    ImportCommand(encoded_jobs=tree.encode()))

    # -- one round -----------------------------------------------------------------------

    def open_round(self, round_index: int) -> None:
        """Round boundary: the membership is settled for this round."""
        if not self.members:
            raise WorkerProcessError("no live workers left")
        self._note_peak()
        config = self.config
        cutoff = config.disable_balancing_after_round
        self._round = _Round(
            index=round_index,
            balancing=cutoff is None or round_index < cutoff,
            # A snapshot lands after every checkpoint_every completed rounds.
            checkpoint_due=bool(
                config.checkpoint_every
                and (round_index + 1) % config.checkpoint_every == 0),
            failures_before=self.result.worker_failures)

    def _current(self) -> _Round:
        assert self._round is not None, "no round is open"
        return self._round

    def explore(self) -> Operation:
        """One round of exploration on every live member, concurrently where
        the carrier has real processes behind it."""
        round_ = self._current()
        sends: List[Action] = []
        for member in self.members:
            sends.append(Send(member, ExploreCommand(
                budget=self.config.instructions_per_round,
                global_coverage_bits=member.pending_coverage_bits,
                full=round_.checkpoint_due, trace=self.traced)))
            member.pending_coverage_bits = None
        for member, status in (yield sends):
            if not isinstance(status, StatusReply):
                continue
            before = (member.status.stats if member.status is not None
                      else WorkerStats(worker_id=member.worker_id))
            round_.detail[member.worker_id] = {
                "useful": (status.stats.useful_instructions
                           - before.useful_instructions),
                "replay": (status.stats.replay_instructions
                           - before.replay_instructions)}
            if status.frontier is not None:
                round_.frontier.extend(
                    job.path for job in JobTree.decode(status.frontier).jobs())
            self._apply_status(member, status)
        yield from self._recover()

    def merge_statuses(self) -> None:
        """Status updates into the load balancer, and the merged coverage
        back out on each member's next command (§3.3).  A member that joined
        after this round's statuses were collected has none yet."""
        round_index = self._current().index
        for member in self.members:
            status = member.status
            if status is None:
                continue
            member.pending_coverage_bits = self.load_balancer.receive_status(
                worker_id=member.worker_id,
                queue_length=member.queue_length,
                useful_instructions=status.stats.useful_instructions,
                coverage_bits=status.coverage_bits,
                round_index=round_index)

    def transfers(self) -> List[TransferCommand]:
        """This round's balancing decisions (none when balancing is off or
        not due)."""
        round_ = self._current()
        if round_.balancing and round_.index % self.config.balance_interval == 0:
            return self.load_balancer.balance(round_.index)
        return []

    def transfer(self, command: TransferCommand) -> Operation:
        """Broker one source->destination transfer; the outcome is the
        number of jobs moved."""
        round_ = self._current()
        by_id = {m.worker_id: m for m in self.members}
        source = by_id.get(command.source)
        destination = by_id.get(command.destination)
        if source is None or destination is None:
            # One end died or departed after the balance decision.
            self.load_balancer.cancel_transfer(command)
            return 0
        self.result.transfer_commands += 1
        ((_, export),) = yield [Send(source,
                                     ExportCommand(count=command.job_count))]
        if not isinstance(export, ExportReply):
            self.load_balancer.cancel_transfer(command)
            yield from self._recover()
            return 0
        source.queue_length -= export.job_count
        self._refresh_report(source)
        # Should the destination die here, the jobs are in its territory
        # already, so recovery requeues them; nothing is lost.
        imported = yield from self._hand_over(command.source, destination,
                                              export)
        round_.transferred += imported
        if imported:
            yield [Note(trace_schema.JOB_TRANSFERRED, dict(
                round=round_.index, source=command.source,
                destination=command.destination, jobs=imported))]
        return imported

    def close_round(self, elapsed: float, limits: ExplorationLimits
                    ) -> RoundRecord:
        """Round boundary: one snapshot of the books -- the timeline entry,
        the ``round_completed`` payload and the live-status document.
        ``elapsed`` is the driver's clock since the run started."""
        round_ = self._current()
        self._round = None
        result = self.result
        totals = self._totals()
        overlay = self.load_balancer.overlay
        queues = {m.worker_id: m.queue_length for m in self.members}
        snapshot = RoundSnapshot(
            round_index=round_.index,
            elapsed=elapsed,
            coverage_percent=overlay.coverage_percent,
            covered_lines=overlay.covered_count,
            paths_completed=totals.paths_completed,
            bugs_found=totals.bugs_found,
            total_candidates=sum(queues.values()),
            num_workers=len(self.members),
            useful_instructions=sum(d["useful"]
                                    for d in round_.detail.values()),
            replay_instructions=sum(d["replay"]
                                    for d in round_.detail.values()),
            states_transferred=round_.transferred,
            queue_lengths=queues,
            workers_detail=round_.detail,
            load_balancing_enabled=round_.balancing,
        )
        assert result.timeline is not None
        result.timeline.record(snapshot)
        self._instructions += (snapshot.useful_instructions
                               + snapshot.replay_instructions)
        checkpoint = None
        if (round_.checkpoint_due
                and result.worker_failures == round_.failures_before):
            # Bug reports and generated inputs travel with the snapshot
            # (statuses carry them on checkpoint rounds only).
            checkpoint = ClusterCheckpoint(
                round_index=round_.index + 1,
                frontier_paths=sorted(round_.frontier),
                coverage_bits=overlay.global_vector.as_int(),
                line_count=self.line_count,
                paths_completed=totals.paths_completed,
                useful_instructions=totals.useful_instructions,
                replay_instructions=totals.replay_instructions,
                wall_time=self.books.carried.wall_time + elapsed,
                bug_reports=dedupe_bugs(totals.bugs),
                test_cases=totals.test_cases,
                spec_name=self.spec_name,
                spec_params=dict(self.spec_params),
                backend=self.backend_name,
            )
        # A goal met and a frontier run dry are independent (the last path
        # can be the one the goal asked for); a spent budget is no goal.
        result.goal_reached = limits.satisfied_by(
            snapshot.paths_completed, snapshot.coverage_percent,
            snapshot.bugs_found)
        result.exhausted = snapshot.total_candidates == 0
        stop = (result.goal_reached or result.exhausted
                or (limits.max_instructions is not None
                    and self._instructions >= limits.max_instructions))
        return RoundRecord(snapshot, checkpoint, stop)

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
        for member in self.members + self.books.departed:
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

    # -- finalization --------------------------------------------------------------------

    def finish(self, rounds: int) -> Operation:
        """Close the run: every member still enrolled files a full report
        and the result is filled from the books.  The outcome is the merged
        solver-latency histogram."""
        self._closing = True
        for member in list(self.members):
            # A member lost here keeps its last report in
            # ``failed_worker_stats``; it counts toward no total.
            report = yield from self._ask(member, ReportCommand(), StatusReply)
            if report is not None:
                self._apply_status(member, report)
        self._closing = False

        books, result, live = self.books, self.result, self.members
        snapshots = result.timeline.snapshots if result.timeline else []
        result.states_transferred = sum(s.states_transferred
                                        for s in snapshots)
        result.states_remaining = (snapshots[-1].total_candidates
                                   if snapshots else 0)
        result.num_workers = len(live) or result.num_workers
        result.rounds_executed = rounds
        result.resumed_from_round = books.carried.resumed_from_round
        result.workers_added = books.workers_added
        result.workers_removed = books.workers_removed
        result.peak_workers = max(books.peak_workers, len(live))
        result.heartbeat_misses = books.heartbeat_misses
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
        return latency
