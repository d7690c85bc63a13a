"""The protocol core alone: hand-written replies and failures in, commands out.

:class:`~repro.distrib.protocol.ProtocolCore` imports no transport, reads no
clock and holds no tracer, so these tests play the driver's part by hand --
no transport, process or socket exists here.  Each starts an operation with
``begin`` and delivers one event at a time (a reply, a failure, a join,
``proceed`` once a batch has settled), checking the commands the core returns
and the frontier ledger after it.  The deaths are the protocol points
``tests/test_loopback_faults.py`` injects on a real loopback cluster.
"""

import pytest

from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import RecoveryJob
from repro.cluster.load_balancer import TransferCommand
from repro.cluster.stats import WorkerStats
from repro.distrib.messages import (
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
from repro.distrib.protocol import (
    Failure,
    Launch,
    Member,
    Note,
    ProtocolCore,
    Send,
    WorkerProcessError,
)
from repro.engine.limits import ExplorationLimits
from repro.obs import schema

LINES = 8
LIMITS = ExplorationLimits()
EXPLORE = ExploreCommand(budget=10)


def jobs(*paths):
    return JobTree.from_jobs([Job(p) for p in paths]).encode()


def status(member, queue, useful=0, paths=0, lines=0b1, full=False,
           frontier=()):
    return StatusReply(
        worker_id=member.worker_id, queue_length=queue, coverage_bits=lines,
        bugs_found=0,
        stats=WorkerStats(member.worker_id, useful_instructions=useful,
                          paths_completed=paths),
        cache_counters={"solver_queries": 1},
        frontier=jobs(*frontier) if full else None,
        bugs=() if full else None, test_cases=() if full else None)


def note(event, **fields):
    return Note(event, fields)


def recovery(root, *fences):
    return ImportCommand(encoded_jobs=jobs(root), fence_paths=fences,
                         recovered=True)


def answer(core, member, reply):
    """Deliver a reply the core accepts: the member owed one, and it is the
    one to read next."""
    assert core.awaited() is member
    assert core.reply(member, reply) == []


def started(n=2, **config):
    core = ProtocolCore(
        ClusterConfig(num_workers=n, instructions_per_round=10, **config),
        LINES, "cluster")
    members = [Member(next(core.worker_ids)) for _ in range(n)]
    assert core.begin(core.start(members)) == []
    for member in members:
        answer(core, member, ReadyReply(member.worker_id, LINES))
    assert core.awaited() is None
    assert core.proceed() == [] and not core.busy
    assert core.members == members
    core.open_run(traced=False)
    return core, members


def seeded(n=2, queue=4, **config):
    """Members enrolled, the seed job on member 1, which reports ``queue``
    candidates."""
    core, members = started(n, **config)
    first = members[0]
    assert core.begin(core.seed()) == [Send(first, SeedCommand())]
    assert core.ledger.owned_roots(1) == {()}
    answer(core, first, status(first, queue))
    assert core.proceed() == [] and not core.busy
    assert first.queue_length == queue
    return core, members


def explored(core, *replies):
    """One explore batch answered by ``replies`` (one per member, in order)."""
    sends = core.begin(core.explore())
    assert [(s.member, type(s.message)) for s in sends] \
        == [(m, ExploreCommand) for m in core.members]
    for reply in replies:
        answer(core, next(m for m in core.members
                          if m.worker_id == reply.worker_id), reply)
    assert core.proceed() == [] and not core.busy


def transferred(core):
    """Round 0 on a seeded pair: member 1 reports 4 candidates, member 2
    none, and the balancer moves (0,) and (1, 0) to member 2."""
    m1, m2 = core.members
    core.open_round(0)
    explored(core, status(m1, 4, useful=10), status(m2, 0))
    core.merge_statuses()
    (command,) = core.transfers()
    assert command == TransferCommand(source=1, destination=2, job_count=2)
    tree = jobs((0,), (1, 0))
    assert core.begin(core.transfer(command)) == [Send(m1, ExportCommand(count=2))]
    answer(core, m1, ExportReply(1, tree, 2))
    assert core.proceed() == [Send(m2, ImportCommand(encoded_jobs=tree))]
    # The ledger moved before the import: a destination dying now would be
    # recovered with these jobs in its territory.
    assert core.ledger.covers(2, (0,)) and core.ledger.covers(2, (1, 0))
    assert core.ledger.covers(1, (1, 1)) and not core.ledger.covers(1, (0,))
    answer(core, m2, ImportReply(2, 2))
    assert core.proceed() == [note(schema.JOB_TRANSFERRED, round=0, source=1,
                                   destination=2, jobs=2)]
    assert core.proceed() == [] and core.outcome == 2
    assert (m1.queue_length, m2.queue_length) == (2, 2)
    return core.close_round(1.0, LIMITS)


# -- the happy path ----------------------------------------------------------------------


def test_the_seed_job_goes_to_the_first_member():
    core, (m1, m2) = seeded()
    assert core.seeded and core.ledger.covers(1, (0, 1, 1))
    assert not core.ledger.covers(2, ())
    assert m2.status is None


def test_one_explore_round_records_the_books():
    core, (m1, m2) = seeded()
    core.open_round(0)
    assert core.begin(core.explore()) == [Send(m1, EXPLORE), Send(m2, EXPLORE)]
    assert core.awaited() is m1
    answer(core, m1, status(m1, 3, useful=10, paths=1, lines=0b11))
    answer(core, m2, status(m2, 0, lines=0b100))
    assert core.proceed() == [] and not core.busy
    core.merge_statuses()
    # The merged coverage, as it stood when each status was merged, goes
    # back out on the member's next command.
    assert (m1.pending_coverage_bits, m2.pending_coverage_bits) \
        == (0b11, 0b111)
    record = core.close_round(0.5, LIMITS)
    snapshot = record.snapshot
    assert (snapshot.round_index, snapshot.elapsed) == (0, 0.5)
    assert (snapshot.useful_instructions, snapshot.paths_completed) == (10, 1)
    assert snapshot.queue_lengths == {1: 3, 2: 0}
    assert snapshot.covered_lines == 3
    assert record.checkpoint is None and not record.stop
    assert core.result.timeline.snapshots == [snapshot]
    # The next explore carries the merged bits once.
    core.open_round(1)
    assert core.begin(core.explore()) == [
        Send(m1, ExploreCommand(budget=10, global_coverage_bits=0b11)),
        Send(m2, ExploreCommand(budget=10, global_coverage_bits=0b111))]
    assert m1.pending_coverage_bits is None


def test_a_balance_exports_then_imports_ledger_first():
    core, _ = seeded()
    record = transferred(core)
    assert record.snapshot.states_transferred == 2
    assert core.result.transfer_commands == 1
    assert core.books.messages_sent == 0  # counting sends is the driver's


def test_a_dry_frontier_stops_the_run():
    core, (m1, m2) = seeded()
    core.open_round(0)
    explored(core, status(m1, 0, paths=4), status(m2, 0))
    core.merge_statuses()
    assert core.transfers() == []
    record = core.close_round(0.1, LIMITS)
    assert record.stop and core.result.exhausted


# -- deaths at each protocol point -------------------------------------------------------


def test_death_mid_explore_is_recovered_once_the_batch_settles():
    """The member explored its round, its status reply is lost."""
    core, (m1, m2, m3) = seeded(3)
    core.open_round(0)
    assert core.begin(core.explore()) == [Send(m, EXPLORE) for m in (m1, m2, m3)]
    assert core.fail(Failure(m1, "lost")) == [
        note(schema.WORKER_DIED, worker=1, reason="lost")]
    assert m1.dead and core.members == [m2, m3]
    # Recovery waits until the batch has settled.
    answer(core, m2, status(m2, 1))
    answer(core, m3, status(m3, 0))
    assert core.proceed() == [Send(m3, recovery(()))]
    assert core.ledger.covers(3, (0, 1))
    answer(core, m3, ImportReply(3, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=3, jobs=1)]
    assert core.proceed() == [] and not core.busy
    assert (core.result.worker_failures, core.result.jobs_recovered) == (1, 1)
    assert core.result.failed_worker_stats[1] == m1.status.stats
    assert m1 in core.books.departed and 1 not in core.load_balancer.reports
    # The dead member's work counts toward no total.
    assert core.close_round(1.0, LIMITS).snapshot.paths_completed == 0


def test_death_mid_export_cancels_the_transfer_then_recovers():
    """The source fenced off the exported jobs; the job tree is lost."""
    core, (m1, m2) = seeded()
    core.open_round(0)
    explored(core, status(m1, 4), status(m2, 0))
    core.merge_statuses()
    (command,) = core.transfers()
    assert core.load_balancer.reports[2].queue_length == 2  # planned
    assert core.begin(core.transfer(command)) == [Send(m1, ExportCommand(count=2))]
    assert core.fail(Failure(m1, "lost")) == [
        note(schema.WORKER_DIED, worker=1, reason="lost")]
    assert core.proceed() == [Send(m2, recovery(()))]
    # Cancelled before recovery imports anything: the estimate rolled back.
    assert core.load_balancer.reports[2].queue_length == 0
    answer(core, m2, ImportReply(2, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=2, jobs=1)]
    assert core.proceed() == [] and core.outcome == 0
    assert core.ledger.owned_roots(2) == {()}
    assert core.result.transfer_commands == 1


def test_death_after_import_requeues_the_imported_territory():
    """The destination acknowledged an import, then its next send failed."""
    core, (m1, m2) = seeded()
    transferred(core)
    lost = core.ledger.recovery_jobs(2)
    assert lost == [RecoveryJob((0,)), RecoveryJob((1, 0))]
    core.open_round(1)
    assert [s.member for s in core.begin(core.explore())] == [m1, m2]
    # The driver failed to send m2 its command.
    assert core.fail(Failure(m2, "hung up", heartbeat_missed=True)) == [
        note(schema.HEARTBEAT_MISS, worker=2),
        note(schema.WORKER_DIED, worker=2, reason="hung up")]
    answer(core, m1, status(m1, 2))
    assert core.proceed() == [Send(m1, recovery((0,)))]
    answer(core, m1, ImportReply(1, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=1, jobs=1)]
    assert core.proceed() == [Send(m1, recovery((1, 0)))]
    answer(core, m1, ImportReply(1, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=1, jobs=1)]
    assert core.proceed() == [] and not core.busy
    assert core.ledger.owned_roots(1) == {()}
    assert core.books.heartbeat_misses == 1 and m1.queue_length == 4


def test_a_survivor_dying_mid_recovery_is_recovered_too():
    core, (m1, m2, m3) = seeded(3)
    core.open_round(0)
    core.begin(core.explore())
    core.fail(Failure(m1, "lost"))
    answer(core, m2, status(m2, 0))
    answer(core, m3, status(m3, 1))
    assert core.proceed() == [Send(m2, recovery(()))]
    assert core.fail(Failure(m2, "lost too")) == [
        note(schema.WORKER_DIED, worker=2, reason="lost too")]
    # The job was in m2's territory when it died, so it is staged again.
    assert core.proceed() == [Send(m3, recovery(()))]
    answer(core, m3, ImportReply(3, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=3, jobs=1)]
    assert core.proceed() == [] and core.ledger.owned_roots(3) == {()}
    assert core.result.worker_failures == 2


def test_a_respawned_member_joins_before_the_territory_is_requeued():
    core, (m1, m2) = seeded(respawn=True)
    core.open_round(0)
    explored(core, status(m1, 4), status(m2, 2, lines=0b10))
    core.merge_statuses()
    core.close_round(1.0, LIMITS)
    core.open_round(1)
    core.begin(core.explore())
    core.fail(Failure(m1, "lost"))
    answer(core, m2, status(m2, 0))
    assert core.proceed() == [Launch()]
    m3 = Member(next(core.worker_ids))
    core.join(m3)
    answer(core, m3, ReadyReply(3, LINES))
    assert core.proceed() == [note(schema.WORKER_RESPAWNED, worker=3)]
    assert core.members == [m2, m3]
    # The newcomer starts from the merged coverage, at the mean queue
    # length reported.
    assert m3.pending_coverage_bits == 0b11
    assert core.load_balancer.reports[3].queue_length == 2
    assert core.proceed() == [Send(m2, recovery(()))]
    answer(core, m2, ImportReply(2, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=2, jobs=1)]
    assert core.proceed() == [] and core.result.respawns == 1


def test_a_replacement_that_never_starts_is_charged_and_skipped():
    core, (m1, m2) = seeded(respawn=True)
    core.open_round(0)
    core.begin(core.explore())
    core.fail(Failure(m1, "lost"))
    answer(core, m2, status(m2, 0))
    assert core.proceed() == [Launch()]
    m3 = Member(next(core.worker_ids))
    core.join(m3)
    # A joining member is the launching operation's to judge, not buried.
    assert core.reply(m3, ReadyReply(3, LINES + 1)) == [Failure(
        m3, "compiled a program with 9 lines, coordinator expected 8 -- "
        "the spec factory is not deterministic")]
    assert core.fail(Failure(m3, "dropped")) == []
    assert core.proceed() == [Send(m2, recovery(()))]
    assert core.result.worker_failures == 2 and core.result.respawns == 0
    assert core.members == [m2] and m3 not in core.books.departed


def test_the_failure_budget_ends_the_run():
    core, (m1, m2) = seeded(max_worker_failures=0)
    core.open_round(0)
    core.begin(core.explore())
    with pytest.raises(WorkerProcessError, match="failure budget exhausted"):
        core.fail(Failure(m1, "lost"))


def test_a_reply_of_the_wrong_kind_drops_the_member():
    core, (m1, m2) = seeded()
    core.open_round(0)
    core.begin(core.explore())
    (drop,) = core.reply(m1, ImportReply(1, 0))
    assert drop == Failure(m1, "sent ImportReply(worker_id=1, imported=0) "
                            "instead of StatusReply")
    assert core.awaited() is m1  # still owed until the driver fails it
    core.fail(Failure(m1, drop.reason))
    assert core.awaited() is m2


# -- membership --------------------------------------------------------------------------


def test_remove_worker_hands_over_then_reports_then_retires():
    core, (m1, m2) = seeded()
    assert core.begin(core.leave(1)) == [Send(m1, ExportCommand(count=4))]
    assert core.members == [m2] and core.books.workers_removed == 1
    tree = jobs((0,), (1,))
    answer(core, m1, ExportReply(1, tree, 2))
    assert core.proceed() == [Send(m2, ImportCommand(encoded_jobs=tree))]
    assert core.ledger.owned_roots(2) == {(0,), (1,)}
    answer(core, m2, ImportReply(2, 2))
    assert core.proceed() == [Send(m1, ReportCommand())]
    answer(core, m1, status(m1, 0, paths=3, full=True))
    assert core.proceed() == [note(schema.WORKER_LEFT, worker=1, workers=1),
                              Send(m1, StopCommand())]
    assert core.awaited() is None  # a stopped member owes no reply
    assert core.proceed() == [] and core.outcome == 2
    assert m1 in core.books.departed and not m1.dead
    assert core.ledger.recovery_jobs(1) == []
    # Its results still count.
    core.open_round(0)
    explored(core, status(m2, 2))
    assert core.close_round(1.0, LIMITS).snapshot.paths_completed == 3


@pytest.mark.parametrize("at", ["export", "report"])
def test_a_member_dying_during_its_removal_is_recovered_not_replaced(at):
    core, (m1, m2) = seeded(respawn=True)
    assert core.begin(core.leave(1)) == [Send(m1, ExportCommand(count=4))]
    tree = jobs((0,), (1,))
    if at == "report":
        answer(core, m1, ExportReply(1, tree, 2))
        assert core.proceed() == [Send(m2, ImportCommand(encoded_jobs=tree))]
        answer(core, m2, ImportReply(2, 2))
        assert core.proceed() == [Send(m1, ReportCommand())]
    assert core.fail(Failure(m1, "lost")) == [
        note(schema.WORKER_DIED, worker=1, reason="lost")]
    # Not Launch: it was leaving anyway.  The fences keep what m2 owns.
    fences = ((0,), (1,)) if at == "report" else ()
    assert core.proceed() == [Send(m2, recovery((), *fences))]
    answer(core, m2, ImportReply(2, 1))
    assert core.proceed() == [note(schema.JOBS_RECOVERED, worker=2, jobs=1)]
    assert core.proceed() == []
    assert core.outcome == (2 if at == "report" else 0)
    assert m1.dead and core.result.respawns == 0
    assert core.ledger.owned_roots(2) == {()}


def test_a_member_still_holding_work_after_its_removal_is_failed():
    core, (m1, m2) = seeded()
    core.begin(core.leave(1))
    tree = jobs((0,))
    answer(core, m1, ExportReply(1, tree, 1))
    core.proceed()
    answer(core, m2, ImportReply(2, 1))
    assert core.proceed() == [Send(m1, ReportCommand())]
    answer(core, m1, status(m1, 1, full=True))
    reason = "still held 1 job(s) after handing over its frontier"
    assert core.proceed() == [Failure(m1, reason)]
    assert core.fail(Failure(m1, reason)) == [
        note(schema.WORKER_DIED, worker=1, reason=reason)]
    assert core.proceed() == [Send(m2, recovery((), (0,)))]
    answer(core, m2, ImportReply(2, 1))
    core.proceed()
    assert core.proceed() == [] and core.outcome == 1


def test_add_worker_launches_and_enrolls_a_member():
    core, (m1, m2) = seeded()
    core.open_round(0)
    explored(core, status(m1, 3), status(m2, 1))
    core.merge_statuses()
    core.close_round(1.0, LIMITS)
    assert core.begin(core.add_worker()) == [Launch()]
    m3 = Member(next(core.worker_ids))
    core.join(m3)
    answer(core, m3, ReadyReply(3, LINES))
    assert core.proceed() == [note(schema.WORKER_JOINED, worker=3, workers=3)]
    assert core.proceed() == [] and core.outcome == 3
    assert core.books.workers_added == 1 and core.books.peak_workers == 3
    # Until its first status it reports the mean queue length.
    assert core.load_balancer.reports[3].queue_length == 2


def test_a_startup_failure_is_a_configuration_error():
    core = ProtocolCore(ClusterConfig(num_workers=2), LINES, "process")
    members = [Member(next(core.worker_ids)) for _ in range(2)]
    core.begin(core.start(members))
    answer(core, members[0], ReadyReply(1, LINES))
    assert core.fail(Failure(members[1], "never came up")) == []
    with pytest.raises(WorkerProcessError, match="worker 2 never came up"):
        core.proceed()


# -- checkpoint and finalization ---------------------------------------------------------


def test_a_checkpoint_round_records_the_listed_frontier():
    core, (m1, m2) = seeded(checkpoint_every=1)
    core.open_round(0)
    full = ExploreCommand(budget=10, full=True)
    assert core.begin(core.explore()) == [Send(m1, full), Send(m2, full)]
    answer(core, m1, status(m1, 2, paths=1, full=True,
                            frontier=[(1,), (0,)]))
    answer(core, m2, status(m2, 0, full=True))
    assert core.proceed() == []
    core.merge_statuses()
    checkpoint = core.close_round(2.5, LIMITS).checkpoint
    assert checkpoint.round_index == 1
    assert checkpoint.frontier_paths == [(0,), (1,)]
    assert checkpoint.paths_completed == 1 and checkpoint.wall_time == 2.5
    assert (checkpoint.backend, checkpoint.line_count) == ("cluster", LINES)
    # A round that lost a member writes none.
    core.open_round(1)
    core.begin(core.explore())
    core.fail(Failure(m2, "lost"))
    answer(core, m1, status(m1, 2, full=True, frontier=[(0,), (1,)]))
    assert core.proceed() == []  # m2 owned nothing
    assert core.close_round(3.0, LIMITS).checkpoint is None


def test_a_restored_checkpoint_is_dealt_round_robin():
    core, (m1, m2) = seeded(checkpoint_every=1)
    core.open_round(0)
    explored(core, status(m1, 3, paths=1, full=True,
                          frontier=[(0,), (1, 0), (1, 1)]),
             status(m2, 0, full=True))
    checkpoint = core.close_round(1.0, LIMITS).checkpoint
    fresh, (n1, n2) = started()
    assert fresh.begin(fresh.restore(checkpoint)) == [
        Send(n1, ImportCommand(encoded_jobs=jobs((0,), (1, 1))))]
    assert fresh.ledger.owned_roots(1) == {(0,), (1, 1)}
    answer(fresh, n1, ImportReply(1, 2))
    assert fresh.proceed() == [
        Send(n2, ImportCommand(encoded_jobs=jobs((1, 0))))]
    answer(fresh, n2, ImportReply(2, 1))
    assert fresh.proceed() == [] and fresh.seeded
    assert fresh.books.carried.paths_completed == 1
    assert fresh.books.carried.resumed_from_round == 1
    with pytest.raises(ValueError, match="fresh cluster"):
        fresh.begin(fresh.restore(checkpoint))


def test_finalization_asks_each_member_for_its_report():
    core, (m1, m2) = seeded()
    core.open_round(0)
    explored(core, status(m1, 2, useful=10), status(m2, 0))
    core.close_round(1.0, LIMITS)
    assert core.begin(core.finish(1)) == [Send(m1, ReportCommand())]
    answer(core, m1, status(m1, 0, useful=20, paths=2, full=True))
    assert core.proceed() == [Send(m2, ReportCommand())]
    # Too late to re-explore: its territory is not requeued.
    assert core.fail(Failure(m2, "lost")) == [
        note(schema.WORKER_DIED, worker=2, reason="lost")]
    assert core.proceed() == [] and not core.busy
    latency = core.outcome
    result = core.result
    assert latency.count == 0
    assert (result.rounds_executed, result.paths_completed,
            result.useful_instructions) == (1, 2, 20)
    assert (result.worker_failures, result.jobs_recovered) == (1, 0)
    assert sorted(result.worker_stats) == [1]
    assert list(result.failed_worker_stats) == [2]
    assert result.cache_stats["solver_queries"] == 2
    assert result.num_workers == 1 and result.peak_workers == 2
