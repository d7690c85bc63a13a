"""The coordinator's books: one account per member, one carried-in account,
one place that adds them up -- and books that live exactly as long as the
membership they describe.

Also the enroll paths' teardown: a member whose channel was launched must
not outlive the error that refused it (start-up, respawn, elastic join).
"""

import multiprocessing

import pytest

from repro.cluster.core import ClusterConfig
from repro.distrib import specs
from repro.distrib.loopback import Cloud9Cluster, LoopbackTransport
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    ProcessClusterConfig,
    WorkerProcessError,
)
from repro.distrib.messages import ExploreCommand, ReadyReply, ReportCommand
from repro.net.transport import TransportError

from test_loopback_faults import FaultyTransport
from triggers import Trigger, arm

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not fork_available,
                                reason="process clusters are forked here")


@pytest.fixture(scope="module")
def printf2():
    return specs.resolve_test("printf", format_length=2)


def _cluster(test, carrier, **config):
    """A loopback cluster behind ``carrier(member)``; returns it (or the
    error its construction raised) and every transport the carrier built."""
    built = []

    def recording(member):
        built.append(carrier(member))
        return built[-1]

    class Cluster(Cloud9Cluster):
        carrier = staticmethod(recording)

    try:
        return test.build_cluster(ClusterConfig(**config),
                                  cluster_class=Cluster), built
    except WorkerProcessError as error:
        return error, built


class WrongProgram(LoopbackTransport):
    """A member that compiled some other program."""

    def __init__(self, member):
        super().__init__(member)
        self._replies[0] = ReadyReply(worker_id=member.worker_id,
                                      line_count=member.line_count + 1)


class Stillborn(LoopbackTransport):
    """A member whose channel breaks before its ReadyReply."""

    def recv(self, timeout=None):
        raise TransportError("%s never came up" % self.peer)


# -- books live as long as members --------------------------------------------------------


@needs_fork
def test_second_run_of_a_process_cluster_starts_with_clean_books():
    """Per-run members, per-run books: the first run's retired member, its
    balancer report and its ledger entry must not reach the second run."""
    cluster = ProcessCloud9Cluster(
        "printf", {"format_length": 2},
        config=ProcessClusterConfig(num_workers=2, instructions_per_round=40,
                                    reply_timeout=1.0, shutdown_timeout=2.0))
    seen = []

    def the_last_member_holds_work(cl):
        last = cl.handles[-1]
        return last if len(cl.handles) == 2 and last.queue_length else None

    retirements = []  # one trigger per run

    def hook(round_index, cl):
        if round_index == 0:
            retirements.append(Trigger(
                the_last_member_holds_work,
                lambda cl, last: cl.remove_worker(last.worker_id)))
        retirements[-1](round_index, cl)
        members = {h.worker_id for h in cl.handles}
        assert members <= {1, 2}
        assert sorted(cl.core.load_balancer.reports) \
            == [h.worker_id for h in cl.handles]
        # No departed member owns territory in the ledger.
        assert all(cl.core.ledger.recovery_jobs(gone) == []
                   for gone in {1, 2} - members)
        seen.append(members)

    cluster.round_hook = hook
    first = cluster.run()
    rounds_of_first = len(seen)
    second = cluster.run()
    first_retirement, second_retirement = retirements
    assert first_retirement.fired
    assert second_retirement.fired_at == first_retirement.fired_at
    assert first.exhausted and first.workers_removed == 1
    assert first.transfer_commands > 0 and rounds_of_first > 5
    for name in ("paths_completed", "useful_instructions",
                 "replay_instructions", "rounds_executed",
                 "transfer_commands", "states_transferred", "messages_sent",
                 "workers_removed", "peak_workers", "exhausted"):
        assert getattr(second, name) == getattr(first, name), name
    assert sorted(second.worker_stats) == sorted(first.worker_stats) == [1, 2]
    assert seen[rounds_of_first:] == seen[:rounds_of_first]
    assert cluster.handles == [] and cluster.core.books.departed == []


def test_loopback_cluster_run_a_few_rounds_at_a_time_stays_cumulative(printf2):
    """Members of the in-process cluster outlive a run, so its books do too."""
    whole = printf2.build_cluster(
        ClusterConfig(num_workers=2, instructions_per_round=60)).run()
    cluster = printf2.build_cluster(
        ClusterConfig(num_workers=2, instructions_per_round=60))
    results = [cluster.run(max_rounds=3)]
    cluster.remove_worker(2)  # between runs: counted on the next result
    cluster.add_worker()
    while not results[-1].exhausted:
        results.append(cluster.run(max_rounds=3))
    assert len(results) > 2
    for earlier, later in zip(results, results[1:]):
        assert later.paths_completed >= earlier.paths_completed
        assert later.useful_instructions > earlier.useful_instructions
        assert later.messages_sent > earlier.messages_sent
        assert later.covered_lines >= earlier.covered_lines
        assert (later.workers_removed, later.workers_added) == (1, 1)
    last = results[-1]
    assert last.paths_completed == whole.paths_completed
    assert last.covered_lines == whole.covered_lines
    assert sorted(t.fork_trace for t in last.test_cases) \
        == sorted(t.fork_trace for t in whole.test_cases)
    assert sum(r.rounds_executed for r in results) >= whole.rounds_executed
    # The retired member's account stayed in the books across the runs.
    assert 2 in last.worker_stats and last.peak_workers == 2


def test_final_filed_at_the_end_of_a_run_is_void_once_the_member_dies(printf2):
    """A loopback member is finalized at the end of every run; when it dies
    in the next one before reporting again, that final must not keep its
    (redone) work in the totals."""
    whole = printf2.build_cluster(
        ClusterConfig(num_workers=3, instructions_per_round=60)).run()
    cluster, _ = _cluster(
        printf2, lambda member: FaultyTransport(
            member, victim=0, command=ExploreCommand, occurrence=1,
            when="reply"),
        num_workers=3, instructions_per_round=60)
    first = cluster.run(max_rounds=2)
    assert first.worker_failures == 0 and 1 in first.worker_stats
    # Member 1 loses the reply to its first explore of the next run.
    arm(cluster.handles[0])
    second = cluster.run()
    assert second.exhausted and list(second.failed_worker_stats) == [1]
    assert second.paths_completed == whole.paths_completed
    assert sorted(t.fork_trace for t in second.test_cases) \
        == sorted(t.fork_trace for t in whole.test_cases)
    assert 1 not in second.worker_stats


def test_an_account_is_the_latest_report_whichever_kind_it_is(printf2):
    """Run three rounds at a time: every run ends on a full report and the
    next run's first brief one takes its place -- there is no second kind
    of account to void, and nothing is counted twice or dropped."""
    cluster = printf2.build_cluster(
        ClusterConfig(num_workers=2, instructions_per_round=60))
    kinds = []

    def hook(round_index, cl):
        kinds.append([h.status is not None
                      and h.status.frontier is not None
                      for h in cl.handles])

    cluster.round_hook = hook
    results = []
    while not (results and results[-1].exhausted):
        results.append(cluster.run(max_rounds=3))
        for handle in cluster.handles:
            assert set(vars(handle)) >= {"status", "dead"}
            assert "final" not in vars(handle)
            assert handle.status.frontier is not None
            assert results[-1].worker_stats[handle.worker_id] \
                is handle.status.stats
        assert results[-1].paths_completed == sum(
            stats.paths_completed
            for stats in results[-1].worker_stats.values())
        assert len(results[-1].test_cases) == results[-1].paths_completed
    assert len(results) > 2
    # A run's first round still sees the full report the run before ended
    # on; by the next round a brief one has taken its place.
    assert kinds[:3] == [[False, False]] * 3
    assert kinds[3:6] == [[True, True], [False, False], [False, False]]
    single = printf2.run(backend="single")
    assert results[-1].paths_completed == single.paths_completed
    assert results[-1].covered_lines == single.covered_lines


def test_member_lost_while_filing_its_end_of_run_report(printf2):
    """Too late to redo its work: the member's counters stay out of every
    total, and its last report's ``WorkerStats`` -- all of it, not three
    hand-picked counters -- is what ``failed_worker_stats`` keeps."""
    cluster, _ = _cluster(
        printf2, lambda member: FaultyTransport(
            member, victim=1, command=ReportCommand, occurrence=1,
            when="reply"),
        num_workers=2, instructions_per_round=60)
    result = cluster.run(max_rounds=6)
    assert not result.exhausted
    assert result.worker_failures == 1 and result.jobs_recovered == 0
    assert sorted(result.worker_stats) == [2]
    lost = result.failed_worker_stats[1]
    (account,) = cluster.core.books.departed
    assert account.dead and lost is account.status.stats
    assert account.status.frontier is None  # its last *brief* report
    assert lost.useful_instructions > 0 and lost.paths_completed > 0
    assert lost.jobs_exported > 0 and lost.transfers > 0  # whole
    survivor = result.worker_stats[2]
    assert result.paths_completed == survivor.paths_completed
    assert result.useful_instructions == survivor.useful_instructions
    assert result.replay_instructions == survivor.replay_instructions
    assert len(result.test_cases) == survivor.paths_completed
    # The per-round increments had counted the lost member's work.
    assert sum(snap.useful_instructions
               for snap in result.timeline.snapshots) \
        == survivor.useful_instructions + lost.useful_instructions
    # Its solver counters still enter the aggregate.
    assert result.cache_stats["solver_queries"] \
        > cluster.handles[0].status.cache_counters["solver_queries"]


# -- one place adds up -------------------------------------------------------------------


def test_member_retiring_between_a_status_and_the_checkpoint_is_counted_once():
    """A member reports with everyone else, then is retired at the next
    membership barrier, handing over its whole frontier and filing a full
    report; the checkpoint written after that round must count it once."""
    test = specs.resolve_test("printf", format_length=3)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=3, instructions_per_round=120, checkpoint_every=1))
    checkpoints = {}

    def finished_a_path_and_holds_work(cl):
        return max((h for h in cl.handles if h.status is not None
                    and h.status.stats.paths_completed > 0
                    and h.queue_length > 0),
                   key=lambda h: h.queue_length, default=None)

    def retire(cl, victim):
        assert victim.queue_length > 0
        assert victim.status.stats.paths_completed > 0
        cl.remove_worker(victim.worker_id)
        assert victim in cl.core.books.departed

    retirement = Trigger(finished_a_path_and_holds_work, retire)

    def hook(round_index, cl):
        retirement(round_index, cl)
        if cl.last_checkpoint is not None:
            checkpoints[cl.last_checkpoint.round_index] = cl.last_checkpoint

    cluster.round_hook = hook
    result = cluster.run()
    checkpoints[cluster.last_checkpoint.round_index] = cluster.last_checkpoint
    assert result.exhausted and result.workers_removed == 1
    assert retirement.fired
    # Written after the retirement round, the first round without the
    # victim.
    retired_at = retirement.fired_at
    victim, checkpoint = retirement.subject, checkpoints[retired_at + 1]
    assert checkpoint.round_index == retired_at + 1
    snapshot = result.timeline.snapshots[retired_at]
    assert victim.status.stats.paths_completed > 0
    assert checkpoint.paths_completed == snapshot.paths_completed
    assert len(checkpoint.test_cases) == checkpoint.paths_completed
    traces = [tuple(t.fork_trace) for t in checkpoint.test_cases]
    assert len(set(traces)) == len(traces)
    # Each outstanding job is listed once, by whoever held it at its report.
    assert len(set(checkpoint.frontier_paths)) \
        == len(checkpoint.frontier_paths) == snapshot.total_candidates
    single = test.run(backend="single")
    assert result.paths_completed == single.paths_completed
    assert sorted(t.fork_trace for t in result.test_cases) \
        == sorted(t.fork_trace for t in single.test_cases)
    assert result.worker_stats[victim.worker_id] is victim.status.stats


def test_round_record_checkpoint_and_result_read_the_same_books():
    """One run with a removal, a member death and a checkpoint after every
    round: wherever a number is reported, it is the same number."""
    test = specs.resolve_test("printf", format_length=3)
    single = test.run(backend="single")
    # Nobody is armed up front: worker 3 is armed at the first boundary
    # after worker 2's removal at which it holds work, and loses the reply
    # to that round's explore.
    cluster, _ = _cluster(
        test, lambda member: FaultyTransport(
            member, victim=0, command=ExploreCommand, occurrence=1,
            when="reply"),
        num_workers=4, instructions_per_round=120, checkpoint_every=1)
    checkpoints = {}

    def holding_work(worker_id):
        def holds(cl):
            return next((h for h in cl.handles if h.worker_id == worker_id
                         and h.queue_length > 0), None)
        return holds

    removal = Trigger(holding_work(2),
                      lambda cl, member: cl.remove_worker(member.worker_id))
    death = Trigger(lambda cl: removal.fired and holding_work(3)(cl),
                    lambda cl, member: arm(member))

    def hook(round_index, cl):
        death(round_index, cl)  # first: never on the removal's boundary
        removal(round_index, cl)
        if cl.last_checkpoint is not None:
            checkpoints[cl.last_checkpoint.round_index] = cl.last_checkpoint

    cluster.round_hook = hook
    result = cluster.run()
    checkpoints[cluster.last_checkpoint.round_index] = cluster.last_checkpoint

    assert result.exhausted and result.workers_removed == 1
    assert result.worker_failures == 1 and list(result.failed_worker_stats) == [3]
    lost = result.failed_worker_stats[3]
    died_in = next(snap.round_index for snap in result.timeline.snapshots
                   if snap.round_index + 1 not in checkpoints)
    assert removal.fired and died_in == death.fired_at
    assert removal.fired_at < died_in < result.rounds_executed - 1
    assert len(checkpoints) == result.rounds_executed - 1  # none that round

    useful = replay = 0
    for snap in result.timeline.snapshots:
        useful += snap.useful_instructions
        replay += snap.replay_instructions
        checkpoint = checkpoints.get(snap.round_index + 1)
        if checkpoint is None:
            continue
        # The dead member's work left the books (survivors redo it); the
        # per-round increments had already counted it.
        redone = snap.round_index > died_in
        assert checkpoint.paths_completed == snap.paths_completed
        assert len(checkpoint.test_cases) == snap.paths_completed
        assert bool(checkpoint.bug_reports) == bool(snap.bugs_found)
        # Each outstanding job is listed once, by whoever held it at its
        # report -- on the removal round too.
        assert len(set(checkpoint.frontier_paths)) \
            == len(checkpoint.frontier_paths) == snap.total_candidates
        assert checkpoint.useful_instructions == useful - (
            lost.useful_instructions if redone else 0)
        assert checkpoint.replay_instructions == replay - (
            lost.replay_instructions if redone else 0)

    final = checkpoints[result.rounds_executed]
    assert final.frontier_paths == []
    assert final.paths_completed == result.paths_completed
    assert final.useful_instructions == result.useful_instructions
    assert final.replay_instructions == result.replay_instructions
    assert len(final.bug_reports) == len(result.bugs)
    assert final.covered_lines() == result.covered_lines
    assert sorted(tuple(t.fork_trace) for t in final.test_cases) \
        == sorted(tuple(t.fork_trace) for t in result.test_cases)
    assert result.timeline.snapshots[-1].paths_completed == result.paths_completed

    assert result.paths_completed == single.paths_completed
    assert result.covered_lines == single.covered_lines
    assert result.bug_summaries() == single.bug_summaries()
    assert sorted(t.fork_trace for t in result.test_cases) \
        == sorted(t.fork_trace for t in single.test_cases)
    # Accounts: the retired member's is closed and counted, the dead one's
    # closed and void.
    assert {(a.worker_id, a.dead) for a in cluster.core.books.departed} \
        == {(2, False), (3, True)}
    assert sorted(result.worker_stats) == [1, 2, 4]


# -- a launched member does not outlive the error that refused it -------------------------


def test_startup_failure_closes_every_launched_member(printf2):
    error, built = _cluster(
        printf2, lambda member: (WrongProgram if member.worker_id == 2
                                 else LoopbackTransport)(member),
        num_workers=4)
    assert isinstance(error, WorkerProcessError)
    assert "worker 2 compiled a program" in str(error)
    assert [transport.is_alive() for transport in built] == [False] * 4


def test_replacement_that_fails_to_start_past_the_budget_is_closed(printf2):
    def carrier(member):
        if member.worker_id == 4:
            return Stillborn(member)
        return FaultyTransport(member, victim=0, command=ExploreCommand,
                               occurrence=1, when="reply")

    cluster, built = _cluster(printf2, carrier, num_workers=3,
                              instructions_per_round=60, respawn=True,
                              max_worker_failures=1)
    # Member 1 loses the reply to its next explore once it has reported.
    death = cluster.round_hook = Trigger(
        lambda cl: cl.handles[0].status is not None and cl.handles[0],
        lambda cl, member: arm(member))
    with pytest.raises(WorkerProcessError, match="worker 4 .*failure budget"):
        cluster.run(max_rounds=50)
    assert death.fired and death.subject.worker_id == 1
    assert [t.peer for t in built if not t.is_alive()] \
        == [built[0].peer, built[3].peer]
    assert [m.worker_id for m in cluster.handles] == [2, 3]


def test_joining_member_that_is_refused_is_closed(printf2):
    cluster, built = _cluster(
        printf2, lambda member: (WrongProgram if member.worker_id == 3
                                 else LoopbackTransport)(member),
        num_workers=2)
    with pytest.raises(WorkerProcessError,
                       match="worker 3 compiled .* while joining"):
        cluster.add_worker()
    assert not built[2].is_alive()
    assert [m.worker_id for m in cluster.handles] == [1, 2]
    assert sorted(cluster.core.load_balancer.reports) == [1, 2]
    assert cluster.run().exhausted
