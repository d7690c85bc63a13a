"""In-process fault injection: kill members between protocol messages.

The in-process cluster runs the same failure-aware coordinator the process
cluster does, so a member can be made to die at an exact protocol point --
no processes, signals or timing -- by putting a faulty
:class:`~repro.distrib.loopback.LoopbackTransport` in front of it.  Every
scenario must converge to the crash-free outcome, and after every round the
coordinator's :class:`~repro.cluster.ledger.FrontierLedger` must agree with
what each surviving :class:`~repro.cluster.worker.Worker` really holds
(:class:`triggers.Trigger` checks it at every round boundary).  A death
staged at a protocol event arms its fault there (:func:`triggers.arm`), so
no occurrence count is chosen up front.
"""

import pytest

from repro.engine.limits import ExplorationLimits
from repro.cluster.core import ClusterConfig
from repro.distrib import specs
from repro.distrib.loopback import Cloud9Cluster, LoopbackTransport
from repro.distrib.cluster import WorkerProcessError
from repro.distrib.messages import (
    ExploreCommand,
    ExportCommand,
    ImportCommand,
    ReportCommand,
)
from repro.net.transport import TransportError
from repro.obs.trace import load_trace

from triggers import Trigger, arm, frontier_invariants

CONFIG = dict(num_workers=3, instructions_per_round=60)
LIMITS = ExplorationLimits(max_rounds=200)


class FaultyTransport(LoopbackTransport):
    """Dies at one protocol point: on the ``occurrence``-th command of type
    ``command`` it either loses the reply (``when="reply"``: the member did
    the work, the coordinator never hears) or survives it and fails the next
    send (``when="after"``).  ``silent`` makes the death look like the one a
    TCP transport reports after heartbeat silence."""

    def __init__(self, member, victim, command, occurrence, when,
                 silent=False):
        super().__init__(member)
        self.armed = member.worker_id == victim
        self.command, self.left, self.when = command, occurrence, when
        self.lose_reply = self.dead = self.die_on_next_send = False
        self.silent = silent

    @property
    def heartbeat_missed(self):
        return self.silent and self.dead

    def send(self, message):
        if self.dead or self.die_on_next_send:
            self.dead = True
            raise TransportError("%s died (injected)" % self.peer)
        super().send(message)
        if self.armed and isinstance(message, self.command):
            self.left -= 1
            if self.left == 0:
                self.armed = False
                if self.when == "reply":
                    self.lose_reply = True
                else:
                    self.die_on_next_send = True

    def recv(self, timeout=None):
        if self.dead or self.lose_reply:
            self.dead = True
            raise TransportError("%s died (injected)" % self.peer)
        return super().recv(timeout=timeout)


def _faulty_cluster(test, policy=None, **fault):
    class FaultyCluster(Cloud9Cluster):
        carrier = staticmethod(
            lambda member: FaultyTransport(member, **fault))

    return test.build_cluster(ClusterConfig(**CONFIG, **(policy or {})),
                              cluster_class=FaultyCluster)


def _check_every_round(cluster):
    cluster.round_hook = Trigger()
    return cluster.round_hook


@pytest.fixture(scope="module")
def test_and_baseline():
    test = specs.resolve_test("printf", format_length=2)
    cluster = test.build_cluster(ClusterConfig(**CONFIG))
    checker = _check_every_round(cluster)
    baseline = cluster.run(limits=LIMITS)
    assert baseline.exhausted and baseline.worker_failures == 0
    assert baseline.states_transferred > 0 and checker.rounds
    return test, baseline


SCENARIOS = {
    # The member explored its round, the status reply is lost.
    "mid-explore": dict(victim=1, command=ExploreCommand, occurrence=3,
                        when="reply"),
    # The source fenced off the exported jobs, the job tree is lost.
    "mid-export": dict(victim=1, command=ExportCommand, occurrence=2,
                       when="reply"),
    # The destination acknowledged an import, then went silent.
    "after-import": dict(victim=2, command=ImportCommand, occurrence=1,
                         when="after"),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_member_death_converges_to_the_crash_free_run(test_and_baseline,
                                                      scenario):
    test, baseline = test_and_baseline
    cluster = _faulty_cluster(test, **SCENARIOS[scenario])
    checker = _check_every_round(cluster)
    result = cluster.run(limits=LIMITS)

    assert result.exhausted
    assert result.worker_failures >= 1
    assert result.jobs_recovered >= 1
    assert result.num_workers == CONFIG["num_workers"] - result.worker_failures
    assert result.paths_completed == baseline.paths_completed
    assert result.covered_lines == baseline.covered_lines
    assert result.bug_summaries() == baseline.bug_summaries()
    assert sorted(tc.fork_trace for tc in result.test_cases) \
        == sorted(tc.fork_trace for tc in baseline.test_cases)
    # The invariants were checked at every round barrier, and hold at the end.
    assert checker.rounds == result.rounds_executed
    ok, message = frontier_invariants(cluster)
    assert ok, message


def test_death_schedule_sweep(test_and_baseline):
    """Every member, killed at each of its first few explores, exports and
    imports: no schedule loses a path, explores one twice, or leaves the
    ledger disagreeing with a survivor."""
    test, baseline = test_and_baseline
    expected = sorted(tc.fork_trace for tc in baseline.test_cases)
    fired = 0
    for name, scenario in sorted(SCENARIOS.items()):
        for victim in (1, 2, 3):
            for occurrence in (1, 3, 5):
                fault = dict(scenario, victim=victim, occurrence=occurrence)
                cluster = _faulty_cluster(test, **fault)
                _check_every_round(cluster)
                result = cluster.run(limits=LIMITS)
                label = (name, victim, occurrence)
                assert result.exhausted, label
                assert sorted(tc.fork_trace
                              for tc in result.test_cases) == expected, label
                assert result.covered_lines == baseline.covered_lines, label
                assert (len(result.covered_lines)
                        == result.timeline.snapshots[-1].covered_lines), label
                fired += result.worker_failures
    assert fired >= 12, "most schedules never fired; tune the sweep"


def test_a_dead_members_lines_count_in_the_result_as_in_the_round_record():
    """Worker 2 loses the reply to an explore once its status shows lines it
    explored itself: the lines it covered before it died are in the
    overlay, so the run's result reports them just as its round record and
    its coverage goal do."""
    test = specs.resolve_test("printf", format_length=3)
    # Nobody is armed up front (worker ids start at 1).
    cluster = _faulty_cluster(test, victim=0, command=ExploreCommand,
                              occurrence=1, when="reply")

    def explored_lines_itself(cl):
        for member in cl.handles:
            status = member.status
            if (member.worker_id == 2 and status is not None
                    and status.coverage_bits
                    and status.stats.useful_instructions > 0):
                return member
        return None

    trigger = Trigger(explored_lines_itself, lambda cl, member: arm(member))
    cluster.round_hook = trigger
    result = cluster.run(limits=LIMITS.merged(coverage_target=49.0))
    assert trigger.fired, "worker 2 explored nothing of its own"
    assert trigger.subject.status.stats.useful_instructions > 0
    assert result.worker_failures == 1
    assert list(result.failed_worker_stats) == [2]
    assert result.goal_reached
    assert result.coverage_percent >= 49.0
    assert (len(result.covered_lines)
            == result.timeline.snapshots[-1].covered_lines)


def test_respawn_replaces_the_dead_member(test_and_baseline, tmp_path):
    test, baseline = test_and_baseline
    cluster = _faulty_cluster(test, policy=dict(respawn=True), silent=True,
                              **SCENARIOS["mid-explore"])
    _check_every_round(cluster)
    trace_path = str(tmp_path / "trace.jsonl")
    result = cluster.run(limits=LIMITS.merged(trace_path=trace_path))
    assert result.exhausted and result.respawns == 1
    assert result.num_workers == CONFIG["num_workers"]
    assert result.paths_completed == baseline.paths_completed
    # The death was by heartbeat silence, and the trace says so.
    assert result.heartbeat_misses == 1
    fault_events = [(e["event"], e["worker"]) for e in load_trace(trace_path)
                    if e["event"] in ("heartbeat_miss", "worker_died",
                                      "worker_respawned", "jobs_recovered")]
    assert fault_events[:2] == [("heartbeat_miss", 1), ("worker_died", 1)]
    assert {name for name, _ in fault_events} == {
        "heartbeat_miss", "worker_died", "worker_respawned",
        "jobs_recovered"}


@pytest.mark.parametrize("command", [ExportCommand, ReportCommand],
                         ids=["at-export", "at-report"])
def test_member_dying_during_its_removal_is_recovered_not_replaced(
        test_and_baseline, command):
    """A member killed at its removal's ExportCommand, or at its closing
    ReportCommand once its frontier is on a survivor: its territory is
    recovered from the ledger like any death's, and even under
    ``respawn=True`` it is not replaced -- it was leaving anyway."""
    test, _ = test_and_baseline
    single = test.run(backend="single")
    # Nobody is armed up front (worker ids start at 1); the hook arms the
    # member it removes, so it dies at its first ``command`` from then on.
    cluster = _faulty_cluster(test, policy=dict(respawn=True), victim=0,
                              command=command, occurrence=1, when="reply")

    def finished_paths_and_holds_work(cl):
        # One with finished paths: its territory outlives the handover; and
        # with a queue, so the removal has a frontier to export.
        return max((h for h in cl.handles if h.status is not None
                    and h.status.stats.paths_completed > 0
                    and h.queue_length > 0),
                   key=lambda h: (h.status.stats.paths_completed,
                                  h.queue_length), default=None)

    def retire_armed(cl, victim):
        assert victim.status.stats.paths_completed > 0
        arm(victim)
        moved = cl.remove_worker(victim.worker_id)
        assert victim.dead and victim in cl.core.books.departed
        assert victim.worker_id not in [m.worker_id for m in cl.handles]
        return moved

    trigger = Trigger(finished_paths_and_holds_work, retire_armed)
    cluster.round_hook = trigger
    result = cluster.run(limits=LIMITS)
    assert trigger.fired
    assert result.exhausted
    assert result.workers_removed == 1
    assert result.worker_failures == 1 and result.respawns == 0
    assert result.jobs_recovered >= 1
    assert list(result.failed_worker_stats) == [trigger.subject.worker_id]
    assert result.num_workers == CONFIG["num_workers"] - 1
    if command is ExportCommand:
        assert trigger.outcome == 0  # jobs moved
    assert result.paths_completed == single.paths_completed
    assert result.covered_lines == single.covered_lines
    assert sorted(tc.fork_trace for tc in result.test_cases) \
        == sorted(tc.fork_trace for tc in single.test_cases)


class HoldsBack(LoopbackTransport):
    """Exports one job fewer than asked for: a member that would leave the
    cluster still holding work."""

    def send(self, message):
        if isinstance(message, ExportCommand) and message.count > 1:
            message = ExportCommand(count=message.count - 1)
        super().send(message)


def test_member_still_holding_a_job_after_its_removal_is_failed(
        test_and_baseline):
    """``remove_worker`` never returns while the member holds a job: a
    closing report with a non-empty queue fails the member, and the job it
    kept is recovered from the ledger."""
    test, _ = test_and_baseline
    single = test.run(backend="single")

    class Cluster(Cloud9Cluster):
        carrier = HoldsBack

    cluster = test.build_cluster(ClusterConfig(**CONFIG),
                                 cluster_class=Cluster)
    seen = {}

    def two_jobs_or_more(cl):
        victim = max(cl.handles, key=lambda h: h.queue_length)
        return victim if victim.queue_length >= 2 else None

    def retire(cl, victim):
        queue = victim.queue_length
        assert queue >= 2
        seen["moved"] = cl.remove_worker(victim.worker_id)
        assert seen["moved"] == queue - 1
        assert victim.dead and victim.status.queue_length == 1
        assert not victim.transport.is_alive()

    cluster.round_hook = Trigger(two_jobs_or_more, retire)
    result = cluster.run(limits=LIMITS)
    assert "moved" in seen
    assert result.exhausted and result.worker_failures == 1
    assert result.jobs_recovered >= 1
    assert result.paths_completed == single.paths_completed
    assert sorted(tc.fork_trace for tc in result.test_cases) \
        == sorted(tc.fork_trace for tc in single.test_cases)


def test_failure_budget_is_enforced_in_process(test_and_baseline):
    test, _ = test_and_baseline
    cluster = _faulty_cluster(test, policy=dict(max_worker_failures=0),
                              **SCENARIOS["mid-explore"])
    with pytest.raises(WorkerProcessError, match="failure budget"):
        cluster.run(limits=LIMITS)
