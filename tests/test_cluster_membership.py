"""Elastic membership: members join and leave at the round barrier (§3.3).

Covers ``remove_worker`` handing a member's whole frontier to a survivor on
both backends, the load balancer's membership-churn hygiene (report seeding
on join, atomic purge on leave), the unified checkpoint cadence, and
cumulative accounting (wall time, pre-crash bugs) across ``resume_from=``,
and that no way out of ``run()`` leaves a member or a listener behind.
"""

import multiprocessing
import os
import signal
import socket

import pytest

from repro import lang as L
from repro.api import ExplorationLimits
from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.load_balancer import LoadBalancer
from repro.distrib import specs
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    ProcessClusterConfig,
    TcpCloud9Cluster,
    TcpClusterConfig,
)
from repro.distrib.messages import ImportCommand
from repro.distrib.protocol import WorkerProcessError
from repro.engine.errors import BugKind, BugReport
from repro.engine.test_case import TestCase
from repro.testing.symbolic_test import SymbolicTest

from conftest import _cluster_processes
from triggers import Trigger, frontier_invariants

LIMITS = ExplorationLimits(max_rounds=500)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="runtime-registered specs reach child processes only under fork")


def _buggy_program(buffer_size=3):
    """branchy plus a deterministic assertion bug on the all-'A' paths."""
    return L.program(
        "as-buggy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", buffer_size,
                                 L.strconst("input"))),
            L.decl("i", 0),
            L.decl("acc", 0),
            L.while_(L.lt(L.var("i"), buffer_size),
                L.decl("c", L.index(L.var("buf"), L.var("i"))),
                L.if_(L.eq(L.var("c"), ord("A")),
                      [L.assign("acc", L.add(L.var("acc"), 1))],
                      [L.if_(L.eq(L.var("c"), ord("B")),
                             [L.assign("acc", L.add(L.var("acc"), 3))])]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.assert_(L.ne(L.var("acc"), buffer_size), "all-A input"),
            L.ret(L.var("acc")),
        ),
    )


def _buggy_test(buffer_size=3):
    return SymbolicTest(name="as-buggy", program=_buggy_program(buffer_size),
                        use_posix_model=False)


# Registered at import time: "fork" children inherit the registry.
specs.register_spec("test-as-buggy", _buggy_test, replace=True)


# -- removal -----------------------------------------------------------------------------


class TestIncrementalDrain:
    """``remove_worker`` is one step: when it returns, the member's whole
    frontier is on a survivor and the member is in ``books.departed``."""

    def test_removal_run_holds_the_invariants_every_round(self):
        test = _buggy_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=3, instructions_per_round=30))
        observed = {}

        def three_jobs_or_more(cl):
            victim = max(cl.workers, key=lambda w: w.queue_length)
            return victim if victim.queue_length >= 3 else None

        def retire(cl, victim):
            observed["queue"] = victim.queue_length
            observed["moved"] = cl.remove_worker(victim.worker_id)
            assert victim.queue_length == 0
            assert [(a.worker_id, a.dead)
                    for a in cl.core.books.departed] \
                == [(victim.worker_id, False)]

        # The trigger checks the invariants at every boundary.
        trigger = cluster.round_hook = Trigger(three_jobs_or_more, retire)
        result = cluster.run(limits=LIMITS)
        assert "moved" in observed, \
            "no worker accumulated enough queue; tune the budgets"
        assert observed["moved"] == observed["queue"]
        assert trigger.rounds == result.rounds_executed
        ok, message = frontier_invariants(cluster)
        assert ok, message
        assert result.exhausted
        assert result.workers_removed == 1
        assert result.num_workers == 2
        single = test.run(backend="single", limits=ExplorationLimits())
        assert result.paths_completed == single.paths_completed

    def test_empty_worker_departs_immediately(self):
        test = _buggy_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30))
        # Worker 2 never got jobs yet: nothing to hand over.
        assert cluster.workers[1].queue_length == 0
        assert cluster.remove_worker(2) == 0
        assert [(a.worker_id, a.dead)
                for a in cluster.core.books.departed] == [(2, False)]

    def test_remove_guards_unchanged(self):
        test = _buggy_test()
        cluster = test.build_cluster(ClusterConfig(num_workers=1))
        with pytest.raises(ValueError, match="last worker"):
            cluster.remove_worker(1)
        with pytest.raises(ValueError, match="no live worker"):
            cluster.remove_worker(99)


# -- load balancer hygiene under membership churn ----------------------------------------


class TestMembershipChurnHygiene:
    def test_register_seed_is_overwritten_by_real_status(self):
        lb = LoadBalancer(line_count=10)
        lb.receive_status(1, queue_length=10, useful_instructions=0,
                          coverage_bits=0, round_index=0)
        lb.register_worker(2, queue_length=10)
        assert lb.reports[2].queue_length == 10
        lb.receive_status(2, queue_length=0, useful_instructions=0,
                          coverage_bits=0, round_index=1)
        assert lb.reports[2].queue_length == 0
        # Seeding never clobbers a report that already has ground truth.
        lb.register_worker(2, queue_length=7)
        assert lb.reports[2].queue_length == 0

    def test_add_then_balance_before_first_status(self):
        """Regression: a just-added worker's fabricated zero-length report
        used to skew the queue-length spread and draw a transfer before the
        balancer had heard from it even once."""
        test = _buggy_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30))
        cluster.run(limits=ExplorationLimits(max_rounds=4))
        lb = cluster.core.load_balancer
        lengths_before = {w: lb.reports[w].queue_length
                          for w in lb.worker_ids}
        spread_before = (min(lengths_before.values()),
                         max(lengths_before.values()))
        new_id = cluster.add_worker()
        # The newcomer is seeded with the mean, not zero...
        assert lb.reports[new_id].queue_length == round(
            sum(lengths_before.values()) / len(lengths_before))
        # ...so the queue-length spread is not skewed to (0, max)...
        lengths = [report.queue_length for report in lb.reports.values()]
        low, high = min(lengths), max(lengths)
        assert low >= min(min(lengths_before.values()),
                          lb.reports[new_id].queue_length)
        assert (low, high) != (0, spread_before[1]) or spread_before[0] == 0
        # ...and balance() does not fire a transfer at it on fabricated data.
        assert all(command.destination != new_id for command in lb.balance())


# -- checkpoint cadence ------------------------------------------------------------------


class TestCheckpointCadence:
    """Both backends snapshot after every N *completed* rounds: the first
    checkpoint lands at round_index == checkpoint_every, on the dot."""

    def test_in_process_first_checkpoint_round(self):
        test = _buggy_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30,
                          checkpoint_every=3))
        cluster.run(limits=ExplorationLimits(max_rounds=2))
        assert cluster.last_checkpoint is None  # 2 completed rounds < 3
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30,
                          checkpoint_every=3))
        cluster.run(limits=ExplorationLimits(max_rounds=3))
        assert cluster.last_checkpoint is not None
        assert cluster.last_checkpoint.round_index == 3

    @needs_fork
    def test_process_first_checkpoint_round(self):
        config = dict(num_workers=2, instructions_per_round=40,
                      reply_timeout=1.0, checkpoint_every=3)
        cluster = ProcessCloud9Cluster(
            "test-as-buggy", config=ProcessClusterConfig(**config))
        cluster.run(limits=ExplorationLimits(max_rounds=2))
        assert cluster.last_checkpoint is None
        cluster = ProcessCloud9Cluster(
            "test-as-buggy", config=ProcessClusterConfig(**config))
        cluster.run(limits=ExplorationLimits(max_rounds=3))
        assert cluster.last_checkpoint is not None
        assert cluster.last_checkpoint.round_index == 3


# -- cumulative accounting and self-contained checkpoints across resume ------------------


class TestResumeAccounting:
    def test_checkpoint_round_trips_bugs_and_test_cases(self):
        bug = BugReport(kind=BugKind.ASSERTION_FAILURE, message="boom",
                        state_id=7, line=3, function="main")
        case = TestCase(state_id=7, inputs={"input": b"AAA"}, path_length=12,
                        fork_trace=[0, 1], exit_code=None, is_error=True,
                        error_summary="boom")
        checkpoint = ClusterCheckpoint(
            round_index=2, frontier_paths=[(0,)], coverage_bits=0b1,
            line_count=4, wall_time=1.5,
            bug_reports=[bug], test_cases=[case])
        restored = ClusterCheckpoint.from_json(checkpoint.to_json())
        assert restored.wall_time == 1.5
        (decoded_bug,) = restored.bug_reports
        assert decoded_bug.summary() == bug.summary()
        (decoded_case,) = restored.test_cases
        assert decoded_case.inputs == {"input": b"AAA"}
        assert decoded_case.is_error and decoded_case.fork_trace == [0, 1]

    def _interrupt_after_bug(self, test):
        """Interrupt a checkpointing run one round after the bug is found;
        returns the checkpoint (which must postdate the bug) and the
        partial result."""
        # Scout run: learn when the bug appears and how long the run is.
        scout = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=60))
        found = scout.round_hook = Trigger(
            lambda cl: any(w.bugs for w in cl.workers))
        scouted = scout.run(limits=LIMITS)
        assert scouted.exhausted and found.fired
        stop_at = found.fired_at + 1
        assert stop_at < scouted.rounds_executed, \
            "bug found on the last round; tune the budgets"
        # The real, deterministic interrupted run.
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=60,
                          checkpoint_every=1))
        partial = cluster.run(limits=ExplorationLimits(max_rounds=stop_at))
        assert partial.bugs, "bug not found before the interruption point"
        assert not partial.exhausted, "tune budgets: run finished early"
        return cluster.last_checkpoint, partial

    def test_resumed_run_reports_cumulative_wall_time_and_precrash_bugs(self):
        test = _buggy_test(buffer_size=4)
        full = test.run(backend="cluster", workers=2,
                        instructions_per_round=60, limits=LIMITS)
        assert full.exhausted and full.found_bug

        checkpoint, partial = self._interrupt_after_bug(test)
        assert checkpoint is not None
        assert checkpoint.wall_time > 0.0
        assert checkpoint.bug_reports, "checkpoint dropped pre-crash bugs"
        assert checkpoint.test_cases

        resumed_cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=60))
        resumed = resumed_cluster.run(limits=LIMITS, resume_from=checkpoint)
        assert resumed.exhausted
        # Pre-crash bugs survive the resume even though the resumed segment
        # never re-explores the paths that produced them.
        assert resumed.bug_summaries() == full.bug_summaries()
        assert resumed.paths_completed == full.paths_completed
        assert len(resumed.test_cases) == len(full.test_cases)
        # Wall time is cumulative: at least the checkpointed segment's.
        assert resumed.wall_time >= checkpoint.wall_time

    def test_bugs_found_counts_checkpointed_bugs_after_resume(self):
        """Regression: the per-round ``bugs_found`` ignored the bugs a
        resumed checkpoint already holds, so the series restarted at zero
        and ``stop_on_first_bug`` ran on past a bug it had been handed."""
        test = _buggy_test(buffer_size=4)
        checkpoint, partial = self._interrupt_after_bug(test)
        # (The checkpoint stores bug reports deduplicated; members count
        # every report, so only the checkpoint's own number carries over.)
        held = len(checkpoint.bug_reports)
        assert held >= 1 and partial.timeline.snapshots[-1].bugs_found >= held

        resumed = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=60)
        ).run(limits=LIMITS, resume_from=checkpoint)
        series = [snap.bugs_found for snap in resumed.timeline.snapshots]
        assert series[0] >= held
        assert series == sorted(series)

        stopped = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=60)
        ).run(limits=ExplorationLimits(max_rounds=500, stop_on_first_bug=True),
              resume_from=checkpoint)
        assert stopped.goal_reached and stopped.rounds_executed == 1

    def test_bugs_found_survives_the_finders_departure(self):
        """Regression: ``bugs_found`` summed live and draining members only,
        so it *dropped* once the member that found the bug finished
        draining and moved to the departed list."""
        test = _buggy_test(buffer_size=4)
        cluster = test.build_cluster(
            ClusterConfig(num_workers=3, instructions_per_round=60))

        def a_finder_among_others(cl):
            finders = [w for w in cl.workers if w.bugs]
            return finders[0] if finders and len(cl.workers) > 1 else None

        removed = cluster.round_hook = Trigger(
            a_finder_among_others,
            lambda cl, finder: cl.remove_worker(finder.worker_id))
        result = cluster.run(limits=LIMITS)
        assert removed.fired, "no worker found the bug; tune the budgets"
        assert result.exhausted and result.workers_removed == 1
        assert removed.subject.worker_id in {
            a.worker_id for a in cluster.core.books.departed if not a.dead}
        series = [snap.bugs_found for snap in result.timeline.snapshots]
        assert series == sorted(series), series
        assert series[removed.fired_at] >= 1
        assert series[-1] >= len(result.bugs)

    @needs_fork
    def test_process_resume_keeps_precrash_bugs_and_wall_time(self, tmp_path):
        test = specs.resolve_test("test-as-buggy")
        kwargs = dict(instructions_per_round=40, reply_timeout=1.0)
        full = test.run(backend="process", workers=2, limits=LIMITS, **kwargs)
        assert full.exhausted and full.found_bug

        path = str(tmp_path / "ckpt.json")
        rounds = 2
        partial = None
        # The bug lands in the first couple of rounds on this target; walk
        # the interruption point forward until a checkpoint holds it.
        while rounds <= 10:
            partial = test.run(backend="process", workers=2,
                               limits=ExplorationLimits(max_rounds=rounds),
                               checkpoint_every=1, checkpoint_path=path,
                               **kwargs)
            if partial.found_bug and not partial.exhausted:
                break
            rounds += 1
        assert partial is not None and partial.found_bug
        assert not partial.exhausted
        checkpoint = ClusterCheckpoint.load(path)
        assert checkpoint.bug_reports, "checkpoint dropped pre-crash bugs"
        assert checkpoint.wall_time > 0.0

        resumed = test.run(backend="process", workers=2, limits=LIMITS,
                           resume_from=path, **kwargs)
        assert resumed.exhausted
        assert resumed.bug_summaries() == full.bug_summaries()
        assert resumed.paths_completed == full.paths_completed
        assert resumed.wall_time >= checkpoint.wall_time


# -- process-backend membership (also the CI smoke) --------------------------------------


@needs_fork
class TestProcessMembership:
    def test_retire_on_checkpoint_round_counts_members_once(self):
        """A member removed at the start of a checkpoint round is counted
        once in that round's checkpoint: by its closing full report, which
        lists no frontier, while the survivor that took its jobs lists them
        in its own full status."""
        cluster = ProcessCloud9Cluster(
            "test-as-buggy",
            config=ProcessClusterConfig(num_workers=3,
                                        instructions_per_round=40,
                                        reply_timeout=1.0,
                                        checkpoint_every=1))
        captured = {"ckpts": {}}

        def paths_and_queue(cl):
            victim = max(cl.handles, key=lambda h: (
                h.status.stats.paths_completed if h.status else -1,
                h.queue_length))
            return (victim if victim.queue_length >= 2 and victim.status
                    and victim.status.stats.paths_completed >= 1 else None)

        def retire(cl, victim):
            captured["moved"] = cl.remove_worker(victim.worker_id)
            assert captured["moved"] >= 2
            assert victim in cl.core.books.departed and not victim.dead

        retirement = Trigger(paths_and_queue, retire)

        def hook(round_index, cl):
            if cl.last_checkpoint is not None:
                captured["ckpts"][cl.last_checkpoint.round_index] = \
                    cl.last_checkpoint
            retirement(round_index, cl)

        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        captured["ckpts"][cluster.last_checkpoint.round_index] = \
            cluster.last_checkpoint
        assert retirement.fired, \
            "no victim had paths and queue; tune the budgets"
        assert result.exhausted and result.workers_removed == 1
        # Every checkpoint's counters must agree with the round snapshot
        # taken at the same barrier (which sums each member once).
        for snap in result.timeline.snapshots:
            checkpoint = captured["ckpts"][snap.round_index + 1]
            assert checkpoint.paths_completed == snap.paths_completed
            assert len(checkpoint.test_cases) == snap.paths_completed
            assert len(set(checkpoint.frontier_paths)) \
                == len(checkpoint.frontier_paths) == snap.total_candidates

    def test_remove_worker_hands_over_its_whole_frontier_mid_run(self):
        cluster = ProcessCloud9Cluster(
            "test-as-buggy",
            config=ProcessClusterConfig(num_workers=3,
                                        instructions_per_round=40,
                                        reply_timeout=1.0))
        events = {}

        def two_jobs_or_more(cl):
            victim = max(cl.handles, key=lambda h: h.queue_length)
            return victim if victim.queue_length >= 2 else None

        def retire(cl, victim):
            events["removed"] = victim.worker_id
            events["queue"] = victim.queue_length
            events["moved"] = cl.remove_worker(victim.worker_id)
            assert victim in cl.core.books.departed
            assert victim.status.queue_length == 0
            assert not victim.transport.process.is_alive()

        cluster.round_hook = Trigger(two_jobs_or_more, retire)
        result = cluster.run(limits=LIMITS)
        assert "removed" in events, \
            "no worker accumulated enough queue; tune the budgets"
        assert events["moved"] == events["queue"]
        assert result.exhausted
        assert result.workers_removed == 1
        # The removed worker's results still merged into the totals.
        assert events["removed"] in result.worker_stats
        test = specs.resolve_test("test-as-buggy")
        single = test.run(backend="single", limits=ExplorationLimits())
        assert result.paths_completed == single.paths_completed


# -- a removal cut short by its target's death leaves no member behind -----------------


@pytest.mark.parametrize("backend", ["process", "tcp"])
def test_a_removal_whose_target_dies_leaves_no_member_alive(backend):
    """``leave`` takes the member off the core's list before it hands its
    frontier over; the target SIGKILLed as the handover's ``ImportCommand``
    goes out spends a failure budget of 0, so ``run()`` raises mid-removal.
    The driver stops every channel it opened, the leaving member's too."""
    options = {"num_workers": 2, "instructions_per_round": 40,
               "reply_timeout": 1.0, "shutdown_timeout": 2.0,
               "max_worker_failures": 0}
    if backend == "tcp":
        cluster = TcpCloud9Cluster(
            "printf", {"format_length": 2},
            config=TcpClusterConfig(spawn_local_agents=True,
                                    agent_wait_timeout=20.0, **options))
    else:
        cluster = ProcessCloud9Cluster(
            "printf", {"format_length": 2},
            config=ProcessClusterConfig(**options))
    killed = []

    def holds_work(cl):
        leaving = max(cl.handles, key=lambda h: h.queue_length)
        return leaving if leaving.queue_length else None

    def remove_as_the_target_dies(cl, leaving):
        (target,) = [h for h in cl.handles if h is not leaving]
        transport = target.transport
        send = transport.send

        def send_after_the_kill(command):
            if isinstance(command, ImportCommand):
                killed.append(target.worker_id)
                os.kill(transport.process.pid, signal.SIGKILL)
                transport.process.join(5.0)
            send(command)

        transport.send = send_after_the_kill
        cl.remove_worker(leaving.worker_id)

    cluster.round_hook = Trigger(holds_work, remove_as_the_target_dies)
    before = _cluster_processes()
    with pytest.raises(WorkerProcessError, match="max_worker_failures=0"):
        cluster.run(limits=LIMITS)
    assert killed, "no member held work to hand over; tune the budgets"
    assert [p.name for p in _cluster_processes() if p not in before] == []


# -- every other way out of run() leaves no member and no listener ---------------------


def _raise_once_explored(error):
    """A round hook that raises at the first boundary where every member
    has reported (so every member has a live channel and has done work)."""
    def hook(round_index, cl):
        if all(h.status is not None for h in cl.handles):
            raise error("raised from round_hook at round %d" % round_index)
    return hook


#: way out -> (config options, run() limits, round hook, what run() raises).
#: The files go to a directory that does not exist.
WAYS_OUT = {
    "hook-raises": ({}, {}, _raise_once_explored(RuntimeError),
                    RuntimeError),
    "hook-interrupted": ({}, {}, _raise_once_explored(KeyboardInterrupt),
                         KeyboardInterrupt),
    "checkpoint-unwritable": ({"checkpoint_every": 1,
                               "checkpoint_path": "missing/ckpt.json"},
                              {}, None, FileNotFoundError),
    "trace-dir-missing": ({}, {"trace_path": "missing/trace.jsonl"}, None,
                          FileNotFoundError),
    # An address of no interface on this host: bind() fails locally.
    "status-unbindable": ({"status_listen": "192.0.2.1:0"}, {}, None,
                          OSError),
}


@pytest.mark.parametrize("backend", ["process", "tcp"])
@pytest.mark.parametrize("way_out", sorted(WAYS_OUT))
def test_every_way_out_of_run_leaves_no_member_and_no_listener(
        backend, way_out, tmp_path, monkeypatch):
    """An exception from ``round_hook``, a ``KeyboardInterrupt``, a
    checkpoint or trace file that cannot be written and a status address
    that cannot be bound all leave ``run()`` through its teardown: no worker
    process or agent is alive afterwards, and the agents' listener and the
    status endpoint are closed."""
    monkeypatch.chdir(tmp_path)
    options, limits, hook, error = WAYS_OUT[way_out]
    options = dict(options, num_workers=2, instructions_per_round=40,
                   reply_timeout=1.0, shutdown_timeout=2.0)
    if backend == "tcp":
        cluster = TcpCloud9Cluster(
            "printf", {"format_length": 2},
            config=TcpClusterConfig(spawn_local_agents=True,
                                    agent_wait_timeout=20.0, **options))
    else:
        cluster = ProcessCloud9Cluster(
            "printf", {"format_length": 2},
            config=ProcessClusterConfig(**options))
    listener = cluster.listen_address if backend == "tcp" else None
    cluster.round_hook = hook
    before = _cluster_processes()
    with pytest.raises(error):
        cluster.run(limits=LIMITS.merged(**limits))
    assert [p.name for p in _cluster_processes() if p not in before] == []
    assert cluster.status_address is None
    if listener is not None:
        assert cluster.listen_address is None
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(listener, timeout=2.0).close()
