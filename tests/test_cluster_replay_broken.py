"""Broken replays (§6): divergence and premature termination are detected,
reported, and survivable at worker level."""

import pytest

from repro.cluster import replay
from repro.cluster.jobs import JobTree
from repro.cluster.replay import replay_path
from repro.cluster.worker import Worker
from repro.engine import SymbolicExecutor

from conftest import branchy_program, single_branch_program


def _make_worker(program, worker_id=1):
    executor = SymbolicExecutor(program)
    return Worker(worker_id, executor, executor.make_initial_state())


class TestReplayPathBrokenOutcomes:
    def test_divergent_fork_index_reports_divergence(self):
        executor = SymbolicExecutor(single_branch_program())
        outcome = replay_path(executor, executor.make_initial_state(), [7])
        assert outcome.broken
        assert "divergence" in outcome.reason
        assert outcome.state is None

    def test_path_longer_than_tree_reports_premature_termination(self):
        executor = SymbolicExecutor(single_branch_program())
        outcome = replay_path(executor, executor.make_initial_state(),
                              [0, 0, 0])
        assert outcome.broken
        assert "prematurely" in outcome.reason

    def test_step_budget_exceeded_reports_broken(self, monkeypatch):
        monkeypatch.setattr(replay, "MAX_REPLAY_STEPS", 1)
        executor = SymbolicExecutor(branchy_program(2))
        outcome = replay_path(executor, executor.make_initial_state(),
                              [0, 0])
        assert outcome.broken
        assert "exceeded" in outcome.reason

    def test_successful_replay_collects_fence_states(self):
        source = _make_worker(branchy_program(2))
        source.seed()
        while source.queue_length and source.queue_length < 3:
            source.explore(5)
        node = max(source.frontier,
                   key=lambda n: len(n.path_from_root()))
        path = node.path_from_root()
        assert path

        executor = SymbolicExecutor(branchy_program(2))
        outcome = replay_path(executor, executor.make_initial_state(), path)
        assert not outcome.broken
        # Off-path siblings surfaced as fences (explored elsewhere, §3.2).
        assert outcome.fence_states
        for fence_path, fence_state in outcome.fence_states:
            assert tuple(fence_path) != tuple(path)
            assert fence_state.is_running


class TestWorkerSurvivesBrokenReplays:
    def _import_path(self, worker, path):
        tree = JobTree()
        tree.insert(path)
        return worker.import_jobs(tree)

    def test_divergent_job_is_dropped_and_counted(self):
        worker = _make_worker(branchy_program(2))
        worker.seed()
        assert self._import_path(worker, (9, 9)) == 1
        while worker.has_work:
            worker.explore(1000)
        assert worker.stats.broken_replays == 1
        assert worker.paths_completed == 9  # the real subtree still finished
        # The broken node is dead, not a lingering candidate.
        assert all(not n.is_virtual for n in worker.frontier)

    def test_multiple_broken_jobs_all_reported(self):
        worker = _make_worker(branchy_program(2))
        worker.seed()
        self._import_path(worker, (9,))
        self._import_path(worker, (0,) * 30)
        while worker.has_work:
            worker.explore(1000)
        assert worker.stats.broken_replays == 2
        assert worker.paths_completed == 9

    def test_broken_replay_work_counts_as_replay_not_useful(self):
        worker = _make_worker(branchy_program(2))
        worker.seed()
        # Drain the real work first so only the bogus job remains.
        while worker.has_work:
            worker.explore(1000)
        useful_before = worker.stats.useful_instructions
        self._import_path(worker, (0,) * 30)
        while worker.has_work:
            worker.explore(1000)
        assert worker.stats.broken_replays == 1
        assert worker.stats.useful_instructions == useful_before
        assert worker.stats.replay_instructions > 0
