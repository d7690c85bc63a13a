"""Unit tests for worker-level operation: frontier, job transfer, replay."""

from repro.cluster.jobs import Job, JobTree
from repro.cluster.replay import replay_path
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.engine.executor import SymbolicExecutor
from repro.engine.strategies import make_strategy
from repro.posix.model import install_posix_model

from conftest import branchy_program


def make_worker(worker_id=1, buffer_size=2):
    program = branchy_program(buffer_size)

    def executor_factory():
        return SymbolicExecutor(program,
                                environment_installers=[install_posix_model])

    executor = executor_factory()
    return Worker(worker_id, executor, executor.make_initial_state())


class TestSeedAndExplore:
    def test_seed_creates_root_candidate(self):
        worker = make_worker()
        worker.seed()
        assert worker.queue_length == 1
        assert worker.tree.root.is_candidate
        assert worker.tree.root.state is not None

    def test_exploration_completes_all_paths(self):
        worker = make_worker()
        worker.seed()
        while worker.has_work:
            worker.explore(1000)
        assert worker.paths_completed == 9
        assert worker.stats.useful_instructions > 0
        assert worker.stats.replay_instructions == 0

    def test_explore_respects_budget(self):
        worker = make_worker()
        worker.seed()
        consumed = worker.explore(5)
        assert consumed >= 5
        assert worker.has_work

    def test_reserved_worker_id_rejected(self):
        try:
            make_worker(worker_id=0)
            assert False
        except ValueError:
            pass


def _pairs_match_children(tree):
    for node in tree.root.iter_subtree():
        kids = node.children
        expected = (kids[0], kids[1]) if sorted(kids) == [0, 1] else None
        assert node.pair == expected, node


class TestRecoveredReset:
    def test_a_two_way_node_that_loses_a_child_is_no_pair(self):
        """A recovered root's reset discards what no fence path protects:
        a two-way node left with one child must stop reading as a pair,
        or the random-path walk would descend into a detached subtree."""
        worker = make_worker()
        worker.seed()
        while worker.has_work:
            worker.explore(1000)
        tree = worker.tree
        node = next(n for n in tree.root.iter_subtree()
                    if n.pair is not None and n.pair[0].pair is not None)
        path = tuple(node.path_from_root())
        kept = node.children[0]
        # The fence keeps (0, 0) below the root: (1,) and (0, 1) go.
        assert worker.import_jobs(JobTree.from_jobs([Job(path)]),
                                  fence_paths=[path + (0, 0)],
                                  recovered=True) == 1
        assert list(node.children) == [0] and node.pair is None
        assert list(kept.children) == [0] and kept.pair is None
        _pairs_match_children(tree)
        while worker.has_work:
            worker.explore(1000)
        assert node.pair is not None
        _pairs_match_children(tree)


class TestJobTransfer:
    def _worker_with_frontier(self, min_candidates=3):
        worker = make_worker()
        worker.seed()
        while worker.queue_length < min_candidates and worker.has_work:
            worker.explore(5)
        return worker

    def test_export_marks_fences_and_shrinks_frontier(self):
        worker = self._worker_with_frontier()
        before = worker.queue_length
        job_tree = worker.export_jobs(2)
        assert len(job_tree) == 2
        assert worker.queue_length == before - 2
        assert len(worker.tree.fences()) == 2
        assert worker.stats.jobs_exported == 2

    def test_export_more_than_available(self):
        worker = self._worker_with_frontier()
        available = worker.queue_length
        job_tree = worker.export_jobs(available + 10)
        assert len(job_tree) == available

    def test_export_zero(self):
        worker = self._worker_with_frontier()
        assert len(worker.export_jobs(0)) == 0

    def test_import_creates_virtual_candidates(self):
        source = self._worker_with_frontier()
        job_tree = source.export_jobs(2)
        destination = make_worker(worker_id=2)
        imported = destination.import_jobs(JobTree.decode(job_tree.encode()))
        assert imported == 2
        assert destination.queue_length == 2
        assert all(node.is_virtual for node in destination.frontier)

    def test_frontiers_disjoint_after_transfer(self):
        source = self._worker_with_frontier()
        job_tree = source.export_jobs(2)
        destination = make_worker(worker_id=2)
        destination.import_jobs(job_tree)
        assert not (source.frontier_paths() & destination.frontier_paths())

    def test_transferred_work_completes_at_destination(self):
        source = self._worker_with_frontier()
        total_before = source.paths_completed
        job_tree = source.export_jobs(2)
        destination = make_worker(worker_id=2)
        destination.import_jobs(job_tree)
        while source.has_work:
            source.explore(1000)
        while destination.has_work:
            destination.explore(1000)
        # Together the two workers complete exactly the whole tree.
        assert source.paths_completed + destination.paths_completed == 9
        assert destination.stats.replay_instructions > 0
        assert destination.stats.replays >= 1


class TestReplay:
    def test_replay_reconstructs_state(self):
        source = make_worker()
        source.seed()
        while source.queue_length < 2 and source.has_work:
            source.explore(5)
        node = max(source.frontier, key=lambda n: len(n.path_from_root()))
        path = node.path_from_root()
        assert path, "need a non-root candidate for this test"

        destination = make_worker(worker_id=2)
        outcome = replay_path(destination.executor,
                              destination.initial_state.fork(), path)
        assert not outcome.broken
        assert outcome.state is not None and outcome.state.is_running
        assert outcome.instructions > 0

    def test_replay_divergent_path_reports_broken(self):
        destination = make_worker(worker_id=2)
        outcome = replay_path(destination.executor,
                              destination.initial_state.fork(), [0] * 50)
        assert outcome.broken
        assert outcome.reason

    def test_worker_replay_of_imported_job_makes_it_explorable(self):
        source = make_worker()
        source.seed()
        while source.queue_length < 3 and source.has_work:
            source.explore(5)
        job_tree = source.export_jobs(1)
        destination = make_worker(worker_id=2)
        destination.import_jobs(job_tree)
        destination.explore(10_000)
        assert destination.stats.replays == 1
        assert destination.stats.broken_replays == 0


class TestOneWorkerIsTheSingleEngine:
    """§7's baseline is "1-worker Cloud9": a worker nobody exports from or
    imports into explores through the same ``Explorer`` step as
    ``SymbolicExecutor.run``, so it visits the same nodes in the same order."""

    def test_same_test_cases_in_the_same_order(self):
        test = specs.resolve_test("printf", format_length=3)

        engine = test.build_executor()
        result = engine.run(
            initial_state=test.build_initial_state(engine),
            strategy=make_strategy("interleaved", program=engine.program))
        assert result.exhausted

        executor = test.build_executor()
        worker = Worker(1, executor, test.build_initial_state(executor),
                        strategy=make_strategy("interleaved",
                                               program=executor.program))
        worker.seed()
        while worker.has_work:
            worker.explore(1000)

        assert ([case.inputs for case in worker.test_cases]
                == [case.inputs for case in result.test_cases])
        assert len(worker.test_cases) > 100
        assert worker.paths_completed == result.paths_completed
        assert worker.stats.useful_instructions == result.useful_instructions
        assert worker.stats.replays == 0
        assert worker.covered_lines == result.covered_lines
