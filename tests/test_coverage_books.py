"""Differential oracle: one line per step keeps the books the full diff kept.

Until a step handed on just the line it executed, ``Explorer.step_node``
diffed every child's whole ``coverage`` against the lines already handed on
-- a cost that grows with the path, paid on every step.  That bookkeeping
lives on here as the *reference* (:func:`reference_step_node`).  Each flow
runs twice, once per implementation, and the two runs must agree on the
sequence of line sets handed to ``strategy.notify_covered`` (through
``Explorer.new_lines``), on ``explorer.covered_lines`` after every step, and
on the coverage bits of every worker's last status.  The cluster flows are
checked to contain the three ways a node comes to hold a state ``step_node``
did not produce: a replay, an export, and a bounced job revived from a
fence.
The DFS flows take straight-line steps (a budget above one), which hand on
the set of lines they ran through; the reference steps with the same budget.
"""

from collections import Counter
from typing import Set

import pytest

from repro.lang import builder as L
from repro.cluster.jobs import Job, JobTree
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.distrib.worker import DistribWorker
from repro.engine.explorer import Explorer

from conftest import make_executor

TARGETS = {
    "printf": dict(format_length=3),
    "memcached-packets": dict(num_packets=2, packet_size=4),
}


# -- the reference: the books as src/ kept them -------------------------------------


def reference_step_node(self, node, budget=1):
    result = self.executor.step(node.state, budget)
    if result.terminated:
        self.paths_completed += len(result.terminated)
        self.bugs.extend(result.bugs)
        self.test_cases.extend(result.test_cases)
    children = result.children
    told = self.covered_lines
    new: Set[int] = set()
    for child in children:
        new.update(child.coverage - told)
    if new:
        told.update(new)
        self.new_lines(new)
    self._graft(node, children)
    return result


class Books:
    """What one run wrote into its books, per explorer, in order."""

    def __init__(self):
        self.events = []
        self.views = {}
        self.flows = Counter()


def keep_books(monkeypatch, step_node) -> Books:
    """Run with ``step_node`` as ``Explorer.step_node`` and record the books."""
    books = Books()
    names = {}

    def name_of(explorer):
        # Worker ids repeat across runs; a single engine's explorer is "single".
        return names.setdefault(
            id(explorer), getattr(explorer, "worker_id", "single"))

    def recording_step(self, node, budget=1):
        result = step_node(self, node, budget)
        books.events.append(
            ("covered", name_of(self), frozenset(self.covered_lines)))
        return result

    status = DistribWorker.status

    def recording_status(self, full=False):
        reply = status(self, full)
        books.views[self.worker_id] = reply.coverage_bits
        return reply

    new_lines = Explorer.new_lines

    def recording_new_lines(self, lines):
        books.events.append(("told", name_of(self), frozenset(lines)))
        new_lines(self, lines)

    import_jobs, materialize = Worker.import_jobs, Worker._materialize
    export_jobs = Worker.export_jobs

    def counting_import(self, job_tree, fence_paths=(), recovered=False):
        for job in job_tree.jobs():
            node = self.tree.node_at(list(job.path))
            if node is not None and node.is_fence and node.state is not None:
                books.flows["revived_fence"] += 1
        return import_jobs(self, job_tree, fence_paths, recovered)

    def counting_replay(self, node):
        if not node.is_materialized:
            books.flows["replay"] += 1
        return materialize(self, node)

    def counting_export(self, count):
        job_tree = export_jobs(self, count)
        books.flows["export"] += len(list(job_tree.jobs()))
        return job_tree

    monkeypatch.setattr(Explorer, "step_node", recording_step)
    monkeypatch.setattr(Explorer, "new_lines", recording_new_lines)
    monkeypatch.setattr(DistribWorker, "status", recording_status)
    monkeypatch.setattr(Worker, "import_jobs", counting_import)
    monkeypatch.setattr(Worker, "_materialize", counting_replay)
    monkeypatch.setattr(Worker, "export_jobs", counting_export)
    return books


def both_books(run):
    """``run()`` under the line-based books and under the reference."""
    step_node = Explorer.step_node
    outcomes = []
    for implementation in (step_node, reference_step_node):
        with pytest.MonkeyPatch.context() as monkeypatch:
            books = keep_books(monkeypatch, implementation)
            result = run()
        outcomes.append((books, result))
    return outcomes


def assert_same_books(outcomes):
    (mine, my_result), (reference, reference_result) = outcomes
    assert mine.events == reference.events
    assert mine.views == reference.views
    assert my_result.covered_lines == reference_result.covered_lines
    assert my_result.paths_completed == reference_result.paths_completed
    assert any(kind == "told" for kind, _, _ in mine.events)


@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_single_engine_books_match_the_full_diff(spec):
    def run():
        return specs.resolve_test(spec, **TARGETS[spec]).run(backend="single")

    outcomes = both_books(run)
    assert_same_books(outcomes)
    assert outcomes[0][1].exhausted


@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_cluster_books_match_the_full_diff(spec):
    def run():
        return specs.resolve_test(spec, **TARGETS[spec]).run(
            backend="cluster", workers=3, instructions_per_round=100)

    outcomes = both_books(run)
    assert_same_books(outcomes)
    mine = outcomes[0][0]
    assert mine.flows == outcomes[1][0].flows
    assert mine.flows["replay"] > 0
    assert mine.flows["export"] > 0
    assert len(mine.views) == 3
    assert outcomes[0][1].exhausted


def test_a_bounced_job_revived_from_a_fence_keeps_the_books():
    """Across both targets some job comes back to the worker that fenced it
    off and is stepped from the state the fence kept."""
    revived = 0
    for spec, params in TARGETS.items():
        def run(spec=spec, params=params):
            return specs.resolve_test(spec, **params).run(
                backend="cluster", workers=3, instructions_per_round=20)

        outcomes = both_books(run)
        assert_same_books(outcomes)
        revived += outcomes[0][0].flows["revived_fence"]
    assert revived > 0


def test_a_seeded_state_brings_its_coverage_once():
    """``run(initial_state=s)`` with a state that already has a path behind
    it reports that path's lines: the per-step union that used to make up
    for it is gone, ``seed_state`` does it once."""
    program = L.program("p", L.func(
        "main", [],
        L.decl("i", 0),
        L.assign("i", L.add(L.var("i"), 1)),
        L.assign("i", L.add(L.var("i"), 2)),
        L.ret(L.var("i")),
    ))
    stepper = make_executor(program)
    state = stepper.make_initial_state()
    stepper.step(state)
    stepper.step(state)
    behind = set(state.coverage)
    assert len(behind) == 2

    # Cut short, so that no finished path's union can make up for the seed.
    cut = make_executor(program).run(initial_state=state.fork(), max_steps=1)
    assert behind < cut.covered_lines and len(cut.covered_lines) == 3

    executor = make_executor(program)
    told = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        new_lines = Explorer.new_lines
        monkeypatch.setattr(
            Explorer, "new_lines",
            lambda self, lines: (told.append(set(lines)), new_lines(self, lines)))
        result = executor.run(initial_state=state, strategy="dfs")
    assert len(result.covered_lines) == 4
    assert result.test_cases[0].exit_code == 3
    # The seeded path is handed on with the first step, then a line a step.
    assert behind < told[0]
    assert all(len(lines) == 1 for lines in told[1:])


def test_a_replay_time_fence_revived_before_its_sibling_ran_keeps_the_books(branchy):
    """A replay leaves off-path siblings behind as fences holding states whose
    path nobody handed on; one of them coming back as a job is stepped from
    that state, so its first step must hand the replayed prefix on."""
    def run():
        executor = make_executor(branchy)
        worker = Worker(2, executor, executor.make_initial_state(),
                        strategy_name="dfs")
        worker.import_jobs(JobTree.from_jobs([Job((0, 1))]))
        worker.explore(1)  # the replay, and nothing else
        fence = worker.tree.node_at([1])
        assert fence.is_fence and fence.state is not None
        worker.import_jobs(JobTree.from_jobs([Job((1,))]))
        assert fence in worker.frontier
        worker.step_node(fence)
        return worker

    (mine, worker), (reference, _) = both_books(run)
    assert mine.events == reference.events
    assert mine.views == reference.views
    assert mine.flows["revived_fence"] == 1
    told = [lines for kind, _, lines in mine.events if kind == "told"]
    assert len(told) == 1 and len(told[0]) > 1
    assert told[0] <= worker.covered_lines
