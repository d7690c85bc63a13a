"""Differential oracle: the indexed frontier picks what the scan picked.

Until the frontier was indexed, every strategy received a copy of the
candidates, sorted it by ``node_id`` and, for the coverage-optimised searcher,
weighed every node and walked the cumulative weights.  That code lives on
here as the *reference*: every ``select`` of a run is answered twice -- by
the reference on a cloned RNG and by the strategy itself -- and must return
the same node object and leave the RNG where the clone ended; every
``export_jobs`` must give away the nodes the old ``sorted(...,
key=-node_id)`` expression named.  The random-path walk is
checked the same way against its plain form (a sort and a ``randrange`` at
every level), so a changed draw fails here.  Runs cover the single engine,
in-process clusters (imports, replays, exports) and the death sweep of
``test_loopback_faults`` (recovered jobs, discarded subtrees).

The walk draws at a two-way fork with ``getrandbits`` loops written out from
``Random._randbelow``; the draw-equivalence test below pins them to it, seed
by seed, so a CPython that changes ``_randbelow`` fails here instead of
silently moving every random-path pick.
"""

import random
import sys
from collections import Counter

import pytest

from repro.cluster import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.engine.explorer import Explorer
from repro.engine.frontier import Frontier
from repro.engine.strategies import (
    BfsStrategy,
    CoverageOptimizedStrategy,
    DfsStrategy,
    FewestFaultsFirstStrategy,
    RandomPathStrategy,
    RandomStateStrategy,
    make_strategy,
)
from repro.engine.tree import DEAD, ExecutionTree

from test_loopback_faults import LIMITS, SCENARIOS, _faulty_cluster


# -- the reference: what src/ did before the frontier was indexed ---------------


def _cloned(rng):
    clone = random.Random()
    clone.setstate(rng.getstate())
    return clone


def reference_weight(strategy, node):
    state = node.state
    if state is None or not state.is_running or state.current is None:
        return 1.0
    if not state.current_thread.stack:
        return 1.0
    frame = state.current_thread.top
    function = state.program.function(frame.function)
    if frame.pc < len(function.instructions):
        line = function.instructions[frame.pc].line
        if line not in strategy._covered:
            return 16.0
    fn_lines = {i.line for i in function.instructions}
    uncovered_here = len(fn_lines - strategy._covered)
    if uncovered_here:
        return 4.0 + min(uncovered_here, 8)
    return 1.0


def reference_coverage_optimized(strategy, candidates, rng):
    ordered = sorted(candidates, key=lambda n: n.node_id)
    weights = [reference_weight(strategy, n) for n in ordered]
    total = sum(weights)
    pick = rng.uniform(0.0, total)
    cumulative = 0.0
    for node, weight in zip(ordered, weights):
        cumulative += weight
        if pick <= cumulative:
            return node
    return ordered[-1]


def reference_random_state(strategy, candidates, rng):
    ordered = sorted(candidates, key=lambda n: n.node_id)
    return ordered[rng.randrange(len(ordered))]


def reference_random_path(strategy, candidates, rng):
    """KLEE's walk from the root: at every level sort the children, keep the
    ones with candidates below, draw with ``randrange`` (also where only one
    child is left)."""
    node = candidates[0]
    while node.parent is not None:
        node = node.parent
    while True:
        children = [c for k, c in sorted(node.children.items())
                    if c.candidate_count > 0]
        if not children:
            if node in candidates:
                return node
            ordered = sorted(candidates, key=lambda n: n.node_id)
            return ordered[rng.randrange(len(ordered))]
        node = children[rng.randrange(len(children))]


def reference_dfs(strategy, candidates, rng):
    return max(candidates, key=lambda n: n.node_id)


def reference_bfs(strategy, candidates, rng):
    return min(candidates, key=lambda n: n.node_id)


def reference_fewest_faults_first(strategy, candidates, rng):
    def fault_count(node):
        state = node.state
        if state is None:
            return 0
        return int(state.options.get("faults_injected", 0))

    return sorted(candidates, key=lambda n: (fault_count(n), n.node_id))[0]


def reference_export(worker, count):
    if count <= 0:
        return []
    ordered = sorted(worker.frontier, key=lambda n: -n.node_id)
    return [tuple(n.path_from_root()) for n in ordered[:count]]


REFERENCES = {
    CoverageOptimizedStrategy: reference_coverage_optimized,
    RandomPathStrategy: reference_random_path,
    RandomStateStrategy: reference_random_state,
    DfsStrategy: reference_dfs,
    BfsStrategy: reference_bfs,
    FewestFaultsFirstStrategy: reference_fewest_faults_first,
}


@pytest.fixture
def checked(monkeypatch):
    """Answer every select and export twice; count the comparisons made.

    A strategy that draws must leave its RNG where the reference left the
    clone it drew from: the same pick made with a different number of
    draws fails here, not later in the oracle."""
    compared = Counter()
    for cls, reference in REFERENCES.items():
        def select(self, tree, candidates, _real=cls.select,
                   _reference=reference, _name=cls.name):
            # The reference gets a shuffled copy: it must not inherit the
            # frontier's order, only its membership.
            members = list(candidates)
            random.Random(len(members)).shuffle(members)
            own_rng = getattr(self, "_rng", None)
            clone = None if own_rng is None else _cloned(own_rng)
            expected = _reference(self, members, clone)
            chosen = _real(self, tree, candidates)
            assert chosen is expected, (_name, compared[_name])
            if clone is not None:
                assert own_rng.getstate() == clone.getstate(), (
                    _name, compared[_name])
            compared[_name] += 1
            return chosen

        monkeypatch.setattr(cls, "select", select)

    real_export = Worker.export_jobs

    def export_jobs(self, count):
        expected = reference_export(self, count)
        job_tree = real_export(self, count)
        assert sorted(job.path for job in job_tree.jobs()) == sorted(expected)
        compared["export"] += 1
        compared["exported_jobs"] += len(expected)
        return job_tree

    monkeypatch.setattr(Worker, "export_jobs", export_jobs)
    return compared


# -- (a) the single engine, to exhaustion -----------------------------------------

TARGETS = {
    "printf": dict(format_length=3),
    "memcached-packets": {},
}


@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_single_engine_picks_match_the_scan(checked, spec):
    test = specs.resolve_test(spec, **TARGETS[spec])
    result = test.run(backend="single")
    assert result.exhausted
    # Interleaved: every other select is the coverage-optimised searcher's,
    # the rest are random-path walks.
    assert checked["coverage_optimized"] == result.steps // 2
    assert checked["random_path"] == result.steps - result.steps // 2
    assert checked["coverage_optimized"] > 2000


# The walk's own code, before the fixture wraps ``select``: a draw made there
# is a random-path draw.
_WALK = RandomPathStrategy.select.__code__


def test_three_way_forks_and_coverage_growth_match_the_scan(checked,
                                                            monkeypatch):
    """lighttpd's symbolic fragmentation forks each read three ways, so the
    walk draws ``_randbelow(3)`` in its general case; and coverage grows in
    the middle of the run, emptying the coverage searcher's weight memo
    while the reference weighs from scratch."""
    draws = Counter()
    randbelow = random.Random._randbelow

    def counting_randbelow(self, n):
        if sys._getframe(1).f_code is _WALK:
            draws[n] += 1
        return randbelow(self, n)

    monkeypatch.setattr(random.Random, "_randbelow", counting_randbelow)
    notify_covered = CoverageOptimizedStrategy.notify_covered
    emptied = Counter()

    def counting_notify_covered(self, lines):
        memoised = len(self._weights)
        notify_covered(self, lines)
        if memoised and not self._weights:
            emptied["memo"] += 1

    monkeypatch.setattr(CoverageOptimizedStrategy, "notify_covered",
                        counting_notify_covered)
    test = specs.resolve_test("lighttpd-frag-1.4.12")
    result = test.run(backend="single", max_instructions=3000)
    assert result.steps == 3000
    assert draws[3] > 100
    assert emptied["memo"] > 10
    assert checked["coverage_optimized"] == 1500


# -- the written-out draws are ``_randbelow``'s ----------------------------------


def _fork(live):
    """A root with children 0 and 1; ``live`` names the ones that hold a
    candidate (a child that does not is dead)."""
    tree, frontier = ExecutionTree(), Frontier()
    tree.root.mark_dead()
    for index in (0, 1):
        if index in live:
            frontier.add(tree.root.add_child(index))
        else:
            tree.root.add_child(index, life=DEAD)
    return tree, frontier


@pytest.mark.parametrize("live", [(0, 1), (0,), (1,)])
def test_the_written_out_draws_leave_the_rng_where_randbelow_does(live):
    tree, frontier = _fork(live)
    n = len(live)
    for seed in range(300):
        strategy = RandomPathStrategy(seed)
        clone = _cloned(strategy._rng)
        for _ in range(20):
            picked = strategy.select(tree, frontier)
            assert picked is tree.root.children[live[clone._randbelow(n)]]
            assert strategy._rng.getstate() == clone.getstate(), seed


# -- (b) in-process clusters: imports, replays, exports ----------------------------


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_cluster_picks_and_exports_match_the_scan(checked, spec, workers):
    test = specs.resolve_test(spec, **TARGETS[spec])
    result = test.run(backend="cluster", workers=workers)
    assert result.exhausted and result.states_transferred > 0
    assert checked["coverage_optimized"] > 2000
    assert checked["exported_jobs"] == result.states_transferred


# -- (c) the death sweep: recovered jobs, discarded subtrees -----------------------


def test_death_sweep_picks_and_exports_match_the_scan(checked):
    test = specs.resolve_test("printf", format_length=2)
    fired = recovered = 0
    for _name, scenario in sorted(SCENARIOS.items()):
        for victim in (1, 2, 3):
            for occurrence in (1, 3, 5):
                cluster = _faulty_cluster(
                    test, **dict(scenario, victim=victim, occurrence=occurrence))
                result = cluster.run(limits=LIMITS)
                assert result.exhausted
                fired += result.worker_failures
                recovered += result.jobs_recovered
    assert fired >= 12 and recovered >= 12
    assert checked["coverage_optimized"] > 5000 and checked["export"] > 100


def test_a_recovered_job_that_is_already_a_member_is_weighed_again(checked):
    """``_import_recovered_job`` takes the state away from a node that may
    already be in the frontier (the sweep never gets there): its weight
    drops to 1 and the index must hear of it."""
    test = specs.resolve_test("printf", format_length=2)
    executor = test.build_executor()
    worker = Worker(1, executor, test.build_initial_state(executor))
    worker.seed()
    worker.explore(300)
    searcher = next(s for s in worker.strategy._strategies
                    if isinstance(s, CoverageOptimizedStrategy))
    member = next(n for n in worker.frontier
                  if reference_weight(searcher, n) > 1.0)
    job = JobTree.from_jobs([Job(tuple(member.path_from_root()))])
    before = checked["coverage_optimized"]
    assert worker.import_jobs(job, recovered=True) == 0
    assert member in worker.frontier and member.state is None
    worker.explore(100_000)
    assert not worker.has_work
    assert checked["coverage_optimized"] > before + 100


# -- the other strategies, smaller ----------------------------------------------------


@pytest.mark.parametrize("strategy", ["random_state", "dfs", "bfs",
                                      "fewest_faults_first"])
def test_other_strategies_read_the_frontier_in_the_sorted_order(
        checked, monkeypatch, strategy):
    # One select per step_node; a sticky strategy's step runs a straight
    # line, so it makes fewer steps than the run counts.
    stepped = Counter()
    step_node = Explorer.step_node

    def counting_step_node(self, node, budget=1):
        stepped["nodes"] += 1
        return step_node(self, node, budget)

    monkeypatch.setattr(Explorer, "step_node", counting_step_node)
    test = specs.resolve_test("printf", format_length=2)
    single = test.run(backend="single", strategy=strategy)
    assert single.exhausted
    single_selects = checked[strategy]
    assert single_selects == stepped["nodes"]
    if not make_strategy(strategy).sticky:
        assert single_selects == single.steps
    cluster = test.build_cluster(ClusterConfig(
        num_workers=3, instructions_per_round=60, strategy=strategy))
    result = cluster.run(limits=LIMITS)
    assert result.exhausted and result.states_transferred > 0
    assert result.paths_completed == single.paths_completed
    assert checked[strategy] > single_selects
    assert checked["exported_jobs"] == result.states_transferred
