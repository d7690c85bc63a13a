"""Tests for ``SymbolicTest.run``, the one runner: backend dispatch, limits
round-trip into every backend, the one RunResult shape, and the
strategy-propagation fix."""

import pytest

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult
from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.distrib import specs
from repro.testing.symbolic_test import BACKENDS, SymbolicTest

from conftest import branchy_program, single_branch_program


def buggy_program() -> Program:
    """Two paths; the '!' path trips an assertion."""
    return L.program(
        "buggy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")),
                  [L.assert_(L.eq(0, 1), "boom"), L.ret(1)],
                  [L.ret(0)]),
        ),
    )


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert BACKENDS == ("cluster", "process", "single", "static", "tcp")

    def test_unknown_backend_is_an_error(self):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(ValueError,
                           match=r"unknown backend 'carrier-pigeon' \(available: "
                                 r"cluster, process, single, static, tcp\)"):
            test.run(backend="carrier-pigeon")

    def test_default_backend_is_single(self):
        test = SymbolicTest("t", single_branch_program())
        result = test.run()
        assert result.backend == "single"
        assert (result.paths_completed
                == test.run(backend="single").paths_completed == 2)


class TestBackendDispatch:
    def test_all_backends_explore_the_same_paths(self):
        expected = 9  # 3^2 paths of branchy_program(2)
        for backend, options in [("single", {}),
                                 ("cluster", {"workers": 3,
                                              "instructions_per_round": 50}),
                                 ("static", {"workers": 2})]:
            test = SymbolicTest("t", branchy_program(2))
            result = test.run(backend=backend, **options)
            assert result.backend == backend
            assert result.paths_completed == expected, backend
            assert result.exhausted, backend

    def test_cluster_accepts_full_config_object(self):
        test = SymbolicTest("t", branchy_program(2))
        config = ClusterConfig(num_workers=2, instructions_per_round=40)
        result = test.run(backend="cluster", config=config)
        assert result.num_workers == 2

    def test_config_and_loose_options_are_mutually_exclusive(self):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(TypeError, match="not both"):
            test.run(backend="cluster", config=ClusterConfig(), workers=4)

    def test_single_rejects_cluster_options(self):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(TypeError, match="unknown options"):
            test.run(backend="single", workers=4)

    @pytest.mark.parametrize("backend", ["cluster", "process"])
    def test_cluster_backends_refuse_a_removed_option_by_name(self, backend):
        test = SymbolicTest("t", single_branch_program())
        with pytest.raises(TypeError, match="autoscale"):
            test.run(backend=backend, autoscale=True)


class TestLimitsRoundTrip:
    def test_single_max_paths(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(limits=ExplorationLimits(max_paths=4))
        assert result.paths_completed == 4
        assert result.goal_reached and not result.exhausted

    def test_single_max_steps(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(limits=ExplorationLimits(max_steps=5))
        assert result.steps == 5
        assert not result.exhausted

    def test_single_stop_on_first_bug(self):
        test = SymbolicTest("t", buggy_program())
        result = test.run(limits=ExplorationLimits(stop_on_first_bug=True))
        assert result.found_bug
        assert result.goal_reached

    def test_cluster_max_rounds(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_rounds=3))
        assert result.rounds_executed == 3
        assert not result.exhausted

    def test_cluster_coverage_target_marks_goal(self):
        test = SymbolicTest("t", branchy_program(2))
        result = test.run(backend="cluster", workers=2,
                          coverage_target=10.0)
        assert result.goal_reached
        assert result.coverage_percent >= 10.0

    def test_cluster_stop_on_first_bug(self):
        test = SymbolicTest("t", buggy_program())
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=50,
                          limits=ExplorationLimits(stop_on_first_bug=True))
        assert result.found_bug and result.goal_reached

    def test_cluster_max_instructions_budget(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_instructions=20))
        assert not result.exhausted
        assert not result.goal_reached  # a spent budget is not a goal

    def test_static_max_rounds(self):
        test = SymbolicTest("t", branchy_program(3))
        result = test.run(backend="static", workers=2,
                          instructions_per_round=10,
                          limits=ExplorationLimits(max_rounds=2))
        assert result.rounds_executed == 2

    def test_direct_kwargs_equal_limits_bundle(self):
        r1 = SymbolicTest("t", branchy_program(2)).run(max_paths=3)
        r2 = SymbolicTest("t", branchy_program(2)).run(
            limits=ExplorationLimits(max_paths=3))
        assert r1.paths_completed == r2.paths_completed == 3


class TestOneResultShape:
    """Every backend returns the same class; only the cluster-only notions
    are absent (None) on a single engine."""

    CLUSTER_ONLY = ("rounds_executed", "timeline", "worker_stats",
                    "states_transferred", "transfer_cost")

    @pytest.mark.parametrize("backend, options", [
        ("single", {}),
        ("cluster", {"workers": 2, "instructions_per_round": 40}),
        ("static", {"workers": 2, "instructions_per_round": 40}),
        ("process", {"workers": 2, "instructions_per_round": 40}),
    ])
    def test_backend_fills_the_shared_fields(self, backend, options):
        test = specs.resolve_test("printf", format_length=2)
        result = test.run(backend=backend, **options)
        assert type(result) is RunResult
        assert (result.backend, result.test_name) == (backend, test.name)
        assert result.num_workers == options.get("workers", 1)
        assert result.exhausted and not result.goal_reached
        assert result.paths_completed == len(result.test_cases) == 30
        assert result.states_remaining == 0
        assert result.line_count == test.program.line_count
        assert result.covered_lines and result.coverage_percent > 0
        assert result.useful_instructions > 0
        assert result.total_instructions == (result.useful_instructions
                                             + result.replay_instructions)
        assert result.wall_time >= 0.0
        assert result.cache_stats["constraint_cache_misses"] > 0
        assert 0.0 <= result.cache_stats["constraint_cache_hit_rate"] <= 1.0
        assert result.bug_kinds() == set() and not result.found_bug
        for name in self.CLUSTER_ONLY:
            assert (getattr(result, name) is None) == (backend == "single"), name
        if backend == "single":
            assert result.steps > 0
            assert result.replay_instructions == 0
            assert result.rounds_to_coverage(10.0) is None
            assert result.transfer_savings_ratio == 0.0
        else:
            assert result.steps is None
            assert result.rounds_executed == len(result.timeline.snapshots)
            assert set(result.worker_stats) == {1, 2}
            assert result.messages_sent > 0
            assert result.rounds_to_coverage(1.0) is not None
            assert result.transfer_cost.jobs >= result.states_transferred
            if backend == "static":
                assert result.states_transferred == 0


class TestStrategyPropagation:
    def test_test_strategy_reaches_cluster_workers_by_default(self):
        """Regression: a non-default test strategy used to be silently
        dropped because ClusterConfig.strategy defaulted to 'interleaved'."""
        test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        cluster = test.build_cluster(ClusterConfig(num_workers=2))
        assert all(w.strategy.name == "dfs" for w in cluster.workers)

    def test_test_strategy_reaches_static_cluster_workers(self):
        test = SymbolicTest("t", single_branch_program(), strategy="bfs")
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=2))
        assert all(w.strategy.name == "bfs" for w in cluster.workers)

    def test_explicit_config_strategy_still_wins(self):
        test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        cluster = test.build_cluster(ClusterConfig(num_workers=2,
                                                   strategy="bfs"))
        assert all(w.strategy.name == "bfs" for w in cluster.workers)

    def test_build_cluster_does_not_mutate_callers_config(self):
        config = ClusterConfig(num_workers=2)
        dfs_test = SymbolicTest("t", single_branch_program(), strategy="dfs")
        bfs_test = SymbolicTest("t", single_branch_program(), strategy="bfs")
        first = dfs_test.build_cluster(config)
        second = bfs_test.build_cluster(config)
        assert config.strategy is None  # reusable across tests
        assert all(w.strategy.name == "dfs" for w in first.workers)
        assert all(w.strategy.name == "bfs" for w in second.workers)

    def test_bare_cluster_falls_back_to_default_strategy(self):
        test = SymbolicTest("t", single_branch_program())
        cluster = test.build_cluster()
        assert all(w.strategy.name == "interleaved" for w in cluster.workers)

    def test_run_backend_propagates_strategy(self):
        test = SymbolicTest("t", branchy_program(2), strategy="dfs")
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=50)
        assert result.paths_completed == 9
