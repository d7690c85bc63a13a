"""Integration tests for the cluster runtime (workers + LB + transport)."""

import pytest

from repro.cluster import ClusterConfig
from repro.engine import SymbolicExecutor
from repro.posix import install_posix_model
from repro.testing import SymbolicTest

from conftest import branchy_program
from triggers import frontier_invariants


def make_cluster(num_workers, buffer_size=2, **config_kwargs):
    program = branchy_program(buffer_size)
    test = SymbolicTest("branchy", program)
    config = ClusterConfig(num_workers=num_workers,
                           instructions_per_round=config_kwargs.pop(
                               "instructions_per_round", 60),
                           **config_kwargs)
    return test.build_cluster(config)


class TestEndToEnd:
    def test_single_worker_cluster_equals_single_engine(self):
        cluster = make_cluster(1)
        result = cluster.run()
        assert result.exhausted
        assert result.paths_completed == 9

    def test_multi_worker_cluster_completes_same_paths(self):
        for workers in (2, 3, 5):
            cluster = make_cluster(workers)
            result = cluster.run()
            assert result.exhausted, workers
            assert result.paths_completed == 9, workers

    def test_work_is_actually_distributed(self):
        cluster = make_cluster(3, buffer_size=3, instructions_per_round=40)
        result = cluster.run()
        assert result.exhausted
        busy_workers = [wid for wid, stats in result.worker_stats.items()
                        if stats.useful_instructions > 0]
        assert len(busy_workers) >= 2
        assert result.states_transferred > 0

    def test_frontier_disjointness_invariant_holds_during_run(self):
        cluster = make_cluster(3, buffer_size=3, instructions_per_round=30)
        # Interleave manual round execution with invariant checks.
        for _ in range(10):
            cluster.run(max_rounds=1)
            ok, message = frontier_invariants(cluster)
            assert ok, message

    def test_coverage_matches_single_node(self):
        single = make_cluster(1)
        multi = make_cluster(4)
        covered_single = single.run().covered_lines
        covered_multi = multi.run().covered_lines
        assert covered_multi == covered_single

    def test_bugs_found_once_despite_replays(self):
        from repro import lang as L

        program = L.program("buggy", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 2, L.strconst("b"))),
            L.assert_(L.ne(L.index(L.var("buf"), 0), 0x13), "unlucky byte"),
            L.if_(L.gt(L.index(L.var("buf"), 1), 10), [L.ret(1)]),
            L.ret(0),
        ))
        test = SymbolicTest("buggy", program)
        result = test.run(backend="cluster", workers=3, instructions_per_round=20)
        assert len(result.bugs) == 1

    def test_timeline_records_rounds(self):
        cluster = make_cluster(2)
        result = cluster.run()
        assert len(result.timeline) == result.rounds_executed
        assert (sum(snap.useful_instructions
                    for snap in result.timeline.snapshots)
                == result.useful_instructions)

    def test_goal_coverage_stops_early(self):
        cluster = make_cluster(2, buffer_size=3)
        result = cluster.run(coverage_target=50.0)
        assert result.goal_reached or result.exhausted

    def test_max_paths_goal(self):
        cluster = make_cluster(2, buffer_size=3)
        result = cluster.run(max_paths=5)
        assert result.paths_completed >= 5

    def test_stop_on_first_bug(self):
        from repro import lang as L

        program = L.program("buggy", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.assert_(L.ne(L.index(L.var("buf"), 0), 7), "boom"),
            L.ret(0),
        ))
        test = SymbolicTest("buggy", program)
        result = test.run(backend="cluster", workers=2,
                          instructions_per_round=20, stop_on_first_bug=True)
        assert result.bugs


class TestLoadBalancingBehaviour:
    def test_more_workers_do_not_lose_work(self):
        results = {}
        for workers in (1, 4):
            cluster = make_cluster(workers, buffer_size=3,
                                   instructions_per_round=40)
            results[workers] = cluster.run()
        assert results[1].paths_completed == results[4].paths_completed == 27

    def test_parallelism_reduces_rounds_to_completion(self):
        rounds = {}
        for workers in (1, 4):
            cluster = make_cluster(workers, buffer_size=3,
                                   instructions_per_round=30)
            rounds[workers] = cluster.run().rounds_executed
        assert rounds[4] <= rounds[1]

    def test_disabling_balancing_prevents_distribution(self):
        cluster = make_cluster(4, buffer_size=3, disable_balancing_after_round=0)
        result = cluster.run()
        assert result.exhausted
        assert result.states_transferred == 0
        busy = [wid for wid, stats in result.worker_stats.items()
                if stats.useful_instructions > 0]
        assert busy == [1]

    def test_balancing_cutoff_mid_run(self):
        cluster = make_cluster(4, buffer_size=3,
                               disable_balancing_after_round=2,
                               instructions_per_round=30)
        result = cluster.run()
        assert result.exhausted
        # Transfers happened only before the cutoff round.
        late_transfers = [snap.states_transferred for snap in result.timeline.snapshots
                          if snap.round_index > 4]
        assert sum(late_transfers) == 0


class TestConfigValidation:
    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_workers=0)

    def test_invalid_round_budget(self):
        with pytest.raises(ValueError):
            ClusterConfig(instructions_per_round=0)

    @pytest.mark.parametrize("field, value", [
        ("balance_interval", 0),
        ("balance_interval", -1),
        ("min_transfer", 0),
        ("checkpoint_every", 0),
        ("checkpoint_every", -2),
        ("checkpoint_path", "run.ckpt.json"),
        ("disable_balancing_after_round", -3),
        ("delta", 0.0),
        ("delta", -1.0),
        ("delta", float("nan")),
        ("delta", float("inf")),
    ])
    def test_values_the_coordinator_cannot_honour(self, field, value):
        """Each was accepted and then either crashed the run after round 0
        (a zero balance interval divides by zero), checkpointed on the
        wrong rounds or never, silently wrote no file, silently never
        balanced (a negative cut-off), failed only once the cluster was
        built (a non-positive delta) or balanced with a meaningless band
        (a NaN or infinite delta)."""
        with pytest.raises(ValueError, match=field):
            ClusterConfig(**{field: value})
