"""Tests for the static-partitioning baseline and its comparison properties."""

import pytest

from repro.cluster.checkpoint import ClusterCheckpoint
from repro.cluster.core import StaticPartitionConfig
from repro.distrib import specs
from repro.obs.trace import load_trace
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program, single_branch_program
from triggers import frontier_invariants


def make_test(program):
    return SymbolicTest("t", program, use_posix_model=False)


def dealt_cluster(program, num_workers):
    """A static cluster whose bootstrap has been dealt (a fresh run's first
    act) but which has not explored a round yet."""
    cluster = make_test(program).build_static_cluster(
        StaticPartitionConfig(num_workers=num_workers))
    assert cluster.bootstrap is None
    cluster.run(max_rounds=0)
    return cluster


class TestBootstrapSplit:
    def test_bootstrap_produces_enough_prefixes(self):
        cluster = dealt_cluster(branchy_program(3), 3)
        assert len(cluster.bootstrap.prefixes) >= 3

    def test_partitions_are_disjoint(self):
        cluster = dealt_cluster(branchy_program(3), 3)
        assert sum(len(w.frontier_paths()) for w in cluster.workers) >= 3
        ok, message = frontier_invariants(cluster)
        assert ok, message

    def test_single_path_program_leaves_workers_idle(self):
        # A program with one path cannot be split: all but one worker idles.
        cluster = dealt_cluster(single_branch_program(), 4)
        idle = [w for w in cluster.workers if not w.has_work]
        assert len(idle) >= 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StaticPartitionConfig(num_workers=0)
        with pytest.raises(ValueError):
            StaticPartitionConfig(instructions_per_round=0)
        with pytest.raises(ValueError):
            StaticPartitionConfig(disable_balancing_after_round=3)


class TestStaticExploration:
    def test_explores_all_paths_of_small_program(self):
        test = make_test(branchy_program(3))
        reference = test.run()
        result = test.run(backend="static", workers=3)
        assert result.exhausted
        assert result.paths_completed == reference.paths_completed

    def test_coverage_matches_single_node_run(self):
        test = make_test(branchy_program(3))
        reference = test.run()
        result = test.run(backend="static", workers=2)
        assert result.covered_lines == reference.covered_lines

    def test_no_states_are_ever_transferred(self):
        test = make_test(branchy_program(3))
        result = test.run(backend="static", workers=3)
        assert result.states_transferred == 0
        assert all(not snap.load_balancing_enabled
                   for snap in result.timeline.snapshots)

    def test_exit_codes_match_dynamic_cluster(self):
        test = make_test(branchy_program(2))
        static = test.run(backend="static", workers=2)
        dynamic = test.run(backend="cluster", workers=2)
        static_codes = sorted(tc.exit_code for tc in static.test_cases)
        dynamic_codes = sorted(tc.exit_code for tc in dynamic.test_cases)
        assert static_codes == dynamic_codes


class TestSharedCoordinator:
    """The strawman is the one coordinator with balancing off, so it gets
    tracing, limits, status and checkpoints without code of its own."""

    def test_static_run_writes_the_coordinator_trace(self, tmp_path):
        path = tmp_path / "static.jsonl"
        test = make_test(branchy_program(3))
        result = test.run(backend="static", workers=2, trace_path=str(path))
        assert result.exhausted
        events = load_trace(str(path))
        names = [e["event"] for e in events]
        assert names[0] == "run_started" and names[-1] == "run_finished"
        assert events[0]["backend"] == "static"
        rounds = [e for e in events if e["event"] == "round_completed"]
        assert len(rounds) == result.rounds_executed
        assert all(e["states_transferred"] == 0 for e in rounds)
        assert "job_transferred" not in names
        assert events[-1]["paths"] == result.paths_completed

    def test_static_run_honours_max_wall_time(self):
        test = make_test(branchy_program(4))
        full = test.run(backend="static", workers=2,
                        instructions_per_round=5)
        assert full.exhausted and full.rounds_executed > 3
        cut = test.run(backend="static", workers=2, instructions_per_round=5,
                       max_wall_time=0.0)
        # A spent budget ends the run after the round in progress.
        assert cut.rounds_executed == 1
        assert not cut.exhausted and not cut.goal_reached

    def test_static_config_refuses_balancing(self):
        with pytest.raises(ValueError, match="never balances"):
            StaticPartitionConfig(disable_balancing_after_round=None)

    def test_bootstrap_results_are_counted_once(self):
        test = make_test(branchy_program(3))
        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=2))
        result = cluster.run()
        members = sum(s.useful_instructions
                      for s in result.worker_stats.values())
        assert (result.useful_instructions
                == cluster.bootstrap.instructions + members)
        assert result.paths_completed == test.run().paths_completed


    def test_static_checkpoint_resumes(self, tmp_path):
        """``static`` wrote checkpoints nothing could resume: the runner did
        not take ``resume_from=`` and the cluster dealt its bootstrap before
        ``run()`` could restore anything."""
        path = str(tmp_path / "static.ckpt.json")
        test = specs.resolve_test("printf", format_length=3)
        full = test.run(backend="static", workers=2)
        assert full.exhausted and full.paths_completed == 244

        partial = test.run(backend="static", workers=2, checkpoint_every=2,
                           checkpoint_path=path, max_rounds=4)
        assert not partial.exhausted
        checkpoint = ClusterCheckpoint.load(path)
        assert checkpoint.backend == "static" and checkpoint.round_index == 4
        # The bootstrap's own work travels in the checkpoint's counters ...
        assert checkpoint.useful_instructions == partial.useful_instructions

        def paths(result):
            return sorted(case.fork_trace for case in result.test_cases)

        cluster = test.build_static_cluster(StaticPartitionConfig(num_workers=2))
        for resumed in (test.run(backend="static", workers=2, resume_from=path),
                        cluster.run(resume_from=checkpoint)):
            assert resumed.exhausted and resumed.resumed_from_round == 4
            # ... so it is counted once: no path appears twice.
            assert resumed.paths_completed == full.paths_completed
            assert paths(resumed) == paths(full)
            assert resumed.covered_lines == full.covered_lines
            assert resumed.states_transferred == 0
        assert cluster.bootstrap is None  # a resumed cluster never bootstraps


class TestImbalance:
    def test_static_partitioning_shows_imbalance_on_skewed_trees(self):
        """The §2 claim: static partitioning leaves workers idle while one
        worker still has a deep subtree, whereas dynamic balancing keeps the
        frontier spread out."""
        from repro.lang import builder as L

        # A skewed program: one branch terminates immediately, the other
        # opens a deep subtree of further branching.
        program = L.program(
            "skewed",
            L.func(
                "main", [],
                L.decl("buf", L.call("cloud9_symbolic_buffer", 4, L.strconst("in"))),
                L.if_(L.lt(L.index(L.var("buf"), 0), 128), [L.ret(0)]),
                L.decl("i", 1),
                L.decl("acc", 0),
                L.while_(L.lt(L.var("i"), 4),
                    L.if_(L.gt(L.index(L.var("buf"), L.var("i")), 64),
                          [L.assign("acc", L.add(L.var("acc"), 1))]),
                    L.assign("i", L.add(L.var("i"), 1)),
                ),
                L.ret(L.var("acc")),
            ),
        )
        test = make_test(program)
        config = StaticPartitionConfig(num_workers=2, instructions_per_round=30)
        cluster = test.build_static_cluster(config)
        result = cluster.run()
        assert result.exhausted
        # At least one recorded round had an idle worker while another still
        # held multiple candidates (workload imbalance).
        imbalanced_rounds = [
            snap for snap in result.timeline.snapshots
            if min(snap.queue_lengths.values()) == 0
            and max(snap.queue_lengths.values()) >= 1
        ]
        assert imbalanced_rounds
