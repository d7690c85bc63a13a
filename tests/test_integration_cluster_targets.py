"""Integration tests: the cluster running the paper's targets end to end."""

from repro.engine.errors import BugKind
from repro.targets import bandicoot, curl, memcached, printf


class TestClusterOnTargets:
    def test_memcached_symbolic_packet_cluster_run(self):
        test = memcached.make_symbolic_packets_test(num_packets=1, packet_size=5)
        single = test.run()
        clustered = memcached.make_symbolic_packets_test(
            num_packets=1, packet_size=5).run(
                backend="cluster", workers=4, instructions_per_round=150)
        assert clustered.exhausted
        assert clustered.paths_completed == single.paths_completed
        assert clustered.covered_lines == single.covered_lines

    def test_printf_cluster_scales_rounds_down(self):
        rounds = {}
        for workers in (1, 4):
            test = printf.make_symbolic_test(format_length=3)
            result = test.run(backend="cluster", workers=workers,
                              instructions_per_round=120)
            assert result.exhausted
            rounds[workers] = result.rounds_executed
        assert rounds[4] <= rounds[1]

    def test_bug_finding_works_through_the_cluster(self):
        result = curl.make_globbing_test().run(
            backend="cluster", workers=3, instructions_per_round=200)
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_bandicoot_cluster_exhaustive(self):
        result = bandicoot.make_get_exploration_test().run(
            backend="cluster", workers=2, instructions_per_round=200)
        assert result.exhausted
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_useful_work_close_to_single_node_total(self):
        # Dynamic partitioning may re-execute the post-fork suffix of
        # transferred states, but total useful work should stay within a
        # modest factor of the single-node total.
        test = printf.make_symbolic_test(format_length=3)
        single = test.run()
        cluster_result = printf.make_symbolic_test(format_length=3).run(
            backend="cluster", workers=4, instructions_per_round=120)
        assert cluster_result.useful_instructions <= 1.5 * single.useful_instructions

    def test_worker_stats_reported_per_worker(self):
        result = printf.make_symbolic_test(format_length=2).run(
            backend="cluster", workers=3, instructions_per_round=60)
        assert set(result.worker_stats) == {1, 2, 3}
        assert result.useful_instructions == sum(
            s.useful_instructions for s in result.worker_stats.values())
