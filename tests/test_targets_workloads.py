"""Tests for the workload targets: memcached suites, printf, test, Coreutils,
producer-consumer."""

import pytest

from repro.engine.errors import BugKind
from repro.targets import coreutils, memcached, printf, prodcons, testcmd


class TestMemcachedSuites:
    def test_concrete_suite_is_single_path(self):
        result = memcached.make_concrete_suite_test().run()
        assert result.paths_completed == 1
        assert not result.bugs
        assert result.coverage_percent > 40

    def test_binary_suite_covers_less_than_full_suite(self):
        full = memcached.make_concrete_suite_test().run()
        binary = memcached.make_binary_suite_test().run()
        assert binary.coverage_percent <= full.coverage_percent

    def test_symbolic_packets_explore_many_paths_and_add_coverage(self):
        concrete = memcached.make_concrete_suite_test().run()
        symbolic = memcached.make_symbolic_packets_test(
            num_packets=1, packet_size=6).run()
        assert symbolic.exhausted
        assert symbolic.paths_completed > 10
        combined = concrete.covered_lines | symbolic.covered_lines
        assert len(combined) >= len(concrete.covered_lines)

    def test_two_symbolic_packets_multiply_paths(self):
        one = memcached.make_symbolic_packets_test(
            num_packets=1, packet_size=5).run()
        two = memcached.make_symbolic_packets_test(
            num_packets=2, packet_size=5).run(max_paths=3000)
        assert two.paths_completed > one.paths_completed

    def test_fault_injection_adds_paths_over_concrete_suite(self):
        result = memcached.make_fault_injection_test().run(max_paths=200)
        assert result.paths_completed > 1

    def test_concrete_commands_are_well_formed(self):
        for command in memcached.concrete_suite_commands():
            assert len(command) >= memcached.HEADER_SIZE


class TestPrintf:
    def test_exhaustive_exploration_small_format(self):
        test = printf.make_symbolic_test(format_length=2)
        result = test.run()
        assert result.exhausted
        assert result.paths_completed > 10
        assert not result.bugs

    def test_coverage_grows_with_exploration(self):
        test = printf.make_symbolic_test(format_length=3)
        shallow = test.run(max_paths=5)
        deep = printf.make_symbolic_test(format_length=3).run(max_paths=100)
        assert deep.coverage_percent >= shallow.coverage_percent

    def test_format_length_is_configurable(self):
        assert printf.build_program_with_length(7) is not None


class TestTestCmd:
    def test_exhaustive_exploration(self):
        result = testcmd.make_symbolic_test().run()
        assert result.exhausted
        assert result.paths_completed > 20
        assert not result.bugs

    def test_numeric_comparison_paths_exist(self):
        result = testcmd.make_symbolic_test().run()
        # Some generated test cases must exercise the "-gt"/"-lt" style
        # operators (slot 1 starts with '-').
        assert any(t.input_bytes("argv")[4:5] == b"-" for t in result.test_cases)


class TestCoreutils:
    def test_suite_has_many_utilities(self):
        assert len(coreutils.utility_names()) >= 14

    def test_unknown_utility_rejected(self):
        with pytest.raises(ValueError):
            coreutils.build_utility_program("frobnicate")

    @pytest.mark.parametrize("name", coreutils.utility_names())
    def test_each_utility_explores_cleanly(self, name):
        test = coreutils.make_utility_test(name, input_size=3)
        result = test.run(max_paths=300)
        assert result.paths_completed >= 1
        assert not result.bugs
        assert result.coverage_percent > 30

    def test_more_exploration_never_reduces_coverage(self):
        name = coreutils.utility_names()[0]
        small = coreutils.make_utility_test(name, input_size=2).run(max_paths=3)
        large = coreutils.make_utility_test(name, input_size=2).run(max_paths=100)
        assert large.coverage_percent >= small.coverage_percent


class TestProducerConsumer:
    def test_deterministic_schedule_single_path(self):
        result = prodcons.make_benchmark_test().run()
        assert result.paths_completed >= 1
        assert not result.bugs

    def test_invariant_holds_across_interleavings(self):
        test = prodcons.make_benchmark_test(fork_schedules=True, num_items=2)
        result = test.run(max_paths=150)
        assert result.paths_completed > 1
        assert not any(b.kind == BugKind.ASSERTION_FAILURE for b in result.bugs)

    def test_exercises_threads_processes_and_sockets(self):
        result = prodcons.make_benchmark_test().run()
        # Full functional coverage of the model's plumbing shows up as a high
        # line-coverage figure for this benchmark.
        assert result.coverage_percent > 80
