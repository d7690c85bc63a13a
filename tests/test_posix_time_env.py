"""Unit tests for the virtual-clock time functions and environment variables."""

import pytest

from repro.lang import builder as L
from repro.posix.env import add_env_var, add_symbolic_env_var
from repro.testing.symbolic_test import SymbolicTest


def run_program(*main_body, functions=(), setup=None, options=None):
    program = L.program("p", *functions, L.func("main", [], *main_body))
    test = SymbolicTest("t", program, setup=setup, options=options or {})
    return test.run()


class TestVirtualClock:
    def test_time_is_monotonically_increasing(self):
        result = run_program(
            L.decl("t1", L.call("time", 0)),
            L.decl("t2", L.call("time", 0)),
            L.ret(L.ge(L.var("t2"), L.var("t1"))),
        )
        assert result.test_cases[0].exit_code == 1

    def test_clock_ns_advances_on_every_query(self):
        result = run_program(
            L.decl("a", L.call("c9_clock_ns")),
            L.decl("b", L.call("c9_clock_ns")),
            L.ret(L.gt(L.var("b"), L.var("a"))),
        )
        assert result.test_cases[0].exit_code == 1

    def test_sleep_advances_clock_by_at_least_duration(self):
        result = run_program(
            L.decl("a", L.call("c9_clock_ns")),
            L.expr_stmt(L.call("usleep", 500)),     # 500 us = 500_000 ns
            L.decl("b", L.call("c9_clock_ns")),
            L.ret(L.ge(L.sub(L.var("b"), L.var("a")), 500_000)),
        )
        assert result.test_cases[0].exit_code == 1

    @pytest.mark.parametrize("sleep, duration_ns", [
        (L.call("sleep", 2), 2_000_000_000),
        (L.call("nanosleep", 1, 234), 1_000_000_234),
    ], ids=["sleep", "nanosleep"])
    def test_sleep_advances_clock_by_exactly_duration(self, sleep,
                                                      duration_ns):
        """A sleep ticks the clock by its duration plus the one step every
        clock query costs; the second read then adds its own step."""
        result = run_program(
            L.expr_stmt(L.call("c9_set_clock_step", 7)),
            L.decl("a", L.call("c9_clock_ns")),
            L.decl("rc", sleep),
            L.decl("b", L.call("c9_clock_ns")),
            L.ret(L.add(L.var("rc"), L.sub(L.var("b"), L.var("a")))),
        )
        assert result.test_cases[0].exit_code == duration_ns + 7 + 7

    def test_gettimeofday_writes_seconds_and_micros(self):
        result = run_program(
            L.decl("tv", L.call("malloc", 8)),
            L.expr_stmt(L.call("gettimeofday", L.var("tv"))),
            # The virtual epoch starts at 1_000 seconds, so the low byte of
            # the seconds field is non-trivial and deterministic.
            L.ret(L.index(L.var("tv"), 0)),
        )
        expected = (1_000_000_000_000 + 1_000_000) // 1_000_000_000
        assert result.test_cases[0].exit_code == expected & 0xFF

    def test_clock_gettime_writes_into_buffer(self):
        result = run_program(
            L.decl("ts", L.call("malloc", 8)),
            L.decl("rc", L.call("clock_gettime", 0, L.var("ts"))),
            L.ret(L.var("rc")),
        )
        assert result.test_cases[0].exit_code == 0

    def test_set_clock_step_controls_tick(self):
        result = run_program(
            L.expr_stmt(L.call("c9_set_clock_step", 0)),
            L.decl("a", L.call("c9_clock_ns")),
            L.decl("b", L.call("c9_clock_ns")),
            L.ret(L.eq(L.var("a"), L.var("b"))),
        )
        assert result.test_cases[0].exit_code == 1

    def test_time_replay_deterministic_across_states(self):
        # The clock forks with the state: both branches observe the same
        # timestamp sequence regardless of exploration order.
        result = run_program(
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.decl("t", L.call("time", 0)),
            L.if_(L.gt(L.index(L.var("buf"), 0), 10), [L.ret(L.var("t"))],
                  [L.ret(L.var("t"))]),
        )
        codes = {tc.exit_code for tc in result.test_cases}
        assert len(codes) == 1


class TestEnvironmentVariables:
    def test_getenv_missing_returns_null(self):
        result = run_program(
            L.ret(L.call("getenv", L.strconst("HOME"))),
        )
        assert result.test_cases[0].exit_code == 0

    def test_getenv_returns_preset_value(self):
        def setup(state):
            add_env_var(state, "LANG", "C")

        result = run_program(
            L.decl("p", L.call("getenv", L.strconst("LANG"))),
            L.ret(L.index(L.var("p"), 0)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("C")

    def test_setenv_then_getenv(self):
        result = run_program(
            L.expr_stmt(L.call("setenv", L.strconst("MODE"), L.strconst("fast"), 1)),
            L.decl("p", L.call("getenv", L.strconst("MODE"))),
            L.ret(L.index(L.var("p"), 1)),
        )
        assert result.test_cases[0].exit_code == ord("a")

    def test_setenv_without_overwrite_keeps_old_value(self):
        result = run_program(
            L.expr_stmt(L.call("setenv", L.strconst("X"), L.strconst("1"), 1)),
            L.expr_stmt(L.call("setenv", L.strconst("X"), L.strconst("2"), 0)),
            L.decl("p", L.call("getenv", L.strconst("X"))),
            L.ret(L.index(L.var("p"), 0)),
        )
        assert result.test_cases[0].exit_code == ord("1")

    def test_unsetenv_removes_variable(self):
        result = run_program(
            L.expr_stmt(L.call("setenv", L.strconst("X"), L.strconst("1"), 1)),
            L.expr_stmt(L.call("unsetenv", L.strconst("X"))),
            L.ret(L.call("getenv", L.strconst("X"))),
        )
        assert result.test_cases[0].exit_code == 0

    def test_getenv_value_is_nul_terminated(self):
        def setup(state):
            add_env_var(state, "PATH", "/bin")

        result = run_program(
            L.decl("p", L.call("getenv", L.strconst("PATH"))),
            L.ret(L.call("strlen", L.var("p"))),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == 4

    def test_symbolic_env_var_forks_consumer(self):
        def setup(state):
            add_symbolic_env_var(state, "FLAG", size=1)

        result = run_program(
            L.decl("p", L.call("getenv", L.strconst("FLAG"))),
            L.if_(L.eq(L.index(L.var("p"), 0), ord("y")), [L.ret(1)], [L.ret(0)]),
            setup=setup,
        )
        assert result.paths_completed == 2
        assert {tc.exit_code for tc in result.test_cases} == {0, 1}

    def test_c9_env_symbolic_native_forks_consumer(self):
        result = run_program(
            L.expr_stmt(L.call("c9_env_symbolic", L.strconst("OPT"), 1)),
            L.decl("p", L.call("getenv", L.strconst("OPT"))),
            L.if_(L.gt(L.index(L.var("p"), 0), 0x40), [L.ret(1)], [L.ret(0)]),
        )
        assert result.paths_completed == 2

    def test_env_shared_across_fork(self):
        result = run_program(
            L.expr_stmt(L.call("setenv", L.strconst("K"), L.strconst("v"), 1)),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("p", L.call("getenv", L.strconst("K"))),
                L.expr_stmt(L.call("exit", L.index(L.var("p"), 0))),
            ]),
            L.ret(L.call("waitpid", L.var("pid"))),
        )
        assert result.test_cases[0].exit_code == ord("v")
