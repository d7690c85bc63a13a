"""Unit tests for the single-node exploration driver and its limits."""

import os

import pytest

import dataclasses

from repro import lang as L
from repro.distrib import specs
from repro.engine import SymbolicExecutor
from repro.engine.strategies import DfsStrategy, make_strategy
from repro.obs.trace import load_trace

from conftest import branchy_program, make_executor


class TestRunLimits:
    def test_exhaustive_run(self):
        executor = make_executor(branchy_program(2))
        result = executor.run()
        assert result.exhausted
        assert result.paths_completed == 9
        assert result.states_remaining == 0

    def test_max_paths_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(max_paths=5)
        assert result.paths_completed >= 5
        assert not result.exhausted

    def test_max_steps_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(max_steps=10)
        assert result.steps == 10

    def test_max_instructions_limit(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(max_instructions=50)
        assert result.useful_instructions >= 50
        assert not result.exhausted

    def test_coverage_target_stops_early(self):
        executor = make_executor(branchy_program(3))
        result = executor.run(coverage_target=50.0)
        assert result.coverage_percent >= 50.0

    def test_coverage_percent_bounded(self):
        executor = make_executor(branchy_program(2))
        result = executor.run()
        assert 0.0 < result.coverage_percent <= 100.0
        assert result.covered_lines <= set(range(result.line_count))

    def test_counters_accumulate_across_runs(self):
        executor = make_executor(branchy_program(1))
        first = executor.run()
        second_executor = make_executor(branchy_program(1))
        second = second_executor.run()
        assert first.paths_completed == second.paths_completed == 3

    def test_wall_time_recorded(self):
        executor = make_executor(branchy_program(1))
        result = executor.run()
        assert result.wall_time >= 0.0


class TestExecutorReuse:
    """Every ``RunResult`` field is the run's own; the executor's lists and
    the solver's stats stay cumulative."""

    @staticmethod
    def _comparable(result, *skip):
        out = {f.name: getattr(result, f.name)
               for f in dataclasses.fields(result)
               if f.name not in ("wall_time",) + skip}
        # State ids come from a process-wide counter; the inputs do not.
        out["test_cases"] = [dataclasses.replace(tc, state_id=0)
                             for tc in result.test_cases]
        return out

    def test_second_run_reports_only_itself(self):
        test = specs.resolve_test("printf", format_length=2)
        executor = test.build_executor()

        def run():
            return executor.run(
                initial_state=test.build_initial_state(executor),
                strategy="dfs", max_paths=20)

        first, warm = run(), run()
        # Same exploration; only the hit/miss split moves with warm caches.
        assert (self._comparable(warm, "cache_stats")
                == self._comparable(first, "cache_stats"))
        assert len(warm.test_cases) == warm.paths_completed == 20
        for key in ("solver_queries", "independence_groups"):
            assert warm.cache_stats[key] == first.cache_stats[key] > 0
        assert warm.cache_stats["constraint_cache_misses"] == 0
        assert warm.cache_stats["solver_search_steps"] == 0

        executor.solver.reset_caches()
        cold = run()
        assert self._comparable(cold) == self._comparable(first)

        # Each run's test cases are its own, none carried over from another.
        assert len({id(case) for r in (first, warm, cold)
                    for case in r.test_cases}) == 60
        assert (executor.solver.stats.queries
                == 3 * first.cache_stats["solver_queries"])

    def test_second_run_reports_only_its_own_coverage(self):
        test = specs.resolve_test("printf", format_length=2)

        def run(executor, **limits):
            return executor.run(
                initial_state=test.build_initial_state(executor),
                strategy="dfs", **limits)

        reused = test.build_executor()
        wide = run(reused, max_paths=3)
        narrow = run(reused, max_paths=1)
        fresh = run(test.build_executor(), max_paths=1)
        assert narrow.covered_lines == fresh.covered_lines < wide.covered_lines
        # A coverage goal is the run's own too: it is met by exploring, not
        # by what an earlier run on this executor covered.
        again = run(reused, coverage_target=wide.coverage_percent)
        assert again.goal_reached and again.steps > 0
        assert again.paths_completed > 0
        assert again.coverage_percent >= wide.coverage_percent

    def test_second_run_reports_only_its_own_bugs(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("d"))),
            L.decl("d", L.index(L.var("buf"), 0)),
            L.if_(L.eq(L.var("d"), 0), [L.ret(L.div(100, L.var("d")))]),
            L.ret(1)))
        executor = make_executor(program)
        first, second = executor.run(), executor.run()
        assert len(first.bugs) == len(second.bugs) == 1
        assert first.bugs[0] is not second.bugs[0]
        assert first.bugs[0].summary() == second.bugs[0].summary()
        for run in (first, second):
            assert any(case is run.bugs[0].test_case for case in run.test_cases)


class TestTraceLifetime:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc to list open descriptors")
    def test_trace_is_closed_when_the_loop_raises(self, tmp_path):
        """The trace descriptor used to be closed on the normal exit path
        only, so an exception in ``select``/``step`` leaked it."""
        class FailingStrategy(DfsStrategy):
            calls = 0

            def select(self, tree, candidates):
                self.calls += 1
                if self.calls == 4:
                    raise RuntimeError("select failed")
                return super().select(tree, candidates)

        path = str(tmp_path / "trace.jsonl")
        executor = make_executor(branchy_program(3))
        open_before = set(os.listdir("/proc/self/fd"))
        with pytest.raises(RuntimeError, match="select failed"):
            executor.run(strategy=FailingStrategy(), trace_path=path)
        assert set(os.listdir("/proc/self/fd")) == open_before
        events = load_trace(path)
        assert events[0]["event"] == "run_started"
        assert "run_finished" not in {e["event"] for e in events}


class TestStrategies:
    def _run_with(self, name):
        executor = make_executor(branchy_program(2))
        result = executor.run(strategy=name)
        return result

    def test_all_strategies_reach_exhaustion(self):
        for name in ("dfs", "bfs", "random_state", "random_path",
                     "coverage_optimized", "interleaved"):
            result = self._run_with(name)
            assert result.exhausted, name
            assert result.paths_completed == 9, name

    def test_strategy_objects_accepted(self):
        executor = make_executor(branchy_program(1))
        strategy = make_strategy("dfs")
        result = executor.run(strategy=strategy)
        assert result.exhausted

    def test_unknown_strategy_rejected(self):
        try:
            make_strategy("definitely-not-a-strategy")
            assert False
        except ValueError:
            pass


class TestStepResults:
    def test_step_result_children_order_deterministic(self):
        program = branchy_program(1)
        runs = []
        for _ in range(2):
            executor = make_executor(program)
            state = executor.make_initial_state()
            trace = []
            frontier = [state]
            for _step in range(200):
                if not frontier:
                    break
                current = frontier.pop(0)
                result = executor.step(current)
                trace.append(len(result.children))
                frontier.extend(result.running)
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_step_on_terminated_state_is_noop(self):
        executor = make_executor(branchy_program(1))
        state = executor.make_initial_state()
        state.terminate(0)
        result = executor.step(state)
        assert result.children == []

    def test_initial_state_options_passed_through(self):
        executor = make_executor(branchy_program(1))
        state = executor.make_initial_state(options={"max_instructions": 123})
        assert state.options["max_instructions"] == 123


class TestSymbolicExitCodes:
    """A path whose exit code is an expression records the code its inputs
    exit with, evaluated under the model that concretised them."""

    @pytest.mark.parametrize("spec", ["coreutils-expr", "testcmd", "prodcons"])
    def test_every_normal_test_case_has_an_exit_code(self, spec):
        result = specs.resolve_test(spec).run(backend="single",
                                              max_instructions=3000)
        normal = [case for case in result.test_cases if not case.is_error]
        assert normal
        assert all(case.exit_code is not None for case in normal)

    def test_prodcons_records_its_symbolic_exit_code(self):
        result = specs.resolve_test("prodcons").run(backend="single",
                                                    max_instructions=3000)
        assert [case.exit_code for case in result.test_cases
                if not case.is_error] == [23]
