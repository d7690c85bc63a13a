"""Unit tests for cooperative scheduling, schedule forking and hang detection."""

from repro import lang as L
from repro.engine import BugKind
from repro.engine.config import EngineConfig
from repro.engine.scheduler import (
    POLICY_FORK_ALL,
    POLICY_ROUND_ROBIN,
    CooperativeScheduler,
)

from conftest import make_executor


def two_thread_program(*worker_body):
    """main spawns one extra thread and yields; both update shared memory."""
    return L.program(
        "p",
        L.func("worker", ["shared"], *worker_body),
        L.func(
            "main", [],
            L.decl("shared", L.call("malloc", 4)),
            L.decl("tid", L.call("cloud9_thread_create", L.strconst("worker"),
                                 L.var("shared"))),
            L.expr_stmt(L.call("cloud9_thread_preempt")),
            L.ret(L.index(L.var("shared"), 0)),
        ),
    )


class TestCooperativeScheduling:
    def test_created_thread_runs_after_preempt(self):
        program = two_thread_program(
            L.store(L.var("shared"), 0, 11),
            L.ret(0),
        )
        result = make_executor(program).run()
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 11

    def test_thread_runs_atomically_until_preemption(self):
        # Without an explicit preemption in the worker, main resumes only
        # after the worker finished both stores.
        program = two_thread_program(
            L.store(L.var("shared"), 0, 1),
            L.store(L.var("shared"), 0, 2),
            L.ret(0),
        )
        result = make_executor(program).run()
        assert result.test_cases[0].exit_code == 2

    def test_sleep_and_notify_roundtrip(self):
        program = L.program(
            "p",
            L.func("waker", ["wlist"],
                   L.expr_stmt(L.call("cloud9_thread_notify", L.var("wlist"), 1)),
                   L.ret(0)),
            L.func(
                "main", [],
                L.decl("wlist", L.call("cloud9_get_wlist")),
                L.decl("t", L.call("cloud9_thread_create", L.strconst("waker"),
                                   L.var("wlist"))),
                L.expr_stmt(L.call("cloud9_thread_sleep", L.var("wlist"))),
                L.ret(42),
            ),
        )
        result = make_executor(program).run()
        assert result.paths_completed == 1
        assert not result.bugs
        assert result.test_cases[0].exit_code == 42

    def test_get_context_identifies_thread(self):
        program = L.program("p", L.func(
            "main", [], L.ret(L.call("cloud9_get_context"))))
        result = make_executor(program).run()
        assert result.test_cases[0].exit_code == 1 * 65536 + 0


class TestHangDetection:
    def test_deadlock_when_all_threads_sleep(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("wlist", L.call("cloud9_get_wlist")),
            L.expr_stmt(L.call("cloud9_thread_sleep", L.var("wlist"))),
            L.ret(0),
        ))
        result = make_executor(program).run()
        assert any(b.kind == BugKind.DEADLOCK for b in result.bugs)

    def test_deadlock_detection_can_be_disabled(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("wlist", L.call("cloud9_get_wlist")),
            L.expr_stmt(L.call("cloud9_thread_sleep", L.var("wlist"))),
            L.ret(0),
        ))
        config = EngineConfig(detect_deadlocks=False)
        result = make_executor(program, config=config).run()
        assert not result.bugs

    def test_a_limit_reached_after_a_thread_returned_names_no_function(self):
        """At limit 7 the path runs out on the step right after the worker
        thread returned from its bottom frame: the current thread has an
        empty stack and is waiting for the scheduler."""
        program = two_thread_program(
            L.store(L.var("shared"), 0, 11),
            L.ret(0),
        )
        functions = {}
        for limit in (6, 7, 8):
            config = EngineConfig(max_instructions_per_path=limit)
            result = make_executor(program, config=config).run()
            assert result.paths_completed == 1
            functions[limit] = [bug.function for bug in result.bugs
                                if bug.kind == BugKind.INFINITE_LOOP]
        assert functions == {6: ["worker"], 7: [None], 8: []}


class TestScheduleForking:
    def test_fork_all_explores_interleavings(self):
        # Two threads each write a different value; with schedule forking the
        # final value depends on the interleaving, so both outcomes appear.
        program = L.program(
            "p",
            L.func("worker", ["shared"],
                   L.store(L.var("shared"), 0, 7),
                   L.ret(0)),
            L.func(
                "main", [],
                L.decl("shared", L.call("malloc", 1)),
                L.store(L.var("shared"), 0, 3),
                L.decl("t", L.call("cloud9_thread_create", L.strconst("worker"),
                                   L.var("shared"))),
                L.expr_stmt(L.call("cloud9_thread_preempt")),
                L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 10)),
                L.ret(L.index(L.var("shared"), 0)),
            ),
        )
        config = EngineConfig(fork_on_schedule=True)
        result = make_executor(program, config=config).run()
        exit_codes = {t.exit_code for t in result.test_cases}
        assert result.paths_completed >= 2
        assert 17 in exit_codes      # worker ran before main's second store
        assert 13 in exit_codes      # main's second store ran first

    def test_round_robin_is_deterministic(self):
        program = two_thread_program(L.store(L.var("shared"), 0, 5), L.ret(0))
        results = [make_executor(program).run().test_cases[0].exit_code
                   for _ in range(2)]
        assert results[0] == results[1]


class TestSchedulerUnit:
    def test_decide_orders_round_robin(self):
        from repro.engine.state import ExecutionState
        from repro.lang.compiler import compile_program

        program = compile_program(two_thread_program(L.ret(0)))
        state = ExecutionState(program)
        state.create_main_process()
        extra = state.current_process.new_thread()
        extra.stack.append(state.current_thread.top.copy())
        scheduler = CooperativeScheduler()
        decision = scheduler.decide(state)
        assert len(decision.choices) == 1

        # The policy is the state's own (cloud9_set_scheduler sets these).
        state.options.update(scheduler_policy=POLICY_FORK_ALL,
                             fork_schedules=True)
        decision = scheduler.decide(state)
        assert len(decision.choices) == 2
        state.options["scheduler_policy"] = POLICY_ROUND_ROBIN
        assert len(CooperativeScheduler(fork_schedules=True)
                   .decide(state).choices) == 2
