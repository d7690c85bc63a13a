"""Unit tests for the POSIX model: pthreads, synchronization, processes."""

from repro.lang import builder as L
from repro.engine.errors import BugKind
from repro.testing.symbolic_test import SymbolicTest


def run_program(entry_body, extra_funcs=(), options=None):
    program = L.program("p", *extra_funcs, L.func("main", [], *entry_body))
    test = SymbolicTest("t", program, options=options or {})
    return test.run()


class TestThreads:
    def test_pthread_create_and_join_returns_exit_value(self):
        worker = L.func("worker", ["arg"], L.ret(L.add(L.var("arg"), 5)))
        result = run_program([
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), 37)),
            L.ret(L.call("pthread_join", L.var("tid"))),
        ], extra_funcs=[worker])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 42

    def test_pthread_self(self):
        result = run_program([L.ret(L.call("pthread_self"))])
        assert result.test_cases[0].exit_code == 0

    def test_join_self_fails(self):
        result = run_program([L.ret(L.call("pthread_join", 0))])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_pthread_exit_value_visible_to_joiner(self):
        worker = L.func("worker", ["arg"],
                        L.expr_stmt(L.call("pthread_exit", 99)),
                        L.ret(0))
        result = run_program([
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), 0)),
            L.ret(L.call("pthread_join", L.var("tid"))),
        ], extra_funcs=[worker])
        assert result.test_cases[0].exit_code == 99

    def test_each_yield_returns_zero(self):
        result = run_program([
            L.ret(L.add(L.call("pthread_yield"), L.call("sched_yield"))),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 0


class TestMutex:
    def test_lock_unlock(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.decl("rc1", L.call("pthread_mutex_lock", L.var("m"))),
            L.decl("rc2", L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(L.add(L.var("rc1"), L.var("rc2"))),
        ])
        assert result.test_cases[0].exit_code == 0

    def test_unlock_not_owned_is_error(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.ret(L.call("pthread_mutex_unlock", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 1  # EPERM

    def test_trylock_on_taken_mutex(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.ret(L.call("pthread_mutex_trylock", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 16  # EBUSY

    def test_destroy_returns_zero_and_forgets_the_mutex(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.decl("rc", L.call("pthread_mutex_destroy", L.var("m"))),
            L.if_(L.ne(L.var("rc"), 0), [L.ret(100)]),
            L.ret(L.call("pthread_mutex_lock", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF  # ERR: gone

    def test_destroy_of_a_held_mutex_is_busy(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.ret(L.call("pthread_mutex_destroy", L.var("m"))),
        ])
        assert result.test_cases[0].exit_code == 16  # EBUSY

    def test_destroy_of_an_unknown_handle_fails(self):
        result = run_program([L.ret(L.call("pthread_mutex_destroy", 77))])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_mutex_provides_mutual_exclusion(self):
        # The worker increments a shared counter twice under the lock; main
        # (also under the lock) reads a consistent value.
        worker = L.func(
            "worker", ["shared"],
            L.decl("m", L.index(L.var("shared"), 1)),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 1)),
            L.expr_stmt(L.call("cloud9_thread_preempt")),
            L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 1)),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(0),
        )
        result = run_program([
            L.decl("shared", L.call("malloc", 2)),
            L.decl("m", L.call("pthread_mutex_init")),
            L.store(L.var("shared"), 1, L.var("m")),
            L.decl("tid", L.call("pthread_create", L.strconst("worker"), L.var("shared"))),
            L.expr_stmt(L.call("cloud9_thread_preempt")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.decl("seen", L.index(L.var("shared"), 0)),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.assert_(L.lor(L.eq(L.var("seen"), 0), L.eq(L.var("seen"), 2)),
                      "observed a torn update"),
            L.ret(L.var("seen")),
        ], extra_funcs=[worker], options={"fork_schedules": True})
        assert not result.bugs
        assert result.paths_completed >= 1

    def test_deadlock_on_double_lock(self):
        result = run_program([
            L.decl("m", L.call("pthread_mutex_init")),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.ret(L.call("pthread_mutex_lock", L.var("m"))),
        ])
        # Self-deadlock is reported as EDEADLK (the model's non-blocking
        # answer for re-locking the owner's mutex).
        assert result.test_cases[0].exit_code == 35


class TestCondVars:
    def test_cond_wait_signal(self):
        signaler = L.func(
            "signaler", ["shared"],
            L.decl("m", L.index(L.var("shared"), 0)),
            L.decl("cv", L.index(L.var("shared"), 1)),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.store(L.var("shared"), 2, 1),
            L.expr_stmt(L.call("pthread_cond_signal", L.var("cv"))),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.ret(0),
        )
        result = run_program([
            L.decl("shared", L.call("malloc", 3)),
            L.decl("m", L.call("pthread_mutex_init")),
            L.decl("cv", L.call("pthread_cond_init")),
            L.store(L.var("shared"), 0, L.var("m")),
            L.store(L.var("shared"), 1, L.var("cv")),
            L.decl("tid", L.call("pthread_create", L.strconst("signaler"), L.var("shared"))),
            L.expr_stmt(L.call("pthread_mutex_lock", L.var("m"))),
            L.while_(L.eq(L.index(L.var("shared"), 2), 0),
                     L.expr_stmt(L.call("pthread_cond_wait", L.var("cv"), L.var("m")))),
            L.expr_stmt(L.call("pthread_mutex_unlock", L.var("m"))),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.ret(L.index(L.var("shared"), 2)),
        ], extra_funcs=[signaler])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 1

    def test_destroy_returns_zero_then_fails_on_the_gone_handle(self):
        result = run_program([
            L.decl("cv", L.call("pthread_cond_init")),
            L.decl("rc", L.call("pthread_cond_destroy", L.var("cv"))),
            L.if_(L.ne(L.var("rc"), 0), [L.ret(100)]),
            L.ret(L.call("pthread_cond_destroy", L.var("cv"))),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF


class TestSemaphores:
    def test_post_then_wait(self):
        result = run_program([
            L.decl("s", L.call("sem_init", 0)),
            L.expr_stmt(L.call("sem_post", L.var("s"))),
            L.ret(L.call("sem_wait", L.var("s"))),
        ])
        assert result.test_cases[0].exit_code == 0

    def test_trywait_on_empty(self):
        result = run_program([
            L.decl("s", L.call("sem_init", 0)),
            L.ret(L.call("sem_trywait", L.var("s"))),
        ])
        assert result.test_cases[0].exit_code == 16  # EBUSY


class TestProcesses:
    def test_fork_returns_zero_in_child(self):
        result = run_program([
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("exit", 7)),
            ]),
            L.ret(L.call("waitpid", L.var("pid"))),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 7

    def test_fork_isolates_private_memory(self):
        result = run_program([
            L.decl("buf", L.call("malloc", 1)),
            L.store(L.var("buf"), 0, 1),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("buf"), 0, 99),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == 1

    def test_shared_memory_visible_across_fork(self):
        result = run_program([
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("cloud9_make_shared", L.var("buf"))),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("buf"), 0, 55),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == 55

    def test_getpid_differs_between_parent_and_child(self):
        result = run_program([
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("exit", L.call("getpid"))),
            ]),
            L.decl("child_pid", L.call("waitpid", L.var("pid"))),
            L.assert_(L.ne(L.var("child_pid"), L.call("getpid")),
                      "child pid must differ from parent pid"),
            L.ret(L.var("child_pid")),
        ])
        assert not result.bugs

    def test_getppid_in_the_child_is_the_parents_pid(self):
        result = run_program([
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("exit", L.call("getppid"))),
            ]),
            L.decl("parent_of_child", L.call("waitpid", L.var("pid"))),
            L.ret(L.eq(L.var("parent_of_child"), L.call("getpid"))),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 1

    def test_waitpid_unknown_child(self):
        result = run_program([L.ret(L.call("waitpid", 77))])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_fds_inherited_across_fork(self):
        result = run_program([
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("msg", L.strconst("k")),
                L.expr_stmt(L.call("write", L.var("a"), L.var("msg"), 1)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("b"), L.var("buf"), 1)),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == ord("k")


class TestTable2Api:
    """``cloud9_set_scheduler`` / ``cloud9_set_max_instructions`` (Table 2):
    the program under test picks its own scheduling policy and hang bound."""

    @staticmethod
    def _interleaving_paths(policy, options=None):
        """main starts two threads that preempt twice each, preempts once
        itself and returns what ``cloud9_set_scheduler(policy)`` did."""
        preempt = L.expr_stmt(L.call("cloud9_thread_preempt"))
        worker = L.func("worker", ["arg"], preempt, preempt, L.ret(0))
        result = run_program([
            L.decl("rc", L.call("cloud9_set_scheduler", policy)),
            L.decl("a", L.call("pthread_create", L.strconst("worker"), 0)),
            L.decl("b", L.call("pthread_create", L.strconst("worker"), 0)),
            preempt,
            L.ret(L.var("rc")),
        ], extra_funcs=[worker], options=options)
        assert not result.bugs and result.exhausted
        return result.paths_completed, {t.exit_code for t in result.test_cases}

    def test_set_scheduler_selects_the_policy_of_the_calling_state(self):
        # 0 = round robin: one schedule.  1 = fork at every scheduling point.
        # 2 = fork, but only while fewer than 2 preemptions were spent.
        assert self._interleaving_paths(0) == (1, {0})
        # The state option is the one setting: round robin turns off the
        # forking the test asked for.
        assert self._interleaving_paths(0, {"fork_schedules": True}) == (1, {0})
        assert self._interleaving_paths(1) == (69, {0})
        assert self._interleaving_paths(2) == (13, {0})
        # The context bound is all that separates the last two.
        assert self._interleaving_paths(2, {"context_bound": 0}) == (1, {0})
        assert self._interleaving_paths(2, {"context_bound": 99}) == (69, {0})

    def test_set_scheduler_refuses_an_unknown_policy_code(self):
        assert self._interleaving_paths(7) == (1, {0xFFFFFFFF})

    def test_set_max_instructions_ends_a_runaway_path(self):
        result = run_program([
            L.expr_stmt(L.call("cloud9_set_max_instructions", 50)),
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), 1000),
                     L.assign("i", L.add(L.var("i"), 1))),
            L.ret(L.var("i")),
        ])
        assert result.paths_completed == 1
        assert [bug.kind for bug in result.bugs] == [BugKind.INFINITE_LOOP]
        assert "exceeded 50 instructions" in result.bugs[0].message
        # Without the call the loop is just a loop.
        plain = run_program([
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), 1000),
                     L.assign("i", L.add(L.var("i"), 1))),
            L.ret(L.var("i")),
        ])
        assert not plain.bugs and plain.test_cases[0].exit_code == 1000
