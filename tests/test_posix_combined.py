"""Integration tests combining several POSIX-model components in one program.

The paper's point about the environment model is that *combinations* matter:
real servers fork, share memory, poll sockets and read configuration in the
same request path.  These tests run small programs that cross component
boundaries (processes x mmap x IPC x environment x virtual clock x pipes) and
check both the computed results and the engine-level invariants (no spurious
bugs, deterministic outcomes across cluster execution).
"""

from repro import lang as L
from repro.engine import BugKind
from repro.posix.api import add_concrete_file
from repro.posix.env import add_env_var, add_symbolic_env_var
from repro.testing import SymbolicTest

IPC_CREAT = 0x200
MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_ANONYMOUS = 0x20
PROT_RW = 0x3


def run_program(*main_body, functions=(), setup=None, options=None):
    program = L.program("p", *functions, L.func("main", [], *main_body))
    test = SymbolicTest("t", program, setup=setup, options=options or {})
    return test.run()


class TestForkPlusSharedMemory:
    def test_two_children_increment_a_shared_counter(self):
        result = run_program(
            L.decl("id", L.call("shmget", 1, 4, IPC_CREAT)),
            L.decl("p", L.call("shmat", L.var("id"))),
            L.decl("c1", L.call("fork")),
            L.if_(L.eq(L.var("c1"), 0), [
                L.store(L.var("p"), 0, L.add(L.index(L.var("p"), 0), 1)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("c1"))),
            L.decl("c2", L.call("fork")),
            L.if_(L.eq(L.var("c2"), 0), [
                L.store(L.var("p"), 0, L.add(L.index(L.var("p"), 0), 1)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("c2"))),
            L.ret(L.index(L.var("p"), 0)),
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 2

    def test_message_queue_carries_child_result_to_parent(self):
        result = run_program(
            L.decl("q", L.call("msgget", 5, IPC_CREAT)),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("msg", L.call("malloc", 1)),
                L.store(L.var("msg"), 0, 41),
                L.expr_stmt(L.call("msgsnd", L.var("q"), 1, L.var("msg"), 1, 0)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("msgrcv", L.var("q"), L.var("buf"), 1, 0, 0)),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.add(L.index(L.var("buf"), 0), 1)),
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 42


class TestMmapAcrossProcesses:
    def test_child_publishes_through_shared_file_mapping(self):
        def setup(state):
            add_concrete_file(state, "/shared.dat", b"\x00\x00")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/shared.dat"), 0)),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("m", L.call("mmap", 0, 2, PROT_RW, MAP_SHARED,
                                   L.var("fd"), 0)),
                L.store(L.var("m"), 1, 9),
                L.expr_stmt(L.call("msync", L.var("m"), 2, 0)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.decl("buf", L.call("malloc", 2)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 2)),
            L.ret(L.index(L.var("buf"), 1)),
            setup=setup,
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 9

    def test_private_mapping_is_per_process_after_fork(self):
        result = run_program(
            L.decl("m", L.call("mmap", 0, 1, PROT_RW,
                               MAP_PRIVATE | MAP_ANONYMOUS, 0xFFFFFFFF, 0)),
            L.store(L.var("m"), 0, 5),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("m"), 0, 50),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            # The child's write stays in the child's address space copy.
            L.ret(L.index(L.var("m"), 0)),
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 5


class TestEnvironmentDrivenBranching:
    def test_concrete_env_selects_configuration_path(self):
        def setup(state):
            add_env_var(state, "LEVEL", "2")

        result = run_program(
            L.decl("v", L.call("getenv", L.strconst("LEVEL"))),
            L.if_(L.eq(L.var("v"), 0), [L.ret(0)]),
            L.ret(L.sub(L.index(L.var("v"), 0), ord("0"))),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == 2

    def test_symbolic_env_with_pipe_consumer(self):
        def setup(state):
            add_symbolic_env_var(state, "FLAG", size=1, label="flag")

        # The parent forwards the env byte through a pipe; the branch on the
        # read value forks the state (symbolic data crossing a pipe).
        result = run_program(
            L.decl("fds", L.call("malloc", 2)),
            L.expr_stmt(L.call("pipe", L.var("fds"))),
            L.decl("v", L.call("getenv", L.strconst("FLAG"))),
            L.expr_stmt(L.call("write", L.index(L.var("fds"), 1), L.var("v"), 1)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.index(L.var("fds"), 0), L.var("buf"), 1)),
            L.if_(L.gt(L.index(L.var("buf"), 0), ord("m")), [L.ret(1)], [L.ret(0)]),
            setup=setup,
        )
        assert result.paths_completed == 2
        assert {tc.exit_code for tc in result.test_cases} == {0, 1}


class TestClockAndScheduling:
    def test_sleep_in_worker_thread_lets_main_progress(self):
        worker = L.func(
            "spinner", ["arena"],
            L.expr_stmt(L.call("usleep", 100)),
            L.store(L.var("arena"), 0, 1),
            L.ret(0),
        )
        result = run_program(
            L.decl("arena", L.call("malloc", 1)),
            L.decl("tid", L.call("pthread_create", L.strconst("spinner"),
                                 L.var("arena"))),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.ret(L.index(L.var("arena"), 0)),
            functions=[worker],
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 1

    def test_clock_is_identical_on_single_node_and_cluster(self):
        program = L.program("clocked", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.decl("t", L.call("time", 0)),
            L.if_(L.gt(L.index(L.var("buf"), 0), 7), [L.ret(L.mod(L.var("t"), 251))],
                  [L.ret(L.mod(L.var("t"), 251))]),
        ))
        test = SymbolicTest("clocked", program)
        single = test.run()
        cluster = test.run(backend="cluster", workers=2, instructions_per_round=100)
        single_codes = sorted(tc.exit_code for tc in single.test_cases)
        cluster_codes = sorted(tc.exit_code for tc in cluster.test_cases)
        assert single_codes == cluster_codes


class TestNoSpuriousHangs:
    def test_blocked_msgrcv_without_sender_is_a_deadlock_report(self):
        result = run_program(
            L.decl("q", L.call("msgget", 30, IPC_CREAT)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("msgrcv", L.var("q"), L.var("buf"), 1, 0, 0)),
            L.ret(0),
        )
        assert any(b.kind == BugKind.DEADLOCK for b in result.bugs)

    def test_msgrcv_with_nowait_does_not_hang(self):
        result = run_program(
            L.decl("q", L.call("msgget", 31, IPC_CREAT)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("msgrcv", L.var("q"), L.var("buf"), 1, 0, 0x800)),
            L.ret(7),
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 7
