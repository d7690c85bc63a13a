"""Unit tests for the mmap and System V IPC components of the POSIX model."""

from repro import lang as L
from repro.engine.errors import BugKind
from repro.posix.api import add_concrete_file
from repro.testing import SymbolicTest

MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_ANONYMOUS = 0x20
PROT_READ = 0x1
PROT_RW = 0x3
IPC_CREAT = 0x200
IPC_EXCL = 0x400
IPC_NOWAIT = 0x800
MAP_FAILED = 0xFFFFFFFF
ERR = 0xFFFFFFFF


def run_program(*main_body, functions=(), setup=None, options=None):
    program = L.program("p", *functions, L.func("main", [], *main_body))
    test = SymbolicTest("t", program, setup=setup, options=options or {})
    return test.run()


class TestMmapAnonymous:
    def test_private_mapping_read_write(self):
        result = run_program(
            L.decl("p", L.call("mmap", 0, 8, PROT_RW,
                               MAP_PRIVATE | MAP_ANONYMOUS, ERR, 0)),
            L.store(L.var("p"), 3, 0x5A),
            L.ret(L.index(L.var("p"), 3)),
        )
        assert result.test_cases[0].exit_code == 0x5A

    def test_zero_length_mapping_fails(self):
        result = run_program(
            L.ret(L.eq(L.call("mmap", 0, 0, PROT_RW,
                              MAP_PRIVATE | MAP_ANONYMOUS, ERR, 0), MAP_FAILED)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_munmap_private_mapping(self):
        result = run_program(
            L.decl("p", L.call("mmap", 0, 8, PROT_RW,
                               MAP_PRIVATE | MAP_ANONYMOUS, ERR, 0)),
            L.ret(L.call("munmap", L.var("p"), 8)),
        )
        assert result.test_cases[0].exit_code == 0

    def test_munmap_unknown_address_fails(self):
        result = run_program(
            L.ret(L.eq(L.call("munmap", 12345, 8), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_shared_anonymous_mapping_visible_after_fork(self):
        # The parent maps a shared page, forks, the child writes into it and
        # the parent reads the child's value back after waitpid.
        result = run_program(
            L.decl("p", L.call("mmap", 0, 4, PROT_RW,
                               MAP_SHARED | MAP_ANONYMOUS, ERR, 0)),
            L.store(L.var("p"), 0, 1),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.store(L.var("p"), 0, 77),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("p"), 0)),
        )
        assert result.test_cases[0].exit_code == 77


class TestMmapProtection:
    """``PROT_WRITE`` is enforced by the object behind the mapping."""

    @staticmethod
    def _map(prot, flags=MAP_PRIVATE | MAP_ANONYMOUS, name="p"):
        return L.decl(name, L.call("mmap", 0, 8, prot, flags, ERR, 0))

    def test_store_into_a_read_only_mapping_is_a_memory_error(self):
        result = run_program(
            self._map(PROT_READ),
            L.store(L.var("p"), 3, 0x5A),
            L.ret(L.index(L.var("p"), 3)),
        )
        assert [bug.kind for bug in result.bugs] == [BugKind.MEMORY_ERROR]
        assert "read-only" in result.bugs[0].message

    def test_store_after_mprotect_read_only_is_a_memory_error(self):
        result = run_program(
            self._map(PROT_RW),
            L.store(L.var("p"), 0, 1),
            L.if_(L.ne(L.call("mprotect", L.var("p"), 8, PROT_READ), 0),
                  [L.ret(99)]),
            L.store(L.var("p"), 0, 2),
            L.ret(L.index(L.var("p"), 0)),
        )
        assert [bug.kind for bug in result.bugs] == [BugKind.MEMORY_ERROR]

    def test_mprotect_read_write_makes_a_mapping_writable_again(self):
        result = run_program(
            self._map(PROT_READ),
            L.decl("r", L.call("mprotect", L.var("p"), 8, PROT_RW)),
            L.store(L.var("p"), 0, 0x41),
            L.ret(L.add(L.var("r"), L.index(L.var("p"), 0))),
        )
        assert not result.bugs
        assert result.test_cases[0].exit_code == 0x41

    def test_mprotect_of_an_unmapped_address_fails(self):
        result = run_program(
            L.ret(L.eq(L.call("mprotect", 12345, 8, PROT_READ), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_mprotect_on_one_path_leaves_its_sibling_writable(self):
        """The object is copied before its flag changes, so a state fork
        that still shares it keeps its own protection.  Each side protects
        one mapping and stores into the other, so whichever side runs
        first, a flag leaked across the fork is a bug on the second."""
        def protect_then_store(protected, stored):
            return [L.expr_stmt(L.call("mprotect", L.var(protected), 8,
                                       PROT_READ)),
                    L.store(L.var(stored), 0, 7)]

        result = run_program(
            self._map(PROT_RW),
            self._map(PROT_RW, name="q"),
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1,
                                 L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("A")),
                  protect_then_store("p", "q"), protect_then_store("q", "p")),
            L.ret(0),
        )
        assert not result.bugs
        assert len(result.test_cases) == 2

    def test_mprotect_of_a_shared_mapping_applies_to_every_process(self):
        """A shared mapping is one object for all processes of the state."""
        result = run_program(
            self._map(PROT_RW, MAP_SHARED | MAP_ANONYMOUS),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.expr_stmt(L.call("mprotect", L.var("p"), 8, PROT_READ)),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.store(L.var("p"), 0, 1),
            L.ret(0),
        )
        assert [bug.kind for bug in result.bugs] == [BugKind.MEMORY_ERROR]


class TestMmapFileBacked:
    def test_private_file_mapping_snapshots_contents(self):
        def setup(state):
            add_concrete_file(state, "/data/blob", b"ABCDEF")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/data/blob"), 0)),
            L.decl("p", L.call("mmap", 0, 6, PROT_RW, MAP_PRIVATE,
                               L.var("fd"), 0)),
            L.ret(L.index(L.var("p"), 2)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("C")

    def test_private_file_mapping_does_not_write_back(self):
        def setup(state):
            add_concrete_file(state, "/data/blob", b"ABCDEF")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/data/blob"), 0)),
            L.decl("p", L.call("mmap", 0, 6, PROT_RW, MAP_PRIVATE,
                               L.var("fd"), 0)),
            L.store(L.var("p"), 0, ord("z")),
            L.expr_stmt(L.call("munmap", L.var("p"), 6)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("lseek", L.var("fd"), 0, 0)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 1)),
            L.ret(L.index(L.var("buf"), 0)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("A")

    def test_shared_file_mapping_msync_writes_back(self):
        def setup(state):
            add_concrete_file(state, "/data/blob", b"ABCDEF")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/data/blob"), 0)),
            L.decl("p", L.call("mmap", 0, 6, PROT_RW, MAP_SHARED,
                               L.var("fd"), 0)),
            L.store(L.var("p"), 1, ord("z")),
            L.expr_stmt(L.call("msync", L.var("p"), 6, 0)),
            L.decl("buf", L.call("malloc", 2)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 2)),
            L.ret(L.index(L.var("buf"), 1)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("z")

    def test_shared_file_mapping_written_back_on_munmap(self):
        def setup(state):
            add_concrete_file(state, "/data/blob", b"AB")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/data/blob"), 0)),
            L.decl("p", L.call("mmap", 0, 2, PROT_RW, MAP_SHARED,
                               L.var("fd"), 0)),
            L.store(L.var("p"), 0, ord("Q")),
            L.expr_stmt(L.call("munmap", L.var("p"), 2)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 1)),
            L.ret(L.index(L.var("buf"), 0)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("Q")

    def test_mmap_on_bad_descriptor_fails(self):
        result = run_program(
            L.ret(L.eq(L.call("mmap", 0, 4, PROT_RW, MAP_PRIVATE, 99, 0),
                       MAP_FAILED)),
        )
        assert result.test_cases[0].exit_code == 1


class TestSharedMemorySegments:
    def test_shmget_requires_creat_for_new_key(self):
        result = run_program(
            L.ret(L.eq(L.call("shmget", 42, 16, 0), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_shmget_shmat_roundtrip(self):
        result = run_program(
            L.decl("id", L.call("shmget", 42, 16, IPC_CREAT)),
            L.decl("p", L.call("shmat", L.var("id"))),
            L.store(L.var("p"), 5, 0x33),
            L.ret(L.index(L.var("p"), 5)),
        )
        assert result.test_cases[0].exit_code == 0x33

    def test_shmget_excl_on_existing_key_fails(self):
        result = run_program(
            L.expr_stmt(L.call("shmget", 7, 8, IPC_CREAT)),
            L.ret(L.eq(L.call("shmget", 7, 8, IPC_CREAT | IPC_EXCL), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_segment_shared_across_fork(self):
        result = run_program(
            L.decl("id", L.call("shmget", 1, 4, IPC_CREAT)),
            L.decl("p", L.call("shmat", L.var("id"))),
            L.decl("pid", L.call("fork")),
            L.if_(L.eq(L.var("pid"), 0), [
                L.decl("q", L.call("shmat", L.var("id"))),
                L.store(L.var("q"), 0, 99),
                L.expr_stmt(L.call("exit", 0)),
            ]),
            L.expr_stmt(L.call("waitpid", L.var("pid"))),
            L.ret(L.index(L.var("p"), 0)),
        )
        assert result.test_cases[0].exit_code == 99

    def test_shmctl_rmid_destroys_when_detached(self):
        result = run_program(
            L.decl("id", L.call("shmget", 3, 8, IPC_CREAT)),
            L.decl("p", L.call("shmat", L.var("id"))),
            L.expr_stmt(L.call("shmctl", L.var("id"), 0)),
            L.expr_stmt(L.call("shmdt", L.var("p"))),
            # The key is gone, so re-getting it without IPC_CREAT fails.
            L.ret(L.eq(L.call("shmget", 3, 8, 0), ERR)),
        )
        assert result.test_cases[0].exit_code == 1


class TestMessageQueues:
    def test_msgget_requires_creat(self):
        result = run_program(
            L.ret(L.eq(L.call("msgget", 11, 0), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_send_receive_roundtrip(self):
        result = run_program(
            L.decl("q", L.call("msgget", 11, IPC_CREAT)),
            L.decl("msg", L.strconst("hey")),
            L.expr_stmt(L.call("msgsnd", L.var("q"), 1, L.var("msg"), 3, 0)),
            L.decl("buf", L.call("malloc", 8)),
            L.decl("n", L.call("msgrcv", L.var("q"), L.var("buf"), 8, 0, 0)),
            L.if_(L.ne(L.var("n"), 3), [L.ret(100)]),
            L.ret(L.index(L.var("buf"), 1)),
        )
        assert result.test_cases[0].exit_code == ord("e")

    def test_receive_by_type_skips_other_types(self):
        result = run_program(
            L.decl("q", L.call("msgget", 12, IPC_CREAT)),
            L.expr_stmt(L.call("msgsnd", L.var("q"), 1, L.strconst("a"), 1, 0)),
            L.expr_stmt(L.call("msgsnd", L.var("q"), 2, L.strconst("b"), 1, 0)),
            L.decl("buf", L.call("malloc", 4)),
            L.expr_stmt(L.call("msgrcv", L.var("q"), L.var("buf"), 4, 2, 0)),
            L.ret(L.index(L.var("buf"), 0)),
        )
        assert result.test_cases[0].exit_code == ord("b")

    def test_nonblocking_receive_on_empty_queue_fails(self):
        result = run_program(
            L.decl("q", L.call("msgget", 13, IPC_CREAT)),
            L.decl("buf", L.call("malloc", 4)),
            L.ret(L.eq(L.call("msgrcv", L.var("q"), L.var("buf"), 4, 0,
                              IPC_NOWAIT), ERR)),
        )
        assert result.test_cases[0].exit_code == 1

    def test_blocking_receive_woken_by_second_thread(self):
        # Thread "sender" posts a message; main blocks in msgrcv until then.
        sender = L.func(
            "sender", ["q"],
            L.expr_stmt(L.call("msgsnd", L.var("q"), 1, L.strconst("x"), 1, 0)),
            L.ret(0),
        )
        result = run_program(
            L.decl("q", L.call("msgget", 14, IPC_CREAT)),
            L.decl("tid", L.call("pthread_create", L.strconst("sender"),
                                 L.var("q"))),
            L.decl("buf", L.call("malloc", 4)),
            L.decl("n", L.call("msgrcv", L.var("q"), L.var("buf"), 4, 0, 0)),
            L.expr_stmt(L.call("pthread_join", L.var("tid"))),
            L.ret(L.index(L.var("buf"), 0)),
            functions=[sender],
        )
        assert result.test_cases[0].exit_code == ord("x")

    def test_msgctl_rmid_removes_queue(self):
        result = run_program(
            L.decl("q", L.call("msgget", 15, IPC_CREAT)),
            L.expr_stmt(L.call("msgctl", L.var("q"), 0)),
            L.ret(L.eq(L.call("msgget", 15, 0), ERR)),
        )
        assert result.test_cases[0].exit_code == 1
