"""Unit tests for the POSIX model: files, descriptors, symbolic files."""

from repro import lang as L
from repro.engine import BugKind
from repro.posix.api import add_concrete_file, add_symbolic_file
from repro.testing import SymbolicTest

from conftest import make_executor


def run_program(*main_body, setup=None, options=None):
    program = L.program("p", L.func("main", [], *main_body))
    test = SymbolicTest("t", program, setup=setup, options=options or {})
    return test.run()


class TestOpenReadWrite:
    def test_open_missing_file_fails(self):
        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/etc/missing"), 0)),
            L.if_(L.eq(L.var("fd"), 0xFFFFFFFF), [L.ret(1)]),
            L.ret(0),
        )
        assert result.test_cases[0].exit_code == 1

    def test_create_write_read_roundtrip(self):
        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/tmp/x"), 0x40)),
            L.decl("data", L.strconst("hi")),
            L.expr_stmt(L.call("write", L.var("fd"), L.var("data"), 2)),
            L.expr_stmt(L.call("lseek", L.var("fd"), 0, 0)),
            L.decl("buf", L.call("malloc", 4)),
            L.decl("n", L.call("read", L.var("fd"), L.var("buf"), 4)),
            L.if_(L.ne(L.var("n"), 2), [L.ret(100)]),
            L.ret(L.index(L.var("buf"), 1)),
        )
        assert result.test_cases[0].exit_code == ord("i")

    def test_read_on_concrete_preloaded_file(self):
        def setup(state):
            add_concrete_file(state, "/etc/config", b"OK")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/etc/config"), 0)),
            L.decl("buf", L.call("malloc", 4)),
            L.decl("n", L.call("read", L.var("fd"), L.var("buf"), 4)),
            L.ret(L.index(L.var("buf"), 0)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == ord("O")

    def test_symbolic_file_contents_fork_reader(self):
        def setup(state):
            add_symbolic_file(state, "/data/input", size=1, label="filedata")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/data/input"), 0)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 1)),
            L.if_(L.gt(L.index(L.var("buf"), 0), 0x7F), [L.ret(1)], [L.ret(0)]),
            setup=setup,
        )
        assert result.paths_completed == 2

    def test_read_past_eof_returns_zero(self):
        def setup(state):
            add_concrete_file(state, "/small", b"a")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/small"), 0)),
            L.decl("buf", L.call("malloc", 4)),
            L.expr_stmt(L.call("read", L.var("fd"), L.var("buf"), 4)),
            L.ret(L.call("read", L.var("fd"), L.var("buf"), 4)),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == 0

    def test_lseek_end_and_file_size(self):
        def setup(state):
            add_concrete_file(state, "/f", b"abcdef")

        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/f"), 0)),
            L.decl("pos", L.call("lseek", L.var("fd"), 0, 2)),
            L.ret(L.var("pos")),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == 6

    def test_unlink_then_open_fails(self):
        def setup(state):
            add_concrete_file(state, "/gone", b"x")

        result = run_program(
            L.expr_stmt(L.call("unlink", L.strconst("/gone"))),
            L.decl("fd", L.call("open", L.strconst("/gone"), 0)),
            L.if_(L.eq(L.var("fd"), 0xFFFFFFFF), [L.ret(1)]),
            L.ret(0),
            setup=setup,
        )
        assert result.test_cases[0].exit_code == 1

    def test_close_invalidates_descriptor(self):
        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/tmp/y"), 0x40)),
            L.expr_stmt(L.call("close", L.var("fd"))),
            L.decl("buf", L.call("malloc", 1)),
            L.ret(L.call("read", L.var("fd"), L.var("buf"), 1)),
        )
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_dup_shares_file(self):
        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/tmp/z"), 0x40)),
            L.decl("fd2", L.call("dup", L.var("fd"))),
            L.decl("data", L.strconst("Q")),
            L.expr_stmt(L.call("write", L.var("fd"), L.var("data"), 1)),
            L.ret(L.call("c9_file_size", L.strconst("/tmp/z"))),
        )
        assert result.test_cases[0].exit_code == 1

    def test_stdout_write_accepted(self):
        result = run_program(
            L.decl("data", L.strconst("log")),
            L.ret(L.call("write", 1, L.var("data"), 3)),
        )
        assert result.test_cases[0].exit_code == 3

    def test_stdin_read_returns_zero(self):
        result = run_program(
            L.decl("buf", L.call("malloc", 4)),
            L.ret(L.call("read", 0, L.var("buf"), 4)),
        )
        assert result.test_cases[0].exit_code == 0


class TestSymbolicSourceIoctl:
    def test_sio_symbolic_makes_reads_symbolic(self):
        result = run_program(
            L.decl("fd", L.call("open", L.strconst("/tmp/s"), 0x40)),
            L.expr_stmt(L.call("ioctl", L.var("fd"), 0x9001, 1)),   # SIO_SYMBOLIC
            L.decl("buf", L.call("malloc", 1)),
            L.decl("n", L.call("read", L.var("fd"), L.var("buf"), 1)),
            L.if_(L.gt(L.index(L.var("buf"), 0), 0x40), [L.ret(1)], [L.ret(0)]),
        )
        # Reads return fresh symbolic bytes even though the file is empty,
        # so the comparison forks into two paths.
        assert result.paths_completed == 2
