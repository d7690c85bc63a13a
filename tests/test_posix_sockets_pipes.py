"""Unit tests for the POSIX model: sockets, pipes, select polling."""

from repro.lang import builder as L
from repro.engine.errors import BugKind
from repro.testing.symbolic_test import SymbolicTest


def run_program(*main_functions, entry_body=None, options=None, extra_funcs=()):
    program = L.program("p", *extra_funcs, L.func("main", [], *entry_body))
    test = SymbolicTest("t", program, options=options or {})
    return test.run()


class TestSocketPair:
    def test_data_flows_between_endpoints(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("msg", L.strconst("ping")),
            L.expr_stmt(L.call("write", L.var("a"), L.var("msg"), 4)),
            L.decl("buf", L.call("malloc", 4)),
            L.decl("n", L.call("read", L.var("b"), L.var("buf"), 4)),
            L.if_(L.ne(L.var("n"), 4), [L.ret(100)]),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == ord("p")

    def test_read_after_peer_close_returns_eof(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.expr_stmt(L.call("close", L.var("a"))),
            L.decl("buf", L.call("malloc", 4)),
            L.ret(L.call("read", L.var("b"), L.var("buf"), 4)),
        ])
        assert result.test_cases[0].exit_code == 0

    def test_shutdown_of_the_write_side_makes_the_peer_read_eof(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("rc", L.call("shutdown", L.var("a"), 1)),
            L.if_(L.ne(L.var("rc"), 0), [L.ret(100)]),
            L.decl("buf", L.call("malloc", 4)),
            L.ret(L.call("read", L.var("b"), L.var("buf"), 4)),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == 0

    def test_write_after_peer_close_fails(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.expr_stmt(L.call("close", L.var("b"))),
            L.decl("msg", L.strconst("x")),
            L.ret(L.call("write", L.var("a"), L.var("msg"), 1)),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_blocking_read_deadlocks_without_writer(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("buf", L.call("malloc", 4)),
            L.ret(L.call("read", L.var("a"), L.var("buf"), 4)),
        ])
        assert any(b.kind == BugKind.DEADLOCK for b in result.bugs)


class TestListenConnectAccept:
    def test_connection_roundtrip(self):
        server_fn = L.func(
            "server", ["listen_fd"],
            L.decl("conn", L.call("accept", L.var("listen_fd"))),
            L.decl("buf", L.call("malloc", 2)),
            L.expr_stmt(L.call("read", L.var("conn"), L.var("buf"), 2)),
            L.decl("reply", L.call("malloc", 1)),
            L.store(L.var("reply"), 0, L.add(L.index(L.var("buf"), 0), 1)),
            L.expr_stmt(L.call("write", L.var("conn"), L.var("reply"), 1)),
            L.ret(0),
        )
        result = run_program(extra_funcs=[server_fn], entry_body=[
            L.decl("lfd", L.call("socket", 1, 1)),
            L.expr_stmt(L.call("bind", L.var("lfd"), 8080)),
            L.expr_stmt(L.call("listen", L.var("lfd"), 4)),
            L.decl("t", L.call("pthread_create", L.strconst("server"), L.var("lfd"))),
            L.decl("cfd", L.call("socket", 1, 1)),
            L.decl("rc", L.call("connect", L.var("cfd"), 8080)),
            L.if_(L.ne(L.var("rc"), 0), [L.ret(100)]),
            L.decl("msg", L.strconst("A")),
            L.expr_stmt(L.call("write", L.var("cfd"), L.var("msg"), 1)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("cfd"), L.var("buf"), 1)),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert not result.bugs
        assert result.test_cases[0].exit_code == ord("A") + 1

    def test_connect_to_unbound_port_refused(self):
        result = run_program(entry_body=[
            L.decl("cfd", L.call("socket", 1, 1)),
            L.ret(L.call("connect", L.var("cfd"), 9999)),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF

    def test_bind_same_port_twice_fails(self):
        result = run_program(entry_body=[
            L.decl("a", L.call("socket", 1, 2)),
            L.decl("b", L.call("socket", 1, 2)),
            L.expr_stmt(L.call("bind", L.var("a"), 53)),
            L.ret(L.call("bind", L.var("b"), 53)),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF


class TestUdp:
    def test_sendto_recvfrom_preserves_datagram_boundary(self):
        result = run_program(entry_body=[
            L.decl("srv", L.call("socket", 1, 2)),
            L.expr_stmt(L.call("bind", L.var("srv"), 11211)),
            L.decl("cli", L.call("socket", 1, 2)),
            L.decl("d1", L.strconst("abc")),
            L.decl("d2", L.strconst("de")),
            L.expr_stmt(L.call("sendto", L.var("cli"), L.var("d1"), 3, 11211)),
            L.expr_stmt(L.call("sendto", L.var("cli"), L.var("d2"), 2, 11211)),
            L.decl("buf", L.call("malloc", 8)),
            L.decl("n1", L.call("recvfrom", L.var("srv"), L.var("buf"), 8)),
            L.decl("n2", L.call("recvfrom", L.var("srv"), L.var("buf"), 8)),
            L.ret(L.add(L.mul(L.var("n1"), 10), L.var("n2"))),
        ])
        assert result.test_cases[0].exit_code == 32

    def test_sendto_unbound_port_fails(self):
        result = run_program(entry_body=[
            L.decl("cli", L.call("socket", 1, 2)),
            L.decl("d", L.strconst("x")),
            L.ret(L.call("sendto", L.var("cli"), L.var("d"), 1, 5353)),
        ])
        assert result.test_cases[0].exit_code == 0xFFFFFFFF


class TestPipes:
    def test_pipe_roundtrip(self):
        result = run_program(entry_body=[
            L.decl("fds", L.call("malloc", 2)),
            L.expr_stmt(L.call("pipe", L.var("fds"))),
            L.decl("r", L.index(L.var("fds"), 0)),
            L.decl("w", L.index(L.var("fds"), 1)),
            L.decl("msg", L.strconst("z")),
            L.expr_stmt(L.call("write", L.var("w"), L.var("msg"), 1)),
            L.decl("buf", L.call("malloc", 1)),
            L.expr_stmt(L.call("read", L.var("r"), L.var("buf"), 1)),
            L.ret(L.index(L.var("buf"), 0)),
        ])
        assert result.test_cases[0].exit_code == ord("z")


class TestSelect:
    def test_select_reports_ready_descriptor(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("msg", L.strconst("m")),
            L.expr_stmt(L.call("write", L.var("a"), L.var("msg"), 1)),
            L.decl("readset", L.call("malloc", 1)),
            L.store(L.var("readset"), 0, L.var("b")),
            L.ret(L.call("select", L.var("readset"), 1, 0, 0, 1)),
        ])
        assert result.test_cases[0].exit_code == 1  # bit 0 set

    def test_select_polling_returns_zero_when_nothing_ready(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("b", L.index(L.var("pair"), 1)),
            L.decl("readset", L.call("malloc", 1)),
            L.store(L.var("readset"), 0, L.var("b")),
            L.ret(L.call("select", L.var("readset"), 1, 0, 0, 0)),   # timeout 0
        ])
        assert result.test_cases[0].exit_code == 0

    def test_select_write_readiness(self):
        result = run_program(entry_body=[
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("a", L.index(L.var("pair"), 0)),
            L.decl("writeset", L.call("malloc", 1)),
            L.store(L.var("writeset"), 0, L.var("a")),
            L.ret(L.call("select", 0, 0, L.var("writeset"), 1, 1)),
        ])
        assert result.test_cases[0].exit_code == 1 << 16
