"""Unit tests for fault injection and network-stream fragmentation."""

from repro.lang import builder as L
from repro.posix.buffers import BlockBuffer, StreamBuffer
from repro.testing.symbolic_test import SymbolicTest


def run_program(entry_body, options=None, extra_funcs=()):
    program = L.program("p", *extra_funcs, L.func("main", [], *entry_body))
    test = SymbolicTest("t", program, options=options or {})
    return test.run()


def socketpair_prelude():
    return [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
    ]


class TestFaultInjection:
    def test_global_fault_injection_forks_failure_path(self):
        body = socketpair_prelude() + [
            L.expr_stmt(L.call("cloud9_fi_enable")),
            L.decl("msg", L.strconst("hi")),
            L.decl("n", L.call("write", L.var("client"), L.var("msg"), 2)),
            L.if_(L.eq(L.var("n"), 0xFFFFFFFF), [L.ret(1)], [L.ret(0)]),
        ]
        result = run_program(body)
        exit_codes = {t.exit_code for t in result.test_cases}
        assert exit_codes == {0, 1}

    def test_fault_injection_disabled_no_fork(self):
        body = socketpair_prelude() + [
            L.expr_stmt(L.call("cloud9_fi_enable")),
            L.expr_stmt(L.call("cloud9_fi_disable")),
            L.decl("msg", L.strconst("hi")),
            L.decl("n", L.call("write", L.var("client"), L.var("msg"), 2)),
            L.ret(L.var("n")),
        ]
        result = run_program(body)
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 2

    def test_per_fd_fault_injection_via_ioctl(self):
        body = socketpair_prelude() + [
            # SIO_FAULT_INJ = 0x9003, WR = 2
            L.expr_stmt(L.call("ioctl", L.var("client"), 0x9003, 2)),
            L.decl("msg", L.strconst("x")),
            L.decl("n", L.call("write", L.var("client"), L.var("msg"), 1)),
            L.if_(L.eq(L.var("n"), 0xFFFFFFFF), [L.ret(1)], [L.ret(0)]),
        ]
        result = run_program(body)
        assert {t.exit_code for t in result.test_cases} == {0, 1}

    def test_fault_injection_records_fault_count_in_options(self):
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("x")),
            L.decl("n", L.call("write", L.var("client"), L.var("msg"), 1)),
            L.ret(0),
        ]
        result = run_program(body, options={"fault_injection_all": True})
        assert result.paths_completed == 2

    def test_fault_forks_share_nothing_mutable_in_options(self):
        """Two fault points in a row: every path's state holds its own
        options, so a fault on one path is never counted on a sibling."""
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("x")),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 1)),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 1)),
            L.ret(0),
        ]
        program = L.program("p", L.func("main", [], *body))
        test = SymbolicTest("t", program, options={"fault_injection_all": True})
        executor = test.build_executor()
        finished, todo = [], [test.build_initial_state(executor)]
        while todo:
            state = todo.pop()
            for child in executor.step(state).children:
                (todo if child.is_running else finished).append(child)
        assert sorted(s.options.get("faults_injected", 0)
                      for s in finished) == [0, 1, 1, 2]
        atoms = (int, float, bool, str, bytes, type(None))
        seen = {}
        for state in finished:
            for value in state.options.values():
                if not isinstance(value, atoms):
                    assert seen.setdefault(id(value), state) is state

    def test_failed_read_does_not_consume_stream_data(self):
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("Q")),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 1)),
            L.expr_stmt(L.call("ioctl", L.var("server"), 0x9003, 1)),   # RD faults
            L.decl("buf", L.call("malloc", 1)),
            L.decl("n", L.call("read", L.var("server"), L.var("buf"), 1)),
            L.if_(L.eq(L.var("n"), 0xFFFFFFFF), [
                # Retry without faults: the data must still be there.
                L.expr_stmt(L.call("ioctl", L.var("server"), 0x9003, 0)),
                L.decl("n2", L.call("read", L.var("server"), L.var("buf"), 1)),
                L.ret(L.index(L.var("buf"), 0)),
            ]),
            L.ret(L.index(L.var("buf"), 0)),
        ]
        result = run_program(body)
        assert all(t.exit_code == ord("Q") for t in result.test_cases)


class TestFragmentation:
    def test_explicit_pattern_controls_read_sizes(self):
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("abcdef")),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 6)),
            L.decl("pattern", L.call("malloc", 2)),
            L.store(L.var("pattern"), 0, 2),
            L.store(L.var("pattern"), 1, 4),
            L.expr_stmt(L.call("c9_set_frag_pattern", L.var("server"),
                               L.var("pattern"), 2)),
            L.decl("buf", L.call("malloc", 8)),
            L.decl("n1", L.call("read", L.var("server"), L.var("buf"), 8)),
            L.decl("n2", L.call("read", L.var("server"), L.var("buf"), 8)),
            L.ret(L.add(L.mul(L.var("n1"), 10), L.var("n2"))),
        ]
        result = run_program(body)
        assert result.test_cases[0].exit_code == 24

    def test_symbolic_fragmentation_forks_over_read_sizes(self):
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("abc")),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 3)),
            L.expr_stmt(L.call("ioctl", L.var("server"), 0x9002, 1)),  # SIO_PKT_FRAGMENT
            L.decl("buf", L.call("malloc", 4)),
            L.decl("n", L.call("read", L.var("server"), L.var("buf"), 4)),
            L.ret(L.var("n")),
        ]
        result = run_program(body)
        # First read may return 1, 2 or 3 bytes.
        assert result.paths_completed == 3
        assert {t.exit_code for t in result.test_cases} == {1, 2, 3}

    def test_frag_choice_limit_bounds_fanout(self):
        body = socketpair_prelude() + [
            L.decl("msg", L.strconst("abcdefgh")),
            L.expr_stmt(L.call("write", L.var("client"), L.var("msg"), 8)),
            L.expr_stmt(L.call("ioctl", L.var("server"), 0x9002, 1)),
            L.decl("buf", L.call("malloc", 8)),
            L.decl("n", L.call("read", L.var("server"), L.var("buf"), 8)),
            L.ret(L.var("n")),
        ]
        result = run_program(body, options={"frag_choice_limit": 3})
        # Sizes 1, 2 and "all 8" only.
        assert {t.exit_code for t in result.test_cases} == {1, 2, 8}


class TestBuffers:
    def test_stream_buffer_fifo_and_eof(self):
        stream = StreamBuffer()
        assert stream.push([1, 2, 3]) == 3
        assert stream.pop(2) == [1, 2]
        stream.close_write()
        assert not stream.at_eof
        assert stream.pop(5) == [3]
        assert stream.at_eof and stream.readable

    def test_stream_buffer_capacity(self):
        stream = StreamBuffer(capacity=2)
        assert stream.push([1, 2, 3]) == 2
        assert not stream.writable

    def test_stream_buffer_datagrams(self):
        stream = StreamBuffer()
        stream.push_datagram([1, 2, 3])
        stream.push_datagram([4])
        assert stream.pop_datagram(max_bytes=2) == [1, 2]
        assert stream.pop_datagram() == [4]
        assert stream.pop_datagram() == []

    def test_block_buffer_grows_on_write(self):
        block = BlockBuffer(2)
        block.write(4, [9, 9])
        assert block.size == 6
        assert block.read(0, 10) == [0, 0, 0, 0, 9, 9]

    def test_block_buffer_truncate(self):
        block = BlockBuffer(4)
        block.truncate(1)
        assert block.size == 1
        block.truncate(3)
        assert block.size == 3
