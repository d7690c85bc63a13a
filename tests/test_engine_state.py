"""Unit tests for execution states: processes, threads, memory, forking."""

import pytest

from repro.lang import builder as L
from repro.distrib import specs
from repro.engine.memory import AddressSpace, MemoryError_
from repro.engine.state import ExecutionState, StateStatus, ThreadStatus
from repro.lang.compiler import compile_program
from repro.posix import data as posix_data
from repro.posix.buffers import StreamBuffer
from repro.posix.data import PosixState
from repro.solver import expr as E

from conftest import make_executor, python_calls


def _state() -> ExecutionState:
    program = compile_program(L.program(
        "p",
        L.func("main", [], L.decl("x", L.strconst("hello")), L.ret(0)),
    ))
    state = ExecutionState(program)
    state.create_main_process()
    return state


class CountingModel:
    """A stand-in environment model: its fork copies its one table, and the
    forks of every model descended from one root are counted together."""

    def __init__(self, table, forks=None):
        self.table = table
        self.forks = [0] if forks is None else forks

    def fork(self):
        self.forks[0] += 1
        return CountingModel(dict(self.table), self.forks)


def _modelled() -> ExecutionState:
    state = _state()
    state.env = CountingModel({1: "a"})
    return state


class TestConstruction:
    def test_main_process_and_thread(self):
        state = _state()
        assert state.current == (1, 0)
        assert state.current_thread.top.function == "main"
        assert state.is_running

    def test_data_segment_is_mapped(self):
        state = _state()
        address = state.string_address(b"hello")
        assert bytes(state.mem_read(address, i) for i in range(5)) == b"hello"
        assert state.mem_read(address, 5) == 0  # NUL terminator

    def test_data_segment_deterministic_across_states(self):
        assert _state().string_address(b"hello") == _state().string_address(b"hello")


class TestMemoryOperations:
    def test_allocate_and_access(self):
        state = _state()
        obj = state.allocate(4, name="buf")
        state.mem_write(obj.address, 2, 0x7F)
        assert state.mem_read(obj.address, 2) == 0x7F

    def test_allocation_addresses_deterministic(self):
        a, b = _state(), _state()
        assert a.allocate(10).address == b.allocate(10).address
        assert a.allocate(3).address == b.allocate(3).address

    def test_free(self):
        state = _state()
        obj = state.allocate(4)
        state.free(obj.address)
        with pytest.raises(Exception):
            state.mem_read(obj.address, 0)

    def test_make_shared_moves_object_to_cow_domain(self):
        state = _state()
        obj = state.allocate(4)
        state.make_shared(obj.address)
        _, _, shared = state.resolve(obj.address)
        assert shared

    def test_shared_object_visible_across_processes(self):
        state = _state()
        obj = state.allocate_shared(4, name="shm")
        child = state.fork_process(state.current_process)
        state.mem_write(obj.address, 0, 0x55, process=state.processes[1])
        assert state.mem_read(obj.address, 0, process=child) == 0x55

    def test_private_memory_isolated_across_process_fork(self):
        state = _state()
        obj = state.allocate(4)
        child = state.fork_process(state.current_process)
        state.mem_write(obj.address, 0, 9, process=state.processes[1])
        assert state.mem_read(obj.address, 0, process=child) == 0


class TestBufferCopies:
    """``mem_read_bytes``/``mem_write_bytes`` resolve a buffer's base once and
    behave as ``len(buffer)`` single-cell accesses did."""

    def test_a_posix_read_resolves_each_buffer_once(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("pair", L.call("malloc", 2)),
            L.expr_stmt(L.call("socketpair", L.var("pair"))),
            L.decl("msg", L.strconst("abcdef")),
            L.expr_stmt(L.call("write", L.index(L.var("pair"), 0),
                               L.var("msg"), 6)),
            L.decl("buf", L.call("malloc", 6)),
            L.decl("n", L.call("read", L.index(L.var("pair"), 1),
                               L.var("buf"), 6)),
            L.ret(L.add(L.mul(L.var("n"), 256), L.index(L.var("buf"), 5)))))
        executor = make_executor(program, posix=True)
        with python_calls(by_code=True) as calls:
            result = executor.run()
        assert [t.exit_code for t in result.test_cases] == [6 * 256 + ord("f")]
        # socketpair's descriptor pair, write's source, read's destination.
        assert calls[AddressSpace.resolve.__code__] == 3

    def test_a_buffer_past_the_end_of_its_object(self):
        state = _state()
        obj = state.allocate(4, name="buf")
        with pytest.raises(MemoryError_,
                           match=r"^out-of-bounds write at buf\+4 \(size 4\)$"):
            state.mem_write_bytes(obj.address + 1, [1, 2, 3, 4])
        # The cells before the end were written.
        assert state.mem_read_bytes(obj.address, 4) == [0, 1, 2, 3]
        with pytest.raises(MemoryError_,
                           match=r"^out-of-bounds read at buf\+4 \(size 4\)$"):
            state.mem_read_bytes(obj.address + 2, 3)

    def test_a_buffer_write_owns_one_copy(self):
        state = _state()
        obj = state.allocate(4)
        clone = state.fork()
        with python_calls(by_code=True) as calls:
            clone.mem_write_bytes(obj.address, [5, 6, 7])
        assert calls[AddressSpace.resolve.__code__] == 1
        copy = clone.resolve(obj.address)[0]
        assert copy is not obj and copy.cells == [5, 6, 7, 0]
        assert obj.cells == [0, 0, 0, 0]
        assert state.resolve(obj.address)[0] is obj

    def test_a_shared_buffer_is_written_in_place(self):
        state = _state()
        obj = state.allocate_shared(4)
        child = state.fork_process(state.current_process)
        state.mem_write_bytes(obj.address, [1, 2], process=child)
        assert state.resolve(obj.address)[0] is obj
        assert state.mem_read_bytes(obj.address, 4) == [1, 2, 0, 0]

    def test_a_zero_length_copy_resolves_nothing(self):
        state = _state()
        with python_calls(by_code=True) as calls:
            assert state.mem_read_bytes(0xDEAD0000, 0) == []
            state.mem_write_bytes(0xDEAD0000, [])
        assert calls[ExecutionState.resolve.__code__] == 0


class TestSymbolicInputs:
    def test_make_symbolic_buffer(self):
        state = _state()
        obj, symbols = state.make_symbolic_buffer("input", 3)
        assert len(symbols) == 3
        assert state.symbolic_inputs["input"] == symbols
        assert all(isinstance(c, E.Expr) for c in obj.cells)

    def test_symbol_names_deterministic(self):
        a, b = _state(), _state()
        _, syms_a = a.make_symbolic_buffer("input", 2)
        _, syms_b = b.make_symbolic_buffer("input", 2)
        assert [s.name for s in syms_a] == [s.name for s in syms_b]

    def test_constraint_deduplication(self):
        state = _state()
        x = E.bv_symbol("x", 8)
        constraint = E.eq(x, E.bv_const(1, 8))
        state.add_constraint(constraint)
        state.add_constraint(constraint)
        assert list(state.path_constraints) == [constraint]


class TestWaitLists:
    def test_sleep_and_notify_one(self):
        state = _state()
        wlist = state.create_wait_list()
        thread = state.current_thread
        state.sleep_on(wlist, thread)
        assert thread.status == ThreadStatus.SLEEPING
        woken = state.notify(wlist)
        assert woken == [thread]
        assert thread.status == ThreadStatus.ENABLED

    def test_notify_all(self):
        state = _state()
        wlist = state.create_wait_list()
        t1 = state.current_thread
        t2 = state.current_process.new_thread()
        state.sleep_on(wlist, t1)
        state.sleep_on(wlist, t2)
        assert len(state.notify(wlist, wake_all=True)) == 2

    def test_notify_empty_list(self):
        state = _state()
        wlist = state.create_wait_list()
        assert state.notify(wlist) == []


class TestForking:
    def test_fork_isolates_locals(self):
        state = _state()
        state.current_thread.top.locals["x"] = 1
        clone = state.fork()
        clone.current_thread.top.locals["x"] = 2
        assert state.current_thread.top.locals["x"] == 1

    def test_fork_isolates_memory(self):
        state = _state()
        obj = state.allocate(4)
        clone = state.fork()
        clone.mem_write(obj.address, 0, 0x9)
        assert state.mem_read(obj.address, 0) == 0

    def test_fork_isolates_shared_memory_between_states(self):
        state = _state()
        obj = state.allocate_shared(4)
        clone = state.fork()
        clone.mem_write(obj.address, 0, 0x9)
        assert state.mem_read(obj.address, 0) == 0

    def test_fork_isolates_constraints_and_coverage(self):
        state = _state()
        clone = state.fork()
        clone.add_constraint(E.eq(E.bv_symbol("x", 8), E.bv_const(1, 8)))
        clone.coverage.add(42)
        assert not state.path_constraints
        assert 42 not in state.coverage

    def test_fork_isolates_env(self):
        state = _modelled()
        clone = state.fork()
        clone.env.table[1] = "b"
        assert state.env.table[1] == "a"

    def test_a_fork_forks_the_model_once_and_the_original_keeps_it(self):
        state = _modelled()
        original = state.env
        clone = state.fork()
        assert state.env is original and clone.env is not original
        assert original.forks == [1]

    def test_a_three_way_fork_forks_the_model_twice_and_the_original_keeps_it(self):
        state = _modelled()
        original = state.env
        siblings = [state, state.fork(), state.fork()]
        assert original.forks == [2]
        assert siblings[0].env is original
        assert len({id(sibling.env) for sibling in siblings}) == 3
        for name, sibling in zip("xyz", siblings):  # a write forks nothing
            sibling.env.table[1] = name
        assert original.forks == [2]

    def test_no_sibling_sees_another_s_write(self):
        state = _modelled()
        siblings = [state, state.fork(), state.fork()]
        grandchild = siblings[1].fork()
        family = siblings + [grandchild]
        for name, member in zip("wxyz", family):
            member.env.table[1] = name
        assert [m.env.table[1] for m in family] == list("wxyz")

    def test_a_sibling_that_dies_unwritten_is_harmless(self):
        state = _modelled()
        dead, live = state.fork(), state.fork()
        dead.terminate(0)
        state.env.table[1] = "b"
        live.env.table[1] = "c"
        assert dead.env.table[1] == "a"
        assert [state.env.table[1], live.env.table[1]] == ["b", "c"]

    def test_a_state_without_a_model_forks_none(self):
        state = _state()
        assert state.env is None
        assert state.fork().env is None

    def test_fork_gets_fresh_state_id(self):
        state = _state()
        assert state.fork().state_id != state.state_id


class TestModelForkCount:
    """A state's fork is the model's only fork point.  Counted, never timed."""

    @staticmethod
    def _count(monkeypatch, test):
        forks = {"state": 0, "model": 0}
        copied = []
        state_fork, model_fork = ExecutionState.fork, PosixState.fork
        record_copy = posix_data._copy

        def counting_state_fork(state):
            forks["state"] += 1
            return state_fork(state)

        def counting_model_fork(posix):
            forks["model"] += 1
            return model_fork(posix)

        def counting_copy(record):
            copied.append(type(record))
            return record_copy(record)

        monkeypatch.setattr(ExecutionState, "fork", counting_state_fork)
        monkeypatch.setattr(PosixState, "fork", counting_model_fork)
        monkeypatch.setattr(posix_data, "_copy", counting_copy)
        assert test.run(backend="single").exhausted
        return forks, copied

    def test_memcached_takes_one_shell_per_state_fork(self, monkeypatch):
        forks, copied = self._count(monkeypatch, specs.resolve_test(
            "memcached-packets", num_packets=3, packet_size=4))
        assert forks == {"state": 1110, "model": 1110}
        assert copied == [StreamBuffer] * 111

    def test_printf_has_no_model_to_fork(self, monkeypatch):
        forks, copied = self._count(
            monkeypatch, specs.resolve_test("printf", format_length=2))
        assert forks["state"] > 0
        assert forks["model"] == 0 and not copied


class TestTermination:
    def test_terminate(self):
        state = _state()
        state.terminate(3)
        assert state.status == StateStatus.EXITED
        assert state.exit_code == 3
        assert not state.is_running

    def test_terminate_error(self):
        state = _state()
        state.terminate_error("report")
        assert state.status == StateStatus.ERROR
        assert state.error == "report"
