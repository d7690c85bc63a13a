"""Unit tests for execution states: processes, threads, memory, forking."""

import pytest

from repro import lang as L
from repro.engine.memory import AddressSpace, MemoryError_
from repro.engine.state import ExecutionState, StateStatus, ThreadStatus
from repro.lang.compiler import compile_program
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
        state = _state()
        state.env_for_write()["posixish"] = {"table": {1: "a"}}
        clone = state.fork()
        clone.env_for_write()["posixish"]["table"][1] = "b"
        assert state.env["posixish"]["table"][1] == "a"

    def test_fork_env_is_copy_on_write(self):
        """Forking no longer deep-copies the environment area eagerly: both
        sides share it until one writes through the env_for_write barrier."""
        state = _state()
        state.env_for_write()["posixish"] = {"table": {1: "a"}}
        clone = state.fork()
        assert clone.env is state.env  # shared until first write
        shared = state.env
        clone.env_for_write()["posixish"]["table"][1] = "b"
        assert clone.env is not shared
        assert state.env is shared  # the parent still sees the original
        assert state.env["posixish"]["table"][1] == "a"
        # The parent is now the last sharer: it writes in place.
        state.env_for_write()["posixish"]["table"][1] = "c"
        assert state.env is shared
        assert state.env["posixish"]["table"][1] == "c"
        assert clone.env["posixish"]["table"][1] == "b"

    def test_env_for_write_without_fork_is_in_place(self):
        state = _state()
        env = state.env_for_write()
        assert env is state.env
        assert state.env_for_write() is env  # no spurious copies

    def test_a_three_way_fork_copies_twice_and_the_last_sharer_keeps_it(self):
        state = _state()
        state.env_for_write()["posixish"] = {"table": {1: "a"}}
        shared = state.env
        siblings = [state, state.fork(), state.fork()]
        envs = [s.env_for_write() for s in siblings]
        assert [env is shared for env in envs] == [False, False, True]
        assert len({id(env) for env in envs}) == 3
        for sibling in siblings:  # now every one writes in place
            assert sibling.env_for_write() is sibling.env

    def test_no_sibling_sees_another_s_write(self):
        state = _state()
        state.env_for_write()["posixish"] = {"table": {1: "a"}}
        siblings = [state, state.fork(), state.fork()]
        grandchild = siblings[1].fork()
        family = siblings + [grandchild]
        for name, member in zip("wxyz", family):
            member.env_for_write()["posixish"]["table"][1] = name
        assert [m.env["posixish"]["table"][1] for m in family] == list("wxyz")

    def test_a_sibling_that_dies_unwritten_is_harmless(self):
        state = _state()
        state.env_for_write()["posixish"] = {"table": {1: "a"}}
        shared = state.env
        dead, live = state.fork(), state.fork()
        dead.terminate(0)
        # The dead sibling still counts: both writers copy, conservatively,
        # and the original is left to it untouched.
        state.env_for_write()["posixish"]["table"][1] = "b"
        live.env_for_write()["posixish"]["table"][1] = "c"
        assert state.env is not shared and live.env is not shared
        assert dead.env is shared and shared["posixish"]["table"][1] == "a"
        assert state.env["posixish"]["table"][1] == "b"

    def test_fork_gets_fresh_state_id(self):
        state = _state()
        assert state.fork().state_id != state.state_id


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
