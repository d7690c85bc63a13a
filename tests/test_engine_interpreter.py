"""Unit tests for the symbolic interpreter: forking, errors, calls, natives."""

import pytest

from repro.lang import builder as L
from repro.engine.errors import BugKind
from repro.engine.interpreter import MAX_CALL_DEPTH
from repro.engine.syscalls import MAX_MALLOC

from conftest import make_executor


def run(program, posix=False, options=None, **kwargs):
    executor = make_executor(program, posix=posix)
    if options is not None:
        kwargs["initial_state"] = executor.make_initial_state(options=options)
    return executor.run(**kwargs), executor


class TestConcreteExecution:
    def test_arithmetic_and_locals(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("a", 6),
            L.decl("b", L.mul(L.var("a"), 7)),
            L.ret(L.var("b")),
        ))
        result, _ = run(program)
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 42

    def test_concrete_branch_does_not_fork(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("x", 1),
            L.if_(L.eq(L.var("x"), 1), [L.ret(10)], [L.ret(20)]),
        ))
        result, _ = run(program)
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 10

    def test_while_loop(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("i", 0),
            L.decl("total", 0),
            L.while_(L.lt(L.var("i"), 5),
                     L.assign("total", L.add(L.var("total"), L.var("i"))),
                     L.assign("i", L.add(L.var("i"), 1))),
            L.ret(L.var("total")),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 10

    def test_function_call_and_return_value(self):
        program = L.program(
            "p",
            L.func("square", ["v"], L.ret(L.mul(L.var("v"), L.var("v")))),
            L.func("main", [], L.ret(L.call("square", 9))),
        )
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 81

    def test_recursion(self):
        program = L.program(
            "p",
            L.func("fact", ["n"],
                   L.if_(L.le(L.var("n"), 1), [L.ret(1)]),
                   L.ret(L.mul(L.var("n"), L.call("fact", L.sub(L.var("n"), 1))))),
            L.func("main", [], L.ret(L.call("fact", 5))),
        )
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 120

    def test_memory_store_and_load(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("malloc", 4)),
            L.store(L.var("buf"), 2, 0x7E),
            L.ret(L.index(L.var("buf"), 2)),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 0x7E

    def test_string_constant_access(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("s", L.strconst("AZ")),
            L.ret(L.index(L.var("s"), 1)),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == ord("Z")


class TestConstantWidth:
    """Every constant is a default-width machine integer, wherever it is used
    (only negative ones used to be masked, so ``1 << 32`` was true as a
    condition and zero as an operand)."""

    def test_constant_beyond_the_width_is_false_as_a_condition(self):
        program = L.program("p", L.func(
            "main", [],
            L.if_(L.const(1 << 32), [L.ret(7)]),
            L.ret(0),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 0

    def test_constant_beyond_the_width_is_zero_as_an_operand(self):
        program = L.program("p", L.func(
            "main", [], L.ret(L.add(L.const(1 << 32), 0))))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 0

    def test_constants_wrap_the_same_on_every_path_into_the_engine(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("big", L.const((1 << 32) + 5)),
            L.decl("minus", L.const(-1)),
            L.assert_(L.eq(L.var("big"), 5)),
            L.assert_(L.eq(L.var("minus"), 0xFFFFFFFF)),
            L.ret(L.var("big")),
        ))
        result, _ = run(program)
        assert not result.bugs
        assert result.test_cases[0].exit_code == 5


class TestDecodeOnFirstRun:
    def test_a_function_is_decoded_when_first_entered(self):
        program = L.program(
            "p",
            L.func("never", [], L.ret(L.var("undefined"))),
            L.func("square", ["v"], L.ret(L.mul(L.var("v"), L.var("v")))),
            L.func("main", [], L.ret(L.call("square", 9))),
        )
        executor = make_executor(program)
        assert executor.interpreter._code == {}
        state = executor.make_initial_state()
        executor.step(state)
        assert set(executor.interpreter._code) == {"main"}
        result = executor.run()
        assert result.test_cases[0].exit_code == 81
        assert set(executor.interpreter._code) == {"main", "square"}

    def test_instructions_and_programs_stay_plain_data(self):
        program = L.program("p", L.func("main", [], L.ret(1)))
        executor = make_executor(program)
        fields_before = {name: dict(vars(instr)) for name, fn
                         in executor.program.functions.items()
                         for instr in fn.instructions}
        executor.run()
        assert fields_before == {name: dict(vars(instr)) for name, fn
                                 in executor.program.functions.items()
                                 for instr in fn.instructions}

    def test_natives_registered_after_decoding_are_found(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), 2),
                     L.assign("i", L.add(L.var("i"), 1))),
            L.ret(L.call("late", 20)),
        ))
        executor = make_executor(program)
        state = executor.make_initial_state()
        executor.step(state)  # decodes main, the call to ``late`` included
        executor.natives.register("late", lambda ctx: ctx.arg(0) + 1)
        result = executor.run(initial_state=state)
        assert result.test_cases[0].exit_code == 21

    def test_a_state_of_another_program_is_decoded_afresh(self):
        one = L.program("one", L.func("main", [], L.ret(1)))
        two = L.program("two", L.func("main", [], L.decl("x", 2), L.ret(L.var("x"))))
        executor = make_executor(one)
        assert executor.run().test_cases[0].exit_code == 1
        other = make_executor(two).make_initial_state()
        assert executor.run(initial_state=other).test_cases[0].exit_code == 2


class TestSymbolicForking:
    def test_two_way_fork(self, single_branch):
        result, _ = run(single_branch)
        assert result.paths_completed == 2
        exit_codes = sorted(t.exit_code for t in result.test_cases)
        assert exit_codes == [0, 1]

    def test_test_cases_reproduce_paths(self, single_branch):
        result, _ = run(single_branch)
        for case in result.test_cases:
            data = case.input_bytes("input")
            if case.exit_code == 1:
                assert data == b"!"
            else:
                assert data != b"!"

    def test_exhaustive_path_count(self, branchy):
        result, _ = run(branchy)
        assert result.paths_completed == 27  # 3 choices ** 3 bytes
        assert result.exhausted

    def test_infeasible_branch_not_explored(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.decl("x", L.index(L.var("buf"), 0)),
            L.if_(L.lt(L.var("x"), 10), [
                L.if_(L.gt(L.var("x"), 20), [L.ret(99)]),  # contradiction
                L.ret(1),
            ]),
            L.ret(0),
        ))
        result, _ = run(program)
        assert result.paths_completed == 2
        assert all(t.exit_code != 99 for t in result.test_cases)

    def test_assume_constrains_inputs(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.decl("x", L.index(L.var("buf"), 0)),
            L.expr_stmt(L.call("c9_assume", L.gt(L.var("x"), 100))),
            L.if_(L.gt(L.var("x"), 100), [L.ret(1)], [L.ret(0)]),
        ))
        result, _ = run(program)
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 1


class TestBugDetection:
    def test_assert_failure_with_symbolic_condition(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("b"))),
            L.assert_(L.ne(L.index(L.var("buf"), 0), 0x42), "no B allowed"),
            L.ret(0),
        ))
        result, _ = run(program)
        assert any(b.kind == BugKind.ASSERTION_FAILURE for b in result.bugs)
        failing = [b for b in result.bugs if b.kind == BugKind.ASSERTION_FAILURE][0]
        assert failing.test_case.input_bytes("b") == b"\x42"

    def test_assert_that_always_holds(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("x", 1),
            L.assert_(L.eq(L.var("x"), 1)),
            L.ret(0),
        ))
        result, _ = run(program)
        assert not result.bugs

    def test_out_of_bounds_concrete_read(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("malloc", 2)),
            L.ret(L.index(L.var("buf"), 5)),
        ))
        result, _ = run(program)
        assert any(b.kind == BugKind.MEMORY_ERROR for b in result.bugs)

    def test_out_of_bounds_symbolic_write_forks_error_path(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("malloc", 4)),
            L.decl("idx", L.call("cloud9_symbolic_buffer", 1, L.strconst("i"))),
            L.store(L.var("buf"), L.index(L.var("idx"), 0), 1),
            L.ret(0),
        ))
        result, _ = run(program)
        kinds = {b.kind for b in result.bugs}
        assert BugKind.MEMORY_ERROR in kinds
        # The in-bounds continuation also completes.
        assert any(not t.is_error for t in result.test_cases)

    def test_invalid_free(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("malloc", 4)),
            L.expr_stmt(L.call("free", L.var("buf"))),
            L.expr_stmt(L.call("free", L.var("buf"))),
            L.ret(0),
        ))
        result, _ = run(program)
        assert any(b.kind == BugKind.INVALID_FREE for b in result.bugs)

    def test_abort_reported(self):
        program = L.program("p", L.func(
            "main", [], L.expr_stmt(L.call("abort")), L.ret(0)))
        result, _ = run(program)
        assert any(b.kind == BugKind.ABORT for b in result.bugs)

    def test_stack_overflow_detection(self):
        program = L.program(
            "p",
            L.func("loop", ["n"], L.ret(L.call("loop", L.add(L.var("n"), 1)))),
            L.func("main", [], L.ret(L.call("loop", 0))),
        )
        result, _ = run(program)
        overflows = [b for b in result.bugs if b.kind == BugKind.STACK_OVERFLOW]
        assert len(overflows) == 1
        assert "limit (%d)" % MAX_CALL_DEPTH in overflows[0].message

    def test_infinite_loop_detection(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("x", 1),
            L.while_(L.eq(L.var("x"), 1), L.assign("x", 1)),
            L.ret(0),
        ))
        result, _ = run(program, options={"max_instructions": 500})
        assert any(b.kind == BugKind.INFINITE_LOOP for b in result.bugs)


class TestNativeInterface:
    def test_unknown_native_raises_engine_error(self):
        from repro.engine.interpreter import EngineInternalError

        program = L.program("p", L.func(
            "main", [], L.ret(L.call("no_such_function"))))
        executor = make_executor(program)
        with pytest.raises(EngineInternalError):
            executor.run()

    def test_memcpy_and_strlen(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("src", L.strconst("hello")),
            L.decl("dst", L.call("malloc", 8)),
            L.expr_stmt(L.call("memcpy", L.var("dst"), L.var("src"), 6)),
            L.ret(L.call("strlen", L.var("dst"))),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 5

    def test_memset(self):
        program = L.program("p", L.func(
            "main", [],
            L.decl("buf", L.call("malloc", 4)),
            L.expr_stmt(L.call("memset", L.var("buf"), 9, 4)),
            L.ret(L.index(L.var("buf"), 3)),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 9

    def test_strcmp(self):
        program = L.program("p", L.func(
            "main", [],
            L.ret(L.call("strcmp", L.strconst("abc"), L.strconst("abc"))),
        ))
        result, _ = run(program)
        assert result.test_cases[0].exit_code == 0

    def test_max_heap_option_limits_malloc(self):
        program = L.program("p", L.func(
            "main", [],
            L.expr_stmt(L.call("cloud9_set_max_heap", 16)),
            L.decl("a", L.call("malloc", 8)),
            L.decl("b", L.call("malloc", 64)),
            L.if_(L.eq(L.var("b"), 0), [L.ret(1)]),
            L.ret(0),
        ))
        result, _ = run(program, posix=True)
        assert result.test_cases[0].exit_code == 1

    def test_calloc_is_held_to_the_max_heap(self):
        program = L.program("p", L.func(
            "main", [],
            L.expr_stmt(L.call("cloud9_set_max_heap", 16)),
            L.decl("a", L.call("malloc", 32)),
            L.decl("b", L.call("calloc", 4, 8)),
            L.ret(L.add(L.eq(L.var("a"), 0),
                        L.mul(L.eq(L.var("b"), 0), 2))),
        ))
        result, _ = run(program, posix=True)
        assert result.test_cases[0].exit_code == 3  # both NULL

    def test_calloc_is_clamped_as_malloc_is(self):
        """A large ``calloc`` builds no object past ``MAX_MALLOC`` bytes:
        the byte after them is out of bounds, as it is for ``malloc``."""
        program = L.program("p", L.func(
            "main", [],
            L.decl("b", L.call("calloc", 2, MAX_MALLOC)),
            L.ret(L.index(L.var("b"), MAX_MALLOC)),
        ))
        result, _ = run(program)
        assert [b.kind for b in result.bugs] == [BugKind.MEMORY_ERROR]

    def test_exit_terminates_state(self):
        program = L.program("p", L.func(
            "main", [],
            L.expr_stmt(L.call("exit", 7)),
            L.ret(0),
        ))
        result, _ = run(program)
        assert result.paths_completed == 1
        assert result.test_cases[0].exit_code == 7
