"""Unit tests for the program-under-test language: builder and compiler."""

import pytest

from repro.lang import builder as L
from repro.lang.ast import BinaryOp, Const, StrConst, Var
from repro.lang.compiler import CompileError, Opcode, compile_program


class TestBuilder:
    def test_integer_coercion(self):
        expr = L.add(1, 2)
        assert isinstance(expr.left, Const) and expr.left.value == 1

    def test_string_coercion(self):
        expr = L.eq(L.var("x"), "A")
        assert isinstance(expr.right, StrConst)
        assert expr.right.data == b"A"

    def test_statement_flattening(self):
        fn = L.func("f", [], [L.decl("a", 1), L.decl("b", 2)], L.ret(0))
        assert len(fn.body) == 3

    def test_bad_expression_coercion(self):
        with pytest.raises(TypeError):
            L.add(1.5, 2)

    def test_duplicate_function_names_rejected(self):
        f = L.func("f", [], L.ret(0))
        with pytest.raises(ValueError):
            L.program("p", f, f, entry="f")

    def test_duplicate_params_rejected(self):
        with pytest.raises(ValueError):
            L.func("f", ["a", "a"], L.ret(0))

    def test_missing_entry_rejected(self):
        f = L.func("f", [], L.ret(0))
        with pytest.raises(ValueError):
            L.program("p", f)  # entry defaults to "main"

    def test_operator_helpers_produce_expected_ops(self):
        assert L.band(1, 2).op == BinaryOp.AND
        assert L.lor(1, 2).op == BinaryOp.LOR
        assert L.shr(1, 2).op == BinaryOp.SHR
        assert L.mod(1, 2).op == BinaryOp.MOD


class TestCompiler:
    def _compile_main(self, *body):
        return compile_program(L.program("p", L.func("main", [], *body)))

    def test_every_function_ends_with_ret(self):
        compiled = self._compile_main(L.decl("x", 1))
        assert compiled.function("main").instructions[-1].opcode == Opcode.RET

    def test_if_branch_targets(self):
        compiled = self._compile_main(
            L.decl("x", 1),
            L.if_(L.eq(L.var("x"), 1), [L.assign("x", 2)], [L.assign("x", 3)]),
            L.ret(L.var("x")),
        )
        instructions = compiled.function("main").instructions
        branches = [i for i in instructions if i.opcode == Opcode.BRANCH]
        assert len(branches) == 1
        branch = branches[0]
        assert branch.target is not None and branch.false_target is not None
        assert branch.target != branch.false_target

    def test_while_produces_back_edge(self):
        compiled = self._compile_main(
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), 3),
                     L.assign("i", L.add(L.var("i"), 1))),
            L.ret(L.var("i")),
        )
        instructions = compiled.function("main").instructions
        jumps = [i for i in instructions if i.opcode == Opcode.JUMP]
        assert any(j.target is not None and j.target < instructions.index(j)
                   for j in jumps)

    def test_break_targets_loop_exit(self):
        compiled = self._compile_main(
            L.while_(1, L.break_()),
            L.ret(7),
        )
        instructions = compiled.function("main").instructions
        branch = next(i for i in instructions if i.opcode == Opcode.BRANCH)
        break_jump = next(i for i in instructions
                          if i.opcode == Opcode.JUMP and i.target == branch.false_target)
        assert break_jump is not None

    def test_break_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            self._compile_main(L.break_())

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(CompileError):
            self._compile_main(L.continue_())

    def test_call_in_expression_is_hoisted(self):
        program = L.program(
            "p",
            L.func("helper", ["v"], L.ret(L.add(L.var("v"), 1))),
            L.func("main", [],
                   L.decl("x", L.add(L.call("helper", 1), L.call("helper", 2))),
                   L.ret(L.var("x"))),
        )
        compiled = compile_program(program)
        calls = [i for i in compiled.function("main").instructions
                 if i.opcode == Opcode.CALL]
        assert len(calls) == 2
        assert all(c.dest.startswith("%t") for c in calls)

    def test_string_constants_interned_once(self):
        compiled = self._compile_main(
            L.decl("a", L.strconst("hello")),
            L.decl("b", L.strconst("hello")),
            L.ret(0),
        )
        assert list(compiled.data) == [b"hello"]

    def test_line_numbers_unique_per_statement(self):
        compiled = self._compile_main(
            L.decl("a", 1), L.decl("b", 2), L.ret(0))
        lines = [i.line for i in compiled.function("main").instructions]
        # Three statements plus the implicit return -> at least 4 lines.
        assert len(set(lines)) >= 4

    def test_total_instruction_count(self):
        compiled = self._compile_main(L.decl("a", 1), L.ret(L.var("a")))
        assert compiled.total_instructions == len(compiled.function("main").instructions)


class TestAnalysis:
    def _program(self):
        return compile_program(L.program(
            "p",
            L.func("leaf", ["v"], L.ret(L.var("v"))),
            L.func("middle", ["v"], L.ret(L.call("leaf", L.var("v")))),
            L.func("unused", [], L.ret(L.call("native_thing"))),
            L.func("main", [], L.ret(L.call("middle", 1))),
        ))

    def test_lines_of_function_partition(self):
        compiled = self._program()
        lines_main = {i.line for i in compiled.function("main").instructions}
        lines_leaf = {i.line for i in compiled.function("leaf").instructions}
        assert lines_main.isdisjoint(lines_leaf)
