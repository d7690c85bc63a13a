"""Tests for the engine's division-by-zero detector."""

from repro import lang as L
from repro.engine import BugKind
from repro.testing import SymbolicTest


def run_program(*main_body, posix=False):
    program = L.program("p", L.func("main", [], *main_body))
    return SymbolicTest("t", program, use_posix_model=posix).run()


class TestDivisionByZero:
    def test_concrete_zero_divisor_is_a_bug(self):
        result = run_program(
            L.decl("x", 0),
            L.ret(L.div(10, L.var("x"))),
        )
        assert any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)

    def test_concrete_zero_modulus_is_a_bug(self):
        result = run_program(
            L.decl("x", 0),
            L.ret(L.mod(10, L.var("x"))),
        )
        assert any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)

    def test_nonzero_divisor_is_fine(self):
        result = run_program(L.ret(L.div(10, 2)))
        assert not result.bugs
        assert result.test_cases[0].exit_code == 5

    def test_symbolic_divisor_constrained_to_zero_is_a_bug(self):
        result = run_program(
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("d"))),
            L.decl("d", L.index(L.var("buf"), 0)),
            L.if_(L.eq(L.var("d"), 0), [
                # On this branch the divisor is pinned to zero by the path
                # constraint even though it is still a symbolic expression.
                L.ret(L.div(100, L.var("d"))),
            ]),
            L.ret(0),
        )
        assert any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)

    def test_symbolic_divisor_that_may_be_nonzero_divides(self):
        result = run_program(
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("d"))),
            L.decl("d", L.index(L.var("buf"), 0)),
            L.if_(L.gt(L.var("d"), 0), [L.ret(L.div(100, L.var("d")))]),
            L.ret(0),
        )
        assert not any(b.kind == BugKind.DIVISION_BY_ZERO for b in result.bugs)
        assert result.paths_completed >= 2

    def test_division_bug_produces_reproducing_test_case(self):
        result = run_program(
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("d"))),
            L.decl("d", L.index(L.var("buf"), 0)),
            L.if_(L.eq(L.var("d"), 0), [L.ret(L.div(100, L.var("d")))]),
            L.ret(1),
        )
        bugs = [b for b in result.bugs if b.kind == BugKind.DIVISION_BY_ZERO]
        assert bugs and bugs[0].test_case is not None
        assert bugs[0].test_case.inputs["d"] == b"\x00"
