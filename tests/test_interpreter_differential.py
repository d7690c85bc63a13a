"""Differential oracle: the decoded interpreter does what the tree walker did.

Until instructions were decoded into closures, ``Interpreter.eval_expr``
re-walked the expression tree through an ``isinstance`` chain on every
evaluation, ``execute_instruction`` found the opcode through a chain of
``Opcode.X`` comparisons, ``concrete_binop`` was an 18-way ``if`` ladder, and
the executor ran a straight line by calling ``execute_instruction`` once per
instruction.  That code lives on here as the *reference*: a
:class:`ReferenceInterpreter` with its own ``run_line`` (the tree walker in
a loop with the executor's old stop rules) that shares only what the
decoder did not replace (feasibility, concretising, native forks,
termination helpers).  Two executors -- one per interpreter -- are stepped
in lock-step and must agree after every step on the number of children and,
per child, on status, program counter, locals, path-constraint conjuncts,
coverage and fork trace, and on the bugs and engine errors raised.  In the
second mode the decoded side steps whole straight lines and the reference
one instruction at a time, compared wherever a decoded step ends; in the
third the decoded side's budgets cycle through small primes, so a loop
head's region is entered, refused for want of room and cut at every offset
of a pass.  Every run checks that the reference executed every instruction
it was credited.

The one deliberate difference to the code that was deleted: every constant is
masked to the default width (the deleted evaluator masked only negative ones,
which is the bug ``test_engine_interpreter.TestConstantWidth`` pins).
"""

import itertools
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang import builder as L
from repro.distrib import specs
from repro.engine.errors import BugKind
from repro.engine.executor import SymbolicExecutor
from repro.engine.interpreter import (
    DivisionByZeroError,
    EngineInternalError,
    Interpreter,
)
from repro.engine.memory import AddressSpace, MemoryError_
from repro.engine.natives import (
    Block,
    ExitProcess,
    ExitState,
    NativeBug,
    NativeContext,
    NativeFork,
)
from repro.engine.state import ExecutionState, Frame, StateStatus, ThreadStatus
from repro.engine.values import (
    byte_value,
    false_condition,
    is_concrete,
    mask_concrete,
    symbolic_binop,
    to_expr,
    truth_condition,
    width_of,
)
from repro.lang.ast import (
    BinaryOp,
    BinExpr,
    CallExpr,
    Const,
    Index,
    StrConst,
    UnaryOp,
    UnExpr,
    Var,
)
from repro.lang.compiler import Opcode
from repro.solver import expr as E
from repro.solver.simplify import simplify
from repro.solver.solver import Solver, SolverConfig

from conftest import BUILTIN_SPECS, make_executor, python_calls


# -- the reference: what src/ did before instructions were decoded --------------


def reference_concrete_binop(op, a, b, width=32):
    mask = (1 << width) - 1
    a &= mask
    b &= mask
    if op == BinaryOp.ADD:
        return (a + b) & mask
    if op == BinaryOp.SUB:
        return (a - b) & mask
    if op == BinaryOp.MUL:
        return (a * b) & mask
    if op == BinaryOp.DIV:
        return mask if b == 0 else (a // b) & mask
    if op == BinaryOp.MOD:
        return a if b == 0 else (a % b) & mask
    if op == BinaryOp.AND:
        return a & b
    if op == BinaryOp.OR:
        return a | b
    if op == BinaryOp.XOR:
        return a ^ b
    if op == BinaryOp.SHL:
        return 0 if b >= width else (a << b) & mask
    if op == BinaryOp.SHR:
        return 0 if b >= width else a >> b
    if op == BinaryOp.EQ:
        return int(a == b)
    if op == BinaryOp.NE:
        return int(a != b)
    if op == BinaryOp.LT:
        return int(E.to_signed(a, width) < E.to_signed(b, width))
    if op == BinaryOp.LE:
        return int(E.to_signed(a, width) <= E.to_signed(b, width))
    if op == BinaryOp.GT:
        return int(E.to_signed(a, width) > E.to_signed(b, width))
    if op == BinaryOp.GE:
        return int(E.to_signed(a, width) >= E.to_signed(b, width))
    if op == BinaryOp.LAND:
        return int(bool(a) and bool(b))
    if op == BinaryOp.LOR:
        return int(bool(a) or bool(b))
    raise NotImplementedError("concrete_binop: unsupported operator %r" % op)


def reference_binop(op, a, b):
    if is_concrete(a) and is_concrete(b):
        return reference_concrete_binop(op, a, b)
    return simplify(symbolic_binop(op, a, b))


def reference_unop(op, value):
    if is_concrete(value):
        if op == UnaryOp.NEG:
            return mask_concrete(-value)
        if op == UnaryOp.NOT:
            return int(value == 0)
        if op == UnaryOp.BNOT:
            return mask_concrete(~value)
        raise NotImplementedError("unop: unsupported operator %r" % op)
    width = width_of(value)
    expr = to_expr(value, width)
    if op == UnaryOp.NEG:
        return simplify(E.sub(E.bv_const(0, width), expr))
    if op == UnaryOp.NOT:
        return simplify(E.ite(E.eq(expr, E.bv_const(0, width)),
                              E.bv_const(1, width), E.bv_const(0, width)))
    if op == UnaryOp.BNOT:
        return simplify(E.bnot(expr))
    raise NotImplementedError("unop: unsupported operator %r" % op)


class ReferenceInterpreter(Interpreter):
    """The tree-walking interpreter, as it was."""

    def __init__(self, *args):
        super().__init__(*args)
        self.executed = 0

    def run_line(self, state, thread, budget, default_limit):
        """The executor's old straight-line loop over ``execute_instruction``."""
        options = state.options
        current = state.current
        line, children = self.execute_instruction(state, thread)
        instructions = 1
        lines = None
        while (instructions < budget
               and len(children) == 1 and children[0] is state
               and state.status is StateStatus.RUNNING
               and state.current is current
               and thread.status is ThreadStatus.ENABLED
               and "force_reschedule" not in options):
            limit = options.get("max_instructions", default_limit)
            if limit is not None and state.instructions_executed >= int(limit):
                break
            if lines is None:
                lines = {line}
            line, children = self.execute_instruction(state, thread)
            lines.add(line)
            instructions += 1
        return line, children, instructions, lines

    def eval_expr(self, state, frame, expr):
        if isinstance(expr, Const):
            return expr.value & ((1 << 32) - 1)
        if isinstance(expr, StrConst):
            return state.string_address(expr.data)
        if isinstance(expr, Var):
            try:
                return frame.locals[expr.name]
            except KeyError:
                raise EngineInternalError(
                    "use of undefined variable %r in %s"
                    % (expr.name, frame.function)) from None
        if isinstance(expr, BinExpr):
            left = self.eval_expr(state, frame, expr.left)
            right = self.eval_expr(state, frame, expr.right)
            if expr.op in (BinaryOp.DIV, BinaryOp.MOD):
                self._check_divisor(state, right)
            return reference_binop(expr.op, left, right)
        if isinstance(expr, UnExpr):
            return reference_unop(expr.op,
                                  self.eval_expr(state, frame, expr.operand))
        if isinstance(expr, Index):
            return self._eval_load(state, frame, expr)
        if isinstance(expr, CallExpr):
            raise EngineInternalError(
                "call expression survived lowering: %r" % (expr,))
        raise EngineInternalError("unknown expression node %r" % (expr,))

    def _eval_load(self, state, frame, expr):
        base = self.eval_expr(state, frame, expr.base)
        offset = self.eval_expr(state, frame, expr.offset)
        base = self._concretize(state, base)
        obj, base_off, _ = state.resolve(base)
        if is_concrete(offset):
            return byte_value(obj.read_byte(base_off + offset))
        offset32 = to_expr(offset, 32)
        limit = E.bv_const(obj.size - base_off, 32)
        in_bounds = simplify(E.ult(offset32, limit))
        if not self._feasible(state, in_bounds):
            raise MemoryError_(
                "out-of-bounds read from %s (symbolic offset)"
                % (obj.name or hex(obj.address)), address=base)
        state.add_constraint(in_bounds)
        size = obj.size
        if size - base_off <= 64:
            result = 0
            offset_expr = to_expr(offset, 32)
            for i in range(size - base_off):
                cell = byte_value(obj.read_byte(base_off + i))
                cond = E.eq(offset_expr, E.bv_const(i, 32))
                result = simplify(E.ite(cond, to_expr(cell, 8), to_expr(result, 8)))
            return result
        concrete_offset = self._concretize(state, offset)
        return byte_value(obj.read_byte(base_off + concrete_offset))

    def execute_instruction(self, state, thread):
        frame = thread.top
        function = state.program.function(frame.function)
        if frame.pc >= len(function.instructions):
            raise EngineInternalError(
                "program counter %d out of range in %s" % (frame.pc, frame.function))
        instr = function.instructions[frame.pc]
        line = instr.line

        self.executed += 1
        state.instructions_executed += 1
        state.coverage.add(line)

        try:
            if instr.opcode == Opcode.ASSIGN:
                return line, self._ref_assign(state, frame, instr)
            if instr.opcode == Opcode.STORE:
                return line, self._ref_store(state, frame, instr)
            if instr.opcode == Opcode.BRANCH:
                return line, self._ref_branch(state, frame, instr)
            if instr.opcode == Opcode.JUMP:
                frame.pc = instr.target
                return line, [state]
            if instr.opcode == Opcode.CALL:
                return line, self._ref_call(state, thread, frame, instr)
            if instr.opcode == Opcode.RET:
                return line, self._ref_ret(state, thread, frame, instr)
            if instr.opcode == Opcode.ASSERT:
                return line, self._ref_assert(state, frame, instr)
        except MemoryError_ as exc:
            return line, [self._terminate_error(
                state, BugKind.MEMORY_ERROR, str(exc), line)]
        except DivisionByZeroError as exc:
            return line, [self._terminate_error(
                state, BugKind.DIVISION_BY_ZERO, str(exc), line)]
        except NativeBug as exc:
            return line, [self._terminate_error(state, exc.kind, exc.message, line)]
        except ExitProcess as exc:
            return line, [self._exit_process(state, exc.code)]
        except ExitState as exc:
            state.terminate(exc.code)
            return line, [state]
        raise EngineInternalError("unknown opcode %r" % (instr.opcode,))

    def _ref_assign(self, state, frame, instr):
        frame.locals[instr.dest] = self.eval_expr(state, frame, instr.expr)
        frame.pc += 1
        return [state]

    def _ref_store(self, state, frame, instr):
        base = self._concretize(state, self.eval_expr(state, frame, instr.base))
        offset = self.eval_expr(state, frame, instr.offset)
        value = byte_value(self.eval_expr(state, frame, instr.value))
        obj, base_off, _ = state.resolve(base)

        if is_concrete(offset):
            state.mem_write(base, offset, value)
            frame.pc += 1
            return [state]

        offset_expr = to_expr(offset, 32)
        limit = E.bv_const(obj.size - base_off, 32)
        oob = simplify(E.uge(offset_expr, limit))
        in_bounds = simplify(E.ult(offset_expr, limit))
        oob_feasible = self._feasible(state, oob)
        in_feasible = self._feasible(state, in_bounds)
        err_message = ("out-of-bounds write to %s (symbolic offset)"
                       % (obj.name or hex(obj.address)))
        if in_feasible and oob_feasible:
            state.forks += 1
            err_state = state.fork()
            state.add_constraint(in_bounds)
            state.fork_trace.append(0)
            concrete_offset = self._concretize(state, offset)
            state.mem_write(base, concrete_offset, value)
            frame.pc += 1
            err_state.add_constraint(oob)
            err_state.fork_trace.append(1)
            return [state, self._terminate_error(
                err_state, BugKind.MEMORY_ERROR, err_message, instr.line)]
        if in_feasible:
            state.add_constraint(in_bounds)
            concrete_offset = self._concretize(state, offset)
            state.mem_write(base, concrete_offset, value)
            frame.pc += 1
            return [state]
        if oob_feasible:
            state.add_constraint(oob)
            return [self._terminate_error(state, BugKind.MEMORY_ERROR,
                                          err_message, instr.line)]
        return [self._terminate_error(state, BugKind.MEMORY_ERROR,
                                      "store with infeasible bounds", instr.line)]

    def _ref_branch(self, state, frame, instr):
        cond_value = self.eval_expr(state, frame, instr.expr)
        if is_concrete(cond_value):
            frame.pc = instr.target if cond_value != 0 else instr.false_target
            return [state]
        true_cond = truth_condition(cond_value)
        false_cond = false_condition(cond_value)
        can_true = self._feasible(state, true_cond)
        can_false = self._feasible(state, false_cond)
        if can_true and can_false:
            state.forks += 1
            false_state = state.fork()
            state.add_constraint(true_cond)
            state.fork_trace.append(0)
            frame.pc = instr.target
            false_state.add_constraint(false_cond)
            false_state.fork_trace.append(1)
            false_state.current_thread.top.pc = instr.false_target
            return [state, false_state]
        if can_true:
            state.add_constraint(true_cond)
            frame.pc = instr.target
            return [state]
        if can_false:
            state.add_constraint(false_cond)
            frame.pc = instr.false_target
            return [state]
        state.terminate(0)
        return [state]

    def _ref_call(self, state, thread, frame, instr):
        args = [self.eval_expr(state, frame, a) for a in instr.args]
        name = instr.name
        if name in state.program.functions:
            if len(thread.stack) >= self.config.max_call_depth:
                return [self._terminate_error(
                    state, BugKind.STACK_OVERFLOW,
                    "call depth limit (%d) exceeded calling %s"
                    % (self.config.max_call_depth, name), instr.line)]
            callee = state.program.function(name)
            locals_ = {p: (args[i] if i < len(args) else 0)
                       for i, p in enumerate(callee.params)}
            frame.pc += 1
            thread.stack.append(Frame(name, 0, locals_, return_dest=instr.dest))
            return [state]

        handler = self.natives.lookup(name)
        if handler is None:
            raise EngineInternalError("call to unknown function %r" % name)
        ctx = NativeContext(self.executor, state, args, instr)
        try:
            result = handler(ctx)
        except Block as blocked:
            if blocked.wait_list is None:
                thread.status = ThreadStatus.SLEEPING
            else:
                state.sleep_on(blocked.wait_list, thread)
            state.options["force_reschedule"] = True
            return [state]
        if isinstance(result, NativeFork):
            return self._apply_native_fork(state, instr, result)
        value = 0 if result is None else result
        if instr.dest is not None:
            frame.locals[instr.dest] = value
        frame.pc += 1
        return [state]

    def _ref_ret(self, state, thread, frame, instr):
        value = (self.eval_expr(state, frame, instr.expr)
                 if instr.expr is not None else 0)
        return self._exec_ret(state, thread, frame, value)

    def _ref_assert(self, state, frame, instr):
        cond_value = self.eval_expr(state, frame, instr.expr)
        if is_concrete(cond_value) and cond_value != 0:
            frame.pc += 1
            return [state]
        return self._exec_assert(state, frame, instr, cond_value)


# -- lock-step ---------------------------------------------------------------------


def _with_reference(executor: SymbolicExecutor) -> SymbolicExecutor:
    reference = ReferenceInterpreter(executor.solver, executor.natives,
                                     executor.config)
    reference.executor = executor
    executor.interpreter = reference
    return executor


def _snapshot(state):
    """What one child looks like, without process-global ids."""
    frames = None
    if state.is_running and state.current is not None:
        frames = [(f.function, f.pc, dict(f.locals), f.return_dest)
                  for f in state.current_thread.stack]
    return (state.status, state.exit_code, state.current, frames,
            list(state.path_constraints), set(state.coverage),
            list(state.fork_trace), state.instructions_executed, state.forks,
            state.error.summary() if state.error is not None else None)


#: A decoded step's budget in whole-line mode: no cap but the path's own.
WHOLE_LINE = 1 << 62
#: The decoded side's budgets in ``cut_lines`` mode, in turn.
CUTS = (1, 2, 3, 5, 7, 11, 13)
MODES = ["one_instruction", "whole_lines", "cut_lines"]


def _step(executor, state, budget=1):
    """The step's result, or the engine error it raised."""
    try:
        return executor.step(state, budget), None
    except EngineInternalError as exc:
        return None, str(exc)


def _reference_line(reference, state, got):
    """Step the reference one instruction at a time over the line the
    decoded side ran as one step (``got``; ``None`` when that step raised).
    Every step but the last must go straight on.  Returns the last step's
    result or error, the instructions and the lines all of them ran."""
    instructions, lines = 0, set()
    while True:
        want, want_error = _step(reference, state)
        if want is None:
            return None, want_error, instructions, lines
        instructions += want.instructions
        if want.line is not None:
            lines.add(want.line)
        if got is not None and instructions >= got.instructions:
            return want, None, instructions, lines
        assert want.instructions == 1 and want.children == [state]
        assert state.is_running


def lock_step(make_executor, make_state, budget: int):
    """Explore depth-first on both interpreters at once, in every mode.
    Returns what the ``one_instruction`` mode returns: the decoded side's
    executor, the engine errors both sides raised and the bugs its steps
    found."""
    results = [_lock_step(make_executor, make_state, budget, mode)
               for mode in MODES]
    return results[0]


def _lock_step(make_executor, make_state, budget: int, mode: str):
    """``one_instruction`` steps both sides one instruction at a time;
    ``whole_lines`` steps the decoded side by whole straight lines and the
    reference by one instruction, compared at every decoded step boundary;
    ``cut_lines`` does the same with the decoded budgets ``CUTS``.
    """
    errors, bugs = [], []
    decoded = make_executor()
    reference = _with_reference(make_executor())
    assert type(decoded.interpreter) is Interpreter
    whole_lines = mode != "one_instruction"
    budgets = itertools.cycle(CUTS if mode == "cut_lines" else [WHOLE_LINE])
    # A step that raises books nothing, so a decoded line that raised
    # leaves the reference's straight-on steps before it unbooked there.
    uncredited, uncovered = 0, set()
    # The lines each side's steps ran: the executor keeps no coverage.
    covered, reference_covered = set(), set()
    stack = [(make_state(decoded), make_state(reference))]
    while stack and decoded.total_instructions < budget:
        mine, theirs = stack.pop()
        if whole_lines:
            cap = next(budgets)
            got, got_error = _step(decoded, mine, cap)
            want, want_error, instructions, lines = _reference_line(
                reference, theirs, got)
            reference_covered |= lines
            if got is not None:
                assert got.instructions == instructions <= cap
                assert (got.lines or {got.line} - {None}) == lines
                covered |= lines
            else:
                uncredited += instructions
                uncovered |= lines
        else:
            got, got_error = _step(decoded, mine)
            want, want_error = _step(reference, theirs)
        assert got_error == want_error
        if got is None:
            # The books up to and including the instruction that raised.
            assert _snapshot(mine) == _snapshot(theirs)
            errors.append(got_error)
            continue
        assert got.line == want.line
        if not whole_lines:
            assert got.instructions == want.instructions
            covered.add(got.line)
            reference_covered.add(want.line)
        assert len(got.children) == len(want.children)
        for child, expected in zip(got.children, want.children):
            assert _snapshot(child) == _snapshot(expected)
        assert ([b.summary() for b in got.bugs]
                == [b.summary() for b in want.bugs])
        bugs.extend(got.bugs)
        assert len(got.terminated) == len(want.terminated)
        pairs = [(a, b) for a, b in zip(got.children, want.children)
                 if a.is_running]
        stack.extend(reversed(pairs))
    assert (decoded.total_instructions + uncredited
            == reference.total_instructions)
    # The reference's own loop ran every instruction it was credited, and
    # the one each engine error stopped at.
    assert (reference.interpreter.executed
            == reference.total_instructions + len(errors))
    assert covered - {None} | uncovered == reference_covered - {None}
    assert decoded.solver.stats.queries == reference.solver.stats.queries
    return decoded, errors, bugs


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_every_registered_spec_steps_the_same(spec):
    test = specs.resolve_test(spec)
    executor, _, _ = lock_step(test.build_executor, test.build_initial_state,
                               2000)
    assert executor.total_instructions > 0


# -- generated programs ---------------------------------------------------------------

BINARY = [L.add, L.sub, L.mul, L.div, L.mod, L.band, L.bor, L.bxor, L.shl,
          L.shr, L.eq, L.ne, L.lt, L.le, L.gt, L.ge, L.land, L.lor]
UNARY = [L.lnot, L.neg, L.bnot]
VARIABLES = ["a", "b", "c"]
BUF = L.var("buf")      # two symbolic bytes
LIT = L.strconst("lit")  # four read-only bytes


def _often(common, rare, times=5):
    """``one_of`` draws uniformly; repeat what should be drawn often."""
    return st.one_of(*([common] * times + [rare]))


constants = st.one_of(
    st.integers(0, 4),
    st.sampled_from([-1, -7, 31, 32, 33, 255, 2**31 - 1, 2**31, 2**32 - 1, 2**32,
                     2**33 + 5]))
# ``s`` is a symbolic byte.
leaves = st.one_of(
    constants.map(L.const),
    st.sampled_from(VARIABLES + ["s", "s"]).map(L.var))


def _grow(children):
    # Offsets are mostly masked into bounds so that paths live long enough
    # to reach the other statements; the unmasked ones are the memory errors.
    offset = _often(children.map(lambda e: L.band(e, 1)), children)
    load = st.builds(L.index, st.just(BUF), offset)
    return st.one_of(
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(BINARY),
                  children, children),
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(BINARY),
                  children, children),
        st.builds(lambda op, a: op(a), st.sampled_from(UNARY), children),
        load,
        # An index whose offset is itself a load, and a constant string's byte.
        st.builds(lambda inner: L.index(BUF, L.band(inner, 1)), load),
        st.builds(lambda e: L.index(LIT, L.band(e, 3)), children),
        st.builds(L.call, st.just("helper"), children, children))


expressions = st.recursive(leaves, _grow, max_leaves=4)
store_offsets = _often(expressions.map(lambda e: L.band(e, 1)), expressions)


def _statements(depth, in_loop):
    plain = st.one_of(
        st.builds(L.assign, st.sampled_from(VARIABLES), expressions),
        st.builds(L.store, st.just(BUF), store_offsets, expressions))
    # What may end a path; ``ghost`` is never declared, so reading it is the
    # undefined-variable engine error.
    # What may end a path.  ``ghost`` is never declared: reading it is the
    # undefined-variable engine error.
    ending = [st.builds(L.assert_, expressions), st.builds(L.ret, expressions)]
    if in_loop:
        ending += [st.just(L.break_()), st.just(L.continue_())]
    else:
        ending += [expressions.map(
            lambda e: L.assign("a", L.add(e, L.var("ghost"))))]
    simple = _often(plain, st.one_of(*ending), 8)
    if depth == 0:
        return simple
    body = st.lists(_statements(depth - 1, in_loop), min_size=1, max_size=3)
    return st.one_of(
        simple,
        st.builds(L.if_, expressions, body, body),
        st.builds(L.if_, expressions, body))


def _program(body: List, loop: List):
    return L.program(
        "generated",
        L.func("helper", ["x", "y"],
               L.if_(L.lt(L.var("x"), L.var("y")), [L.ret(L.bnot(L.var("y")))]),
               L.ret(L.sub(L.var("x"), L.var("y")))),
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 2, L.strconst("in"))),
            L.decl("s", L.index(BUF, 0)),
            L.decl("a", 3), L.decl("b", 0), L.decl("c", L.const(-2)),
            L.decl("n", 0),
            L.while_(L.lt(L.var("n"), 2),
                     L.assign("n", L.add(L.var("n"), 1)),
                     *loop),
            *body,
            L.ret(L.var("a"))))


def _bounded_executor(program) -> SymbolicExecutor:
    """Generated arithmetic over symbolic bytes can be hard; a small search
    budget keeps a query cheap, and an undecided one is "feasible" on both
    sides alike."""
    return SymbolicExecutor(
        program, solver=Solver(SolverConfig(
            max_search_steps=100, max_candidates_per_symbol=16,
            propagation_rounds=1)))


programs = st.builds(
    _program,
    st.lists(_statements(2, in_loop=False), min_size=1, max_size=5),
    st.lists(_statements(2, in_loop=True), min_size=1, max_size=4))


@settings(max_examples=300)
@given(programs)
def test_generated_programs_step_the_same(program):
    lock_step(lambda: _bounded_executor(program),
              lambda executor: executor.make_initial_state(), 1500)


def test_the_error_paths_step_the_same():
    """Division by zero, both memory errors and an undefined variable occur,
    and are compared, on hand-picked programs of the generated shape."""
    kinds, errors = set(), []
    for statement in [
            L.assign("a", L.div(L.var("a"), L.var("b"))),
            L.assign("a", L.mod(L.var("a"), L.sub(L.var("s"), L.var("s")))),
            L.store(L.var("buf"), 9, 1),
            L.assign("a", L.index(L.var("buf"), L.add(L.var("s"), 2))),
            L.store(L.var("buf"), L.var("s"), 1),
            L.assign("a", L.var("ghost"))]:
        program = _program([statement], [])
        _, raised, bugs = lock_step(
            lambda program=program: _bounded_executor(program),
            lambda executor: executor.make_initial_state(), 1500)
        kinds.update(bug.kind for bug in bugs)
        errors.extend(raised)
    assert {BugKind.DIVISION_BY_ZERO, BugKind.MEMORY_ERROR} <= kinds
    assert errors == ["use of undefined variable 'ghost' in main"]


# -- values no operator produces -------------------------------------------------------

#: What the test-local native ``odd`` returns, by argument: ints a native may
#: hand back that are out of the 32-bit range, or not plain ints at all.
ODD_VALUES = [2**32, 2**32 + 5, -1, True]


def _odd(ctx):
    return ODD_VALUES[ctx.concrete_arg(0)]


def _odd_program():
    """Every operator over every pair of odd values and constants, as
    assignments and as branch conditions; the locals compared after every
    step hold each result."""
    names = ["x%d" % k for k in range(len(ODD_VALUES))]
    operands = [L.var(name) for name in names] + [L.const(5), L.const(-1)]
    body = [L.decl(name, L.call("odd", k)) for k, name in enumerate(names)]
    body.append(L.decl("r", 0))
    body.append(L.decl("hits", 0))
    for op in BINARY:
        for a in operands:
            for b in operands:
                body.append(L.assign("r", op(a, b)))
                body.append(L.if_(op(a, b), [L.assign(
                    "hits", L.add(L.var("hits"), 1))]))
    for op in UNARY:
        for a in operands:
            body.append(L.assign("r", op(a)))
            body.append(L.if_(op(a), [L.assign(
                "hits", L.add(L.var("hits"), 1))]))
    for name in names:
        body.append(L.assign("r", L.var(name)))
        body.append(L.if_(L.var(name), [L.assign(
            "hits", L.add(L.var("hits"), 1))]))
    body.append(L.ret(L.var("hits")))
    return L.program("odd_values", L.func("main", [], *body))


def test_out_of_range_native_values_step_the_same():
    """A local that is not an ``int`` in range leaves its region for the
    handler, which masks a binary operand and leaves a unary one raw exactly
    as the reference does (``!x`` of ``2**32`` is 0)."""
    program = _odd_program()

    def make_executor():
        executor = SymbolicExecutor(program)
        executor.natives.register("odd", _odd)
        return executor

    executor, errors, bugs = lock_step(
        make_executor, lambda executor: executor.make_initial_state(), 10**6)
    assert not errors and not bugs
    assert executor.total_instructions > 2 * len(BINARY) * 36


# -- booking in the middle of a straight line ------------------------------------------
#
# A region leaves the instructions and lines it ran to be written to the
# state later; whatever reads the books mid-line must still see every
# instruction the reference booked one at a time.


def _executed(ctx):
    return ctx.state.instructions_executed


def _covered(ctx):
    """The covered lines as one number: bit ``k`` set for line ``k``."""
    return sum(1 << line for line in ctx.state.coverage)


#: What sits in the middle of a straight line, by case.
MID_LINE = {
    # Natives that read the books (their values land in the locals).
    "native": [L.decl("n", L.call("executed")),
               L.decl("lines", L.call("covered")),
               L.assign("a", L.add(L.var("n"), L.var("a"))),
               L.decl("m", L.call("executed"))],
    # A generated load whose concrete offset is out of bounds.
    "faulting_load": [L.assign("a", L.index(BUF, L.add(L.var("a"), 9)))],
    # A generated branch on a symbolic byte: its closure forks.
    "forking_fallback": [L.decl("s", L.index(BUF, 0)),
                         L.if_(L.eq(L.var("s"), 7),
                               [L.assign("b", L.add(L.var("b"), 5))])],
}


def _mid_line_executor(case):
    program = L.program("mid_line", L.func(
        "main", [],
        L.decl("buf", L.call("cloud9_symbolic_buffer", 2, L.strconst("in"))),
        L.decl("a", 3), L.decl("b", L.add(L.var("a"), 1)),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), 2), L.assign("i", L.add(L.var("i"), 1))),
        *MID_LINE[case],
        L.assign("b", L.mul(L.var("b"), L.var("a"))),
        L.ret(L.var("b"))))
    executor = SymbolicExecutor(program)
    executor.natives.register("executed", _executed)
    executor.natives.register("covered", _covered)
    return executor


@pytest.mark.parametrize("case", sorted(MID_LINE))
def test_the_books_are_written_before_anything_reads_them(case):
    """Each case agrees with the one-instruction reference, and it runs
    inside the first straight line the decoded side steps."""
    _, errors, bugs = lock_step(lambda: _mid_line_executor(case),
                                lambda executor: executor.make_initial_state(),
                                10**4)
    assert not errors
    executor = _mid_line_executor(case)
    state = executor.make_initial_state()
    line = executor.step(state, WHOLE_LINE)
    while line.instructions == 0:  # the first scheduling decision
        line = executor.step(state, WHOLE_LINE)
    assert line.instructions > 10 and line.children[0] is state
    if case == "native":
        assert line.children == [state] and state.exit_code != 0
    elif case == "faulting_load":
        assert [bug.kind for bug in bugs] == [BugKind.MEMORY_ERROR]
        assert line.children == [state]
        assert state.error.kind is BugKind.MEMORY_ERROR
        pc = state.current_thread.top.pc
        _, _, region = executor.interpreter._code["main"][pc]
        assert region.__code__.co_filename == "<generated region>"
    else:
        assert len(line.children) == 2
        assert line.children[1].instructions_executed == state.instructions_executed


# -- concrete stores --------------------------------------------------------------------
#
# A store at a concrete offset writes through the object its base resolved
# to: in place when the object is shared, through the address space's own
# copy otherwise.

P = L.var("p")
#: Each program, with what its paths end in: the exit codes of the paths
#: that end normally and the messages of the bugs.
STORES = {
    "interior_pointer": ([
        L.decl("p", L.call("malloc", 4)),
        L.store(L.add(P, 1), 2, 9),
        L.ret(L.index(P, 3))], [9], []),
    # The sibling state shares the object until one of them writes.
    "cow_after_fork": ([
        L.decl("p", L.call("malloc", 1)),
        L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("in"))),
        L.if_(L.eq(L.index(BUF, 0), 7), [L.store(P, 0, 5)]),
        L.ret(L.index(P, 0))], [0, 5], []),
    # The child's store reaches the parent only through the shared object.
    "shared": ([
        L.decl("p", L.call("malloc", 2)),
        L.expr_stmt(L.call("cloud9_make_shared", P)),
        L.decl("child", L.call("fork")),
        L.if_(L.eq(L.var("child"), 0),
              [L.store(P, 1, 4), L.expr_stmt(L.call("exit", 0))]),
        L.expr_stmt(L.call("waitpid", L.var("child"), 0, 0)),
        L.ret(L.index(P, 1))], [4], []),
    "out_of_bounds": ([
        L.decl("p", L.call("malloc", 2)),
        L.store(L.add(P, 1), 1, 1)], [],
        ["out-of-bounds write at heap+2 (size 2)"]),
    "read_only_mapping": ([
        # mmap(NULL, 4, PROT_READ, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
        L.decl("p", L.call("mmap", 0, 4, 1, 0x22, L.const(-1), 0)),
        L.store(P, 0, 1)], [], ["write to read-only object mmap"]),
}


def _store_executor(case) -> SymbolicExecutor:
    body, _, _ = STORES[case]
    return make_executor(L.program("store", L.func("main", [], *body)),
                         posix=True)


def _stores_step_the_same(build, exit_codes, messages):
    """Lock-step ``build()``'s program against the reference, then check what
    its paths end in."""
    _, errors, _ = lock_step(build,
                             lambda executor: executor.make_initial_state(),
                             10**4)
    assert not errors
    result = build().run()
    assert sorted(t.exit_code for t in result.test_cases
                  if not t.is_error) == exit_codes
    assert [bug.message for bug in result.bugs] == messages


@pytest.mark.parametrize("case", sorted(STORES))
def test_concrete_stores_step_the_same(case):
    _, exit_codes, messages = STORES[case]
    _stores_step_the_same(lambda: _store_executor(case), exit_codes, messages)


def test_a_concrete_store_resolves_its_address_once():
    program = L.program("stores", L.func(
        "main", [],
        L.decl("p", L.call("malloc", 8)),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), 8),
                 L.store(P, L.var("i"), L.var("i")),
                 L.assign("i", L.add(L.var("i"), 1))),
        L.ret(L.index(P, 7))))
    executor = SymbolicExecutor(program)
    with python_calls(by_code=True) as calls:
        result = executor.run()
    assert [t.exit_code for t in result.test_cases] == [7]
    assert calls[AddressSpace.resolve.__code__] == 8


# -- symbolic stores --------------------------------------------------------------------
#
# A store at a symbolic offset writes through the object its base resolved
# to, like a concrete one.  When out of bounds is feasible too, the error
# state is forked off before the write and must keep the memory from before
# it: private objects are shared copy-on-write, shared ones copied.

def _symbolic_store_program(size: int, shared: bool):
    """``p[i] = 9`` into a ``size``-byte object, ``i`` a symbolic byte."""
    return L.program("store", L.func(
        "main", [],
        L.decl("p", L.call("malloc", size)),
        *([L.expr_stmt(L.call("cloud9_make_shared", P))] if shared else []),
        L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("in"))),
        L.decl("i", L.index(BUF, 0)),
        L.store(P, L.var("i"), 9),
        L.ret(L.index(P, 0))))


SYMBOLIC_STORES = {
    # (object size, shared): the exit codes of the paths that end normally
    # and the messages of the bugs.
    "in_bounds": ((256, False), [9], []),
    "in_bounds_shared": ((256, True), [9], []),
    "forking": ((4, False), [9],
                ["out-of-bounds write to heap (symbolic offset)"]),
    "forking_shared": ((4, True), [9],
                       ["out-of-bounds write to heap (symbolic offset)"]),
}


def _symbolic_store_executor(case) -> SymbolicExecutor:
    (size, shared), _, _ = SYMBOLIC_STORES[case]
    return make_executor(_symbolic_store_program(size, shared), posix=True)


@pytest.mark.parametrize("case", sorted(SYMBOLIC_STORES))
def test_symbolic_stores_step_the_same(case):
    _, exit_codes, messages = SYMBOLIC_STORES[case]
    _stores_step_the_same(lambda: _symbolic_store_executor(case), exit_codes,
                          messages)


def _step_the_store(executor):
    """Step a fresh state up to the store, then the store alone.  Returns
    the store's children, what each reads at ``p``, and the calls the store
    made."""
    state = executor.make_initial_state()
    main = state.program.function("main")
    while main.instructions[state.current_thread.top.pc].opcode is not Opcode.STORE:
        [state] = executor.step(state).children
    p = state.current_thread.top.locals["p"]
    with python_calls(by_code=True) as calls:
        children = executor.step(state).children
    size = state.resolve(p)[0].size
    return children, [[c.mem_read(p, k) for k in range(size)]
                      for c in children], calls


@pytest.mark.parametrize("case", sorted(SYMBOLIC_STORES))
def test_a_symbolic_store_resolves_its_address_once(case):
    (size, shared), _, _ = SYMBOLIC_STORES[case]
    children, memory, calls = _step_the_store(_symbolic_store_executor(case))
    assert len(children) == (2 if size == 4 else 1)
    assert calls[ExecutionState.resolve.__code__] == 1
    assert calls[AddressSpace.resolve.__code__] == (0 if shared else 1)
    assert memory[0].count(9) == 1


@pytest.mark.parametrize("shared", [False, True])
def test_the_out_of_bounds_child_does_not_see_the_write(shared):
    case = "forking_shared" if shared else "forking"
    got, got_memory, _ = _step_the_store(_symbolic_store_executor(case))
    want, want_memory, _ = _step_the_store(
        _with_reference(_symbolic_store_executor(case)))
    assert [_snapshot(c) for c in got] == [_snapshot(c) for c in want]
    assert got_memory == want_memory
    in_bounds, out_of_bounds = got_memory
    assert in_bounds.count(9) == 1 and out_of_bounds == [0, 0, 0, 0]
    assert got[1].status is StateStatus.ERROR


# -- regions: a loop pass cut short ----------------------------------------------------
#
# A loop head's region runs whole passes of the loop in one call and leaves
# before an instruction it cannot run concretely, which the per-instruction
# path then runs again.  Each loop below turns at iteration ``K``, inside a
# region's pass; a region that books one instruction too many, or runs one
# past its room, fails the lock-step.

K = 3
I = L.var("i")


def _region_program(size, prelude, loop):
    """``p``: ``size`` bytes 1, 2, ...; then ``prelude``, and ``loop`` as
    the body of ``while (i < 8) { ...; i += 1; }``."""
    return L.program("region", L.func(
        "main", [],
        L.decl("p", L.call("malloc", size)),
        L.decl("sym", L.call("cloud9_symbolic_buffer", 1, L.strconst("in"))),
        L.decl("j", 0),
        L.while_(L.lt(L.var("j"), size),
                 L.store(P, L.var("j"), L.add(L.var("j"), 1)),
                 L.assign("j", L.add(L.var("j"), 1))),
        *prelude,
        L.decl("a", 0),
        L.decl("i", 0),
        L.while_(L.lt(I, 8), *loop, L.assign("i", L.add(I, 1))),
        L.ret(L.var("a"))))


ADD_A_BYTE = L.assign("a", L.add(L.var("a"), L.index(P, I)))
#: Each loop by case: its size, prelude and body.
REGION_LOOPS = {
    # ``p[K]`` is symbolic: the load there forks on the branch.
    "symbolic_load": (8, [L.store(P, K, L.index(L.var("sym"), 0))],
                      [L.if_(L.eq(L.index(P, I), 0), [L.break_()]),
                       ADD_A_BYTE]),
    # ``p`` ends at ``K``: the load there is the memory error.
    "out_of_bounds": (K, [], [ADD_A_BYTE]),
    # Only iteration ``K`` reads ``ghost``, which is never declared.
    "undefined": (8, [], [L.if_(L.eq(I, K), [L.assign(
        "a", L.add(L.var("a"), L.var("ghost")))]), ADD_A_BYTE]),
    # Run to its end, and with every path limit that stops it short.
    "path_limit": (8, [], [ADD_A_BYTE]),
}


def _region_lock_step(case, limit=None):
    size, prelude, loop = REGION_LOOPS[case]
    program = _region_program(size, prelude, loop)
    options = None if limit is None else {"max_instructions": limit}
    return lock_step(lambda: make_executor(program),
                     lambda executor: executor.make_initial_state(options),
                     10**4)


@pytest.mark.parametrize("case", sorted(REGION_LOOPS))
def test_a_region_cut_short_steps_the_same(case):
    with python_calls() as calls:
        executor, errors, bugs = _region_lock_step(case)
    assert calls["<generated region>"] > 0
    if case == "symbolic_load":
        assert not errors and not bugs
        size, prelude, loop = REGION_LOOPS[case]
        result = make_executor(_region_program(size, prelude, loop)).run()
        # One path breaks at ``K``, one sums on past it.
        exit_codes = sorted(t.exit_code for t in result.test_cases)
        assert len(exit_codes) == 2 and exit_codes[0] == 1 + 2 + 3
    elif case == "out_of_bounds":
        assert not errors
        [load] = [instr.line for instr in
                  executor.program.function("main").instructions
                  if instr.opcode is Opcode.ASSIGN and instr.dest == "a"
                  and isinstance(instr.expr, BinExpr)]
        assert [(bug.kind, bug.line) for bug in bugs] == [
            (BugKind.MEMORY_ERROR, load)]
    elif case == "undefined":
        assert errors == ["use of undefined variable 'ghost' in main"]
    else:
        assert not errors and not bugs
        whole = executor.total_instructions
        for limit in range(1, whole):
            executor, errors, bugs = _region_lock_step(case, limit)
            assert not errors
            assert [(bug.kind, executor.total_instructions)
                    for bug in bugs] == [(BugKind.INFINITE_LOOP, limit)]
