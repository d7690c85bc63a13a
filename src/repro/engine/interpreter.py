"""Instruction interpretation with symbolic forking.

The interpreter executes exactly one instruction of one state per call and
returns the ordered list of resulting states: one state for straight-line
execution, several when the instruction forks (symbolic branch, fault
injection fork, out-of-bounds possibility, schedule fork handled by the
executor).  The order of the returned list is deterministic; the cluster
layer relies on this to encode jobs as fork-index paths and to replay them on
other workers.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.memory import MemoryError_
from repro.engine.natives import (
    Block,
    ExitProcess,
    ExitState,
    NativeBug,
    NativeContext,
    NativeFork,
    NativeRegistry,
)
from repro.engine.state import (
    ExecutionState,
    Frame,
    Thread,
    ThreadStatus,
)
from repro.engine.values import (
    Value,
    binop,
    byte_value,
    false_condition,
    is_concrete,
    to_expr,
    truth_condition,
    unop,
)
from repro.lang.ast import (
    BinaryOp,
    BinExpr,
    CallExpr,
    Const,
    Index,
    StrConst,
    UnExpr,
    Var,
)
from repro.lang.compiler import Instruction, Opcode
from repro.solver import expr as E
from repro.solver.simplify import simplify
from repro.solver.solver import Solver


class EngineInternalError(Exception):
    """A malformed program or an engine invariant violation (not a target bug)."""


class DivisionByZeroError(Exception):
    """The program divided (or took a remainder) by a divisor that is zero.

    Raised during expression evaluation and converted by
    :meth:`Interpreter.execute_instruction` into a ``DIVISION_BY_ZERO`` bug
    report, the same way KLEE turns a zero divisor into a test case.
    """


class Interpreter:
    """Executes instructions of compiled programs over execution states."""

    def __init__(self, solver: Solver, natives: NativeRegistry,
                 config: EngineConfig):
        self.solver = solver
        self.natives = natives
        self.config = config
        # Back-reference installed by the executor (native handlers need it).
        self.executor = None

    # -- expression evaluation ----------------------------------------------------

    def eval_expr(self, state: ExecutionState, frame: Frame, expr) -> Value:
        """Evaluate a call-free expression to a concrete or symbolic value."""
        if isinstance(expr, Const):
            return expr.value & ((1 << 32) - 1) if expr.value < 0 else expr.value
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
            return binop(expr.op, left, right)
        if isinstance(expr, UnExpr):
            return unop(expr.op, self.eval_expr(state, frame, expr.operand))
        if isinstance(expr, Index):
            return self._eval_load(state, frame, expr)
        if isinstance(expr, CallExpr):
            raise EngineInternalError(
                "call expression survived lowering: %r" % (expr,))
        raise EngineInternalError("unknown expression node %r" % (expr,))

    def _eval_load(self, state: ExecutionState, frame: Frame, expr: Index) -> Value:
        base = self.eval_expr(state, frame, expr.base)
        offset = self.eval_expr(state, frame, expr.offset)
        base = self._concretize(state, base)
        obj, base_off, _ = state.resolve(base)

        if is_concrete(offset):
            return byte_value(obj.read_byte(base_off + offset))

        # Symbolic offset: constrain it in bounds (an offset that can only be
        # out of bounds is a definite memory error).  In-bounds accesses are
        # summarized with an ITE chain when the object is small, otherwise
        # the offset is concretized.
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
            result: Value = 0
            offset_expr = to_expr(offset, 32)
            for i in range(size - base_off):
                cell = byte_value(obj.read_byte(base_off + i))
                cond = E.eq(offset_expr, E.bv_const(i, 32))
                result = simplify(E.ite(cond, to_expr(cell, 8), to_expr(result, 8)))
            return result
        concrete_offset = self._concretize(state, offset)
        return byte_value(obj.read_byte(base_off + concrete_offset))

    def _check_divisor(self, state: ExecutionState, divisor: Value) -> None:
        """Flag divisions whose divisor is (or must be) zero on this path.

        A concrete zero divisor is a definite bug.  A symbolic divisor is a
        bug when the path constraint forces it to zero; when it merely *may*
        be zero the division goes through with KLEE's unsigned semantics (the
        zero case surfaces once a branch pins the divisor down).
        """
        if is_concrete(divisor):
            if divisor == 0:
                raise DivisionByZeroError("division by zero")
            return
        nonzero = simplify(E.ne(to_expr(divisor, divisor.width),
                                E.bv_const(0, divisor.width)))
        if not self._feasible(state, nonzero):
            raise DivisionByZeroError("division by a divisor constrained to zero")

    def _concretize(self, state: ExecutionState, value: Value) -> int:
        if is_concrete(value):
            return value
        model = self.solver.get_model(state.path_constraints)
        concrete = int(model.evaluate(value)) if model is not None else 0
        state.add_constraint(E.eq(to_expr(value, value.width),
                                  E.bv_const(concrete, value.width)))
        return concrete

    # -- feasibility ----------------------------------------------------------------

    def _feasible(self, state: ExecutionState, condition) -> bool:
        return self.solver.is_satisfiable(
            state.path_constraints.extended(condition))

    # -- instruction execution ---------------------------------------------------------

    def execute_instruction(self, state: ExecutionState) -> List[ExecutionState]:
        """Execute one instruction of the state's current thread.

        Returns the ordered list of resulting states (the input state is
        always included, possibly terminated).  All bookkeeping (coverage,
        instruction counters) is applied to every resulting state.
        """
        thread = state.current_thread
        frame = thread.top
        function = state.program.function(frame.function)
        if frame.pc >= len(function.instructions):
            raise EngineInternalError(
                "program counter %d out of range in %s" % (frame.pc, frame.function))
        instr = function.instructions[frame.pc]

        state.instructions_executed += 1
        state.coverage.add(instr.line)
        state.depth += 1

        try:
            if instr.opcode == Opcode.ASSIGN:
                return self._exec_assign(state, frame, instr)
            if instr.opcode == Opcode.STORE:
                return self._exec_store(state, frame, instr)
            if instr.opcode == Opcode.BRANCH:
                return self._exec_branch(state, frame, instr)
            if instr.opcode == Opcode.JUMP:
                frame.pc = instr.target
                return [state]
            if instr.opcode == Opcode.CALL:
                return self._exec_call(state, thread, frame, instr)
            if instr.opcode == Opcode.RET:
                return self._exec_ret(state, thread, frame, instr)
            if instr.opcode == Opcode.ASSERT:
                return self._exec_assert(state, frame, instr)
        except MemoryError_ as exc:
            return [self._terminate_error(state, BugKind.MEMORY_ERROR, str(exc), instr)]
        except DivisionByZeroError as exc:
            return [self._terminate_error(state, BugKind.DIVISION_BY_ZERO,
                                          str(exc), instr)]
        except NativeBug as exc:
            return [self._terminate_error(state, exc.kind, exc.message, instr)]
        except ExitProcess as exc:
            return [self._exit_process(state, exc.code)]
        except ExitState as exc:
            state.terminate(exc.code)
            return [state]
        raise EngineInternalError("unknown opcode %r" % (instr.opcode,))

    # -- opcode handlers ------------------------------------------------------------------

    def _exec_assign(self, state: ExecutionState, frame: Frame,
                     instr: Instruction) -> List[ExecutionState]:
        frame.locals[instr.dest] = self.eval_expr(state, frame, instr.expr)
        frame.pc += 1
        return [state]

    def _exec_store(self, state: ExecutionState, frame: Frame,
                    instr: Instruction) -> List[ExecutionState]:
        base = self._concretize(state, self.eval_expr(state, frame, instr.base))
        offset = self.eval_expr(state, frame, instr.offset)
        value = byte_value(self.eval_expr(state, frame, instr.value))
        obj, base_off, is_shared = state.resolve(base)

        if is_concrete(offset):
            self._store_byte(state, base, offset, value)
            frame.pc += 1
            return [state]

        # Symbolic offset: fork an error state if out-of-bounds is feasible.
        successors: List[ExecutionState] = []
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
            # In-bounds continuation (fork index 0).
            state.add_constraint(in_bounds)
            state.fork_trace.append(0)
            concrete_offset = self._concretize(state, offset)
            self._store_byte(state, base, concrete_offset, value)
            frame.pc += 1
            successors.append(state)
            # Out-of-bounds error path (fork index 1).
            err_state.add_constraint(oob)
            err_state.fork_trace.append(1)
            successors.append(self._terminate_error(
                err_state, BugKind.MEMORY_ERROR, err_message, instr))
            return successors
        if in_feasible:
            state.add_constraint(in_bounds)
            concrete_offset = self._concretize(state, offset)
            self._store_byte(state, base, concrete_offset, value)
            frame.pc += 1
            return [state]
        if oob_feasible:
            state.add_constraint(oob)
            return [self._terminate_error(state, BugKind.MEMORY_ERROR,
                                          err_message, instr)]
        return [self._terminate_error(state, BugKind.MEMORY_ERROR,
                                      "store with infeasible bounds", instr)]

    def _store_byte(self, state: ExecutionState, base: int, offset: int,
                    value: Value) -> None:
        state.mem_write(base, offset, value)

    def _exec_branch(self, state: ExecutionState, frame: Frame,
                     instr: Instruction) -> List[ExecutionState]:
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
            # True branch continues in the original state (fork index 0).
            state.add_constraint(true_cond)
            state.fork_trace.append(0)
            frame.pc = instr.target
            # False branch in the clone (fork index 1).
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
        # Neither side feasible: the path constraint itself became
        # unsatisfiable (possible only after an "unknown" solver verdict).
        state.terminate(0)
        return [state]

    def _exec_call(self, state: ExecutionState, thread: Thread, frame: Frame,
                   instr: Instruction) -> List[ExecutionState]:
        args = [self.eval_expr(state, frame, a) for a in instr.args]
        name = instr.name

        if name in state.program.functions:
            if len(thread.stack) >= self.config.max_call_depth:
                return [self._terminate_error(
                    state, BugKind.STACK_OVERFLOW,
                    "call depth limit (%d) exceeded calling %s"
                    % (self.config.max_call_depth, name), instr)]
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
            # Sleep and retry: the pc is left pointing at the CALL, so the
            # call re-executes when the thread is woken.
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

    def _apply_native_fork(self, state: ExecutionState, instr: Instruction,
                           fork: NativeFork) -> List[ExecutionState]:
        feasible: List[Tuple[int, object]] = []
        for branch in fork.branches:
            if branch.condition is None or self._feasible(state, branch.condition):
                feasible.append(branch)
        if not feasible:
            state.terminate(0)
            return [state]

        multi = len(feasible) > 1
        if multi:
            state.forks += 1
        # Clone all successors from the unmodified state first; applying a
        # branch mutates its successor, which must not leak into the others.
        successors: List[ExecutionState] = [
            state if index == 0 else state.fork()
            for index in range(len(feasible))
        ]
        for index, (branch, succ) in enumerate(zip(feasible, successors)):
            if branch.condition is not None:
                succ.add_constraint(branch.condition)
            if multi:
                succ.fork_trace.append(index)
            if branch.side_effect is not None:
                branch.side_effect(succ)
            succ_frame = succ.current_thread.top
            if instr.dest is not None:
                succ_frame.locals[instr.dest] = branch.return_value
            succ_frame.pc += 1
        return successors

    def _exec_ret(self, state: ExecutionState, thread: Thread, frame: Frame,
                  instr: Instruction) -> List[ExecutionState]:
        value = self.eval_expr(state, frame, instr.expr) if instr.expr is not None else 0
        thread.stack.pop()
        if thread.stack:
            caller = thread.top
            if frame.return_dest is not None:
                caller.locals[frame.return_dest] = value
            return [state]

        # The thread's bottom frame returned: the thread terminates.
        thread.status = ThreadStatus.TERMINATED
        thread.exit_value = value
        for pid, tid in thread.joiners:
            joiner = state.processes[pid].threads.get(tid)
            if joiner is not None and joiner.status == ThreadStatus.SLEEPING:
                joiner.status = ThreadStatus.ENABLED
                joiner.wait_list = None
        thread.joiners = []

        if thread.pid == 1 and thread.tid == 0:
            # main() returned: the whole symbolic test finishes.
            state.terminate(value)
            return [state]
        state.options["force_reschedule"] = True
        return [state]

    def _exec_assert(self, state: ExecutionState, frame: Frame,
                     instr: Instruction) -> List[ExecutionState]:
        cond_value = self.eval_expr(state, frame, instr.expr)
        if is_concrete(cond_value):
            if cond_value != 0:
                frame.pc += 1
                return [state]
            return [self._terminate_error(state, BugKind.ASSERTION_FAILURE,
                                          instr.message or "assertion failed", instr)]

        holds = truth_condition(cond_value)
        fails = false_condition(cond_value)
        can_hold = self._feasible(state, holds)
        can_fail = self._feasible(state, fails)

        if can_hold and not can_fail:
            state.add_constraint(holds)
            frame.pc += 1
            return [state]
        if can_fail and not can_hold:
            state.add_constraint(fails)
            return [self._terminate_error(state, BugKind.ASSERTION_FAILURE,
                                          instr.message or "assertion failed", instr)]
        # Both possible: continue on the holding side, report the failing side.
        state.forks += 1
        fail_state = state.fork()
        state.add_constraint(holds)
        state.fork_trace.append(0)
        frame.pc += 1
        fail_state.add_constraint(fails)
        fail_state.fork_trace.append(1)
        failed = self._terminate_error(fail_state, BugKind.ASSERTION_FAILURE,
                                       instr.message or "assertion failed", instr)
        return [state, failed]

    # -- termination helpers -------------------------------------------------------------

    def _terminate_error(self, state: ExecutionState, kind: BugKind, message: str,
                         instr: Optional[Instruction]) -> ExecutionState:
        in_function = None
        if state.is_running and state.current and state.current_thread.stack:
            in_function = state.current_thread.top.function
        report = BugReport(
            kind=kind,
            message=message,
            state_id=state.state_id,
            line=instr.line if instr is not None else None,
            function=in_function,
        )
        state.terminate_error(report)
        return state

    def _exit_process(self, state: ExecutionState, code: Value) -> ExecutionState:
        process = state.current_process
        process.alive = False
        process.exit_code = code
        for thread in process.threads.values():
            thread.status = ThreadStatus.TERMINATED
        if not any(t.status != ThreadStatus.TERMINATED for t in state.all_threads()):
            state.terminate(code)
        else:
            state.options["force_reschedule"] = True
        return state
