"""Instruction interpretation with symbolic forking.

:meth:`Interpreter.run_line` executes a state's current thread from its
program counter along one straight line: at least one instruction, and on
while each leaves the state its own only child, still running, on the same
thread, up to a budget.  It returns the ordered list of states the last
instruction produced: one state for straight-line execution, several when
the instruction forks (symbolic branch, fault injection fork,
out-of-bounds possibility; a schedule fork is the executor's).  The order of
the returned list is deterministic; the cluster layer relies on this to
encode jobs as fork-index paths and to replay them on other workers.

Instructions are *decoded on first run*, the way KLEE interprets pre-lowered
``KInstruction``s rather than source trees: the first time a function of a
program executes on an :class:`Interpreter`, each of its
:class:`~repro.lang.compiler.Instruction` records becomes a ``(line,
handler, region)`` entry.  A handler is a closure over closure-compiled
operand evaluators (a constant is masked once, a variable is one dict
lookup, a binary operator is bound from :mod:`repro.engine.values`'
operator table); it runs every case, the symbolic one included.  A
``JUMP``, and an ``ASSIGN`` or ``BRANCH`` whose expression is made of
variables, constants, unary and binary operators (not ``/`` or ``%``,
whose divisor is checked) and loads, also has a *region*: one generated
Python function whose all-concrete case is inline integer arithmetic,
written out from the operator templates of :mod:`repro.engine.values` --
the one definition of concrete semantics.  An instruction's region runs
that one instruction.  A loop head -- the target of a backward ``JUMP`` --
gets a region of the loop, so that a concrete pass of the loop is one
Python call, and a run of passes one call too (superinstructions, Ertl and
Gregg, PLDI 2003; Dynamo's compiled regions, Bala et al., PLDI 2000): every
path of covered instructions forward from the head, both sides of a branch
written out as a tree of ``if``s (at most ``_REGION_SIZE`` instructions),
inside a ``while True`` that a path back to the head continues.  It is
built the first time a step has room at its head for a pass of two
instructions and one more, so a search that steps one instruction at a time
never builds one.  A region reads each variable from ``frame.locals`` once
per call, guarded as an ``int`` in range (so no operand is masked), keeps
it in a Python local and writes every ``ASSIGN`` through at once.  It
leaves *before* an instruction whose variable is missing, not an ``int`` or
out of range, or whose load finds a symbolic byte or raises; the handler
then runs that instruction, so the masking, the fork, the error, the bug's
line and the books are the handler's.  Code objects are cached per
process, keyed by their source, so a second executor of the same program
compiles nothing.

A region returns how many instructions it ran, having set the pc and added
their lines to the line's unwritten set; ``run_line`` counts them, and
after a region of one instruction checks the step's instruction stop.  A
loop's region starts a pass only when one more instruction fits in the
step after it, so a step stops on the instruction, and names the line,
that it would one instruction at a time.  A handler returns ``None`` when
the instruction went straight on -- only locals and the program counter
changed (an ``ASSIGN``, a ``BRANCH`` on a concrete value, a passing
``ASSERT``) -- and the list of successor states otherwise; after a list
``run_line`` checks the children, the state's status, its current thread,
``force_reschedule`` and the instruction limit (only a native changes
``state.options``).  A state's books (``instructions_executed``,
``coverage``) are written once per stretch of regions, which cannot read
them: before a handler runs, and when the line ends, each write adding only
the lines new since the last.  The decoded table lives on the interpreter,
per function, built when the function is first entered:
``Instruction``/``CompiledProgram`` stay plain data (``repro.lang`` knows
nothing of the engine), nothing is decoded at construction, and a native
is still looked up by name on every call, so late registration keeps
working.
"""

from __future__ import annotations

import builtins
from types import CodeType, FunctionType
from typing import (Any, Callable, Dict, FrozenSet, List, Optional, Sequence,
                    Set, Tuple)

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.memory import MemoryError_
from repro.engine.natives import (
    Block,
    ExitProcess,
    ExitState,
    ForkBranch,
    NativeBug,
    NativeContext,
    NativeFork,
    NativeRegistry,
)
from repro.engine.state import (
    ENABLED,
    RUNNING,
    ExecutionState,
    Frame,
    StateStatus,
    Thread,
    ThreadStatus,
)
from repro.engine.values import (
    BINOP_TEMPLATES,
    CONCRETE_BINOPS,
    CONCRETE_UNOPS,
    DEFAULT_WIDTH,
    UNOP_TEMPLATES,
    _DEFAULT_MASK,
    Value,
    byte_value,
    false_condition,
    symbolic_binop,
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
from repro.lang.compiler import CompiledProgram, Instruction, Opcode
from repro.solver import expr as E
from repro.solver.pathconstraint import PathConstraint
from repro.solver.simplify import simplify
from repro.solver.solver import Solver

#: A decoded operand: evaluates a call-free expression in a frame.
Evaluator = Callable[[ExecutionState, Frame], Value]
#: A decoded instruction: executes in the current thread's top frame and
#: returns ``None`` when it went straight on, else the ordered successors.
Handler = Callable[[ExecutionState, Thread, Frame],
                   Optional[List[ExecutionState]]]
#: A generated region: runs its instruction, or a loop's whole passes while
#: one more instruction fits in ``room``, adds the lines it ran to ``fresh``
#: and returns how many instructions ran (0: run the handler instead).
Region = Callable[[ExecutionState, Frame, int, Set[int]], int]
#: ``(line, handler, region)`` per instruction: the region is ``None`` when
#: the generator does not cover the instruction.
DecodedFunction = List[Tuple[int, Handler, Optional[Region]]]

#: How many generated code objects, and written one-instruction regions, a
#: process keeps (the oldest goes first).
_CODE_CACHE_SIZE = 4096
_code_cache: Dict[str, CodeType] = {}
#: A region as written: its code and the constants its scope adds.
Written = Tuple[CodeType, Dict[str, Any]]
#: Each instruction's own region as written (``None``: not covered), by
#: what its text is written from, so that a second executor, or a program
#: built again, writes none again.
_own_regions: Dict[Tuple[Any, ...], Optional[Written]] = {}


class EngineInternalError(Exception):
    """A malformed program or an engine invariant violation (not a target bug)."""


class DivisionByZeroError(Exception):
    """The program divided (or took a remainder) by a divisor that is zero.

    Raised during expression evaluation and converted by
    :meth:`Interpreter.run_line` into a ``DIVISION_BY_ZERO`` bug report, the
    same way KLEE turns a zero divisor into a test case.
    """


#: What an instruction raises to end its state rather than the run.
_ENDS_THE_STATE = (MemoryError_, DivisionByZeroError, NativeBug, ExitProcess,
                   ExitState)


def _raiser(message: str) -> Evaluator:
    """An operand that is an engine error to evaluate (not to decode: the
    instruction may never run)."""
    def malformed(state: ExecutionState, frame: Frame) -> Value:
        raise EngineInternalError(message)
    return malformed


class Interpreter:
    """Executes instructions of compiled programs over execution states."""

    def __init__(self, solver: Solver, natives: NativeRegistry,
                 config: EngineConfig):
        self.solver = solver
        self.natives = natives
        self.config = config
        # Back-reference installed by the executor (native handlers need it).
        self.executor: Any = None
        # Decoded functions of ``_program``, by name, each built when first
        # entered.  An engine runs one program; a state of another one
        # starts the table afresh.
        self._program: Optional[CompiledProgram] = None
        self._code: Dict[str, DecodedFunction] = {}

    # -- instruction execution ---------------------------------------------------------

    def run_line(self, state: ExecutionState, thread: Thread, budget: int,
                 default_limit: Optional[int]
                 ) -> Tuple[int, List[ExecutionState], int, Optional[Set[int]]]:
        """Run ``thread``, the state's current thread, along its straight line.

        The first instruction always runs (the caller has checked the
        state's status, its instruction limit and its thread).  The line
        then goes on while each instruction leaves the state its own only
        child, still running, and stops at the first of: a fork or
        termination; another current thread, or this one no longer
        enabled; ``force_reschedule`` set; the path's instruction limit
        (``options["max_instructions"]``, else ``default_limit``) reached;
        ``budget`` instructions.  Every instruction is booked on the state
        (``instructions_executed``, ``coverage``) before anything can read
        it: a region only reads locals and memory and moves the pc, so the
        instructions it counts and the lines it adds to ``fresh`` are
        written to the state before a handler runs and when the line ends.
        Each write adds only the lines run since the previous one.  A
        region of one instruction is followed by the step's stop check; a
        loop's region runs a pass only when one more instruction fits
        after it, so the line ends where it would without it.

        Returns the last executed line, the ordered states that instruction
        produced (the input state always among them, possibly terminated),
        how many instructions ran, and the set of lines they ran on --
        ``None`` when only one ran.
        """
        program = state.program
        if program is not self._program:
            self._program = program
            self._code = {}
        table = self._code
        options = state.options
        current = state.current
        coverage = state.coverage
        frame = thread.stack[-1]
        function = frame.function
        code = table.get(function)
        if code is None:
            code = table[function] = self._decode_function(program, function)
        limit: Any = options.get("max_instructions", default_limit)
        stop = (budget if limit is None
                else min(budget, int(limit) - state.instructions_executed))
        instructions = booked = 0
        lines: Set[int] = set()  # the lines of the instructions booked
        fresh: Set[int] = set()  # and of those run since
        children: Any
        try:
            while True:
                try:
                    line, handler, region = code[frame.pc]
                except IndexError:
                    raise EngineInternalError(
                        "program counter %d out of range in %s"
                        % (frame.pc, function)) from None
                if region is not None:
                    ran = region(state, frame, stop - instructions, fresh)
                    if ran:
                        # Straight on: nothing but locals and the pc
                        # changed.
                        instructions += ran
                        if instructions >= stop:
                            children = [state]
                            break
                        continue
                    # A local that is not an int in range, or a load that
                    # is symbolic or raises: the handler runs it.
                instructions += 1
                fresh.add(line)
                state.instructions_executed += instructions - booked
                booked = instructions
                coverage.update(fresh)
                lines.update(fresh)
                fresh.clear()
                try:
                    children = handler(state, thread, frame)
                except _ENDS_THE_STATE as exc:
                    # Ended here: ``exc`` kept in a local past this block
                    # would make a cycle with its traceback and this frame,
                    # left to the collector with every state it holds.
                    children = [self._terminated(state, exc, line)]
                    break
                if children is None:
                    if instructions >= stop:
                        children = [state]
                        break
                    continue
                if (instructions >= budget or len(children) != 1
                        or children[0] is not state
                        or state.status is not RUNNING
                        or state.current is not current
                        or thread.status is not ENABLED
                        or "force_reschedule" in options):
                    break
                limit = options.get("max_instructions", default_limit)
                if limit is not None:
                    stop = min(budget, instructions + int(limit)
                               - state.instructions_executed)
                    if instructions >= stop:
                        break
                else:
                    stop = budget
                # A call or a return moves to another frame.
                frame = thread.stack[-1]
                if frame.function != function:
                    function = frame.function
                    code = table.get(function)
                    if code is None:
                        code = table[function] = self._decode_function(
                            program, function)
        finally:
            if booked != instructions:
                state.instructions_executed += instructions - booked
                coverage.update(fresh)
        if instructions == 1:
            return line, children, 1, None
        lines.update(fresh)
        return line, children, instructions, lines

    # -- decoding: expressions -------------------------------------------------------

    def _decode_function(self, program: CompiledProgram, name: str) -> DecodedFunction:
        instructions = program.function(name).instructions
        decoded: DecodedFunction = [
            (instr.line, self._decode_instruction(program, instr),
             _own_region(index, instructions))
            for index, instr in enumerate(instructions)]
        _install_regions(instructions, decoded)
        return decoded

    def _decode_expr(self, expr) -> Evaluator:
        """Compile a call-free expression into an evaluator closure."""
        if isinstance(expr, Const):
            constant = expr.value & _DEFAULT_MASK
            return lambda state, frame: constant
        if isinstance(expr, StrConst):
            data = expr.data
            return lambda state, frame: state.data_segment[data]
        if isinstance(expr, Var):
            return self._decode_var(expr.name)
        if isinstance(expr, BinExpr):
            return self._decode_binary(expr)
        if isinstance(expr, UnExpr):
            op = expr.op
            operand = self._decode_expr(expr.operand)
            concrete_unary = CONCRETE_UNOPS[op]

            def unary(state: ExecutionState, frame: Frame) -> Value:
                value = operand(state, frame)
                if isinstance(value, int):
                    return concrete_unary(value)
                return unop(op, value)
            return unary
        if isinstance(expr, Index):
            base = self._decode_expr(expr.base)
            offset = self._decode_expr(expr.offset)
            load = self._load
            return lambda state, frame: load(
                state, base(state, frame), offset(state, frame))
        if isinstance(expr, CallExpr):
            return _raiser("call expression survived lowering: %r" % (expr,))
        return _raiser("unknown expression node %r" % (expr,))

    @staticmethod
    def _decode_var(name: str) -> Evaluator:
        def variable(state: ExecutionState, frame: Frame) -> Value:
            try:
                return frame.locals[name]
            except KeyError:
                raise EngineInternalError(
                    "use of undefined variable %r in %s"
                    % (name, frame.function)) from None
        return variable

    def _decode_binary(self, expr: BinExpr) -> Evaluator:
        op = expr.op
        left = self._decode_expr(expr.left)
        right = self._decode_expr(expr.right)
        concrete = CONCRETE_BINOPS[op]
        mask, width = _DEFAULT_MASK, DEFAULT_WIDTH

        def binary(state: ExecutionState, frame: Frame) -> Value:
            a = left(state, frame)
            b = right(state, frame)
            if isinstance(a, int) and isinstance(b, int):
                return concrete(a & mask, b & mask, mask, width)
            return simplify(symbolic_binop(op, a, b))

        if op not in (BinaryOp.DIV, BinaryOp.MOD):
            return binary
        check_divisor = self._check_divisor

        def divide(state: ExecutionState, frame: Frame) -> Value:
            a = left(state, frame)
            b = right(state, frame)
            check_divisor(state, b)
            if isinstance(a, int) and isinstance(b, int):
                return concrete(a & mask, b & mask, mask, width)
            return simplify(symbolic_binop(op, a, b))
        return divide

    def _load(self, state: ExecutionState, base: Value, offset: Value) -> Value:
        """Read the byte at ``base[offset]`` (the ``Index`` expression)."""
        if isinstance(base, int) and isinstance(offset, int):
            # A direct pointer in bounds, looked up as ``state.resolve``
            # would find it (the CoW domain first).
            shared = state.cow_domain.objects
            if shared:
                obj = shared.get(base)
            else:
                current = state.current
                assert current is not None, "no thread is running"
                obj = state.processes[current[0]].address_space.objects.get(
                    base)
            if obj is not None and 0 <= offset < obj.size:
                return byte_value(obj.cells[offset])
        base = self._concretize(state, base)
        obj, base_off, _ = state.resolve(base)

        if isinstance(offset, int):
            return byte_value(obj.read_byte(base_off + offset))

        # Symbolic offset: constrain it in bounds (an offset that can only be
        # out of bounds is a definite memory error).  In-bounds accesses are
        # summarized with an ITE chain when the object is small, otherwise
        # the offset is concretized.
        offset32 = to_expr(offset, 32)
        limit = E.bv_const(obj.size - base_off, 32)
        in_bounds = simplify(E.ult(offset32, limit))
        checked = self._feasible(state, in_bounds)
        if checked is None:
            raise MemoryError_(
                "out-of-bounds read from %s (symbolic offset)"
                % (obj.name or hex(obj.address)), address=base)
        state.add_constraint(in_bounds, checked)
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
        if isinstance(divisor, int):
            if divisor == 0:
                raise DivisionByZeroError("division by zero")
            return
        nonzero = simplify(E.ne(to_expr(divisor, divisor.width),
                                E.bv_const(0, divisor.width)))
        if self._feasible(state, nonzero) is None:
            raise DivisionByZeroError("division by a divisor constrained to zero")

    def _concretize(self, state: ExecutionState, value: Value) -> int:
        if isinstance(value, int):
            return value
        model = self.solver.get_model(state.path_constraints)
        concrete = int(model.evaluate(value)) if model is not None else 0
        state.add_constraint(E.eq(to_expr(value, value.width),
                                  E.bv_const(concrete, value.width)))
        return concrete

    # -- feasibility ----------------------------------------------------------------

    def _feasible(self, state: ExecutionState,
                  condition) -> Optional[PathConstraint]:
        """The query ``state.path_constraints.extended(condition)`` if it is
        satisfiable, else ``None``.

        A side that is then taken hands the query to
        ``state.add_constraint(condition, checked)``, which installs it as
        the new path constraint (unless ``condition`` is already on the
        path): each condition is simplified, grouped and keyed once, by
        the check, not again when it is added."""
        query = state.path_constraints.extended(condition)
        return query if self.solver.is_satisfiable(query) else None

    # -- decoding: instructions ------------------------------------------------------

    def _decode_instruction(self, program: CompiledProgram,
                            instr: Instruction) -> Handler:
        """Build the handler of an instruction.

        A handler does the instruction's common, concrete case inline and
        hands the symbolic one to the ``_exec_*`` method with the operands it
        already evaluated.  It runs what the instruction's region, if it has
        one, leaves to it; a ``JUMP`` is all region.
        """
        opcode = instr.opcode
        if opcode == Opcode.ASSIGN:
            dest = instr.dest
            value_of = self._decode_expr(instr.expr)

            def assign(state, thread, frame):
                frame.locals[dest] = value_of(state, frame)
                frame.pc += 1
            return assign
        if opcode == Opcode.BRANCH:
            condition = self._decode_expr(instr.expr)
            target, false_target = instr.target, instr.false_target
            branch_symbolic = self._exec_branch

            def branch(state, thread, frame):
                value = condition(state, frame)
                if isinstance(value, int):
                    frame.pc = target if value != 0 else false_target
                    return None
                return branch_symbolic(state, frame, value, target, false_target)
            return branch
        if opcode == Opcode.STORE:
            base = self._decode_expr(instr.base)
            offset = self._decode_expr(instr.offset)
            stored = self._decode_expr(instr.value)
            concretize, store = self._concretize, self._exec_store
            # Left to right: the base is pinned down before the offset reads.
            return lambda state, thread, frame: store(
                state, frame, instr, concretize(state, base(state, frame)),
                offset(state, frame), stored(state, frame))
        if opcode == Opcode.CALL:
            name = str(instr.name)
            arguments = tuple(self._decode_expr(a) for a in instr.args)
            if name in program.functions:
                return self._decode_program_call(program, instr, name, arguments)
            # A native is looked up when the call runs, not now: environment
            # models may register it later.
            call_native = self._exec_native_call
            return lambda state, thread, frame: call_native(
                state, thread, frame, instr, name,
                [argument(state, frame) for argument in arguments])
        if opcode == Opcode.RET:
            ret = self._exec_ret
            if instr.expr is None:
                return lambda state, thread, frame: ret(state, thread, frame, 0)
            returned = self._decode_expr(instr.expr)
            return lambda state, thread, frame: ret(
                state, thread, frame, returned(state, frame))
        if opcode == Opcode.ASSERT:
            asserted = self._decode_expr(instr.expr)
            failed = self._exec_assert

            def assertion(state, thread, frame):
                value = asserted(state, frame)
                if isinstance(value, int) and value != 0:
                    frame.pc += 1
                    return None
                return failed(state, frame, instr, value)
            return assertion

        def unknown(state, thread, frame):
            raise EngineInternalError("unknown opcode %r" % (opcode,))
        return unknown

    def _decode_program_call(self, program: CompiledProgram, instr: Instruction,
                             name: str, arguments: Sequence[Evaluator]) -> Handler:
        dest = instr.dest
        params = tuple(program.function(name).params)
        # Missing arguments read as 0, surplus ones are dropped.
        padding = [0] * max(0, len(params) - len(arguments))
        config = self.config

        def call(state, thread, frame):
            args = [argument(state, frame) for argument in arguments]
            if len(thread.stack) >= config.max_call_depth:
                return [self._terminate_error(
                    state, BugKind.STACK_OVERFLOW,
                    "call depth limit (%d) exceeded calling %s"
                    % (config.max_call_depth, name), instr.line)]
            frame.pc += 1
            thread.stack.append(
                Frame(name, 0, dict(zip(params, args + padding)), dest))
            return [state]
        return call

    # -- opcode handlers: the symbolic and the rare cases ------------------------------

    def _exec_store(self, state: ExecutionState, frame: Frame, instr: Instruction,
                    base: int, offset: Value, value: Value
                    ) -> List[ExecutionState]:
        value = byte_value(value)
        obj, base_off, is_shared = state.resolve(base)

        err_state = None
        if not isinstance(offset, int):
            # Symbolic offset: fork an error state if out-of-bounds is feasible.
            offset_expr = to_expr(offset, 32)
            limit = E.bv_const(obj.size - base_off, 32)
            oob = simplify(E.uge(offset_expr, limit))
            in_bounds = simplify(E.ult(offset_expr, limit))

            oob_feasible = self._feasible(state, oob)
            in_feasible = self._feasible(state, in_bounds)

            err_message = ("out-of-bounds write to %s (symbolic offset)"
                           % (obj.name or hex(obj.address)))
            if in_feasible is None:
                if oob_feasible is None:
                    err_message = "store with infeasible bounds"
                else:
                    state.add_constraint(oob, oob_feasible)
                return [self._terminate_error(state, BugKind.MEMORY_ERROR,
                                              err_message, instr.line)]
            if oob_feasible is not None:
                state.forks += 1
                err_state = state.fork()
                # In-bounds continuation (fork index 0); the out-of-bounds
                # error path (fork index 1) follows the write.
                state.fork_trace.append(0)
            state.add_constraint(in_bounds, in_feasible)
            offset = self._concretize(state, offset)

        # ``obj`` is still this state's object after a fork: the fork shares
        # private objects copy-on-write (``own`` copies) and gives the error
        # state copies of the shared ones.
        if not is_shared:
            obj = state.current_process.address_space.own(obj.address)
        obj.write_byte(base_off + offset, value)
        frame.pc += 1
        if err_state is None:
            return [state]
        err_state.add_constraint(oob, oob_feasible)
        err_state.fork_trace.append(1)
        return [state, self._terminate_error(
            err_state, BugKind.MEMORY_ERROR, err_message, instr.line)]

    def _exec_branch(self, state: ExecutionState, frame: Frame, cond_value: Value,
                     target: int, false_target: int) -> List[ExecutionState]:
        """A branch on a symbolic condition: follow the feasible side(s)."""
        true_cond = truth_condition(cond_value)
        false_cond = false_condition(cond_value)
        can_true = self._feasible(state, true_cond)
        can_false = self._feasible(state, false_cond)

        if can_true is not None and can_false is not None:
            state.forks += 1
            false_state = state.fork()
            # True branch continues in the original state (fork index 0).
            state.add_constraint(true_cond, can_true)
            state.fork_trace.append(0)
            frame.pc = target
            # False branch in the clone (fork index 1).
            false_state.add_constraint(false_cond, can_false)
            false_state.fork_trace.append(1)
            false_state.current_thread.top.pc = false_target
            return [state, false_state]
        if can_true is not None:
            state.add_constraint(true_cond, can_true)
            frame.pc = target
            return [state]
        if can_false is not None:
            state.add_constraint(false_cond, can_false)
            frame.pc = false_target
            return [state]
        # Neither side feasible: the path constraint itself became
        # unsatisfiable (possible only after an "unknown" solver verdict).
        state.terminate(0)
        return [state]

    def _exec_native_call(self, state: ExecutionState, thread: Thread, frame: Frame,
                          instr: Instruction, name: str, args: List[Value]
                          ) -> List[ExecutionState]:
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
        # Each feasible branch with the query that proved it, if any.
        feasible: List[Tuple[ForkBranch, Optional[PathConstraint]]] = []
        for branch in fork.branches:
            if branch.condition is None:
                feasible.append((branch, None))
                continue
            checked = self._feasible(state, branch.condition)
            if checked is not None:
                feasible.append((branch, checked))
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
        for index, ((branch, checked), succ) in enumerate(
                zip(feasible, successors)):
            if branch.condition is not None:
                succ.add_constraint(branch.condition, checked)
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
                  value: Value) -> List[ExecutionState]:
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

    def _exec_assert(self, state: ExecutionState, frame: Frame, instr: Instruction,
                     cond_value: Value) -> List[ExecutionState]:
        """An assertion whose condition is not a concrete non-zero."""
        if isinstance(cond_value, int):
            return [self._terminate_error(state, BugKind.ASSERTION_FAILURE,
                                          instr.message or "assertion failed",
                                          instr.line)]

        holds = truth_condition(cond_value)
        fails = false_condition(cond_value)
        can_hold = self._feasible(state, holds)
        can_fail = self._feasible(state, fails)

        if can_hold is not None and can_fail is None:
            state.add_constraint(holds, can_hold)
            frame.pc += 1
            return [state]
        if can_fail is not None and can_hold is None:
            state.add_constraint(fails, can_fail)
            return [self._terminate_error(state, BugKind.ASSERTION_FAILURE,
                                          instr.message or "assertion failed",
                                          instr.line)]
        # Both possible: continue on the holding side, report the failing side.
        state.forks += 1
        fail_state = state.fork()
        state.add_constraint(holds, can_hold)
        state.fork_trace.append(0)
        frame.pc += 1
        fail_state.add_constraint(fails, can_fail)
        fail_state.fork_trace.append(1)
        failed = self._terminate_error(fail_state, BugKind.ASSERTION_FAILURE,
                                       instr.message or "assertion failed",
                                       instr.line)
        return [state, failed]

    # -- termination helpers -------------------------------------------------------------

    def _terminated(self, state: ExecutionState, exc: Exception,
                    line: int) -> ExecutionState:
        """The state an instruction on ``line`` that raised ``exc`` (one of
        ``_ENDS_THE_STATE``) leaves."""
        if isinstance(exc, MemoryError_):
            return self._terminate_error(state, BugKind.MEMORY_ERROR,
                                         str(exc), line)
        if isinstance(exc, DivisionByZeroError):
            return self._terminate_error(state, BugKind.DIVISION_BY_ZERO,
                                         str(exc), line)
        if isinstance(exc, NativeBug):
            return self._terminate_error(state, exc.kind, exc.message, line)
        if isinstance(exc, ExitProcess):
            return self._exit_process(state, exc.code)
        assert isinstance(exc, ExitState)
        state.terminate(exc.code)
        return state

    def _terminate_error(self, state: ExecutionState, kind: BugKind, message: str,
                         line: int) -> ExecutionState:
        in_function = None
        if (state.status is StateStatus.RUNNING and state.current
                and state.current_thread.stack):
            in_function = state.current_thread.top.function
        report = BugReport(
            kind=kind,
            message=message,
            state_id=state.state_id,
            line=line,
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


# -- regions ------------------------------------------------------------------------------


class _NotGenerated(Exception):
    """An instruction the generator does not cover: its handler runs it."""


def _load_concrete(state: ExecutionState, base: int, offset: int
                   ) -> Optional[int]:
    """``base[offset]`` with both concrete, where a direct pointer in
    bounds (which a region reads inline) does not find it: the byte, as
    :meth:`Interpreter._load` returns it, or ``None`` when the cell is
    symbolic.  ``resolve`` and ``read_byte`` raise their errors."""
    obj, base_off, _ = state.resolve(base)
    cell = obj.read_byte(base_off + offset)
    if isinstance(cell, int):
        return cell & 0xFF
    return None


_TEMPLATE_CONSTANTS = {"mask": _DEFAULT_MASK, "width": DEFAULT_WIDTH,
                       "sign": 1 << (DEFAULT_WIDTH - 1)}
_REGION = "<generated region>"
#: The most instructions a loop's region holds.  Each path is written out
#: on its own, so the code after a branch is there once per side.
_REGION_SIZE = 64


def _indented(depth: int, lines: Sequence[str]) -> List[str]:
    return list(map(("    " * depth).__add__, lines))


class _Source:
    """One generated instruction: the variables it reads, and the statements
    that bind loads and reused operands, in the order the closures evaluate
    them."""

    def __init__(self, names: Dict[str, str]) -> None:
        self.names = names  # each variable's Python local, region-wide
        self.variables: Dict[str, str] = {}  # the ones this instruction reads
        # ``(name, value, loaded)``: ``loaded`` is a load's base and offset.
        self.statements: List[Tuple[str, str, Optional[Tuple[str, str]]]] = []

    def operand(self, expr) -> str:
        """The operand as a side-effect-free Python atom.  Nothing is
        masked: a region guards every variable's local as an ``int`` in
        range, a constant is masked here, and every template and load
        yields a value in range."""
        if isinstance(expr, Const):
            return "%d" % (expr.value & _DEFAULT_MASK)
        if isinstance(expr, Var):
            name = self.variables.get(expr.name)
            if name is None:
                name = self.names.get(expr.name)
                if name is None:
                    name = self.names[expr.name] = "v%d" % len(self.names)
                self.variables[expr.name] = name
            return name
        if isinstance(expr, BinExpr):
            if expr.op in (BinaryOp.DIV, BinaryOp.MOD):
                raise _NotGenerated  # the divisor check is the handler's
            return self.apply(BINOP_TEMPLATES[expr.op],
                              a=self.operand(expr.left),
                              b=self.operand(expr.right))
        if isinstance(expr, UnExpr):
            return self.apply(UNOP_TEMPLATES[expr.op],
                              x=self.operand(expr.operand))
        if isinstance(expr, Index):
            base = self.operand(expr.base)
            offset = self.operand(expr.offset)
            return self.bind("", (base, offset))
        raise _NotGenerated

    def apply(self, template: str, **operands: str) -> str:
        """``template`` over the operands; one it reads twice is bound first."""
        for key, atom in operands.items():
            if (template.count("{%s}" % key) > 1
                    and not (atom.isidentifier() or atom.isdigit())):
                operands[key] = self.bind(atom)
        return "(%s)" % template.format(**_TEMPLATE_CONSTANTS, **operands)

    def bind(self, value: str,
             loaded: Optional[Tuple[str, str]] = None) -> str:
        name = "t%d" % len(self.statements)
        self.statements.append((name, value, loaded))
        return name


def _truth(value: str) -> str:
    """``value != 0`` as a Python condition: a comparison template's own
    test when ``value`` is one (``(1 if C else 0)``)."""
    if value.startswith("(1 if ") and value.endswith(" else 0)"):
        return value[len("(1 if "):-len(" else 0)")]
    return "%s != 0" % value


def _compiled(text: str, filename: str) -> CodeType:
    """The code object of the one function ``text`` defines, compiled once
    per process."""
    code = _code_cache.get(text)
    if code is None:
        if len(_code_cache) >= _CODE_CACHE_SIZE:
            del _code_cache[next(iter(_code_cache))]
        module = compile(text, filename, "exec")
        code = _code_cache[text] = next(
            const for const in module.co_consts if isinstance(const, CodeType))
    return code


class _Region:
    """The source of a region: every path of covered instructions forward
    from its head -- ``JUMP``s, and ``ASSIGN``s and ``BRANCH``es whose
    expression ``_Source`` lowers -- written out as a tree of Python
    ``if``s, both sides of a branch.

    An instruction's own region is its one instruction, with no back edge.
    A loop head's holds at most ``_REGION_SIZE`` instructions inside one
    ``while True`` that a path back to the head continues, and starts a
    pass only while one more instruction fits in ``room`` after it.  A path
    ends before an instruction that is not covered, that it already ran, or
    past the cap; there the function sets the pc, adds the lines it ran to
    ``fresh`` and returns how many instructions ran.  A variable is read
    once per call, guarded as an ``int`` in range; an ``ASSIGN`` writes
    through to ``frame.locals`` at once.  A guard that fails, a load that
    finds a symbolic byte or raises, leaves before the instruction, which
    wrote nothing yet."""

    def __init__(self, head: int, instructions: Sequence[Instruction],
                 covered: Sequence[bool] = ()):
        self.head = head
        self.instructions = instructions
        # Which instructions a loop's region runs; an instruction's own
        # region runs its head alone, covered if its walk lowers it.
        self.covered = covered
        self.loop = bool(covered)
        self.cap = _REGION_SIZE if self.loop else 1
        self.names: Dict[str, str] = {}
        # Each line set an exit books, and its global's number (``_L0``, ...).
        self.lines: Dict[FrozenSet[int], int] = {}
        self.text: List[str] = []
        self.size = 0
        self.longest = 0  # the most instructions one pass runs
        self.back_edges = 0
        self.loads = False

    def function(self) -> Optional[Region]:
        """The region; ``None`` when its head is not covered, or when no
        pass of a loop runs two instructions."""
        written = self.written(False)
        return None if written is None else _bound(written, None)

    def written(self, grows: bool) -> Optional[Written]:
        """The region's code and constants (see :meth:`function`).  With
        ``grows``, a step with room for a pass of two and one more calls
        ``_grow`` instead, which builds the loop's region."""
        try:
            self.walk(self.head, [], set(), 2 if self.loop else 1)
        except _NotGenerated:
            return None
        if self.loop and self.longest < 2:
            return None
        prologue = ["locals_ = frame.locals", "n = 0"]
        if grows:
            prologue += ["if room > 2:",
                         "    return _grow(state, frame, room, fresh)"]
        # Nothing in a region writes memory: the table stays put.
        if self.loads:
            prologue += ["shared = state.cow_domain.objects",
                         "objects = shared if shared else state.processes["
                         "state.current[0]].address_space.objects"]
        if self.loop:
            if self.back_edges:
                prologue.append("%sTrue" % "".join(
                    map("f{} = ".format, range(self.back_edges))))
            if self.names:
                prologue.append("%sNone" % "".join(
                    map("{} = ".format, self.names.values())))
            prologue += ["while True:",
                         "    if n + _longest >= room:",
                         "        return n"]
        text = "\n".join(["def region(state, frame, room, fresh):"]
                         + _indented(1, prologue) + self.text) + "\n"
        constants: Dict[str, Any] = {"_longest": self.longest}
        for lines, k in self.lines.items():
            constants["_L%d" % k] = lines
        return _compiled(text, _REGION), constants

    def walk(self, pc: Optional[int], path: List[int], bound: Set[str],
             depth: int) -> None:
        """Write the tree from ``pc`` on, after ``path`` ran this pass and
        bound the variables ``bound``."""
        emit = self.text.extend
        if pc == self.head and path and self.loop:
            self.longest = max(self.longest, len(path))
            flag = self.back_edges
            self.back_edges += 1
            emit(_indented(depth, [
                "n += %d" % len(path),
                "if f%d:" % flag,
                "    f%d = False" % flag,
                "    fresh.update(_L%d)" % self.booked(path),
                "continue"]))
            return
        # An instruction's own region stops at its cap before it reads
        # ``covered``.
        if (pc is None or pc in path
                or not 0 <= pc < len(self.instructions)
                or self.size >= self.cap or path and not self.covered[pc]):
            emit(_indented(depth, self.leave(pc, path)))
            return
        self.size += 1
        instr = self.instructions[pc]
        ran = path + [pc]
        if instr.opcode == Opcode.JUMP:
            self.walk(instr.target, ran, bound, depth)
            return
        if instr.opcode not in (Opcode.ASSIGN, Opcode.BRANCH):
            raise _NotGenerated
        source = _Source(self.names)
        value = source.operand(instr.expr)
        emit(_indented(depth, self.evaluation(
            source, bound, self.leave(pc, path))))
        bound = bound | set(source.variables)
        if instr.opcode == Opcode.ASSIGN:
            dest = str(instr.dest)
            name = self.names.setdefault(dest, "v%d" % len(self.names))
            emit(_indented(depth, ["%s = %s" % (name, value),
                                   "locals_[%r] = %s" % (dest, name)]))
            self.walk(pc + 1, ran, bound | {dest}, depth)
            return
        emit(_indented(depth, ["if %s:" % _truth(value)]))
        self.walk(instr.target, ran, bound, depth + 1)
        emit(_indented(depth, ["else:"]))
        self.walk(instr.false_target, ran, bound, depth + 1)

    def evaluation(self, source: _Source, bound: Set[str],
                   leave: List[str]) -> List[str]:
        """Read the variables of ``source`` that the path has not bound
        (in a loop, unless an earlier pass did: a local is ``None`` until
        read) and run its statements, leaving by ``leave`` when a variable
        is missing or not an ``int`` in range, or a load finds a symbolic
        byte or raises.  A load at a direct pointer in bounds reads the
        cell from ``objects``, the table ``state.resolve`` looks in first;
        any other calls ``_load_concrete``."""
        lines: List[str] = []
        nested, twice = _indented(1, leave), _indented(2, leave)
        for variable, name in source.variables.items():
            if variable in bound:
                continue
            read = ["try:",
                    "    %s = locals_[%r]" % (name, variable),
                    "except KeyError:",
                    *nested,
                    "if type(%s) is not int or %s >> %d:"
                    % (name, name, DEFAULT_WIDTH),
                    *nested]
            if self.loop:
                read = ["if %s is None:" % name] + _indented(1, read)
            lines.extend(read)
        for name, value, loaded in source.statements:
            if loaded is None:
                lines.append("%s = %s" % (name, value))
                continue
            self.loads = True
            base, offset = loaded
            if not (offset.isidentifier() or offset.isdigit()):
                lines.append("o = %s" % offset)
                offset = "o"
            lines.extend(["obj = objects.get(%s)" % base,
                          "if obj is not None and 0 <= %s < obj.size:"
                          % offset,
                          "    %s = obj.cells[%s]" % (name, offset),
                          "    if type(%s) is not int:" % name])
            lines.extend(twice)
            lines.extend(["    %s &= 255" % name,
                          "else:",
                          "    try:",
                          "        %s = _load(state, %s, %s)"
                          % (name, base, offset),
                          "    except _ends:"])
            lines.extend(twice)
            lines.append("    if %s is None:" % name)
            lines.extend(twice)
        return lines

    def leave(self, pc: Optional[int], path: List[int]) -> List[str]:
        """Return before instruction ``pc``, having run ``path`` this pass
        (a ``JUMP`` without a target leaves the pc ``None``, as the
        reference does)."""
        if not path:
            return ["return n"]  # the pc is still the head
        self.longest = max(self.longest, len(path))
        return ["frame.pc = %r" % pc,
                "fresh.update(_L%d)" % self.booked(path),
                "return n + %d" % len(path)]

    def booked(self, path: List[int]) -> int:
        """The number of the global holding ``path``'s lines."""
        lines = frozenset([self.instructions[pc].line for pc in path])
        return self.lines.setdefault(lines, len(self.lines))


def _bound(written: Written, grow: Optional[Region]) -> Region:
    """A written region as a function, with ``grow`` as its ``_grow``."""
    code, constants = written
    return FunctionType(code, {"__builtins__": builtins,
                               "_load": _load_concrete,
                               "_ends": _ENDS_THE_STATE, "_grow": grow,
                               **constants})


def _own_region(pc: int, instructions: Sequence[Instruction],
                grow: Optional[Region] = None) -> Optional[Region]:
    """Instruction ``pc``'s own region (``None``: not covered), written once
    per process for each key its text depends on: ``pc``, the fields of
    the instruction that the walk reads, and whether it grows.  An
    instruction that is not a ``JUMP``, ``ASSIGN`` or ``BRANCH`` has
    none."""
    instr = instructions[pc]
    if instr.opcode not in (Opcode.JUMP, Opcode.ASSIGN, Opcode.BRANCH):
        return None
    key = (pc, grow is None, instr.opcode, instr.line, instr.dest, instr.expr,
           instr.target, instr.false_target)
    try:
        written = _own_regions[key]
    except KeyError:
        if len(_own_regions) >= _CODE_CACHE_SIZE:
            del _own_regions[next(iter(_own_regions))]
        written = _own_regions[key] = _Region(pc, instructions).written(
            grow is not None)
    return None if written is None else _bound(written, grow)


def _install_regions(instructions: Sequence[Instruction],
                     decoded: DecodedFunction) -> None:
    """Give every covered loop head (the target of a backward ``JUMP``) a
    region of its instruction that, the first time a step has room there
    for a pass of two instructions and one more, builds the loop's region,
    puts it in the entry (its plain region when no pass runs two) and runs
    it.  A search that steps one instruction at a time never builds one."""
    covered = [region is not None for _, _, region in decoded]
    heads = {instr.target for index, instr in enumerate(instructions)
             if instr.opcode == Opcode.JUMP and instr.target is not None
             and 0 <= instr.target <= index}
    for head in heads:
        line, handler, plain = decoded[head]
        if plain is not None:
            decoded[head] = (line, handler, _own_region(
                head, instructions,
                _stand_in(head, instructions, covered, decoded, plain)))


def _stand_in(head: int, instructions: Sequence[Instruction],
              covered: Sequence[bool], decoded: DecodedFunction,
              plain: Region) -> Region:
    def grow(state: ExecutionState, frame: Frame, room: int,
             fresh: Set[int]) -> int:
        line, handler, _ = decoded[head]
        region = _Region(head, instructions, covered).function() or plain
        decoded[head] = (line, handler, region)
        return region(state, frame, room, fresh)
    return grow
