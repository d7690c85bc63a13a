"""Lowering of the structured AST into a flat instruction stream.

The symbolic execution engine interprets :class:`CompiledProgram` objects.
Each function body becomes a list of :class:`Instruction`; control flow is
expressed with ``BRANCH``/``JUMP`` to instruction indices, which makes the
execution state's program counter a simple ``(function, index)`` pair that is
cheap to clone when the state forks.

Function calls embedded inside expressions are hoisted into explicit ``CALL``
instructions assigning compiler temporaries, so the expressions actually
carried by instructions are pure and can be evaluated without side effects.

Every statement receives a program-wide *line number*; instructions remember
the line of the statement they came from.  Line-coverage bit vectors (the
paper's coverage overlay, §3.3) are indexed by these line numbers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lang.ast import (
    Assert,
    Assign,
    BinaryOp,
    BinExpr,
    Break,
    CallExpr,
    Const,
    Continue,
    Expr,
    ExprStmt,
    Function,
    If,
    Index,
    Program,
    Return,
    Stmt,
    Store,
    StrConst,
    UnExpr,
    Var,
    VarDecl,
    While,
)


class CompileError(Exception):
    """Raised for malformed programs (e.g. break outside a loop)."""


class Opcode(enum.Enum):
    ASSIGN = "assign"      # dest <- expr
    CALL = "call"          # dest <- call name(args)
    STORE = "store"        # base[offset] <- value
    BRANCH = "branch"      # if cond goto true_target else false_target
    JUMP = "jump"          # goto target
    RET = "ret"            # return expr (or nothing)
    ASSERT = "assert"      # check cond, report bug otherwise

    # Members are singletons: hash by identity, in C (the decoder keys
    # each instruction's written region by its opcode).
    __hash__ = object.__hash__


@dataclass
class Instruction:
    """One lowered instruction."""

    opcode: Opcode
    line: int
    dest: Optional[str] = None
    expr: Optional[Expr] = None
    name: Optional[str] = None
    args: Tuple[Expr, ...] = ()
    base: Optional[Expr] = None
    offset: Optional[Expr] = None
    value: Optional[Expr] = None
    target: Optional[int] = None
    false_target: Optional[int] = None
    message: Optional[str] = None

    def __repr__(self) -> str:
        if self.opcode == Opcode.ASSIGN:
            return "ASSIGN %s <- %r (line %d)" % (self.dest, self.expr, self.line)
        if self.opcode == Opcode.CALL:
            return "CALL %s <- %s(%s) (line %d)" % (
                self.dest, self.name, ", ".join(map(repr, self.args)), self.line)
        if self.opcode == Opcode.BRANCH:
            return "BRANCH %r ? %s : %s (line %d)" % (
                self.expr, self.target, self.false_target, self.line)
        if self.opcode == Opcode.JUMP:
            return "JUMP %s (line %d)" % (self.target, self.line)
        if self.opcode == Opcode.RET:
            return "RET %r (line %d)" % (self.expr, self.line)
        if self.opcode == Opcode.STORE:
            return "STORE %r[%r] <- %r (line %d)" % (
                self.base, self.offset, self.value, self.line)
        return "ASSERT %r (line %d)" % (self.expr, self.line)


@dataclass
class CompiledFunction:
    name: str
    params: List[str]
    instructions: List[Instruction]

    def __len__(self) -> int:
        return len(self.instructions)


@dataclass
class CompiledProgram:
    """A program lowered to instruction streams plus metadata."""

    name: str
    entry: str
    functions: Dict[str, CompiledFunction]
    line_count: int
    data: Dict[bytes, int] = field(default_factory=dict)

    def function(self, name: str) -> CompiledFunction:
        return self.functions[name]

    @property
    def total_instructions(self) -> int:
        return sum(len(f) for f in self.functions.values())


class _FunctionCompiler:
    """Compiles one function; shares the line counter of the program compiler."""

    def __init__(self, program_compiler: "_ProgramCompiler", fn: Function):
        self._pc = program_compiler
        self._fn = fn
        self._instructions: List[Instruction] = []
        self._temp_counter = 0
        # Stack of (break_patches, continue_target) for enclosing loops.
        self._loop_stack: List[Tuple[List[int], int]] = []

    # -- helpers -----------------------------------------------------------

    def _emit(self, instr: Instruction) -> int:
        self._instructions.append(instr)
        return len(self._instructions) - 1

    def _new_temp(self) -> str:
        self._temp_counter += 1
        return "%%t%d" % self._temp_counter

    # -- expression lowering -------------------------------------------------

    def _lower_expr(self, expr: Expr, line: int) -> Expr:
        """Hoist calls out of an expression, returning a call-free expression.

        ``&&`` and ``||`` are lowered to explicit control flow so that they
        short-circuit exactly like C: the right operand (including any calls
        or memory accesses it contains) is only evaluated when the left
        operand does not already decide the result.
        """
        if isinstance(expr, (Const, StrConst, Var)):
            return expr
        if isinstance(expr, BinExpr):
            if expr.op in (BinaryOp.LAND, BinaryOp.LOR):
                return self._lower_short_circuit(expr, line)
            return BinExpr(expr.op,
                           self._lower_expr(expr.left, line),
                           self._lower_expr(expr.right, line))
        if isinstance(expr, UnExpr):
            return UnExpr(expr.op, self._lower_expr(expr.operand, line))
        if isinstance(expr, Index):
            return Index(self._lower_expr(expr.base, line),
                         self._lower_expr(expr.offset, line))
        if isinstance(expr, CallExpr):
            args = tuple(self._lower_expr(a, line) for a in expr.args)
            temp = self._new_temp()
            self._emit(Instruction(Opcode.CALL, line, dest=temp,
                                   name=expr.name, args=args))
            return Var(temp)
        raise CompileError("unsupported expression node %r" % (expr,))

    def _lower_short_circuit(self, expr: BinExpr, line: int) -> Expr:
        """Lower ``a && b`` / ``a || b`` into branches over a result temp."""
        is_and = expr.op == BinaryOp.LAND
        temp = self._new_temp()
        left = self._lower_expr(expr.left, line)
        # Default outcome if the right operand is skipped: 0 for &&, 1 for ||.
        self._emit(Instruction(Opcode.ASSIGN, line, dest=temp,
                               expr=Const(0 if is_and else 1)))
        branch_idx = self._emit(Instruction(Opcode.BRANCH, line, expr=left))
        # For &&: evaluate the right side only when the left is true.
        # For ||: evaluate the right side only when the left is false.
        right_block_start = len(self._instructions)
        right = self._lower_expr(expr.right, line)
        self._emit(Instruction(Opcode.ASSIGN, line, dest=temp,
                               expr=BinExpr(BinaryOp.NE, right, Const(0))))
        end = len(self._instructions)
        if is_and:
            self._instructions[branch_idx].target = right_block_start
            self._instructions[branch_idx].false_target = end
        else:
            self._instructions[branch_idx].target = end
            self._instructions[branch_idx].false_target = right_block_start
        return Var(temp)

    # -- statement lowering ---------------------------------------------------

    def compile(self) -> CompiledFunction:
        self._compile_block(self._fn.body)
        # Implicit `return 0` at the end of a function.
        self._emit(Instruction(Opcode.RET, self._pc.next_line(), expr=Const(0)))
        return CompiledFunction(self._fn.name, list(self._fn.params),
                                self._instructions)

    def _compile_block(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            self._compile_stmt(stmt)

    def _compile_stmt(self, stmt: Stmt) -> None:
        line = self._pc.next_line()
        if isinstance(stmt, (VarDecl, Assign)):
            name = stmt.name
            init = stmt.init if isinstance(stmt, VarDecl) else stmt.value
            expr = self._lower_expr(init, line)
            self._emit(Instruction(Opcode.ASSIGN, line, dest=name, expr=expr))
        elif isinstance(stmt, Store):
            base = self._lower_expr(stmt.base, line)
            offset = self._lower_expr(stmt.offset, line)
            value = self._lower_expr(stmt.value, line)
            self._emit(Instruction(Opcode.STORE, line, base=base,
                                   offset=offset, value=value))
        elif isinstance(stmt, ExprStmt):
            expr = self._lower_expr(stmt.expr, line)
            if not isinstance(expr, Var):
                # A pure expression with no call has no effect; still emit an
                # assignment to a scratch temp so the line is coverable.
                self._emit(Instruction(Opcode.ASSIGN, line,
                                       dest=self._new_temp(), expr=expr))
        elif isinstance(stmt, Return):
            expr = (self._lower_expr(stmt.value, line)
                    if stmt.value is not None else Const(0))
            self._emit(Instruction(Opcode.RET, line, expr=expr))
        elif isinstance(stmt, Assert):
            expr = self._lower_expr(stmt.cond, line)
            self._emit(Instruction(Opcode.ASSERT, line, expr=expr,
                                   message=stmt.message))
        elif isinstance(stmt, If):
            self._compile_if(stmt, line)
        elif isinstance(stmt, While):
            self._compile_while(stmt, line)
        elif isinstance(stmt, Break):
            if not self._loop_stack:
                raise CompileError("break outside of a loop in %r" % self._fn.name)
            idx = self._emit(Instruction(Opcode.JUMP, line))
            self._loop_stack[-1][0].append(idx)
        elif isinstance(stmt, Continue):
            if not self._loop_stack:
                raise CompileError("continue outside of a loop in %r" % self._fn.name)
            self._emit(Instruction(Opcode.JUMP, line,
                                   target=self._loop_stack[-1][1]))
        else:
            raise CompileError("unsupported statement %r" % (stmt,))

    def _compile_if(self, stmt: If, line: int) -> None:
        cond = self._lower_expr(stmt.cond, line)
        branch_idx = self._emit(Instruction(Opcode.BRANCH, line, expr=cond))
        self._compile_block(stmt.then_body)
        if stmt.else_body:
            jump_over_else = self._emit(Instruction(Opcode.JUMP, line))
            else_start = len(self._instructions)
            self._compile_block(stmt.else_body)
            end = len(self._instructions)
            self._instructions[branch_idx].target = branch_idx + 1
            self._instructions[branch_idx].false_target = else_start
            self._instructions[jump_over_else].target = end
        else:
            end = len(self._instructions)
            self._instructions[branch_idx].target = branch_idx + 1
            self._instructions[branch_idx].false_target = end

    def _compile_while(self, stmt: While, line: int) -> None:
        loop_start = len(self._instructions)
        cond = self._lower_expr(stmt.cond, line)
        branch_idx = self._emit(Instruction(Opcode.BRANCH, line, expr=cond))
        break_patches: List[int] = []
        self._loop_stack.append((break_patches, loop_start))
        self._compile_block(stmt.body)
        self._loop_stack.pop()
        self._emit(Instruction(Opcode.JUMP, line, target=loop_start))
        end = len(self._instructions)
        self._instructions[branch_idx].target = branch_idx + 1
        self._instructions[branch_idx].false_target = end
        for idx in break_patches:
            self._instructions[idx].target = end


class _ProgramCompiler:
    def __init__(self, program: Program):
        self._program = program
        self._line = 0

    def next_line(self) -> int:
        line = self._line
        self._line += 1
        return line

    def compile(self) -> CompiledProgram:
        functions: Dict[str, CompiledFunction] = {}
        data: Dict[bytes, int] = {}
        for name in sorted(self._program.functions):
            fn = self._program.functions[name]
            compiled = _FunctionCompiler(self, fn).compile()
            functions[name] = compiled
            for instr in compiled.instructions:
                for blob in _string_constants_of(instr):
                    data.setdefault(blob, len(data))
        return CompiledProgram(
            name=self._program.name,
            entry=self._program.entry,
            functions=functions,
            line_count=self._line,
            data=data,
        )


def _string_constants_of(instr: Instruction) -> List[bytes]:
    """All StrConst payloads referenced by an instruction."""
    out: List[bytes] = []

    def walk(expr: Optional[Expr]) -> None:
        if expr is None:
            return
        if isinstance(expr, StrConst):
            out.append(expr.data)
        elif isinstance(expr, BinExpr):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, UnExpr):
            walk(expr.operand)
        elif isinstance(expr, Index):
            walk(expr.base)
            walk(expr.offset)
        elif isinstance(expr, CallExpr):
            for a in expr.args:
                walk(a)

    walk(instr.expr)
    walk(instr.base)
    walk(instr.offset)
    walk(instr.value)
    for a in instr.args:
        walk(a)
    return out


def compile_program(program: Program) -> CompiledProgram:
    """Lower a :class:`~repro.lang.ast.Program` into executable form."""
    return _ProgramCompiler(program).compile()
