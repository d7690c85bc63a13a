"""Abstract syntax tree of the program-under-test language."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


class BinaryOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    AND = "&"
    OR = "|"
    XOR = "^"
    SHL = "<<"
    SHR = ">>"
    EQ = "=="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LAND = "&&"
    LOR = "||"

    # Members are singletons: hash by identity, in C (``Enum.__hash__``
    # hashes the name in Python; the decoder looks operators up per node).
    __hash__ = object.__hash__


class UnaryOp(enum.Enum):
    NEG = "-"
    NOT = "!"
    BNOT = "~"

    __hash__ = object.__hash__


class Expr:
    """Base class for expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    """An integer constant; width defaults to the language's 32-bit int."""

    value: int
    width: int = 32


@dataclass(frozen=True)
class StrConst(Expr):
    """A byte-string constant; evaluates to the address of read-only data."""

    data: bytes


@dataclass(frozen=True)
class Var(Expr):
    """A reference to a local variable or parameter."""

    name: str


@dataclass(frozen=True)
class BinExpr(Expr):
    op: BinaryOp
    left: Expr
    right: Expr


@dataclass(frozen=True)
class UnExpr(Expr):
    op: UnaryOp
    operand: Expr


@dataclass(frozen=True)
class Index(Expr):
    """Byte load ``base[offset]`` from a buffer pointer."""

    base: Expr
    offset: Expr


@dataclass(frozen=True)
class CallExpr(Expr):
    """Call of a program function or of a native (modeled/POSIX) function."""

    name: str
    args: Tuple[Expr, ...]


class Stmt:
    """Base class for statements."""

    __slots__ = ()


@dataclass
class VarDecl(Stmt):
    """Declare (and initialize) a local variable."""

    name: str
    init: Expr


@dataclass
class Assign(Stmt):
    name: str
    value: Expr


@dataclass
class Store(Stmt):
    """Byte store ``base[offset] = value``."""

    base: Expr
    offset: Expr
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    then_body: List[Stmt]
    else_body: List[Stmt] = field(default_factory=list)


@dataclass
class While(Stmt):
    cond: Expr
    body: List[Stmt]


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    """Evaluate an expression for its side effects (usually a call)."""

    expr: Expr


@dataclass
class Assert(Stmt):
    cond: Expr
    message: str = "assertion failed"


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Function:
    """A function of the program under test."""

    name: str
    params: List[str]
    body: List[Stmt]

    def __post_init__(self) -> None:
        if len(set(self.params)) != len(self.params):
            raise ValueError("duplicate parameter names in function %r" % self.name)


@dataclass
class Program:
    """A whole program: a set of functions plus an entry point."""

    name: str
    functions: Dict[str, Function]
    entry: str = "main"

    def __post_init__(self) -> None:
        if self.entry not in self.functions:
            raise ValueError(
                "entry function %r not defined in program %r" % (self.entry, self.name)
            )

    def function(self, name: str) -> Function:
        return self.functions[name]
