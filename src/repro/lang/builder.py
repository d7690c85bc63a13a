"""Convenience constructors for building programs from Python.

Target programs (``repro.targets``) are written with these helpers, e.g.::

    from repro.lang import builder as L

    parse = L.func(
        "parse", ["buf", "n"],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.if_(L.eq(L.index(L.var("buf"), L.var("i")), ord("{")),
                [L.ret(1)]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(0),
    )
    prog = L.program("demo", parse, entry="parse")

Integer literals are accepted wherever an expression is expected and are
coerced to :class:`~repro.lang.ast.Const`; ``bytes``/``str`` literals are
coerced to :class:`~repro.lang.ast.StrConst`.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

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
    UnaryOp,
    UnExpr,
    Var,
    VarDecl,
    While,
)

ExprLike = Union[Expr, int, bytes, str]
StmtOrList = Union[Stmt, Sequence[Stmt]]


def _expr(value: ExprLike) -> Expr:
    """Coerce Python literals into language expressions."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Const(int(value))
    if isinstance(value, int):
        return Const(value)
    if isinstance(value, bytes):
        return StrConst(value)
    if isinstance(value, str):
        return StrConst(value.encode("latin-1"))
    raise TypeError("cannot coerce %r to an expression" % (value,))


def _stmts(items: Iterable[StmtOrList]) -> List[Stmt]:
    """Flatten a mix of statements and statement lists."""
    out: List[Stmt] = []
    for item in items:
        if isinstance(item, Stmt):
            out.append(item)
        elif isinstance(item, (list, tuple)):
            out.extend(_stmts(item))
        else:
            raise TypeError("expected a statement, got %r" % (item,))
    return out


# -- expressions -----------------------------------------------------------


def const(value: int, width: int = 32) -> Const:
    return Const(value, width)


def strconst(data: Union[bytes, str]) -> StrConst:
    if isinstance(data, str):
        data = data.encode("latin-1")
    return StrConst(data)


def var(name: str) -> Var:
    return Var(name)


def _bin(op: BinaryOp, a: ExprLike, b: ExprLike) -> BinExpr:
    return BinExpr(op, _expr(a), _expr(b))


def add(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.ADD, a, b)


def sub(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.SUB, a, b)


def mul(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.MUL, a, b)


def div(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.DIV, a, b)


def mod(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.MOD, a, b)


def band(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.AND, a, b)


def bor(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.OR, a, b)


def bxor(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.XOR, a, b)


def shl(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.SHL, a, b)


def shr(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.SHR, a, b)


def eq(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.EQ, a, b)


def ne(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.NE, a, b)


def lt(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.LT, a, b)


def le(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.LE, a, b)


def gt(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.GT, a, b)


def ge(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.GE, a, b)


def land(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.LAND, a, b)


def lor(a: ExprLike, b: ExprLike) -> BinExpr:
    return _bin(BinaryOp.LOR, a, b)


def lnot(a: ExprLike) -> UnExpr:
    return UnExpr(UnaryOp.NOT, _expr(a))


def neg(a: ExprLike) -> UnExpr:
    return UnExpr(UnaryOp.NEG, _expr(a))


def bnot(a: ExprLike) -> UnExpr:
    return UnExpr(UnaryOp.BNOT, _expr(a))


def index(base: ExprLike, offset: ExprLike) -> Index:
    return Index(_expr(base), _expr(offset))


def call(name: str, *args: ExprLike) -> CallExpr:
    return CallExpr(name, tuple(_expr(a) for a in args))


# -- statements ------------------------------------------------------------


def decl(name: str, init: ExprLike = 0) -> VarDecl:
    return VarDecl(name, _expr(init))


def assign(name: str, value: ExprLike) -> Assign:
    return Assign(name, _expr(value))


def store(base: ExprLike, offset: ExprLike, value: ExprLike) -> Store:
    return Store(_expr(base), _expr(offset), _expr(value))


def if_(cond: ExprLike, then_body: Sequence[StmtOrList],
        else_body: Sequence[StmtOrList] = ()) -> If:
    return If(_expr(cond), _stmts(then_body), _stmts(else_body))


def while_(cond: ExprLike, *body: StmtOrList) -> While:
    return While(_expr(cond), _stmts(body))


def ret(value: ExprLike = None) -> Return:
    return Return(None if value is None else _expr(value))


def expr_stmt(expr: ExprLike) -> ExprStmt:
    return ExprStmt(_expr(expr))


def assert_(cond: ExprLike, message: str = "assertion failed") -> Assert:
    return Assert(_expr(cond), message)


def break_() -> Break:
    return Break()


def continue_() -> Continue:
    return Continue()


def func(name: str, params: Sequence[str], *body: StmtOrList) -> Function:
    return Function(name, list(params), _stmts(body))


def program(name: str, *functions: Function, entry: str = "main") -> Program:
    table = {}
    for fn in functions:
        if fn.name in table:
            raise ValueError("duplicate function %r in program %r" % (fn.name, name))
        table[fn.name] = fn
    return Program(name, table, entry=entry)
