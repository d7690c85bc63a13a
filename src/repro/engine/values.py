"""Runtime values and mixed concrete/symbolic arithmetic.

A runtime value is either a plain Python ``int`` (concrete, interpreted as an
unsigned machine integer of the engine's default width) or a
:class:`repro.solver.expr.Expr` bitvector.  All helpers in this module accept
either form, performing concrete arithmetic whenever possible and building
solver expressions only when a symbolic operand is involved -- keeping
expressions small is what keeps the solver fast.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.lang.ast import BinaryOp, UnaryOp
from repro.solver import expr as E
from repro.solver.expr import Expr
from repro.solver.simplify import simplify

Value = Union[int, Expr]

DEFAULT_WIDTH = 32
_DEFAULT_MASK = (1 << DEFAULT_WIDTH) - 1


def is_concrete(value: Value) -> bool:
    return isinstance(value, int)


def is_symbolic(value: Value) -> bool:
    return isinstance(value, Expr)


def width_of(value: Value) -> int:
    if isinstance(value, Expr):
        return value.width
    return DEFAULT_WIDTH


def mask_concrete(value: int, width: int = DEFAULT_WIDTH) -> int:
    return value & ((1 << width) - 1)


def to_expr(value: Value, width: int = DEFAULT_WIDTH) -> Expr:
    """Lift a value to a solver expression of exactly ``width`` bits."""
    if isinstance(value, Expr):
        if value.width == width:
            return value
        if value.width < width:
            return E.zext(value, width)
        return E.extract(value, width - 1, 0)
    return E.bv_const(mask_concrete(int(value), width), width)


def common_width(a: Value, b: Value) -> int:
    return max(width_of(a), width_of(b), DEFAULT_WIDTH)


#: The one definition of concrete operator semantics, C-like unsigned: a
#: Python expression per operator over operands already masked to
#: ``{width}`` bits (``{mask}`` is ``2**width - 1``, ``{sign}`` its top bit).
#: Signed comparisons flip the sign bit, which maps signed order onto
#: unsigned order.  A unary operator takes its operand ``{x}`` unmasked.
#: Operands are substituted as atoms (a name, a literal or a parenthesised
#: expression); a template may read an operand twice or not at all.  The
#: interpreter's decoder inlines these into the regions it generates, whose
#: operands are all in range, and the tables below are compiled from the
#: same text.
BINOP_TEMPLATES: Dict[BinaryOp, str] = {
    BinaryOp.ADD: "({a} + {b}) & {mask}",
    BinaryOp.SUB: "({a} - {b}) & {mask}",
    BinaryOp.MUL: "({a} * {b}) & {mask}",
    BinaryOp.DIV: "{mask} if {b} == 0 else {a} // {b}",
    BinaryOp.MOD: "{a} if {b} == 0 else {a} % {b}",
    BinaryOp.AND: "{a} & {b}",
    BinaryOp.OR: "{a} | {b}",
    BinaryOp.XOR: "{a} ^ {b}",
    BinaryOp.SHL: "0 if {b} >= {width} else ({a} << {b}) & {mask}",
    BinaryOp.SHR: "0 if {b} >= {width} else {a} >> {b}",
    BinaryOp.EQ: "1 if {a} == {b} else 0",
    BinaryOp.NE: "1 if {a} != {b} else 0",
    BinaryOp.LT: "1 if {a} ^ {sign} < {b} ^ {sign} else 0",
    BinaryOp.LE: "1 if {a} ^ {sign} <= {b} ^ {sign} else 0",
    BinaryOp.GT: "1 if {a} ^ {sign} > {b} ^ {sign} else 0",
    BinaryOp.GE: "1 if {a} ^ {sign} >= {b} ^ {sign} else 0",
    BinaryOp.LAND: "1 if {a} != 0 and {b} != 0 else 0",
    BinaryOp.LOR: "1 if {a} != 0 or {b} != 0 else 0",
}

UNOP_TEMPLATES: Dict[UnaryOp, str] = {
    UnaryOp.NEG: "-{x} & {mask}",
    UnaryOp.NOT: "1 if {x} == 0 else 0",
    UnaryOp.BNOT: "~{x} & {mask}",
}

#: The templates as functions.  Each binary entry takes ``(a, b, mask,
#: width)`` with both operands already masked to ``width`` bits;
#: :func:`concrete_binop` looks operators up here, and the interpreter's
#: closure handlers bind them once per instruction.
CONCRETE_BINOPS: Dict[BinaryOp, Callable[[int, int, int, int], int]] = {
    op: eval("lambda a, b, mask, width: " + template.format(
        a="a", b="b", mask="mask", width="width", sign="(1 << (width - 1))"))
    for op, template in BINOP_TEMPLATES.items()
}

CONCRETE_UNOPS: Dict[UnaryOp, Callable[[int], int]] = {
    op: eval("lambda x: " + template.format(x="x", mask=_DEFAULT_MASK))
    for op, template in UNOP_TEMPLATES.items()
}


def concrete_binop(op: BinaryOp, a: int, b: int, width: int = DEFAULT_WIDTH) -> int:
    """Concrete evaluation of a binary operator with C-like unsigned semantics."""
    mask = (1 << width) - 1
    return CONCRETE_BINOPS[op](a & mask, b & mask, mask, width)


def symbolic_binop(op: BinaryOp, a: Value, b: Value) -> Expr:
    """Build a solver expression for a binary operator over mixed operands."""
    width = common_width(a, b)
    lhs = to_expr(a, width)
    rhs = to_expr(b, width)
    if op == BinaryOp.ADD:
        return E.add(lhs, rhs)
    if op == BinaryOp.SUB:
        return E.sub(lhs, rhs)
    if op == BinaryOp.MUL:
        return E.mul(lhs, rhs)
    if op == BinaryOp.DIV:
        return E.udiv(lhs, rhs)
    if op == BinaryOp.MOD:
        return E.urem(lhs, rhs)
    if op == BinaryOp.AND:
        return E.band(lhs, rhs)
    if op == BinaryOp.OR:
        return E.bor(lhs, rhs)
    if op == BinaryOp.XOR:
        return E.bxor(lhs, rhs)
    if op == BinaryOp.SHL:
        return E.shl(lhs, rhs)
    if op == BinaryOp.SHR:
        return E.lshr(lhs, rhs)

    one = E.bv_const(1, width)
    zero = E.bv_const(0, width)
    if op == BinaryOp.EQ:
        return E.ite(E.eq(lhs, rhs), one, zero)
    if op == BinaryOp.NE:
        return E.ite(E.ne(lhs, rhs), one, zero)
    if op == BinaryOp.LT:
        return E.ite(E.slt(lhs, rhs), one, zero)
    if op == BinaryOp.LE:
        return E.ite(E.sle(lhs, rhs), one, zero)
    if op == BinaryOp.GT:
        return E.ite(E.sgt(lhs, rhs), one, zero)
    if op == BinaryOp.GE:
        return E.ite(E.sge(lhs, rhs), one, zero)
    if op == BinaryOp.LAND:
        return E.ite(E.logical_and(E.ne(lhs, zero), E.ne(rhs, zero)), one, zero)
    if op == BinaryOp.LOR:
        return E.ite(E.logical_or(E.ne(lhs, zero), E.ne(rhs, zero)), one, zero)
    raise NotImplementedError("symbolic_binop: unsupported operator %r" % op)


def binop(op: BinaryOp, a: Value, b: Value) -> Value:
    """Evaluate a binary operator, staying concrete when both operands are."""
    if isinstance(a, int) and isinstance(b, int):
        return concrete_binop(op, a, b)
    return simplify(symbolic_binop(op, a, b))


def unop(op: UnaryOp, value: Value) -> Value:
    if isinstance(value, int):
        return CONCRETE_UNOPS[op](value)
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


def truth_condition(value: Value) -> Expr:
    """The boolean constraint "value is non-zero" (C truthiness), simplified.

    A symbolic value keeps its two branch conditions on its node
    (``Expr._truth`` and ``Expr._falsity``), so a branch on a value another
    path already branched on builds and simplifies nothing.
    """
    if isinstance(value, Expr):
        out = value._truth
        if out is None:
            out = value._truth = simplify(
                E.ne(value, E.bv_const(0, value.width)))
        return out
    return simplify(E.ne(to_expr(value), E.bv_const(0, DEFAULT_WIDTH)))


def false_condition(value: Value) -> Expr:
    """The boolean constraint "value is zero", memoised like
    :func:`truth_condition`."""
    if isinstance(value, Expr):
        out = value._falsity
        if out is None:
            out = value._falsity = simplify(
                E.eq(value, E.bv_const(0, value.width)))
        return out
    return simplify(E.eq(to_expr(value), E.bv_const(0, DEFAULT_WIDTH)))


def byte_value(cell: Value) -> Value:
    """Normalize a memory cell into an 8-bit-range value."""
    if isinstance(cell, int):
        return cell & 0xFF
    if cell.width == 8:
        return cell
    return simplify(E.extract(cell, 7, 0))
