"""Expression simplification: constant folding and algebraic identities.

The engine calls :func:`simplify` on every branch condition before adding it
to a path constraint.  Keeping expressions small is the single biggest lever
on solver performance, exactly as in KLEE/Cloud9 where the constraint
simplifier and caches sit in front of STP.

A node is simplified once.  The result is remembered on the node
(``Expr._simplified``) and the result itself is marked canonical --
:func:`simplify` is idempotent, ``tests/test_solver_properties.py`` holds it
to that -- so asking again, for the node or for anything built over it, is
one slot read.  A node whose children are already canonical and that no
identity rewrites is returned as is, not rebuilt.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.solver.expr import (
    ADD, AND, BOOL, BOOL_AND, BOOL_NOT, BOOL_OR, BV_CONST, EQ, EXTRACT, FALSE,
    ITE, LSHR, MUL, NE, OR, SHL, SLE, SLT, SUB, TRUE, ULE, ULT, XOR, ZEXT,
    Expr, bool_const, bv_const, evaluate,
)


def _fold_concrete(expr: Expr) -> Expr:
    """Fold an expression whose children are all constants."""
    value: Any = evaluate(expr, {})
    if expr.is_bool:
        return bool_const(bool(value))
    return bv_const(int(value), expr.width)


def simplify(expr: Expr) -> Expr:
    """Return a semantically equivalent, usually smaller, expression."""
    memo = expr._simplified
    if memo is not None:
        return expr if memo is True else memo

    if not expr.args:
        out = expr
    else:
        args = tuple(simplify(a) for a in expr.args)
        node = expr
        if any(new is not old for new, old in zip(args, expr.args)):
            node = Expr(expr.op, args, sort=expr.sort, value=expr.value,
                        name=expr.name, params=expr.params)
        if all(a.is_constant for a in args):
            out = _fold_concrete(node)
        else:
            out = _apply_identities(node)

    out._simplified = True
    if out is not expr:
        expr._simplified = out
    return out


def _is_zero(e: Expr) -> bool:
    return e.op is BV_CONST and e.value == 0


def _is_all_ones(e: Expr) -> bool:
    return e.op is BV_CONST and e.value == e.sort.mask


#: The comparison a negated one becomes (its operands swapped when ordered).
_NEGATED = {
    EQ: NE,
    NE: EQ,
    ULT: ULE,   # not(a < b)  -> b <= a
    ULE: ULT,   # not(a <= b) -> b < a
    SLT: SLE,
    SLE: SLT,
}


def _apply_identities(expr: Expr) -> Expr:
    op = expr.op
    args = expr.args

    if op is ADD:
        a, b = args
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif op is SUB:
        a, b = args
        if _is_zero(b):
            return a
        if a == b:
            return bv_const(0, expr.width)
    elif op is MUL:
        a, b = args
        if _is_zero(a) or _is_zero(b):
            return bv_const(0, expr.width)
        if a.op is BV_CONST and a.value == 1:
            return b
        if b.op is BV_CONST and b.value == 1:
            return a
    elif op is AND:
        a, b = args
        if _is_zero(a) or _is_zero(b):
            return bv_const(0, expr.width)
        if _is_all_ones(a):
            return b
        if _is_all_ones(b):
            return a
        if a == b:
            return a
    elif op is OR:
        a, b = args
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
        if _is_all_ones(a) or _is_all_ones(b):
            return bv_const(expr.sort.mask, expr.width)
        if a == b:
            return a
    elif op is XOR:
        a, b = args
        if a == b:
            return bv_const(0, expr.width)
        if _is_zero(a):
            return b
        if _is_zero(b):
            return a
    elif op in (SHL, LSHR):
        a, b = args
        if _is_zero(b):
            return a
        if _is_zero(a):
            return bv_const(0, expr.width)
    elif op is ZEXT:
        (a,) = args
        if a.op is ZEXT:
            return Expr(ZEXT, (a.args[0],), sort=expr.sort, params=expr.params)
    elif op is EXTRACT:
        (a,) = args
        high, low = expr.params
        if low == 0 and high == a.width - 1:
            return a
    elif op is EQ:
        a, b = args
        if a == b:
            return TRUE
        folded = _fold_ite_comparison(a, b, negate=False)
        if folded is not None:
            return folded
        folded = _fold_ite_comparison(b, a, negate=False)
        if folded is not None:
            return folded
    elif op is NE:
        a, b = args
        if a == b:
            return FALSE
        folded = _fold_ite_comparison(a, b, negate=True)
        if folded is not None:
            return folded
        folded = _fold_ite_comparison(b, a, negate=True)
        if folded is not None:
            return folded
    elif op is ULT:
        a, b = args
        if a == b:
            return FALSE
        if _is_zero(b):
            return FALSE
    elif op is ULE:
        a, b = args
        if a == b:
            return TRUE
        if _is_zero(a):
            return TRUE
    elif op is SLT:
        a, b = args
        if a == b:
            return FALSE
    elif op is SLE:
        a, b = args
        if a == b:
            return TRUE
    elif op is BOOL_AND:
        a, b = args
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
    elif op is BOOL_OR:
        a, b = args
        if a == TRUE or b == TRUE:
            return TRUE
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == b:
            return a
    elif op is BOOL_NOT:
        (a,) = args
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        if a.op is BOOL_NOT:
            return a.args[0]
        # Push negation into comparisons: not(a == b) -> a != b, etc.
        if a.op in (EQ, NE):
            return Expr(_NEGATED[a.op], a.args, sort=a.sort)
        if a.op in (ULT, ULE, SLT, SLE):
            return Expr(_NEGATED[a.op], (a.args[1], a.args[0]), sort=a.sort)
    elif op is ITE:
        cond, then, otherwise = args
        if cond == TRUE:
            return then
        if cond == FALSE:
            return otherwise
        if then == otherwise:
            return then

    return expr


def _fold_ite_comparison(lhs: Expr, rhs: Expr, negate: bool) -> Optional[Expr]:
    """Rewrite ``ite(c, k1, k2) ==/!= k`` into ``c`` / ``not c`` when possible.

    The engine encodes C-style comparison results as ``ite(cond, 1, 0)`` and
    then branches on "result != 0"; folding the pattern back to ``cond`` keeps
    path constraints flat, which is the single most important simplification
    for solver performance on parser-style code.
    """
    if lhs.op is not ITE or rhs.op is not BV_CONST:
        return None
    cond, then_branch, else_branch = lhs.args
    if then_branch.op is not BV_CONST or else_branch.op is not BV_CONST:
        return None
    then_matches = then_branch.value == rhs.value
    else_matches = else_branch.value == rhs.value
    if then_matches and not else_matches:
        # eq -> cond; ne -> not cond.
        result = cond
    elif else_matches and not then_matches:
        result = _apply_identities(Expr(BOOL_NOT, (cond,), sort=BOOL))
    elif not then_matches and not else_matches:
        # Never equal to the constant.
        result = FALSE
    else:
        # Both branches equal the constant: always equal.
        result = TRUE
    if negate:
        if result is TRUE:
            return FALSE
        if result is FALSE:
            return TRUE
        return _apply_identities(Expr(BOOL_NOT, (result,), sort=BOOL))
    return result


def conjuncts(expr: Expr) -> "list[Expr]":
    """Split a boolean expression into its top-level conjuncts."""
    if expr.op is not BOOL_AND:
        return [expr]
    out: list[Expr] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if node.op is BOOL_AND:
            stack.extend(node.args)
        else:
            out.append(node)
    out.reverse()
    return out
