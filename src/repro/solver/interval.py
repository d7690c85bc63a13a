"""Unsigned interval abstract domain.

Given bounds on free symbols, :func:`interval_of` computes a sound
over-approximation ``[lo, hi]`` of every bitvector expression and a
three-valued truth for every boolean expression.  The solver uses this
domain in two ways:

* to discharge obviously (in)feasible queries without search, and
* to refine per-symbol bounds from simple comparison constraints
  (``sym < const``, ``sym == const``, ...), shrinking enumeration domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.solver.expr import (
    ADD, AND, BOOL_AND, BOOL_CONST, BOOL_NOT, BOOL_OR, BV_CONST, BV_SYMBOL,
    CONCAT, EQ, EXTRACT, ITE, LSHR, MUL, NE, NOT, OR, SHL, SLE, SLT, SUB, UDIV,
    ULE, ULT, UREM, XOR, ZEXT, BvSort, Expr, Op, to_signed,
)


@dataclass(frozen=True)
class Interval:
    """A closed unsigned interval ``[lo, hi]``; empty when ``lo > hi``."""

    lo: int
    hi: int

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def size(self) -> int:
        return 0 if self.is_empty else self.hi - self.lo + 1

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def union(self, other: "Interval") -> "Interval":
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


def full_interval(width: int) -> Interval:
    return Interval(0, (1 << width) - 1)


# Three-valued boolean results.
MAYBE = None


def interval_of(expr: Expr, bounds: Dict[Expr, Interval]) -> Interval:
    """Over-approximate the value range of a bitvector expression."""
    op = expr.op
    if op is BV_CONST:
        return Interval(expr.value, expr.value)
    if op is BV_SYMBOL:
        got = bounds.get(expr)
        return got if got is not None else full_interval(expr.width)

    sort = expr.sort
    if isinstance(sort, BvSort):
        width, mask = sort.width, sort.mask
    else:
        width = mask = None

    if op is ADD:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        lo, hi = a.lo + b.lo, a.hi + b.hi
        if hi <= mask:
            return Interval(lo, hi)
        return full_interval(width)
    if op is SUB:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        lo, hi = a.lo - b.hi, a.hi - b.lo
        if lo >= 0:
            return Interval(lo, hi)
        return full_interval(width)
    if op is MUL:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        hi = a.hi * b.hi
        if hi <= mask:
            return Interval(a.lo * b.lo, hi)
        return full_interval(width)
    if op is UDIV:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        if b.lo > 0:
            return Interval(a.lo // b.hi, a.hi // b.lo)
        return full_interval(width)
    if op is UREM:
        b = interval_of(expr.args[1], bounds)
        if b.hi > 0:
            return Interval(0, b.hi - 1 if b.lo > 0 else mask)
        return full_interval(width)
    if op is AND:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        return Interval(0, min(a.hi, b.hi))
    if op in (OR, XOR):
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        # Upper bound: smallest all-ones mask covering both.
        cover = 1
        while cover - 1 < max(a.hi, b.hi):
            cover <<= 1
        return Interval(0, min(mask, cover - 1))
    if op is NOT:
        a = interval_of(expr.args[0], bounds)
        return Interval(mask - a.hi, mask - a.lo)
    if op is SHL:
        return full_interval(width)
    if op is LSHR:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        if b.is_point and b.lo < width:
            return Interval(a.lo >> b.lo, a.hi >> b.lo)
        return Interval(0, a.hi)
    if op is CONCAT:
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        low_width = expr.args[1].width
        return Interval((a.lo << low_width) + b.lo, (a.hi << low_width) + b.hi)
    if op is EXTRACT:
        high, low = expr.params
        a = interval_of(expr.args[0], bounds)
        if low == 0 and a.hi <= (1 << (high + 1)) - 1:
            return a
        return full_interval(width)
    if op is ZEXT:
        return interval_of(expr.args[0], bounds)
    if op is ITE:
        cond = truth_of(expr.args[0], bounds)
        if cond is True:
            return interval_of(expr.args[1], bounds)
        if cond is False:
            return interval_of(expr.args[2], bounds)
        return interval_of(expr.args[1], bounds).union(
            interval_of(expr.args[2], bounds)
        )
    return full_interval(width)


def truth_of(expr: Expr, bounds: Dict[Expr, Interval]) -> Optional[bool]:
    """Three-valued truth of a boolean expression (None means unknown)."""
    op = expr.op
    if op is BOOL_CONST:
        return bool(expr.value)
    if op in (EQ, NE, ULT, ULE):
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        if a.is_empty or b.is_empty:
            return None
        if op is EQ:
            if a.is_point and b.is_point:
                return a.lo == b.lo
            if a.intersect(b).is_empty:
                return False
            return MAYBE
        if op is NE:
            if a.is_point and b.is_point:
                return a.lo != b.lo
            if a.intersect(b).is_empty:
                return True
            return MAYBE
        if op is ULT:
            if a.hi < b.lo:
                return True
            if a.lo >= b.hi:
                return False
            return MAYBE
        if op is ULE:
            if a.hi <= b.lo:
                return True
            if a.lo > b.hi:
                return False
            return MAYBE
    if op in (SLT, SLE):
        # Only decide when both operand intervals stay within one sign half.
        width = expr.args[0].sort.width
        half = 1 << (width - 1)
        a = interval_of(expr.args[0], bounds)
        b = interval_of(expr.args[1], bounds)
        same_half = (a.hi < half and b.hi < half) or (a.lo >= half and b.lo >= half)
        if same_half:
            sa = Interval(to_signed(a.lo, width), to_signed(a.hi, width))
            sb = Interval(to_signed(b.lo, width), to_signed(b.hi, width))
            if op is SLT:
                if sa.hi < sb.lo:
                    return True
                if sa.lo >= sb.hi:
                    return False
            else:
                if sa.hi <= sb.lo:
                    return True
                if sa.lo > sb.hi:
                    return False
        return MAYBE
    if op is BOOL_AND:
        a = truth_of(expr.args[0], bounds)
        b = truth_of(expr.args[1], bounds)
        if a is False or b is False:
            return False
        if a is True and b is True:
            return True
        return MAYBE
    if op is BOOL_OR:
        a = truth_of(expr.args[0], bounds)
        b = truth_of(expr.args[1], bounds)
        if a is True or b is True:
            return True
        if a is False and b is False:
            return False
        return MAYBE
    if op is BOOL_NOT:
        a = truth_of(expr.args[0], bounds)
        if a is None:
            return MAYBE
        return not a
    if op is ITE:
        cond = truth_of(expr.args[0], bounds)
        if cond is True:
            return truth_of(expr.args[1], bounds)
        if cond is False:
            return truth_of(expr.args[2], bounds)
        return MAYBE
    return MAYBE


def refine_bounds(
    constraint: Expr, bounds: Dict[Expr, Interval]
) -> Tuple[Dict[Expr, Interval], bool]:
    """Refine symbol bounds from one constraint assumed to hold.

    Returns ``(new_bounds, changed)``.  Only handles the shapes that dominate
    path constraints in practice: comparisons where one side is a lone symbol
    (possibly zero-extended) and the other side has a computable interval.
    """
    changed = False
    new_bounds = dict(bounds)

    def strip(e: Expr) -> Expr:
        while e.op is ZEXT:
            e = e.args[0]
        return e

    def refine(sym: Expr, refined: Interval) -> None:
        nonlocal changed
        current = new_bounds.get(sym, full_interval(sym.width))
        updated = current.intersect(refined)
        if updated != current:
            new_bounds[sym] = updated
            changed = True

    op = constraint.op
    if op in (EQ, NE, ULT, ULE):
        lhs, rhs = constraint.args
        lhs_s, rhs_s = strip(lhs), strip(rhs)
        lhs_iv = interval_of(lhs, bounds)
        rhs_iv = interval_of(rhs, bounds)
        if lhs_s.is_symbol:
            refine(lhs_s, _bound_from_cmp(op, rhs_iv, lhs_side=True,
                                          width=lhs_s.width))
        if rhs_s.is_symbol:
            refine(rhs_s, _bound_from_cmp(op, lhs_iv, lhs_side=False,
                                          width=rhs_s.width))
    elif op is BOOL_AND:
        for arg in constraint.args:
            new_bounds, sub_changed = refine_bounds(arg, new_bounds)
            changed = changed or sub_changed

    return new_bounds, changed


def _bound_from_cmp(op: Op, other: Interval, lhs_side: bool, width: int) -> Interval:
    """Interval implied for the symbol side of ``sym <op> other`` (or mirrored)."""
    full = full_interval(width)
    if other.is_empty:
        return full
    if op is EQ:
        return Interval(other.lo, other.hi)
    if op is NE:
        if other.is_point:
            # Can only trim when the excluded point is at an end of the domain.
            if other.lo == 0:
                return Interval(1, full.hi)
            if other.lo == full.hi:
                return Interval(0, full.hi - 1)
        return full
    if op is ULT:
        if lhs_side:   # sym < other
            return Interval(0, other.hi - 1)
        return Interval(other.lo + 1, full.hi)  # other < sym
    if op is ULE:
        if lhs_side:   # sym <= other
            return Interval(0, other.hi)
        return Interval(other.lo, full.hi)      # other <= sym
    return full
