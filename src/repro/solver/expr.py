"""Bitvector/boolean expression language.

Expressions are immutable, interned DAGs (the engine shares sub-expressions
freely).  Bitvector values are unsigned integers interpreted modulo
``2**width``; signed comparisons use two's-complement interpretation.
The expression language intentionally covers only what the symbolic execution
engine emits: arithmetic, bitwise operations, shifts, concatenation/extraction,
comparisons and boolean connectives.

There is one node per structure.  Every construction -- the helpers below,
:func:`~repro.solver.simplify.simplify`, unpickling -- looks its defining
fields up in a weak intern table first and hands back the node that is
already alive, so equal expressions built on different paths are the same
object.  ``Expr.__init__`` runs only for a structure that is new.

Because of that, equality *is* identity: ``Expr`` defines no ``__eq__`` and
no ``__hash__``, so a node hashes and compares as the object it is, in C,
and a solver-cache hit is an identity check with no Python call.  The same
holds below a node: ``BvSort(w)`` returns the single sort object of width
``w`` and ``BoolSort()`` the single boolean sort (unpickling too), and
:class:`Op` hashes by identity, so an intern-table key hashes and compares
without entering Python.  The price is a rule: every node must be built
through the table (``Expr(...)``, a helper, ``simplify``, unpickling).  A
node made around it -- ``type.__call__(Expr, ...)`` -- is a different,
unequal node of the same structure.

The table is weak, but a node is not dropped the moment its last user lets
go: the last ``_KEPT`` nodes built stay alive in a bounded queue, the
*nursery*.  The engine rebuilds the same short-lived structures on every
path -- a branch's ``ite(c, 1, 0)``, its ``!= 0`` and ``== 0`` sides and
their negations -- and a structure rebuilt while its node is still in the
nursery is a table hit that keeps its memos (``_simplified``, ``_symbols``,
...).  Memory stays bounded by the live nodes plus the last ``_KEPT`` built.

Facts derived from a node live *on* the node: its simplified form (written by
:func:`repro.solver.simplify.simplify`), its symbol set, its depth and the
constants it mentions -- and, for a branch value, the two conditions
:func:`repro.engine.values.truth_condition` and ``false_condition`` derive
from it -- are each computed once per node and read back from a slot
afterwards, so every walk is linear in *distinct* nodes however often a
sub-DAG is referenced, and every path that builds a structure shares what
another path already paid for.  The memo slots stay out of pickles.
(:func:`evaluate` and the interval walks are not memoised and still pay
once per reference.)
"""

from __future__ import annotations

import enum
import threading
import weakref
from collections import deque
from typing import (Any, Dict, FrozenSet, Iterable, List, Literal, Mapping,
                    Optional, Sequence, Tuple, Union)


class Op(enum.Enum):
    """Operators of the expression language."""

    # Leaf nodes
    BV_CONST = "bv_const"
    BOOL_CONST = "bool_const"
    BV_SYMBOL = "bv_symbol"

    # Bitvector arithmetic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    UDIV = "udiv"
    UREM = "urem"

    # Bitwise
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    LSHR = "lshr"

    # Structure
    CONCAT = "concat"
    EXTRACT = "extract"
    ZEXT = "zext"

    # Comparisons (bitvector -> bool)
    EQ = "eq"
    NE = "ne"
    ULT = "ult"
    ULE = "ule"
    SLT = "slt"
    SLE = "sle"

    # Boolean connectives
    BOOL_AND = "bool_and"
    BOOL_OR = "bool_or"
    BOOL_NOT = "bool_not"
    ITE = "ite"

    # Members are singletons: hash by identity, in C (``Enum.__hash__``
    # hashes the name in Python, once per intern-table key).
    __hash__ = object.__hash__


# Every operator as a module constant.  On CPython 3.11 ``Op.ADD`` inside a
# function goes through the enum metaclass's attribute hook, about ten times
# a global load, and the walks below (and ``simplify``, ``interval``) test
# operators once per node.  Per-node code reads these, never ``Op.X``.
BV_CONST, BOOL_CONST, BV_SYMBOL = Op.BV_CONST, Op.BOOL_CONST, Op.BV_SYMBOL
ADD, SUB, MUL, UDIV, UREM = Op.ADD, Op.SUB, Op.MUL, Op.UDIV, Op.UREM
AND, OR, XOR, NOT, SHL, LSHR = Op.AND, Op.OR, Op.XOR, Op.NOT, Op.SHL, Op.LSHR
CONCAT, EXTRACT, ZEXT = Op.CONCAT, Op.EXTRACT, Op.ZEXT
EQ, NE, ULT, ULE, SLT, SLE = Op.EQ, Op.NE, Op.ULT, Op.ULE, Op.SLT, Op.SLE
BOOL_AND, BOOL_OR, BOOL_NOT, ITE = Op.BOOL_AND, Op.BOOL_OR, Op.BOOL_NOT, Op.ITE


class Sort:
    """Base class for expression sorts."""

    __slots__ = ()


#: The bitvector sort of each width made so far.  There is one object per
#: sort, so sorts compare and hash by identity.
_BV_SORTS: Dict[int, "BvSort"] = {}


class BoolSort(Sort):
    """The boolean sort.  ``BoolSort()`` is always the one object ``BOOL``."""

    __slots__ = ()

    def __new__(cls) -> "BoolSort":
        return BOOL

    def __reduce__(self):
        return (BoolSort, ())

    def __repr__(self) -> str:
        return "Bool"


class BvSort(Sort):
    """A fixed-width bitvector sort.  ``BvSort(w)`` is always the one sort
    object of width ``w``; ``mask`` is ``2**w - 1``."""

    __slots__ = ("width", "mask")

    def __new__(cls, width: int) -> "BvSort":
        sort = _BV_SORTS.get(width)
        if sort is None:
            if width <= 0:
                raise ValueError(
                    "bitvector width must be positive, got %r" % width)
            sort = super().__new__(cls)
            sort.width = width
            sort.mask = (1 << width) - 1
            # ``setdefault`` is atomic: racing threads keep the same object.
            sort = _BV_SORTS.setdefault(width, sort)
        return sort

    def __reduce__(self):
        return (BvSort, (self.width,))

    def __repr__(self) -> str:
        return "Bv%d" % self.width


BOOL: BoolSort = object.__new__(BoolSort)
BV8 = BvSort(8)
BV16 = BvSort(16)
BV32 = BvSort(32)
BV64 = BvSort(64)


def to_signed(value: int, width: int) -> int:
    """Interpret an unsigned ``width``-bit value as two's-complement."""
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def from_signed(value: int, width: int) -> int:
    """Encode a (possibly negative) integer as an unsigned ``width``-bit value."""
    return value & ((1 << width) - 1)


#: Every live node, keyed on its class and defining fields.  Weak: a
#: structure nothing references any more is dropped with its node.  There
#: is never a second node of a live structure: the first build of a
#: structure happens under ``_BUILDING``, which looks the key up again, so
#: of two threads racing to build it one builds and the other gets its node.
_NODES: weakref.WeakValueDictionary[tuple, Expr] = weakref.WeakValueDictionary()

#: The table's own dict (key -> weak reference), read directly:
#: ``WeakValueDictionary.get`` is a Python call.
_REFS = _NODES.data

#: Held while a new structure is looked up again, built and registered.
_BUILDING = threading.Lock()

#: How many of the most recently built nodes the nursery keeps alive.
_KEPT = 4096

#: The nursery: the last ``_KEPT`` nodes built, oldest first.  Appending
#: to a full queue lets its oldest node go.
_NURSERY: deque[Expr] = deque(maxlen=_KEPT)


class _Interned(type):
    """Metaclass of :class:`Expr`: constructing a structure that is already
    alive returns that node; only a new structure reaches ``__init__``, and
    its node joins the nursery."""

    def __call__(cls, op: Op, args: Tuple["Expr", ...] = (),
                 sort: Optional[Sort] = None, value: Any = None,
                 name: Optional[str] = None, params: Tuple[int, ...] = ()) -> Any:
        key = (cls, op, args, sort, value, name, params)
        ref = _REFS.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        with _BUILDING:
            ref = _REFS.get(key)
            node = ref() if ref is not None else None
            if node is None:
                node = _NODES[key] = super().__call__(op, args, sort, value,
                                                      name, params)
                _NURSERY.append(node)
        return node


class Expr(metaclass=_Interned):
    """An immutable expression node.

    Instances should be created through the module-level constructor helpers
    (:func:`bv_const`, :func:`add`, :func:`eq`, ...) which validate sorts.
    Constructing a structure that is already alive returns the existing node,
    so two nodes are equal exactly when they are the same object.
    """

    __slots__ = ("op", "args", "sort", "value", "name", "params",
                 "_simplified", "_symbols", "_depth", "_constants",
                 "_truth", "_falsity", "__weakref__")

    def __init__(
        self,
        op: Op,
        args: Tuple["Expr", ...] = (),
        sort: Optional[Sort] = None,
        value: Any = None,
        name: Optional[str] = None,
        params: Tuple[int, ...] = (),
    ):
        self.op = op
        self.args = args
        #: A :class:`BoolSort` or a :class:`BvSort` (``is_bool``/``is_bv``).
        self.sort: Any = sort
        #: An ``int`` on bitvector constants, a ``bool`` on boolean ones.
        self.value = value
        self.name = name
        self.params = params
        #: Memo of :func:`repro.solver.simplify.simplify`: the canonical
        #: form, or ``True`` when this node is its own (a self-reference
        #: would be a cycle only the garbage collector could free).
        self._simplified: Union[None, Literal[True], Expr] = None
        self._symbols: Optional[FrozenSet[Expr]] = None
        self._depth: Optional[int] = None
        self._constants: Optional[FrozenSet[int]] = None
        #: Memos of :func:`repro.engine.values.truth_condition` and
        #: :func:`~repro.engine.values.false_condition` on this node.
        self._truth: Optional[Expr] = None
        self._falsity: Optional[Expr] = None

    # -- identity ---------------------------------------------------------

    def __reduce__(self):
        # Only the defining fields travel: memo slots stay out of pickles,
        # and the receiver rebuilds through the intern table, so an
        # unpickled node is the one already alive there, if any.
        return (type(self), (self.op, self.args, self.sort, self.value,
                             self.name, self.params))

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        # Expressions are immutable; treating them as atoms keeps state
        # forking cheap (environment-model data may embed symbolic cells).
        return self

    # -- introspection ----------------------------------------------------

    @property
    def is_bool(self) -> bool:
        return isinstance(self.sort, BoolSort)

    @property
    def is_bv(self) -> bool:
        return isinstance(self.sort, BvSort)

    @property
    def width(self) -> int:
        if not isinstance(self.sort, BvSort):
            raise TypeError("expression %r is not a bitvector" % (self,))
        return self.sort.width

    @property
    def is_constant(self) -> bool:
        return self.op is BV_CONST or self.op is BOOL_CONST

    @property
    def is_symbol(self) -> bool:
        return self.op is BV_SYMBOL

    def symbols(self) -> FrozenSet["Expr"]:
        """The symbol leaves appearing in this expression."""
        out = self._symbols
        if out is None:
            if self.op is BV_SYMBOL:
                # Not stored: a symbol holding a set that holds the symbol
                # would be a reference cycle.
                return frozenset((self,))
            out = self._symbols = _union(arg.symbols() for arg in self.args)
        return out

    def depth(self) -> int:
        """Height of the expression (leaves have depth 1)."""
        out = self._depth
        if out is None:
            out = 1 + max((arg.depth() for arg in self.args), default=0)
            self._depth = out
        return out

    def constants(self) -> FrozenSet[int]:
        """The values of the bitvector constants appearing in this expression."""
        out = self._constants
        if out is None:
            if self.op is BV_CONST:
                out = frozenset((self.value,))
            else:
                out = _union(arg.constants() for arg in self.args)
            self._constants = out
        return out

    # -- printing ---------------------------------------------------------

    def __repr__(self) -> str:
        if self.op is BV_CONST:
            return "Bv%d(%d)" % (self.width, self.value)
        if self.op is BOOL_CONST:
            return "Bool(%s)" % self.value
        if self.op is BV_SYMBOL:
            return "%s:%d" % (self.name, self.width)
        if self.op is EXTRACT:
            return "Extract(%d,%d, %r)" % (self.params[0], self.params[1], self.args[0])
        if self.op is ZEXT:
            return "ZExt(%d, %r)" % (self.params[0], self.args[0])
        return "%s(%s)" % (self.op.value, ", ".join(repr(a) for a in self.args))


_NOTHING: FrozenSet = frozenset()


def _union(sets: Iterable[FrozenSet]) -> FrozenSet:
    """Union of ``sets``, handing back one of them whenever it covers the rest
    (a parent usually mentions exactly what one child does)."""
    out = _NOTHING
    for found in sets:
        if not found <= out:
            out = found if out <= found else out | found
    return out


# Subclass aliases kept for readable isinstance checks in client code.
class BvConst(Expr):
    __slots__ = ()


class BoolConst(Expr):
    __slots__ = ()


class BvSymbol(Expr):
    __slots__ = ()


TRUE = BoolConst(BOOL_CONST, sort=BOOL, value=True)
FALSE = BoolConst(BOOL_CONST, sort=BOOL, value=False)


# -- constructors ----------------------------------------------------------


def bv_const(value: int, width: int) -> Expr:
    """A bitvector constant of the given width (value taken modulo 2**width)."""
    # The sort is read from the table inline: ``BvSort.__new__`` is a
    # Python call, and constants are built on every symbolic operation.
    sort = _BV_SORTS.get(width) or BvSort(width)
    return BvConst(BV_CONST, sort=sort, value=int(value) & sort.mask)


def bool_const(value: bool) -> Expr:
    return TRUE if value else FALSE


def bv_symbol(name: str, width: int = 8) -> Expr:
    """A free bitvector variable."""
    if not name:
        raise ValueError("symbol name must be non-empty")
    return BvSymbol(BV_SYMBOL, sort=BvSort(width), name=name)


def _require_bv(*exprs: Expr) -> None:
    for e in exprs:
        if not isinstance(e, Expr) or not e.is_bv:
            raise TypeError("expected bitvector expression, got %r" % (e,))


def _require_same_width(a: Expr, b: Expr) -> None:
    if (isinstance(a, Expr) and isinstance(b, Expr) and a.sort is b.sort
            and isinstance(a.sort, BvSort)):
        return
    _require_bv(a, b)
    if a.width != b.width:
        raise TypeError(
            "width mismatch: %d vs %d (%r, %r)" % (a.width, b.width, a, b)
        )


def _require_bool(*exprs: Expr) -> None:
    for e in exprs:
        if not isinstance(e, Expr) or not e.is_bool:
            raise TypeError("expected boolean expression, got %r" % (e,))


def _binop(op: Op, a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(op, (a, b), sort=a.sort)


def add(a: Expr, b: Expr) -> Expr:
    return _binop(ADD, a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return _binop(SUB, a, b)


def mul(a: Expr, b: Expr) -> Expr:
    return _binop(MUL, a, b)


def udiv(a: Expr, b: Expr) -> Expr:
    return _binop(UDIV, a, b)


def urem(a: Expr, b: Expr) -> Expr:
    return _binop(UREM, a, b)


def band(a: Expr, b: Expr) -> Expr:
    return _binop(AND, a, b)


def bor(a: Expr, b: Expr) -> Expr:
    return _binop(OR, a, b)


def bxor(a: Expr, b: Expr) -> Expr:
    return _binop(XOR, a, b)


def bnot(a: Expr) -> Expr:
    _require_bv(a)
    return Expr(NOT, (a,), sort=a.sort)


def shl(a: Expr, b: Expr) -> Expr:
    return _binop(SHL, a, b)


def lshr(a: Expr, b: Expr) -> Expr:
    return _binop(LSHR, a, b)


def concat(high: Expr, low: Expr) -> Expr:
    """Concatenate two bitvectors; ``high`` supplies the most significant bits."""
    _require_bv(high, low)
    return Expr(CONCAT, (high, low), sort=BvSort(high.width + low.width))


def extract(expr: Expr, high_bit: int, low_bit: int) -> Expr:
    """Extract bits ``[high_bit:low_bit]`` (inclusive) from a bitvector."""
    _require_bv(expr)
    if not (0 <= low_bit <= high_bit < expr.width):
        raise ValueError(
            "invalid extract range [%d:%d] on width %d" % (high_bit, low_bit, expr.width)
        )
    return Expr(
        EXTRACT,
        (expr,),
        sort=BvSort(high_bit - low_bit + 1),
        params=(high_bit, low_bit),
    )


def zext(expr: Expr, new_width: int) -> Expr:
    """Zero-extend a bitvector to ``new_width`` bits."""
    _require_bv(expr)
    if new_width < expr.width:
        raise ValueError("cannot zero-extend width %d to %d" % (expr.width, new_width))
    if new_width == expr.width:
        return expr
    return Expr(ZEXT, (expr,), sort=BvSort(new_width), params=(new_width,))


def eq(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(EQ, (a, b), sort=BOOL)


def ne(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(NE, (a, b), sort=BOOL)


def ult(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(ULT, (a, b), sort=BOOL)


def ule(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(ULE, (a, b), sort=BOOL)


def ugt(a: Expr, b: Expr) -> Expr:
    return ult(b, a)


def uge(a: Expr, b: Expr) -> Expr:
    return ule(b, a)


def slt(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(SLT, (a, b), sort=BOOL)


def sle(a: Expr, b: Expr) -> Expr:
    _require_same_width(a, b)
    return Expr(SLE, (a, b), sort=BOOL)


def sgt(a: Expr, b: Expr) -> Expr:
    return slt(b, a)


def sge(a: Expr, b: Expr) -> Expr:
    return sle(b, a)


def logical_and(*exprs: Expr) -> Expr:
    """N-ary boolean conjunction (folded left, empty conjunction is TRUE)."""
    _require_bool(*exprs)
    if not exprs:
        return TRUE
    out = exprs[0]
    for e in exprs[1:]:
        out = Expr(BOOL_AND, (out, e), sort=BOOL)
    return out


def logical_or(*exprs: Expr) -> Expr:
    """N-ary boolean disjunction (folded left, empty disjunction is FALSE)."""
    _require_bool(*exprs)
    if not exprs:
        return FALSE
    out = exprs[0]
    for e in exprs[1:]:
        out = Expr(BOOL_OR, (out, e), sort=BOOL)
    return out


def logical_not(expr: Expr) -> Expr:
    _require_bool(expr)
    return Expr(BOOL_NOT, (expr,), sort=BOOL)


def implies(a: Expr, b: Expr) -> Expr:
    return logical_or(logical_not(a), b)


def ite(cond: Expr, then: Expr, otherwise: Expr) -> Expr:
    """If-then-else over bitvector or boolean branches of equal sort."""
    _require_bool(cond)
    if then.sort is not otherwise.sort:
        raise TypeError(
            "ite branch sorts differ: %r vs %r" % (then.sort, otherwise.sort)
        )
    return Expr(ITE, (cond, then, otherwise), sort=then.sort)


def concat_bytes(byte_exprs: Sequence[Expr]) -> Expr:
    """Concatenate 8-bit expressions big-endian into one wide bitvector."""
    if not byte_exprs:
        raise ValueError("cannot concatenate an empty byte sequence")
    out = byte_exprs[0]
    for b in byte_exprs[1:]:
        out = concat(out, b)
    return out


def evaluate(expr: Expr, assignment: Mapping[Expr, int],
             default: Optional[int] = None) -> object:
    """Evaluate ``expr`` under an assignment of symbol -> unsigned int.

    Returns an ``int`` for bitvector expressions and a ``bool`` for boolean
    expressions.  An unassigned symbol reads ``default``; without one it
    raises ``KeyError``.  (Widths and masks are read off the sort: the
    ``width`` property is a Python call per node.)
    """
    op = expr.op
    if op is BV_CONST:
        return expr.value
    if op is BOOL_CONST:
        return expr.value
    if op is BV_SYMBOL:
        value = assignment.get(expr, default)
        if value is None:
            raise KeyError(expr)
        return value & expr.sort.mask

    args: List[Any] = [evaluate(a, assignment, default) for a in expr.args]

    if op is ADD:
        return (args[0] + args[1]) & expr.sort.mask
    if op is SUB:
        return (args[0] - args[1]) & expr.sort.mask
    if op is MUL:
        return (args[0] * args[1]) & expr.sort.mask
    if op is UDIV:
        mask = expr.sort.mask
        return mask if args[1] == 0 else (args[0] // args[1]) & mask
    if op is UREM:
        return args[0] if args[1] == 0 else (args[0] % args[1]) & expr.sort.mask
    if op is AND:
        return args[0] & args[1]
    if op is OR:
        return args[0] | args[1]
    if op is XOR:
        return args[0] ^ args[1]
    if op is NOT:
        return ~args[0] & expr.sort.mask
    if op is SHL:
        if args[1] >= expr.sort.width:
            return 0
        return (args[0] << args[1]) & expr.sort.mask
    if op is LSHR:
        return 0 if args[1] >= expr.sort.width else args[0] >> args[1]
    if op is CONCAT:
        return (args[0] << expr.args[1].sort.width) | args[1]
    if op is EXTRACT:
        high, low = expr.params
        return (args[0] >> low) & ((1 << (high - low + 1)) - 1)
    if op is ZEXT:
        return args[0]
    if op is EQ:
        return args[0] == args[1]
    if op is NE:
        return args[0] != args[1]
    if op is ULT:
        return args[0] < args[1]
    if op is ULE:
        return args[0] <= args[1]
    if op is SLT:
        w = expr.args[0].sort.width
        return to_signed(args[0], w) < to_signed(args[1], w)
    if op is SLE:
        w = expr.args[0].sort.width
        return to_signed(args[0], w) <= to_signed(args[1], w)
    if op is BOOL_AND:
        return args[0] and args[1]
    if op is BOOL_OR:
        return args[0] or args[1]
    if op is BOOL_NOT:
        return not args[0]
    if op is ITE:
        return args[1] if args[0] else args[2]
    raise NotImplementedError("evaluate: unhandled operator %r" % op)
