"""Unit and property tests for mixed concrete/symbolic arithmetic."""

from hypothesis import given, settings, strategies as st

from repro.engine import values as V
from repro.lang.ast import BinaryOp, UnaryOp
from repro.solver import expr as E
from repro.solver.model import Model


BYTES = st.integers(min_value=0, max_value=255)
WORDS = st.integers(min_value=0, max_value=2**32 - 1)
BINOPS = st.sampled_from(list(BinaryOp))
UNOPS = st.sampled_from(list(UnaryOp))


def test_concrete_detection():
    assert V.is_concrete(4)
    assert not V.is_concrete(E.bv_symbol("x", 8))
    assert V.is_symbolic(E.bv_symbol("x", 8))


def test_width_of():
    assert V.width_of(7) == 32
    assert V.width_of(E.bv_symbol("x", 8)) == 8


def test_to_expr_widening_and_narrowing():
    sym = E.bv_symbol("x", 8)
    widened = V.to_expr(sym, 32)
    assert widened.width == 32
    narrowed = V.to_expr(E.bv_symbol("y", 32), 8)
    assert narrowed.width == 8
    assert V.to_expr(300, 8).value == 300 & 0xFF


def test_binop_stays_concrete():
    assert V.binop(BinaryOp.ADD, 2, 3) == 5
    assert isinstance(V.binop(BinaryOp.ADD, 2, 3), int)


def test_binop_symbolic_result():
    sym = E.bv_symbol("x", 8)
    result = V.binop(BinaryOp.ADD, sym, 1)
    assert V.is_symbolic(result)


def test_signed_comparison_semantics():
    # 0xFFFFFFFF is -1 as a signed 32-bit value.
    assert V.concrete_binop(BinaryOp.LT, 0xFFFFFFFF, 1) == 1
    assert V.concrete_binop(BinaryOp.GT, 0xFFFFFFFF, 1) == 0


def test_division_by_zero_conventions():
    assert V.concrete_binop(BinaryOp.DIV, 5, 0) == 0xFFFFFFFF
    assert V.concrete_binop(BinaryOp.MOD, 5, 0) == 5


def test_logical_operators_concrete():
    assert V.concrete_binop(BinaryOp.LAND, 2, 3) == 1
    assert V.concrete_binop(BinaryOp.LAND, 0, 3) == 0
    assert V.concrete_binop(BinaryOp.LOR, 0, 0) == 0


def test_unop_concrete():
    assert V.unop(UnaryOp.NEG, 1) == 0xFFFFFFFF
    assert V.unop(UnaryOp.NOT, 0) == 1
    assert V.unop(UnaryOp.NOT, 5) == 0
    assert V.unop(UnaryOp.BNOT, 0) == 0xFFFFFFFF


def test_truth_and_false_conditions():
    sym = E.bv_symbol("x", 8)
    truth = V.truth_condition(sym)
    falsity = V.false_condition(sym)
    assert E.evaluate(truth, {sym: 3}) is True
    assert E.evaluate(truth, {sym: 0}) is False
    assert E.evaluate(falsity, {sym: 0}) is True
    assert E.evaluate(falsity, {sym: 3}) is False
    # Kept on the value's node: asking again builds nothing.
    assert sym._truth is truth and sym._falsity is falsity
    assert V.truth_condition(sym) is truth
    assert V.false_condition(sym) is falsity
    assert V.truth_condition(7) is E.TRUE and V.false_condition(7) is E.FALSE
    assert V.truth_condition(0) is E.FALSE and V.false_condition(0) is E.TRUE


def test_byte_value_normalization():
    assert V.byte_value(0x1FF) == 0xFF
    wide = E.bv_symbol("w", 32)
    assert V.byte_value(wide).width == 8
    narrow = E.bv_symbol("n", 8)
    assert V.byte_value(narrow) is narrow


@settings(max_examples=200)
@given(op=BINOPS, a=BYTES, b=BYTES)
def test_symbolic_binop_matches_concrete_binop(op, a, b):
    """Evaluating the symbolic encoding equals direct concrete computation."""
    sym_a = E.bv_symbol("a", 8)
    sym_b = E.bv_symbol("b", 8)
    symbolic = V.symbolic_binop(op, sym_a, sym_b)
    model = Model({sym_a: a, sym_b: b})
    evaluated = int(model.evaluate(symbolic))
    expected = V.concrete_binop(op, a, b, width=32)
    assert evaluated == expected


@settings(max_examples=100)
@given(op=UNOPS, a=WORDS)
def test_symbolic_unop_matches_concrete_unop(op, a):
    sym = E.bv_symbol("a", 32)
    symbolic = V.unop(op, sym)
    model = Model({sym: a})
    assert int(model.evaluate(symbolic)) == V.unop(op, a)


@settings(max_examples=100)
@given(a=BYTES, b=BYTES)
def test_mixed_operands_match(a, b):
    """concrete op symbolic == fully concrete result."""
    sym_b = E.bv_symbol("b", 8)
    result = V.binop(BinaryOp.SUB, a, sym_b)
    model = Model({sym_b: b})
    assert int(model.evaluate(result)) == V.concrete_binop(BinaryOp.SUB, a, b, width=32)
