"""Unit tests for expression simplification."""

from repro.solver import expr as E
from repro.solver.simplify import conjuncts, simplify


X = E.bv_symbol("x", 8)
Y = E.bv_symbol("y", 8)


def test_constant_folding():
    expr = E.add(E.bv_const(3, 8), E.mul(E.bv_const(2, 8), E.bv_const(5, 8)))
    assert simplify(expr) == E.bv_const(13, 8)


def test_bool_constant_folding():
    expr = E.ult(E.bv_const(1, 8), E.bv_const(2, 8))
    assert simplify(expr) == E.TRUE


def test_add_zero_identity():
    assert simplify(E.add(X, E.bv_const(0, 8))) == X
    assert simplify(E.add(E.bv_const(0, 8), X)) == X


def test_sub_self_is_zero():
    assert simplify(E.sub(X, X)) == E.bv_const(0, 8)


def test_mul_identities():
    assert simplify(E.mul(X, E.bv_const(0, 8))) == E.bv_const(0, 8)
    assert simplify(E.mul(X, E.bv_const(1, 8))) == X


def test_and_or_identities():
    assert simplify(E.band(X, E.bv_const(0, 8))) == E.bv_const(0, 8)
    assert simplify(E.band(X, E.bv_const(0xFF, 8))) == X
    assert simplify(E.bor(X, E.bv_const(0, 8))) == X
    assert simplify(E.bor(X, E.bv_const(0xFF, 8))) == E.bv_const(0xFF, 8)


def test_xor_self_is_zero():
    assert simplify(E.bxor(X, X)) == E.bv_const(0, 8)


def test_comparison_on_same_operand():
    assert simplify(E.eq(X, X)) == E.TRUE
    assert simplify(E.ne(X, X)) == E.FALSE
    assert simplify(E.ult(X, X)) == E.FALSE
    assert simplify(E.ule(X, X)) == E.TRUE


def test_double_negation():
    cond = E.eq(X, E.bv_const(1, 8))
    assert simplify(E.logical_not(E.logical_not(cond))) == simplify(cond)


def test_negated_comparison_is_pushed_inward():
    cond = simplify(E.logical_not(E.eq(X, E.bv_const(1, 8))))
    assert cond.op == E.Op.NE


def test_negated_ult_becomes_ule_swapped():
    cond = simplify(E.logical_not(E.ult(X, Y)))
    assert cond.op == E.Op.ULE
    assert cond.args == (Y, X)


def test_bool_and_or_short_circuit_constants():
    cond = E.eq(X, E.bv_const(1, 8))
    assert simplify(E.logical_and(cond, E.TRUE)) == simplify(cond)
    assert simplify(E.logical_and(cond, E.FALSE)) == E.FALSE
    assert simplify(E.logical_or(cond, E.TRUE)) == E.TRUE
    assert simplify(E.logical_or(cond, E.FALSE)) == simplify(cond)


def test_ite_constant_condition():
    assert simplify(E.ite(E.TRUE, X, Y)) == X
    assert simplify(E.ite(E.FALSE, X, Y)) == Y


def test_ite_same_branches():
    cond = E.eq(X, E.bv_const(3, 8))
    assert simplify(E.ite(cond, Y, Y)) == Y


def test_ite_comparison_folding_eq_then_branch():
    """ite(c, 1, 0) != 0 folds back to c (the load-bearing rule)."""
    cond = E.ult(X, E.bv_const(10, 8))
    boolish = E.ite(cond, E.bv_const(1, 32), E.bv_const(0, 32))
    assert simplify(E.ne(boolish, E.bv_const(0, 32))) == simplify(cond)
    assert simplify(E.eq(boolish, E.bv_const(0, 32))).op == E.Op.ULE


def test_ite_comparison_folding_never_equal():
    cond = E.ult(X, E.bv_const(10, 8))
    boolish = E.ite(cond, E.bv_const(1, 32), E.bv_const(2, 32))
    assert simplify(E.eq(boolish, E.bv_const(7, 32))) == E.FALSE
    assert simplify(E.ne(boolish, E.bv_const(7, 32))) == E.TRUE


def test_extract_full_width_is_identity():
    assert simplify(E.extract(X, 7, 0)) == X


def test_zext_of_zext_collapses():
    expr = simplify(E.zext(E.zext(X, 16), 32))
    assert expr.op == E.Op.ZEXT
    assert expr.args[0] == X
    assert expr.width == 32


def test_shift_identities():
    assert simplify(E.shl(X, E.bv_const(0, 8))) == X
    assert simplify(E.lshr(E.bv_const(0, 8), X)) == E.bv_const(0, 8)


def test_simplification_preserves_semantics_spot_checks():
    exprs = [
        E.add(E.mul(X, E.bv_const(1, 8)), E.bv_const(0, 8)),
        E.bor(E.band(X, E.bv_const(0xFF, 8)), E.bv_const(0, 8)),
        E.ite(E.ule(X, X), X, Y),
    ]
    for expr in exprs:
        simplified = simplify(expr)
        for value in (0, 1, 7, 255):
            assert E.evaluate(expr, {X: value, Y: 3}) == \
                E.evaluate(simplified, {X: value, Y: 3})


def test_conjuncts_flattening():
    a = E.eq(X, E.bv_const(1, 8))
    b = E.ne(Y, E.bv_const(2, 8))
    c = E.ult(X, Y)
    combined = E.logical_and(E.logical_and(a, b), c)
    assert conjuncts(combined) == [a, b, c]


def test_conjuncts_of_non_conjunction():
    a = E.eq(X, E.bv_const(1, 8))
    assert conjuncts(a) == [a]
