"""Property-based tests for the solver substrate (hypothesis).

The second half checks the *whole* stack against enumeration: sequences of
"prefix + one branch" queries over three 4-bit symbols (4 096 points) go
through one :class:`Solver`, so independence, both caches, the recent models
and the UNKNOWN memo all engage, and every verdict and every model is
compared with the set of points that really satisfy the query.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver import expr as E
from repro.solver.interval import Interval, interval_of, truth_of
from repro.solver.pathconstraint import PathConstraint
from repro.solver.simplify import simplify
from repro.solver.solver import Solver, SolverConfig, SolverResult


SYMBOLS = [E.bv_symbol("a", 8), E.bv_symbol("b", 8), E.bv_symbol("c", 8)]


def expr_strategy(depth: int = 3):
    """Random 8-bit bitvector expressions over three symbols."""
    leaves = st.one_of(
        st.sampled_from(SYMBOLS),
        st.integers(min_value=0, max_value=255).map(lambda v: E.bv_const(v, 8)),
    )

    def extend(children):
        binops = st.sampled_from([E.add, E.sub, E.mul, E.band, E.bor, E.bxor])
        return st.builds(lambda op, a, b: op(a, b), binops, children, children)

    return st.recursive(leaves, extend, max_leaves=6)


def bool_expr_strategy():
    comparisons = st.sampled_from([E.eq, E.ne, E.ult, E.ule, E.slt, E.sle])
    return st.builds(lambda op, a, b: op(a, b), comparisons,
                     expr_strategy(), expr_strategy())


assignments = st.fixed_dictionaries({
    SYMBOLS[0]: st.integers(min_value=0, max_value=255),
    SYMBOLS[1]: st.integers(min_value=0, max_value=255),
    SYMBOLS[2]: st.integers(min_value=0, max_value=255),
})


@settings(max_examples=150)
@given(expr=expr_strategy(), assignment=assignments)
def test_simplify_preserves_bitvector_semantics(expr, assignment):
    assert E.evaluate(simplify(expr), assignment) == E.evaluate(expr, assignment)


@settings(max_examples=150)
@given(expr=bool_expr_strategy(), assignment=assignments)
def test_simplify_preserves_boolean_semantics(expr, assignment):
    assert E.evaluate(simplify(expr), assignment) == E.evaluate(expr, assignment)


@settings(max_examples=100)
@given(expr=expr_strategy(), assignment=assignments)
def test_interval_domain_is_sound(expr, assignment):
    """The concrete value always lies within the computed interval."""
    bounds = {s: Interval(v, v) for s, v in assignment.items()}
    value = E.evaluate(expr, assignment)
    interval = interval_of(expr, bounds)
    assert interval.lo <= value <= interval.hi


@settings(max_examples=100)
@given(expr=bool_expr_strategy(), assignment=assignments)
def test_truth_of_is_sound(expr, assignment):
    """When the interval domain decides a truth value, it matches reality."""
    bounds = {s: Interval(v, v) for s, v in assignment.items()}
    verdict = truth_of(expr, bounds)
    if verdict is not None:
        assert verdict == E.evaluate(expr, assignment)


@settings(max_examples=60)
@given(constraint=bool_expr_strategy())
def test_solver_models_satisfy_their_constraints(constraint):
    solver = Solver()
    model = solver.get_model([constraint])
    if model is not None:
        assert model.satisfies([constraint])


@settings(max_examples=60)
@given(constraint=bool_expr_strategy(), assignment=assignments)
def test_solver_never_reports_unsat_for_satisfiable_queries(constraint, assignment):
    """If a witness exists, the solver must not claim UNSAT."""
    if E.evaluate(constraint, assignment):
        solver = Solver()
        assert solver.is_satisfiable([constraint])


@settings(max_examples=60)
@given(value=st.integers(min_value=0, max_value=255),
       other=st.integers(min_value=0, max_value=255))
def test_solver_equality_pair(value, other):
    """x == v && x == w is satisfiable exactly when v == w."""
    solver = Solver()
    x = SYMBOLS[0]
    constraints = [E.eq(x, E.bv_const(value, 8)), E.eq(x, E.bv_const(other, 8))]
    assert solver.is_satisfiable(constraints) == (value == other)


@pytest.mark.parametrize("first, second", [(E.eq, E.ne), (E.ne, E.eq)])
def test_a_commuted_equality_contradiction_takes_no_search(first, second):
    """``a == b`` and ``b != a`` over two bytes, as ``rev`` asks it: a
    contradiction found without trying the 65 536 byte pairs."""
    a, b = (E.zext(symbol, 32) for symbol in SYMBOLS[:2])
    solver = Solver()
    result, _ = solver.check([first(a, b), second(b, a)])
    assert result == SolverResult.UNSAT
    assert solver.stats.search_steps == 0


# -- the full operator set, over three 4-bit symbols ---------------------------------

NIBBLES = [E.bv_symbol("p", 4), E.bv_symbol("q", 4), E.bv_symbol("r", 4)]
POINTS = [dict(zip(NIBBLES, values))
          for values in itertools.product(range(16), repeat=3)]

_BV_BINOPS = [E.add, E.sub, E.mul, E.udiv, E.urem, E.band, E.bor, E.bxor,
              E.shl, E.lshr]
_COMPARISONS = [E.eq, E.ne, E.ult, E.ule, E.ugt, E.uge, E.slt, E.sle]


@functools.lru_cache(maxsize=None)
def nibble_strategy(depth: int = 2):
    """4-bit expressions using every operator the engine emits."""
    leaves = st.one_of(
        st.sampled_from(NIBBLES),
        st.integers(min_value=0, max_value=15).map(lambda v: E.bv_const(v, 4)),
    )
    if depth == 0:
        return leaves
    sub, cond = nibble_strategy(depth - 1), condition_strategy(depth - 1)
    low_bits = st.integers(min_value=0, max_value=4)
    return st.one_of(
        leaves,
        st.builds(lambda op, a, b: op(a, b), st.sampled_from(_BV_BINOPS), sub, sub),
        st.builds(E.bnot, sub),
        st.builds(E.ite, cond, sub, sub),
        # Width changes that come back to 4 bits.
        st.builds(lambda a, b, low: E.extract(E.concat(a, b), low + 3, low),
                  sub, sub, low_bits),
        st.builds(lambda a, low: E.extract(E.zext(E.zext(a, 6), 8), low + 3, low),
                  sub, low_bits),
        st.builds(lambda a, high: E.zext(E.extract(a, high, 0), 4),
                  sub, st.integers(min_value=0, max_value=3)),
    )


@functools.lru_cache(maxsize=None)
def condition_strategy(depth: int = 2):
    """Boolean expressions over :func:`nibble_strategy`."""
    sub = nibble_strategy(depth)
    compare = st.builds(lambda op, a, b: op(a, b),
                        st.sampled_from(_COMPARISONS), sub, sub)
    wide = st.builds(lambda op, a, b, k: op(E.concat(a, b), E.bv_const(k, 8)),
                     st.sampled_from(_COMPARISONS), sub, sub,
                     st.integers(min_value=0, max_value=255))
    # The engine's encoding of a C comparison result: ite(cond, 1, 0) != 0.
    c_style = st.builds(
        lambda op, c, k: op(E.ite(c, E.bv_const(1, 4), E.bv_const(0, 4)),
                            E.bv_const(k, 4)),
        st.sampled_from([E.eq, E.ne]), compare,
        st.integers(min_value=0, max_value=2))
    # An (in)equality and another over the same operands swapped: the pair
    # lands in one query as two conjuncts.
    equalities = st.sampled_from([E.eq, E.ne])
    commuted = st.builds(lambda op, other, a, b: E.logical_and(op(a, b),
                                                               other(b, a)),
                         equalities, equalities, sub, sub)
    if depth == 0:
        return st.one_of(compare, wide, commuted)
    lower = condition_strategy(depth - 1)
    return st.one_of(
        compare, wide, c_style, commuted,
        st.sampled_from([E.TRUE, E.FALSE]),
        st.builds(E.logical_not, lower),
        st.builds(E.logical_and, lower, lower),
        st.builds(E.logical_or, lower, lower),
        st.builds(E.ite, lower, lower, lower),
    )


def rebuilt(expr):
    """A structurally equal copy made of new nodes: no memo survives."""
    if not expr.args:
        return expr
    return type(expr)(expr.op, tuple(rebuilt(a) for a in expr.args),
                      sort=expr.sort, value=expr.value, name=expr.name,
                      params=expr.params)


@settings(max_examples=300)
@given(expr=st.one_of(nibble_strategy(), condition_strategy()),
       point=st.sampled_from(POINTS))
def test_simplify_preserves_semantics_on_the_full_operator_set(expr, point):
    assert E.evaluate(simplify(expr), point) == E.evaluate(expr, point)


@settings(max_examples=300)
@given(expr=st.one_of(nibble_strategy(), condition_strategy()))
def test_simplify_is_idempotent(expr):
    """``simplify`` marks its result canonical, so it had better be: a memo-free
    copy of the result must simplify to itself."""
    once = simplify(expr)
    assert simplify(once) is once
    assert simplify(rebuilt(once)) == once


# -- the brute-force oracle for the full stack ---------------------------------------


def _satisfying_points(memo, constraint):
    """Bit ``i`` set iff ``POINTS[i]`` satisfies ``constraint``."""
    bits = memo.get(constraint)
    if bits is None:
        bits = 0
        for index, point in enumerate(POINTS):
            if E.evaluate(constraint, point):
                bits |= 1 << index
        memo[constraint] = bits
    return bits


paths_strategy = st.lists(
    st.lists(st.tuples(condition_strategy(), st.booleans()),
             min_size=1, max_size=5),
    min_size=1, max_size=3)


@settings(max_examples=40)
@given(paths=paths_strategy, budget=st.sampled_from([200_000, 200_000, 24]))
def test_full_stack_agrees_with_enumeration(paths, budget):
    """Explore like the engine does -- test both sides of every branch against
    the path so far, follow a feasible side -- and check every answer."""
    config = SolverConfig(max_search_steps=budget)
    solver = Solver(config)
    # The same queries as plain lists: the wrapped and the carried
    # front-end must not be tellable apart.
    from_lists = Solver(config)
    memo = {}
    everything = (1 << len(POINTS)) - 1
    for path in paths:
        taken = PathConstraint()
        reachable = everything
        for condition, prefer_true in path:
            holds = _satisfying_points(memo, condition)
            sides = [(condition, holds),
                     (E.logical_not(condition), everything & ~holds)]
            if not prefer_true:
                sides.reverse()
            follow = None
            for side, where in sides:
                query = taken.extended(side)
                truth = reachable & where
                result, model = solver.check(query)
                assert (result, model) == from_lists.check(list(query))
                assert solver.cache_counters() == from_lists.cache_counters()
                if result == SolverResult.SAT:
                    assert model.satisfies(query)
                    point = {s: model.value_of(s) for s in NIBBLES}
                    assert truth >> POINTS.index(point) & 1
                elif result == SolverResult.UNSAT:
                    assert truth == 0
                else:
                    assert budget < 200_000, "UNKNOWN within a 4 096-point space"
                if truth and follow is None:
                    follow = side, truth
            if follow is None:
                break
            taken = taken.extended(follow[0])
            reachable = follow[1]
