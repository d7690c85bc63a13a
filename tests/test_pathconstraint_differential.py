"""Differential oracle: a carried path constraint is the recomputed one.

Until path constraints remembered their groups, ``Solver._check`` re-derived
the whole front-end on every query: a fresh ``simplify`` of every constraint
(rebuilding each tree), a split into conjuncts, and a from-scratch union-find
``partition``.  That code lives on here as the *reference*.  Every query of a
run is answered twice -- by the solver itself from the ``PathConstraint`` it
was handed, and by a shadow solver handed the front-end recomputed from the
constraints as added -- and the two must agree on the group list (order and
duplicates), the verdict, the model and every counter, query after query.

The mutants at the bottom show the comparison has teeth: a grouping that
drops a duplicate, or that merges into the wrong position, fails it.

A side the interpreter checked installs the query that checked it instead of
extending its path constraint again.  Every install is compared with the
extension it replaces, at every check-then-add site.
"""

import sys
from collections import Counter
from typing import Dict, List

import pytest
from hypothesis import given, settings, strategies as st

from repro.distrib import specs
from repro.engine.state import ExecutionState
from repro.solver import expr as E
from repro.solver import independence, pathconstraint
from repro.solver.expr import Expr, Op
from repro.solver.independence import Group
from repro.solver.pathconstraint import PathConstraint
from repro.solver.simplify import _apply_identities, _fold_concrete, conjuncts
from repro.solver.solver import Solver

from conftest import BUILTIN_SPECS


# -- the reference: what src/ did before path constraints kept their groups --------


def reference_simplify(expr, cache):
    """The memo-free simplifier: every node rebuilt, one dict per call tree."""
    cached = cache.get(expr)
    if cached is not None:
        return cached
    if expr.op in (Op.BV_CONST, Op.BOOL_CONST, Op.BV_SYMBOL):
        cache[expr] = expr
        return expr
    args = tuple(reference_simplify(a, cache) for a in expr.args)
    node = Expr(expr.op, args, sort=expr.sort, value=expr.value,
                name=expr.name, params=expr.params)
    if all(a.is_constant for a in args):
        out = _fold_concrete(node)
    else:
        out = _apply_identities(node)
    cache[expr] = out
    return out


class _UnionFind:
    """Union-find over symbol expressions (path compression + size union)."""

    def __init__(self) -> None:
        self._parent: Dict[Expr, Expr] = {}
        self._size: Dict[Expr, int] = {}

    def find(self, item):
        parent = self._parent.setdefault(item, item)
        if parent is item:
            self._size.setdefault(item, 1)
            return item
        root = item
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[item] is not root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a, b) -> None:
        root_a, root_b = self.find(a), self.find(b)
        if root_a is root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]


def reference_partition(constraints) -> List[List[Expr]]:
    uf = _UnionFind()
    constraint_symbols = []
    for constraint in constraints:
        symbols = sorted(constraint.symbols(),
                         key=lambda s: (s.name or "", s.width))
        constraint_symbols.append(symbols)
        for other in symbols[1:]:
            uf.union(symbols[0], other)

    groups: Dict[object, List[Expr]] = {}
    order: List[object] = []
    for index, (constraint, symbols) in enumerate(
            zip(constraints, constraint_symbols)):
        key: object = uf.find(symbols[0]) if symbols else ("const", index)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(constraint)
    return [groups[key] for key in order]


def reference_query(constraints):
    """The query ``_check`` used to derive from scratch, in the shape the
    solver now takes it: fresh simplification, conjuncts up to the first
    ``FALSE``, union-find groups with keys and symbol sets built anew."""
    query = PathConstraint()
    query.constraints = tuple(constraints)
    simplified = []
    for c in constraints:
        for conj in conjuncts(reference_simplify(c, {})):
            if conj.op == Op.BOOL_CONST:
                if not conj.value:
                    query.is_false = True
                    return query
                continue
            simplified.append(conj)
    query.conjuncts = tuple(simplified)
    query.groups = tuple(Group.of(g) for g in reference_partition(simplified))
    return query


_real_check = Solver.check


@pytest.fixture
def checked(monkeypatch):
    """Answer every query twice; count the comparisons made."""
    compared = Counter()

    def check(self, constraints):
        query = (constraints if isinstance(constraints, PathConstraint)
                 else PathConstraint(constraints))
        shadow = self.__dict__.get("_shadow")
        if shadow is None:
            shadow = self._shadow = Solver(self.config)
        reference = reference_query(list(query))
        answer = _real_check(self, query)
        assert answer == _real_check(shadow, reference), compared["queries"]
        assert query.is_false == reference.is_false
        if not query.is_false:
            groups = query.groups
            assert query.conjuncts == reference.conjuncts
            assert ([g.constraints for g in groups]
                    == [g.constraints for g in reference.groups])
            for group in groups:
                assert group.key == frozenset(group.constraints)
                assert group.symbols == frozenset().union(
                    *(c.symbols() for c in group.constraints))
                assert [query.conjuncts[p] for p in group.positions] \
                    == list(group.constraints)
            compared["groups"] += len(groups)
            compared["duplicates"] += sum(
                len(g.constraints) - len(g.key) for g in groups)
            compared["merged"] += any(
                p != q + 1 for g in groups
                for q, p in zip(g.positions, g.positions[1:]))
        assert self.cache_counters() == shadow.cache_counters()
        assert self.stats.snapshot() == shadow.stats.snapshot()
        compared["queries"] += 1
        return answer

    monkeypatch.setattr(Solver, "check", check)
    return compared


TARGETS = {
    "printf": dict(format_length=3),
    "memcached-packets": {},
}


@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_single_engine_queries_match_the_recomputed_front_end(checked, spec):
    test = specs.resolve_test(spec, **TARGETS[spec])
    result = test.run(backend="single")
    assert result.exhausted
    assert checked["queries"] == result.cache_stats["solver_queries"] > 1000
    assert checked["groups"] > checked["queries"]
    # The contract's corner cases really occur: repeated conjuncts inside a
    # group, and groups whose members are not contiguous in the query.
    assert checked["duplicates"] > 0 and checked["merged"] > 0


@pytest.mark.parametrize("spec", sorted(TARGETS))
def test_cluster_queries_match_the_recomputed_front_end(checked, spec):
    test = specs.resolve_test(spec, **TARGETS[spec])
    result = test.run(backend="cluster", workers=2)
    assert result.exhausted and result.states_transferred > 0
    # Replayed paths rebuild their path constraints on the importing worker.
    assert checked["queries"] == result.cache_stats["solver_queries"] > 1000


# -- a checked side installs its query ------------------------------------------------


def _front_end(pc):
    return (pc.constraints, pc.conjuncts, pc.is_false,
            [(g.constraints, g.positions, g.key, g.symbols) for g in pc.groups])


def test_an_installed_query_is_the_extension_it_replaces(monkeypatch):
    """At every site that checks a condition and then adds it, the path
    constraint installed is ``pc.extended(c)`` -- or ``pc`` itself when
    ``c`` was already on the path."""
    installs = Counter()
    real_add = ExecutionState.add_constraint

    def add_constraint(self, constraint, checked=None):
        before = self.path_constraints
        present = constraint in before
        real_add(self, constraint, checked)
        after = self.path_constraints
        site = sys._getframe(1).f_code.co_name
        if present:
            assert after is before, site
        else:
            assert _front_end(after) == _front_end(before.extended(constraint))
            assert checked is None or after is checked, site
        installs[site, checked is not None, present] += 1

    monkeypatch.setattr(ExecutionState, "add_constraint", add_constraint)
    for spec in BUILTIN_SPECS:
        specs.resolve_test(spec).run(backend="single", max_instructions=3000)
    for site in ("_exec_branch", "_exec_assert", "_exec_store", "_load",
                 "_apply_native_fork"):
        assert installs[site, True, False] > 0, site
    assert installs["_exec_branch", True, True] > 0
    assert installs["_exec_assert", True, True] > 0
    assert installs["_exec_store", True, True] > 0


# -- the comparison has teeth ---------------------------------------------------------


def _dropping_duplicates(groups, position, constraint):
    if any(constraint in group.key for group in groups):
        return groups
    return independence.grouped(groups, position, constraint)


def _merging_at_the_end(groups, position, constraint):
    out = independence.grouped(groups, position, constraint)
    return tuple(sorted(out, key=lambda g: g.positions[-1] == position))


@pytest.mark.parametrize("mutant, spec, params", [
    # printf re-tests a format byte: a conjunct repeats inside a group.
    (_dropping_duplicates, "printf", dict(format_length=2)),
    # memcached branches on an early packet's byte after reading a later one.
    (_merging_at_the_end, "memcached-packets", dict(num_packets=2, packet_size=4)),
])
def test_a_wrong_grouping_fails_the_differential(checked, monkeypatch, mutant,
                                                 spec, params):
    monkeypatch.setattr(pathconstraint, "grouped", mutant)
    with pytest.raises(AssertionError):
        specs.resolve_test(spec, **params).run(backend="single")
    assert checked["queries"] > 0


# -- from scratch, on anything: groups that really merge ------------------------------

_LETTERS = [E.bv_symbol(name, 8) for name in "abcde"]


@st.composite
def _constraint(draw):
    """A constraint over zero to three of five symbols."""
    mentioned = draw(st.lists(st.sampled_from(_LETTERS), max_size=3))
    total = E.bv_const(draw(st.integers(0, 3)), 8)
    for symbol in mentioned:
        total = E.add(total, symbol)
    return E.ult(total, E.bv_const(draw(st.integers(1, 4)), 8))


@settings(max_examples=300)
@given(constraints=st.lists(_constraint(), max_size=12))
def test_partition_matches_the_union_find(constraints):
    assert independence.partition(constraints) == reference_partition(constraints)


# -- what the front-end may cost --------------------------------------------------------


def test_memcached_front_end_cost_is_pinned(monkeypatch):
    """The bench's memcached unit (3 packets x 4 bytes): a constraint is
    simplified once and no engine query partitions from scratch."""
    counts = Counter()
    real_init = Expr.__init__

    def counting_init(self, *args, **kwargs):
        counts["expr_allocs"] += 1
        real_init(self, *args, **kwargs)

    real_partition = independence.partition

    def counting_partition(constraints):
        counts["partition_calls"] += 1
        return real_partition(constraints)

    monkeypatch.setattr(Expr, "__init__", counting_init)
    import repro.solver
    for module in (repro.solver, independence):
        monkeypatch.setattr(module, "partition", counting_partition)

    test = specs.resolve_test("memcached-packets", num_packets=3, packet_size=4)
    result = test.run(backend="single")
    assert result.exhausted and result.paths_completed == 1111
    assert result.cache_stats["solver_queries"] == 4885
    assert counts["partition_calls"] == 0
    # 322 985 before constraints were simplified once, 30 932 before
    # expressions were interned, 11 632 before recently built nodes were
    # kept alive; 312 since, in a cold process.
    assert counts["expr_allocs"] <= 15_000
