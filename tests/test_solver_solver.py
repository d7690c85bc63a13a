"""Unit tests for the constraint solver and its caches."""

import pytest

from repro.distrib import specs
from repro.solver import expr as E
from repro.solver.cache import ConstraintCache, CounterexampleCache
from repro.solver.model import Model
from repro.solver.pathconstraint import PathConstraint
from repro.solver.solver import Solver, SolverConfig, SolverResult


X = E.bv_symbol("x", 8)
Y = E.bv_symbol("y", 8)
Z = E.bv_symbol("z", 8)


class TestSatisfiability:
    def test_empty_query_is_sat(self):
        solver = Solver()
        result, model = solver.check([])
        assert result == SolverResult.SAT
        assert model is not None

    def test_simple_equality(self):
        solver = Solver()
        model = solver.get_model([E.eq(X, E.bv_const(42, 8))])
        assert model is not None
        assert model.value_of(X) == 42

    def test_contradiction_is_unsat(self):
        solver = Solver()
        assert not solver.is_satisfiable([
            E.eq(X, E.bv_const(1, 8)),
            E.eq(X, E.bv_const(2, 8)),
        ])

    def test_direct_negation_is_unsat(self):
        solver = Solver()
        cond = E.ult(X, E.bv_const(10, 8))
        assert not solver.is_satisfiable([cond, E.logical_not(cond)])

    def test_range_constraints(self):
        solver = Solver()
        model = solver.get_model([
            E.ule(E.bv_const(100, 8), X),
            E.ult(X, E.bv_const(110, 8)),
            E.ne(X, E.bv_const(100, 8)),
        ])
        assert model is not None
        assert 101 <= model.value_of(X) <= 109

    def test_multi_variable(self):
        solver = Solver()
        constraints = [
            E.eq(E.add(X, Y), E.bv_const(10, 8)),
            E.ult(X, E.bv_const(3, 8)),
            E.ule(E.bv_const(1, 8), X),
        ]
        model = solver.get_model(constraints)
        assert model is not None
        assert model.satisfies(constraints)

    def test_unsat_range(self):
        solver = Solver()
        assert not solver.is_satisfiable([
            E.ult(X, E.bv_const(5, 8)),
            E.ult(E.bv_const(10, 8), X),
        ])

    def test_boolean_disjunction(self):
        solver = Solver()
        constraints = [E.logical_or(E.eq(X, E.bv_const(7, 8)),
                                    E.eq(X, E.bv_const(9, 8))),
                       E.ne(X, E.bv_const(7, 8))]
        model = solver.get_model(constraints)
        assert model is not None
        assert model.value_of(X) == 9

    def test_constraints_over_wide_values(self):
        solver = Solver()
        word = E.concat(X, Y)
        constraints = [E.eq(word, E.bv_const(0x0102, 16))]
        model = solver.get_model(constraints)
        assert model is not None
        assert model.value_of(X) == 1
        assert model.value_of(Y) == 2

    def test_three_variables_with_ordering(self):
        solver = Solver()
        constraints = [E.ult(X, Y), E.ult(Y, Z), E.ult(Z, E.bv_const(3, 8))]
        model = solver.get_model(constraints)
        assert model is not None
        assert model.value_of(X) < model.value_of(Y) < model.value_of(Z) < 3

    def test_get_model_returns_none_for_unsat(self):
        solver = Solver()
        assert solver.get_model([E.ult(X, E.bv_const(0, 8))]) is None

    def test_unknown_treated_as_satisfiable(self):
        solver = Solver(SolverConfig(max_search_steps=1))
        constraints = [E.eq(E.mul(X, Y), E.bv_const(143, 8)),
                       E.ne(X, E.bv_const(1, 8)), E.ne(Y, E.bv_const(1, 8)),
                       E.ult(E.bv_const(100, 8), E.add(X, Z))]
        # The step budget is too small to decide; the engine-facing answer
        # must err on the side of "satisfiable".
        assert solver.is_satisfiable(constraints)

    def test_stats_counting(self):
        solver = Solver()
        solver.is_satisfiable([E.eq(X, E.bv_const(3, 8))])
        solver.is_satisfiable([E.ult(X, E.bv_const(0, 8))])
        assert solver.stats.queries == 2
        assert solver.stats.sat_queries >= 1
        assert solver.stats.unsat_queries >= 1


class TestSolverCaching:
    def test_repeated_query_hits_cache(self):
        solver = Solver()
        constraints = [E.eq(X, E.bv_const(5, 8))]
        solver.is_satisfiable(constraints)
        before = solver.stats.cache_hits
        solver.is_satisfiable(list(constraints))
        assert solver.stats.cache_hits > before

    def test_reset_caches(self):
        solver = Solver()
        solver.is_satisfiable([E.eq(X, E.bv_const(5, 8))])
        solver.reset_caches()
        assert solver.cache_stats["constraint_cache_entries"] == 0

    def test_incremental_query_uses_recent_model(self):
        solver = Solver()
        base = [E.ult(X, E.bv_const(100, 8))]
        assert solver.is_satisfiable(base)
        hits_before = solver.stats.cache_hits
        assert solver.is_satisfiable(base + [E.ule(X, E.bv_const(200, 8))])
        assert solver.stats.cache_hits > hits_before


class TestGroupMemo:
    """A group remembers its constraint-cache entry (``Group.memo``): a
    memo answers exactly as the cache would, hits included, and never
    outlives the cache generation it was written in."""

    @staticmethod
    def misses(solver):
        return solver.cache_counters()["constraint_cache_misses"]

    @staticmethod
    def hits(solver):
        return solver.cache_counters()["constraint_cache_hits"]

    def test_a_memo_answers_as_a_lookup_hit_would(self):
        solver = Solver()
        query = PathConstraint([E.ult(X, E.bv_const(5, 8))])
        assert solver.check(query)[0] == SolverResult.SAT
        (group,) = query.groups
        assert group.memo is not None and group.memo[1][0] is True
        for round_ in range(1, 4):
            assert solver.check(query)[0] == SolverResult.SAT
            assert (self.hits(solver), self.misses(solver)) == (round_, 1)
            assert solver.stats.cache_hits == round_
            assert solver.stats.independence_hits == round_
        assert solver.stats.groups_solved == 1

    def test_after_reset_caches_a_clean_group_misses_exactly_once(self):
        solver = Solver()
        query = PathConstraint([E.ult(X, E.bv_const(5, 8))])
        solver.check(query)
        solver.check(query)
        assert (self.hits(solver), self.misses(solver)) == (1, 1)
        solver.reset_caches()
        solver.check(query)
        assert (self.hits(solver), self.misses(solver)) == (1, 2)
        assert solver.stats.groups_solved == 2
        solver.check(query)
        solver.check(query)
        assert (self.hits(solver), self.misses(solver)) == (3, 2)

    def test_after_an_eviction_a_clean_group_misses_exactly_once(self):
        solver = Solver()
        solver._cache = ConstraintCache(capacity=2)
        first, second, third = (
            PathConstraint([E.ult(v, E.bv_const(5, 8))]) for v in (X, Y, Z))
        for query in (first, second, first, second):
            solver.check(query)
        assert (self.hits(solver), self.misses(solver)) == (2, 2)
        solver.check(third)  # the third entry empties the cache wholesale
        assert len(solver._cache) == 1 and self.misses(solver) == 3
        solver.check(first)
        assert (self.hits(solver), self.misses(solver)) == (2, 4)
        solver.check(first)
        assert (self.hits(solver), self.misses(solver)) == (3, 4)

    def test_reinserting_a_cached_key_invalidates_the_memos(self):
        cache = ConstraintCache()
        entry = cache.insert([E.eq(X, E.bv_const(1, 8))], True, Model({X: 1}))
        generation = cache.generation
        assert cache.lookup([E.eq(X, E.bv_const(1, 8))]) is entry
        cache.insert([E.eq(Y, E.bv_const(1, 8))], True, Model({Y: 1}))
        assert cache.generation is generation
        cache.insert([E.eq(X, E.bv_const(1, 8))], False, None)
        assert cache.generation is not generation

    def test_memcached_counters_are_the_cache_lookups_ones(self):
        # The values every cache and layer counter had before groups kept
        # their cache entries: a memo hit counts as the lookup hit it saves.
        test = specs.resolve_test("memcached-packets", num_packets=3,
                                  packet_size=4)
        result = test.run(backend="single")
        counters = result.cache_stats
        assert result.exhausted and counters["solver_queries"] == 4885
        assert {key: counters[key] for key in (
            "constraint_cache_hits", "constraint_cache_misses",
            "cex_cache_hits", "cex_cache_misses", "independence_hits",
            "groups_solved", "solver_search_steps")} == {
            "constraint_cache_hits": 37_857, "constraint_cache_misses": 78,
            "cex_cache_hits": 30, "cex_cache_misses": 48,
            "independence_hits": 37_895, "groups_solved": 40,
            "solver_search_steps": 2_323}


class TestConstraintCache:
    def test_insert_and_lookup(self):
        cache = ConstraintCache()
        constraints = [E.eq(X, E.bv_const(1, 8))]
        assert cache.lookup(constraints) is None
        cache.insert(constraints, True, Model({X: 1}))
        hit = cache.lookup(constraints)
        assert hit is not None and hit[0] is True

    def test_order_insensitive_key(self):
        cache = ConstraintCache()
        a = E.eq(X, E.bv_const(1, 8))
        b = E.ne(Y, E.bv_const(0, 8))
        cache.insert([a, b], False, None)
        assert cache.lookup([b, a]) == (False, None)

    def test_capacity_eviction(self):
        cache = ConstraintCache(capacity=2)
        for i in range(3):
            cache.insert([E.eq(X, E.bv_const(i, 8))], True, Model({X: i}))
        assert len(cache) <= 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ConstraintCache(capacity=0)


class TestCounterexampleCache:
    def test_superset_provides_model_for_subset(self):
        cache = CounterexampleCache()
        a = E.eq(X, E.bv_const(5, 8))
        b = E.ult(Y, E.bv_const(10, 8))
        cache.insert([a, b], True, Model({X: 5, Y: 0}))
        hit = cache.lookup([a])
        assert hit is not None and hit[0] is True

    def test_subset_model_reused_when_it_satisfies(self):
        cache = CounterexampleCache()
        a = E.eq(X, E.bv_const(5, 8))
        cache.insert([a], True, Model({X: 5}))
        hit = cache.lookup([a, E.ult(X, E.bv_const(10, 8))])
        assert hit is not None and hit[0] is True

    def test_unsat_subset_implies_unsat_superset(self):
        cache = CounterexampleCache()
        a = E.ult(X, E.bv_const(0, 8))
        cache.insert([a], False, None)
        hit = cache.lookup([a, E.eq(Y, E.bv_const(1, 8))])
        assert hit == (False, None)

    def test_miss_returns_none(self):
        cache = CounterexampleCache()
        assert cache.lookup([E.eq(X, E.bv_const(1, 8))]) is None

    def test_capacity_hit_clears_wholesale_including_recent_windows(self):
        # Eviction is wholesale: reaching capacity drops every entry AND the
        # recent-window lists used for subset/superset scans.
        cache = CounterexampleCache(capacity=3, scan_window=8)
        entries = [[E.eq(X, E.bv_const(i, 8))] for i in range(3)]
        for i, constraints in enumerate(entries):
            cache.insert(constraints, True, Model({X: i}))
        assert len(cache) == 3
        overflow = [E.eq(Y, E.bv_const(9, 8))]
        cache.insert(overflow, True, Model({Y: 9}))
        # Only the overflowing entry survives.
        assert len(cache) == 1
        assert cache.lookup(entries[0]) is None
        assert cache._recent_sat == [frozenset(overflow)]
        assert cache._recent_unsat == []
        # Subset reasoning over the dropped entries is gone too: a superset
        # of a pre-clear UNSAT entry must now miss.
        unsat_cache = CounterexampleCache(capacity=1, scan_window=8)
        impossible = [E.ult(X, E.bv_const(0, 8))]
        unsat_cache.insert(impossible, False, None)
        unsat_cache.insert([E.eq(Y, E.bv_const(2, 8))], True, Model({Y: 2}))
        assert unsat_cache.lookup(impossible + [E.eq(Z, E.bv_const(1, 8))]) is None

    def test_sat_insert_without_model_is_dropped(self):
        # A SAT verdict with no model carries nothing reusable for the
        # subset/superset reasoning; the insert is silently skipped.
        cache = CounterexampleCache()
        constraints = [E.eq(X, E.bv_const(5, 8))]
        cache.insert(constraints, True, None)
        assert len(cache) == 0
        assert cache._recent_sat == []
        assert cache.lookup(constraints) is None

    def test_hit_and_miss_accounting(self):
        cache = CounterexampleCache()
        a = E.eq(X, E.bv_const(5, 8))
        b = E.ult(X, E.bv_const(10, 8))
        impossible = E.ult(Y, E.bv_const(0, 8))
        cache.insert([a], True, Model({X: 5}))
        cache.insert([impossible], False, None)
        assert cache.stats.lookups == 0
        assert cache.lookup([a]) == (True, Model({X: 5}))      # exact SAT
        assert cache.lookup([a, b]) is not None                # subset model
        assert cache.lookup([impossible, a]) == (False, None)  # unsat subset
        assert cache.lookup([b]) is None                       # miss
        assert cache.stats.hits == 3
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.75)


class TestModel:
    def test_evaluate_with_defaults(self):
        model = Model({X: 7})
        assert model.evaluate(E.add(X, Y)) == 7  # Y defaults to 0

    def test_dont_cares_read_zero_and_the_model_is_left_alone(self):
        assignment = {X: 7}
        model = Model(assignment)
        both = E.eq(E.add(X, Y), E.bv_const(7, 8))
        assert model.evaluate(Y) == 0
        assert model.satisfies([both, E.eq(Y, E.bv_const(0, 8))])
        assert not model.satisfies([E.ne(Y, E.bv_const(0, 8))])
        # No copy was made to hold the defaults, and none leaked back.
        assert model.assignment is assignment and assignment == {X: 7}
        assert Y not in model.assignment and model.value_of(Y, 9) == 9

    def test_as_bytes(self):
        model = Model({X: 0x41, Y: 0x42})
        assert model.as_bytes([X, Y]) == b"AB"

    def test_satisfies(self):
        model = Model({X: 3})
        assert model.satisfies([E.ult(X, E.bv_const(5, 8))])
        assert not model.satisfies([E.ult(E.bv_const(5, 8), X)])

    def test_merged_with(self):
        model = Model({X: 1}).merged_with({Y: 2})
        assert model.value_of(Y) == 2 and model.value_of(X) == 1
