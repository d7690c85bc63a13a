"""Tests for constraint independence partitioning and incremental solving."""

import pytest

from repro.solver import expr as E
from repro.solver.independence import partition
from repro.solver.model import Model
from repro.solver.pathconstraint import PathConstraint
from repro.solver.solver import Solver, SolverConfig, SolverResult


A = E.bv_symbol("a", 8)
B = E.bv_symbol("b", 8)
C = E.bv_symbol("c", 8)
D = E.bv_symbol("d", 8)


def lt(sym, value):
    return E.ult(sym, E.bv_const(value, 8))


class TestPartition:
    def test_disjoint_symbols_split(self):
        groups = partition([lt(A, 10), lt(B, 20)])
        assert [len(g) for g in groups] == [1, 1]

    def test_shared_symbol_joins(self):
        shared = E.eq(E.add(A, B), E.bv_const(5, 8))
        groups = partition([lt(A, 10), shared, lt(C, 3)])
        assert len(groups) == 2
        assert {lt(A, 10), shared} in [set(g) for g in groups]

    def test_transitive_connection(self):
        # a-b and b-c connect a, b, c into one group even though a and c
        # never appear together in a constraint.
        ab = E.ult(A, B)
        bc = E.ult(B, C)
        groups = partition([ab, bc, lt(D, 9)])
        assert len(groups) == 2
        assert set(groups[0]) == {ab, bc}

    def test_order_is_deterministic_and_stable(self):
        constraints = [lt(C, 5), lt(A, 9), E.ult(C, D), lt(B, 2)]
        groups = partition(constraints)
        # Groups ordered by first constituent; in-group query order kept.
        assert groups == [[lt(C, 5), E.ult(C, D)], [lt(A, 9)], [lt(B, 2)]]
        assert partition(constraints) == groups

    def test_symbol_free_constraints_are_singletons(self):
        # Constants normally simplify away before partitioning, but the
        # partitioner must not merge unrelated constraints through them.
        const = E.eq(E.bv_const(1, 8), E.bv_const(1, 8))
        groups = partition([const, lt(A, 3), const])
        assert [len(g) for g in groups] == [1, 1, 1]

    def test_empty_input(self):
        assert partition([]) == []


class TestIndependentSolving:
    def test_merged_model_covers_all_groups(self):
        solver = Solver()
        constraints = [E.eq(A, E.bv_const(4, 8)), E.eq(B, E.bv_const(7, 8)),
                       E.eq(E.add(C, D), E.bv_const(9, 8))]
        result, model = solver.check(constraints)
        assert result == SolverResult.SAT
        assert model.satisfies(constraints)
        assert model.value_of(A) == 4 and model.value_of(B) == 7

    def test_groups_counted_per_query(self):
        solver = Solver()
        solver.check([lt(A, 5), lt(B, 5), lt(C, 5)])
        assert solver.stats.independence_groups == 3

    def test_unsat_group_refutes_query(self):
        solver = Solver()
        constraints = [lt(A, 200),
                       E.logical_and(lt(B, 10), E.ult(E.bv_const(20, 8), B))]
        assert not solver.is_satisfiable(constraints)
        assert solver.stats.unsat_queries == 1

    def test_incremental_query_resolves_only_new_group(self):
        solver = Solver()
        base = [lt(A, 5), lt(B, 5)]
        assert solver.is_satisfiable(base)
        solved_before = solver.stats.groups_solved
        # "Previous path constraint + one new branch" touching only C: the
        # a/b groups must be answered from the caches.
        assert solver.is_satisfiable(base + [E.eq(C, E.bv_const(3, 8))])
        assert solver.stats.groups_solved == solved_before + 1
        assert solver.stats.independence_hits >= 2

    def test_changed_group_resolves_fresh(self):
        solver = Solver()
        base = [lt(A, 50), lt(B, 5)]
        assert solver.is_satisfiable(base)
        # Narrowing the a-group changes only that group's key.
        narrowed = [lt(A, 50), E.ult(E.bv_const(20, 8), A), lt(B, 5)]
        solved_before = solver.stats.groups_solved
        assert solver.is_satisfiable(narrowed)
        assert solver.stats.groups_solved <= solved_before + 1

    def test_independence_off_records_no_group_counters(self):
        # With the layer disabled, the whole query is one group internally
        # but none of the independence counters move: the ablation must not
        # attribute plain cache hits to a disabled layer.
        solver = Solver(SolverConfig(use_independence=False))
        solver.check([lt(A, 5), lt(B, 5), lt(C, 5)])
        solver.check([lt(A, 5), lt(B, 5), lt(C, 5)])
        assert solver.stats.independence_groups == 0
        assert solver.stats.independence_hits == 0
        assert solver.stats.cache_hits > 0

    def test_group_cache_hit_cannot_poison_cross_group_merge(self):
        # A reused model may carry assignments for other groups' symbols;
        # cached group verdicts must be restricted to the group's own
        # symbols or a stale a=5 would overwrite a fresh a=3 in the merge.
        solver = Solver()
        r1, m1 = solver.check([E.eq(A, E.bv_const(5, 8)), lt(B, 10)])
        assert r1 == SolverResult.SAT and m1.value_of(A) == 5
        query = [E.eq(A, E.bv_const(3, 8)), lt(B, 10)]
        r2, m2 = solver.check(query)
        assert r2 == SolverResult.SAT
        assert m2.value_of(A) == 3
        assert m2.satisfies(query)

    def test_budget_starved_group_is_not_memoized_unknown(self):
        # The hard group drains the shared per-query budget and the easy
        # group's search starves; the easy group alone must still solve.
        solver = Solver(SolverConfig(max_search_steps=200))
        hard = [E.eq(E.mul(A, B), E.bv_const(143, 8)),
                E.ne(A, E.bv_const(1, 8)), E.ne(B, E.bv_const(1, 8)),
                E.ne(A, E.bv_const(143, 8)), E.ne(B, E.bv_const(143, 8))]
        easy = [E.logical_or(E.eq(C, E.bv_const(7, 8)),
                             E.eq(D, E.bv_const(9, 8)))]
        solver.check(hard + easy)
        result, model = solver.check(easy)
        assert result == SolverResult.SAT
        assert model.satisfies(easy)

    @pytest.mark.parametrize("use_independence", [True, False])
    def test_verdicts_agree_across_modes(self, use_independence):
        solver = Solver(SolverConfig(use_independence=use_independence))
        queries = [
            ([lt(A, 5), lt(B, 5)], SolverResult.SAT),
            ([E.eq(A, E.bv_const(1, 8)), E.eq(A, E.bv_const(2, 8)),
              lt(B, 9)], SolverResult.UNSAT),
            ([E.ult(A, B), E.ult(B, C), lt(C, 3),
              E.eq(D, E.bv_const(200, 8))], SolverResult.SAT),
            ([E.eq(E.add(A, B), E.bv_const(10, 8)), lt(A, 3),
              E.logical_and(lt(C, 4), E.ult(E.bv_const(4, 8), C))],
             SolverResult.UNSAT),
        ]
        for constraints, expected in queries:
            result, model = solver.check(constraints)
            assert result == expected
            if expected == SolverResult.SAT:
                assert model.satisfies(constraints)

    def test_group_hits_survive_reset_only_via_resolve(self):
        solver = Solver()
        constraints = [lt(A, 5), lt(B, 5)]
        solver.check(constraints)
        solver.reset_caches()
        solved_before = solver.stats.groups_solved
        solver.check(constraints)
        assert solver.stats.groups_solved > solved_before


class TestGroupMemo:
    def test_untouched_groups_answer_from_their_memo(self):
        solver = Solver()
        base = PathConstraint([lt(A, 5), lt(B, 5)])
        solver.check(base)
        assert all(group.memo is not None for group in base.groups)
        extended = base.extended(E.eq(C, E.bv_const(3, 8)))
        # The a- and b-groups are the very objects the base query filled.
        assert extended.groups[:2] == base.groups
        looked_up = []
        lookup = solver._cache.lookup
        solver._cache.lookup = lambda key: looked_up.append(key) or lookup(key)
        hits = solver.stats.independence_hits
        solver.check(extended)
        assert looked_up == [extended.groups[2].key]
        assert solver.stats.independence_hits == hits + 2

    def test_with_the_constraint_cache_off_no_memo_answers(self):
        query = PathConstraint([lt(A, 5), lt(B, 5)])
        Solver().check(query)  # leaves a memo on each group
        solver = Solver(SolverConfig(use_constraint_cache=False,
                                     use_counterexample_cache=False))
        for _ in range(3):
            assert solver.check(query)[0] == SolverResult.SAT
        counters = solver.cache_counters()
        assert counters["constraint_cache_hits"] == 0
        assert counters["constraint_cache_misses"] == 0
        # Nothing was answered without the search or the recent models.
        assert solver.stats.groups_solved + solver.stats.cache_hits == 6

    def test_solvers_sharing_a_path_constraint_keep_their_own_verdicts(self):
        query = PathConstraint([lt(A, 5), lt(B, 5)])
        first, second = Solver(), Solver()
        first.check(query)
        second.check(query)
        # ``second`` saw ``first``'s memos and ignored them.
        assert second.cache_counters()["constraint_cache_hits"] == 0
        assert second.cache_counters()["constraint_cache_misses"] == 2
        # Then ``first`` finds ``second``'s memos and ignores those.
        first.check(query)
        assert first.cache_counters()["constraint_cache_hits"] == 2
        assert first.cache_counters()["constraint_cache_misses"] == 2
        # A verdict ``second`` cached never answers for ``first``.
        unsat = PathConstraint([lt(A, 5), E.ult(E.bv_const(9, 8), A)])
        second._cache.insert(unsat.groups[0].key, True, Model({A: 0}))
        unsat.groups[0].memo = (second._cache.generation,
                                (True, Model({A: 0})))
        assert first.check(unsat)[0] == SolverResult.UNSAT


class TestUnknownMemoization:
    HARD = [E.eq(E.mul(A, B), E.bv_const(143, 8)),
            E.ne(A, E.bv_const(1, 8)), E.ne(B, E.bv_const(1, 8)),
            E.ult(E.bv_const(100, 8), E.add(A, C))]

    def test_unknown_is_memoized(self):
        solver = Solver(SolverConfig(max_search_steps=1))
        assert solver.check(self.HARD)[0] == SolverResult.UNKNOWN
        steps_before = solver.stats.search_steps
        assert solver.check(self.HARD)[0] == SolverResult.UNKNOWN
        assert solver.stats.unknown_cache_hits == 1
        assert solver.stats.search_steps == steps_before
        assert solver.stats.unknown_queries == 2

    def test_unknown_group_memo_reused_by_superset_query(self):
        solver = Solver(SolverConfig(max_search_steps=1))
        assert solver.check(self.HARD)[0] == SolverResult.UNKNOWN
        solved_before = solver.stats.groups_solved
        # Same hard group plus an unrelated new branch: the hard group must
        # come from the unknown memo, not another budget-exhausting search.
        result, _ = solver.check(self.HARD + [E.eq(D, E.bv_const(1, 8))])
        assert result == SolverResult.UNKNOWN
        assert solver.stats.unknown_cache_hits >= 1
        assert solver.stats.groups_solved <= solved_before + 1

    def test_unknown_memo_is_bounded(self):
        solver = Solver(SolverConfig(max_search_steps=1,
                                     unknown_cache_capacity=2))
        for offset in range(4):
            query = [E.eq(E.mul(A, B), E.bv_const(143, 8)),
                     E.ne(A, E.bv_const(1, 8)), E.ne(B, E.bv_const(1, 8)),
                     E.ult(E.bv_const(100 + offset, 8), E.add(A, C))]
            solver.check(query)
        assert len(solver._unknown) <= 2

    def test_starved_query_not_memoized_and_retry_succeeds(self):
        # or(a==7, a==9) costs exactly 4 search steps (candidates 0, 255, 6,
        # 7).  With a budget of 5 the first group solves and leaves 1 step,
        # starving the identical-shaped second group.  The *query* must not
        # be memoized UNKNOWN: on retry the first group is a cache hit, the
        # second gets the full budget, and the query is SAT.
        solver = Solver(SolverConfig(max_search_steps=5))
        group_a = [E.logical_or(E.eq(A, E.bv_const(7, 8)),
                                E.eq(A, E.bv_const(9, 8)))]
        group_b = [E.logical_or(E.eq(B, E.bv_const(7, 8)),
                                E.eq(B, E.bv_const(9, 8)))]
        first, _ = solver.check(group_a + group_b)
        assert first == SolverResult.UNKNOWN
        retry, model = solver.check(group_a + group_b)
        assert retry == SolverResult.SAT
        assert model.satisfies(group_a + group_b)
        assert solver.stats.unknown_cache_hits == 0

    def test_unknown_still_reported_satisfiable(self):
        solver = Solver(SolverConfig(max_search_steps=1))
        assert solver.is_satisfiable(self.HARD)
        assert solver.is_satisfiable(self.HARD)  # memoized path

    def test_reset_caches_clears_unknown_memo(self):
        solver = Solver(SolverConfig(max_search_steps=1))
        solver.check(self.HARD)
        solver.reset_caches()
        solver.check(self.HARD)
        assert solver.stats.unknown_cache_hits == 0


class TestCountersPlumbing:
    def test_cache_counters_include_independence(self):
        solver = Solver()
        solver.check([lt(A, 5), lt(B, 5)])
        counters = solver.cache_counters()
        for key in ("independence_groups", "groups_solved",
                    "independence_hits", "unknown_cache_hits",
                    "solver_queries", "solver_search_steps"):
            assert key in counters
        assert counters["independence_groups"] == 2

    def test_stats_delta_since(self):
        solver = Solver()
        solver.check([lt(B, 5)])
        before = solver.stats.snapshot()
        solver.check([lt(A, 5)])
        now = solver.stats.snapshot()
        assert now.keys() == before.keys()
        assert now["queries"] - before["queries"] == 1
        assert now["independence_groups"] - before["independence_groups"] == 1

    def test_recent_model_reuse_is_sound_for_partial_models(self):
        # Group-level models are partial; reusing one for another group must
        # still yield a true model (missing symbols default to 0).
        solver = Solver()
        solver.check([E.eq(A, E.bv_const(9, 8))])
        result, model = solver.check([lt(B, 10)])
        assert result == SolverResult.SAT
        assert model.satisfies([lt(B, 10)])

    def test_model_type(self):
        solver = Solver()
        _, model = solver.check([lt(A, 5), lt(B, 5)])
        assert isinstance(model, Model)
