"""Feasibility checking and model generation.

The solver answers the only two questions the symbolic execution engine asks:

* ``is_satisfiable(constraints)`` -- may this path be followed?
* ``get_model(constraints)`` -- concrete inputs that follow this path
  (used to emit test cases for bugs, exactly as in the paper).

A query is a :class:`~repro.solver.pathconstraint.PathConstraint`: its
constraints arrive simplified, split into conjuncts and partitioned into
independent groups, each group with its cache key ready.  The engine hands
over ``state.path_constraints.extended(branch)``, which carries all of that
over from the state's own path constraint, so a query costs what its new
branch costs; any other iterable is wrapped by the same constructor first.

Algorithm, per group the caches cannot answer: propagate unsigned interval
bounds for each free symbol to a fixpoint, then run a backtracking
enumeration over the (now narrowed) symbol domains.  Candidate values are
tried in a constraint-guided order (domain endpoints, constants appearing in
the constraints, then a sweep).  Queries in the paper's workloads involve
byte-granular symbols (packet bytes, header characters), for which this
terminates quickly; a configurable step budget bounds pathological cases.
"""

from __future__ import annotations

import enum
import time
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import Histogram
from repro.solver.cache import ConstraintCache, CounterexampleCache, QueryKey, query_key
from repro.solver.expr import BOOL_NOT, EQ, NE, Expr, evaluate
from repro.solver.independence import Group
from repro.solver.interval import Interval, full_interval, refine_bounds, truth_of
from repro.solver.model import Model
from repro.solver.pathconstraint import PathConstraint
from repro.solver.simplify import simplify


class SolverError(Exception):
    """Raised when the solver exhausts its step budget on a query."""


class SolverResult(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters exposed for the evaluation harness: plain ``int`` fields
    the solver bumps in place, cumulative over its lifetime."""

    queries: int = 0
    sat_queries: int = 0
    unsat_queries: int = 0
    unknown_queries: int = 0
    cache_hits: int = 0
    search_steps: int = 0
    # Independence layer (KLEE's IndependentSolver): every query is split
    # into groups of constraints connected by shared symbols, and each group
    # is resolved separately (see :mod:`repro.solver.independence`).
    independence_groups: int = 0
    groups_solved: int = 0
    independence_hits: int = 0
    # Memoized budget-exhaustion verdicts (re-testing the same hard fork
    # must not re-pay the full search budget).
    unknown_cache_hits: int = 0

    def snapshot(self) -> Dict[str, int]:
        return asdict(self)


@dataclass
class SolverConfig:
    max_search_steps: int = 200_000
    max_candidates_per_symbol: int = 512
    use_constraint_cache: bool = True
    use_counterexample_cache: bool = True
    #: Partition queries into independent constraint groups and solve/cache
    #: each group separately (KLEE's IndependentSolver).
    use_independence: bool = True
    #: Bound on the memoized-UNKNOWN set (FIFO eviction).
    unknown_cache_capacity: int = 4096
    propagation_rounds: int = 8


class Solver:
    """Bitvector constraint solver with caching."""

    def __init__(self, config: Optional[SolverConfig] = None):
        self.config = config or SolverConfig()
        self.stats = SolverStats()
        #: Per-query latency distribution (p50/p99 surfaced in the
        #: end-of-run ``solver_query`` trace event).
        self.query_seconds = Histogram("solver_query_seconds")
        self._cache = ConstraintCache()
        self._cex_cache = CounterexampleCache()
        # Recently found models: checking a new query against them is far
        # cheaper than a fresh search and succeeds very often because path
        # constraints grow incrementally.
        self._recent_models: List[Model] = []
        self._recent_model_limit = 12
        # Memoized UNKNOWN verdicts, keyed like the constraint cache (a dict
        # used as an insertion-ordered set, FIFO-bounded).  A query that
        # exhausted the step budget once will exhaust it again: retrying on
        # every re-test of the same fork would pay max_search_steps each time.
        self._unknown: Dict[QueryKey, None] = {}

    # -- public API ---------------------------------------------------------

    def is_satisfiable(self, constraints: Iterable[Expr]) -> bool:
        """True iff the conjunction of ``constraints`` has a model.

        Unknown results (budget exhaustion) are treated as satisfiable so the
        engine errs on the side of exploring a path rather than silently
        pruning it -- the same conservative policy KLEE applies on solver
        timeouts.
        """
        result, _ = self.check(constraints)
        return result != SolverResult.UNSAT

    def get_model(self, constraints: Iterable[Expr]) -> Optional[Model]:
        """A model of the constraints, or None if unsatisfiable/unknown."""
        result, model = self.check(constraints)
        if result == SolverResult.SAT:
            return model
        return None

    def check(self, constraints: Iterable[Expr]) -> Tuple[SolverResult, Optional[Model]]:
        """Check satisfiability and return ``(result, model_or_None)``.

        The query is split into independent constraint groups (shared-symbol
        connected components) and each group is resolved separately against
        the caches, the recent models, and -- only when everything else
        misses -- a fresh search.  Verdicts combine soundly because groups
        share no symbols: all-SAT models merge into one model, any UNSAT
        group refutes the query, and an undecided group leaves it UNKNOWN.
        """
        started = time.monotonic()
        try:
            return self._check(constraints)
        finally:
            self.query_seconds.observe(time.monotonic() - started)

    def _check(self, constraints: Iterable[Expr]) -> Tuple[SolverResult, Optional[Model]]:
        self.stats.queries += 1
        query = (constraints if isinstance(constraints, PathConstraint)
                 else PathConstraint(constraints))
        if query.is_false:
            self.stats.unsat_queries += 1
            return SolverResult.UNSAT, None

        if not query.conjuncts:
            self.stats.sat_queries += 1
            return SolverResult.SAT, Model({})

        if self._unknown and query_key(query.conjuncts) in self._unknown:
            self.stats.unknown_queries += 1
            self.stats.unknown_cache_hits += 1
            return SolverResult.UNKNOWN, None

        if self.config.use_independence:
            groups = query.groups
            self.stats.independence_groups += len(groups)
        else:
            groups = (Group.of(query.conjuncts),)

        # The step budget is per *query*: groups draw from a shared pool so a
        # pathological query costs max_search_steps total, independent of how
        # many groups it splits into.
        budget = [self.config.max_search_steps]
        merged: Dict[Expr, int] = {}
        unknown = False
        memoizable = True
        # A group whose memo belongs to the constraint cache's current
        # generation holds the entry ``lookup`` would return: take it, and
        # count the hit ``_check_group`` would have counted when the query
        # is decided.
        generation = (self._cache.generation
                      if self.config.use_constraint_cache else None)
        memo_hits = 0
        for group in groups:
            memo = group.memo
            if memo is not None and memo[0] is generation:
                memo_hits += 1
                verdict, group_model = memo[1]
            else:
                budget_before = budget[0]
                verdict, group_model = self._check_group(group, budget)
                if verdict is None:
                    # Keep scanning the remaining groups: a cheap UNSAT
                    # elsewhere still decides the whole query.
                    unknown = True
                    # An undecided group that entered without the full
                    # budget may have been starved by an earlier group's
                    # search; a retry of the identical query could succeed
                    # (the earlier group is a cache hit by then), so the
                    # query must not be memoized.
                    if budget_before < self.config.max_search_steps:
                        memoizable = False
                    continue
            if verdict is False:
                self._count_memo_hits(memo_hits)
                self.stats.unsat_queries += 1
                return SolverResult.UNSAT, None
            if group_model is not None:
                merged.update(group_model.assignment)
        self._count_memo_hits(memo_hits)
        if unknown:
            self.stats.unknown_queries += 1
            if memoizable:
                self._remember_unknown(query_key(query.conjuncts))
            return SolverResult.UNKNOWN, None

        model = Model(merged)
        self.stats.sat_queries += 1
        if len(groups) > 1:
            # The combined model frequently satisfies the next query's
            # groups wholesale ("previous path constraint + one branch").
            self._remember_model(model)
        return SolverResult.SAT, model

    def _count_memo_hits(self, hits: int) -> None:
        """Book ``hits`` groups answered from their memo as the constraint
        cache hits they stand for."""
        self._cache.stats.hits += hits
        self.stats.cache_hits += hits
        if self.config.use_independence:
            self.stats.independence_hits += hits

    def _check_group(self, group: Group,
                     budget: List[int]) -> Tuple[Optional[bool], Optional[Model]]:
        """Resolve one independent group: ``(True/False/None, model)``.

        ``None`` means undecided (budget exhausted now or memoized earlier).
        Group-level re-solving is what makes forked-state queries
        incremental: the unchanged groups of "previous path constraint + one
        new branch" all hit the exact cache, and only the group touching the
        branch's symbols reaches the search.

        Wherever this finds the group's key in the constraint cache or
        inserts it there, it writes the entry into ``group.memo`` with the
        cache's generation, and :meth:`_check` answers the group's next
        query from the memo without calling here.

        Every SAT model cached under or returned for a group key is
        *restricted to the group's own symbols*: reused models (recent
        models, counterexample-cache super/subsets) may carry assignments
        for unrelated symbols, and letting those leak would poison the
        cross-group merge in :meth:`check` (a stale ``x=5`` riding along in
        the y-group's model must not overwrite the x-group's fresh ``x=3``).
        """
        track = self.config.use_independence
        # The caches key on ``frozenset(constraints)``; handing them the
        # group's own frozenset makes that a no-op (``frozenset(k) is k``).
        key = group.key
        if self.config.use_constraint_cache:
            hit = self._cache.lookup(key)
            if hit is not None:
                group.memo = (self._cache.generation, hit)
                self.stats.cache_hits += 1
                if track:
                    self.stats.independence_hits += 1
                return hit
        if self.config.use_counterexample_cache:
            hit = self._cex_cache.lookup(key)
            if hit is not None:
                self.stats.cache_hits += 1
                if track:
                    self.stats.independence_hits += 1
                model = (hit[1].restricted_to(group.symbols)
                         if hit[1] is not None else None)
                self._cache_verdict(group, hit[0], model)
                return hit[0], model

        if key in self._unknown:
            self.stats.unknown_cache_hits += 1
            return None, None

        # Fast path: one of the recently found models may already satisfy
        # the group (models of supersets solved moments ago usually do).
        for recent in reversed(self._recent_models):
            if recent.satisfies(group.constraints):
                self.stats.cache_hits += 1
                if track:
                    self.stats.independence_hits += 1
                model = recent.restricted_to(group.symbols)
                self._cache_verdict(group, True, model)
                if self.config.use_counterexample_cache:
                    self._cex_cache.insert(key, True, model)
                return True, model

        self.stats.groups_solved += 1
        budget_at_entry = budget[0]
        try:
            model = self._solve(group.constraints, budget)
        except SolverError:
            # Memoize only when this group saw the full per-query budget: a
            # group starved by an earlier group's search might be perfectly
            # solvable on its own, and must not be branded UNKNOWN forever.
            if budget_at_entry >= self.config.max_search_steps:
                self._remember_unknown(key)
            return None, None

        is_sat = model is not None
        if is_sat:
            self._remember_model(model)
        self._cache_verdict(group, is_sat, model)
        if self.config.use_counterexample_cache:
            self._cex_cache.insert(key, is_sat, model)
        return is_sat, model

    def _cache_verdict(self, group: Group, is_sat: bool,
                       model: Optional[Model]) -> None:
        """Put a group's verdict into the constraint cache, if it is on, and
        memoise the new entry on the group."""
        if self.config.use_constraint_cache:
            entry = self._cache.insert(group.key, is_sat, model)
            # Read after the insert: an eviction starts a new generation.
            group.memo = (self._cache.generation, entry)

    def _remember_model(self, model: Model) -> None:
        self._recent_models.append(model)
        if len(self._recent_models) > self._recent_model_limit:
            self._recent_models.pop(0)

    def _remember_unknown(self, key: QueryKey) -> None:
        if self.config.unknown_cache_capacity <= 0:
            return
        while len(self._unknown) >= self.config.unknown_cache_capacity:
            self._unknown.pop(next(iter(self._unknown)))
        self._unknown[key] = None

    def reset_caches(self) -> None:
        """Drop all cached results (used when simulating job migration)."""
        self._cache.clear()
        self._cex_cache.clear()
        self._recent_models.clear()
        self._unknown.clear()

    @property
    def cache_stats(self) -> Dict[str, float]:
        return {
            "constraint_cache_entries": len(self._cache),
            "constraint_cache_hit_rate": self._cache.stats.hit_rate,
            "cex_cache_entries": len(self._cex_cache),
            "cex_cache_hit_rate": self._cex_cache.stats.hit_rate,
        }

    def cache_counters(self) -> Dict[str, int]:
        """Raw per-solver counters, aggregatable across workers (see
        :func:`repro.solver.cache.aggregate_cache_counters`): cache hit/miss
        counts plus the solver/independence counters of :class:`SolverStats`.
        """
        return {
            "constraint_cache_hits": self._cache.stats.hits,
            "constraint_cache_misses": self._cache.stats.misses,
            "cex_cache_hits": self._cex_cache.stats.hits,
            "cex_cache_misses": self._cex_cache.stats.misses,
            "solver_queries": self.stats.queries,
            "solver_search_steps": self.stats.search_steps,
            "independence_groups": self.stats.independence_groups,
            "groups_solved": self.stats.groups_solved,
            "independence_hits": self.stats.independence_hits,
            "unknown_cache_hits": self.stats.unknown_cache_hits,
        }

    # -- internals ----------------------------------------------------------

    def _solve(self, constraints: Sequence[Expr],
               budget: Optional[List[int]] = None) -> Optional[Model]:
        # Cheap syntactic contradiction check: a constraint and its negation
        # in the same set (very common right after a fork re-tests the same
        # condition) is unsatisfiable without any search.  ``simplify`` keeps
        # operand order, so an (in)equality is also looked for with its
        # operands swapped (``a == b`` against ``b != a``); an ordering needs
        # no such look, as the negation of ``a < b`` is ``b <= a``.
        constraint_set = set(constraints)
        swapped = {(c.op, c.args[::-1]) for c in constraints
                   if c.op is EQ or c.op is NE}
        for c in constraints:
            negated = simplify(Expr(BOOL_NOT, (c,), sort=c.sort))
            if (negated in constraint_set
                    or (negated.op, negated.args) in swapped):
                return None

        symbols = sorted(
            {s for c in constraints for s in c.symbols()},
            key=lambda s: (s.name or "", s.width),
        )
        bounds: Dict[Expr, Interval] = {s: full_interval(s.width) for s in symbols}

        # Bounds propagation to a fixpoint (bounded number of rounds).
        for _ in range(self.config.propagation_rounds):
            changed = False
            for c in constraints:
                verdict = truth_of(c, bounds)
                if verdict is False:
                    return None
                bounds, c_changed = refine_bounds(c, bounds)
                changed = changed or c_changed
            for iv in bounds.values():
                if iv.is_empty:
                    return None
            if not changed:
                break

        # If intervals already prove every constraint, any in-bounds point works.
        if all(truth_of(c, bounds) is True for c in constraints):
            return Model({s: bounds[s].lo for s in symbols})

        constants = self._interesting_constants(constraints)
        order = self._variable_order(symbols, constraints)

        # Index constraints by the symbols they mention so the backtracking
        # search only re-checks constraints affected by the latest assignment.
        constraint_symbols: Dict[Expr, frozenset] = {
            c: c.symbols() for c in constraints
        }
        affected: Dict[Expr, List[Expr]] = {s: [] for s in symbols}
        for c, syms in constraint_symbols.items():
            for s in syms:
                affected[s].append(c)

        assignment: Dict[Expr, int] = {}
        if budget is None:
            budget = [self.config.max_search_steps]
        if self._search(order, 0, assignment, bounds, constraints,
                        constraint_symbols, affected, constants, budget):
            return Model(dict(assignment))
        return None

    def _variable_order(self, symbols: Sequence[Expr],
                        constraints: Sequence[Expr]) -> List[Expr]:
        """Most-constrained-first variable ordering."""
        counts = {s: 0 for s in symbols}
        for c in constraints:
            for s in c.symbols():
                counts[s] += 1
        return sorted(symbols, key=lambda s: (-counts[s], s.name or ""))

    def _interesting_constants(self, constraints: Sequence[Expr]) -> List[int]:
        """Every constant the constraints mention, and its two neighbours."""
        values = {near for constraint in constraints
                  for value in constraint.constants()
                  for near in (value - 1, value, value + 1)}
        values.discard(-1)
        return sorted(values)

    def _candidates(self, symbol: Expr, bounds: Dict[Expr, Interval],
                    constants: Sequence[int]) -> List[int]:
        iv = bounds.get(symbol, full_interval(symbol.width))
        if iv.is_empty:
            return []
        out: List[int] = []
        seen: set[int] = set()

        def push(v: int) -> None:
            if iv.lo <= v <= iv.hi and v not in seen:
                seen.add(v)
                out.append(v)

        push(iv.lo)
        push(iv.hi)
        for c in constants:
            push(c)
        # Sweep the remaining domain (bounded).
        limit = self.config.max_candidates_per_symbol
        step = max(1, iv.size() // max(1, limit - len(out)))
        v = iv.lo
        while v <= iv.hi and len(out) < limit:
            push(v)
            v += step
        return out

    def _search(self, order: Sequence[Expr], index: int,
                assignment: Dict[Expr, int], bounds: Dict[Expr, Interval],
                constraints: Sequence[Expr],
                constraint_symbols: Dict[Expr, frozenset],
                affected: Dict[Expr, List[Expr]],
                constants: Sequence[int],
                budget: List[int]) -> bool:
        if index == len(order):
            return all(
                self._holds(c, assignment, constraint_symbols[c]) is True
                for c in constraints)

        symbol = order[index]
        to_check = affected.get(symbol, constraints)
        for value in self._candidates(symbol, bounds, constants):
            budget[0] -= 1
            if budget[0] <= 0:
                raise SolverError("solver step budget exhausted")
            self.stats.search_steps += 1
            assignment[symbol] = value
            # Only constraints mentioning the newly assigned symbol can have
            # changed status; everything else was already not-violated.
            consistent = all(
                self._holds(c, assignment, constraint_symbols[c]) is not False
                for c in to_check)
            if consistent:
                if self._search(order, index + 1, assignment, bounds,
                                constraints, constraint_symbols, affected,
                                constants, budget):
                    return True
            del assignment[symbol]
        return False

    def _holds(self, constraint: Expr, assignment: Dict[Expr, int],
               symbols: frozenset) -> Optional[bool]:
        """Truth of a constraint under a partial assignment (None if undecided)."""
        missing = [s for s in symbols if s not in assignment]
        if not missing:
            return bool(evaluate(constraint, assignment))
        bounds = {s: Interval(assignment[s], assignment[s])
                  for s in symbols if s in assignment}
        for s in missing:
            bounds[s] = full_interval(s.width)
        return truth_of(constraint, bounds)
