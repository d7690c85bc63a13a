"""Constraint-solving caches.

Section 6 of the paper ("Constraint Caches") notes that KLEE caches
constraint-solving results and that Cloud9 workers rebuild the relevant part
of the cache as a side effect of path replay.  We reproduce both caches:

* :class:`ConstraintCache` maps a canonical form of a query (a frozen set of
  constraint expressions) to the satisfiability verdict and model.
* :class:`CounterexampleCache` implements the subset/superset reasoning used
  by KLEE: a satisfiable superset proves any subset satisfiable, and an
  unsatisfiable subset proves any superset unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.solver.expr import Expr
from repro.solver.model import Model


QueryKey = FrozenSet[Expr]


def query_key(constraints: Iterable[Expr]) -> QueryKey:
    """Canonical cache key for a set of constraints (order-insensitive)."""
    return frozenset(constraints)


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def aggregate_cache_counters(counters: Iterable[Dict[str, int]]) -> Dict[str, float]:
    """Sum per-solver cache counters and derive overall hit rates.

    Each input dict has the shape of :meth:`repro.solver.solver.Solver.cache_counters`.
    Workers keep private solvers (and rebuild caches after replay, §6), so
    cluster-level hit rates must be aggregated from raw hit/miss counts, not
    averaged from per-worker rates.  Every counter key present in any input
    is summed, so the independence/solver counters aggregate the same way.
    """
    total: Dict[str, float] = {
        "constraint_cache_hits": 0,
        "constraint_cache_misses": 0,
        "cex_cache_hits": 0,
        "cex_cache_misses": 0,
    }
    for item in counters:
        for key, value in item.items():
            total[key] = total.get(key, 0) + value
    for prefix in ("constraint_cache", "cex_cache"):
        lookups = total["%s_hits" % prefix] + total["%s_misses" % prefix]
        total["%s_hit_rate" % prefix] = (
            total["%s_hits" % prefix] / lookups if lookups else 0.0)
    groups = total.get("independence_groups", 0)
    total["independence_hit_rate"] = (
        total.get("independence_hits", 0) / groups if groups else 0.0)
    return total


class ConstraintCache:
    """Exact-match cache of query -> (is_sat, model).

    A caller may keep the very entry tuple it got back
    (:class:`~repro.solver.independence.Group` does, as its ``memo``)
    together with ``generation``: while that object is still the cache's
    ``generation``, the entry is still what :meth:`lookup` returns for its
    key.  :meth:`clear`, a wholesale eviction and re-inserting a key that is
    already cached each replace it.
    """

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self._capacity = capacity
        self._entries: Dict[QueryKey, Tuple[bool, Optional[Model]]] = {}
        self.stats = CacheStats()
        self.generation = object()

    def lookup(self, constraints: Iterable[Expr]) -> Optional[Tuple[bool, Optional[Model]]]:
        key = query_key(constraints)
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return entry

    def insert(self, constraints: Iterable[Expr], is_sat: bool,
               model: Optional[Model]) -> Tuple[bool, Optional[Model]]:
        """Cache ``(is_sat, model)`` for the query and return that entry."""
        key = query_key(constraints)
        if len(self._entries) >= self._capacity:
            # Simple wholesale eviction: the cache is an accelerator, never a
            # correctness dependency, and Cloud9 likewise tolerates losing it
            # across job transfers.
            self.clear()
        elif key in self._entries:
            # An entry kept beside the old generation must not outlive it.
            self.generation = object()
        entry = self._entries[key] = (is_sat, model)
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self.generation = object()

    def __len__(self) -> int:
        return len(self._entries)


class CounterexampleCache:
    """Subset/superset cache in the style of KLEE's counterexample cache.

    The subset/superset scans are restricted to the most recently inserted
    entries (``scan_window``): path constraints evolve incrementally, so the
    relevant super/subsets are almost always recent, and unbounded scans over
    a large cache would dominate solving time.
    """

    def __init__(self, capacity: int = 16384, scan_window: int = 64):
        self._capacity = capacity
        self._scan_window = scan_window
        self._sat_models: Dict[QueryKey, Model] = {}
        self._unsat: Dict[QueryKey, None] = {}
        self._recent_sat: List[QueryKey] = []
        self._recent_unsat: List[QueryKey] = []
        self.stats = CacheStats()

    def lookup(self, constraints: Iterable[Expr]) -> Optional[Tuple[bool, Optional[Model]]]:
        key = query_key(constraints)

        exact_model = self._sat_models.get(key)
        if exact_model is not None:
            self.stats.hits += 1
            return True, exact_model
        if key in self._unsat:
            self.stats.hits += 1
            return False, None

        for other_key in reversed(self._recent_sat):
            model = self._sat_models.get(other_key)
            if model is None:
                continue
            # A model satisfying a superset of the query satisfies the query.
            if key.issubset(other_key):
                self.stats.hits += 1
                return True, model
            # A model for a subset query may happen to satisfy the full query.
            if other_key.issubset(key) and model.satisfies(key):
                self.stats.hits += 1
                return True, model
        # An unsatisfiable subset makes every superset unsatisfiable.
        for other_key in reversed(self._recent_unsat):
            if other_key in self._unsat and other_key.issubset(key):
                self.stats.hits += 1
                return False, None

        self.stats.misses += 1
        return None

    def insert(self, constraints: Iterable[Expr], is_sat: bool,
               model: Optional[Model]) -> None:
        key = query_key(constraints)
        if len(self._sat_models) + len(self._unsat) >= self._capacity:
            self.clear()
        if is_sat:
            if model is not None:
                self._sat_models[key] = model
                self._recent_sat.append(key)
                if len(self._recent_sat) > self._scan_window:
                    self._recent_sat.pop(0)
        else:
            self._unsat[key] = None
            self._recent_unsat.append(key)
            if len(self._recent_unsat) > self._scan_window:
                self._recent_unsat.pop(0)

    def clear(self) -> None:
        self._sat_models.clear()
        self._unsat.clear()
        self._recent_sat.clear()
        self._recent_unsat.clear()

    def __len__(self) -> int:
        return len(self._sat_models) + len(self._unsat)
