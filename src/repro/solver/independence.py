"""Constraint independence partitioning (KLEE's IndependentSolver, §6).

Path constraints routinely mix unrelated facts: bytes of one packet, the
length of an unrelated header, a loop counter.  Two constraints *interact*
only when they share a free symbol (directly or transitively), so every
query splits into connected components of the constraint/symbol graph --
*independent groups* that can be solved, cached and reused separately.

This is the enabler for incremental solving: a forked state's query is
"previous path constraint + one new branch condition", which partitions into
the same groups as before except for the single group touching the new
branch's symbols.  Every unchanged group is an exact cache hit; only the
changed group is re-solved, over a strictly smaller symbol set than the
whole query.

The grouping exists once, as the incremental step :func:`grouped`: it places
one more constraint into an ordered tuple of :class:`Group` values and
leaves every group the constraint does not touch as the same object, cache
key included.  :class:`~repro.solver.pathconstraint.PathConstraint` applies
it per new conjunct; :func:`partition` folds it over a whole list.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.solver.expr import Expr
from repro.solver.model import Model

__all__ = ["Group", "grouped", "partition"]


class Group:
    """One independent group: constraints connected through shared symbols.

    ``constraints`` keeps query order *and duplicates* (the search counts
    occurrences when it orders variables), ``positions`` the index each one
    had in the query, ``key`` is the group's cache key (the
    :data:`~repro.solver.cache.QueryKey` of ``constraints``) and ``symbols``
    the union of their symbol sets.  Immutable once built, but for ``memo``.

    ``memo`` is ``None`` or ``(generation, entry)``: the entry a solver's
    :class:`~repro.solver.cache.ConstraintCache` holds for ``key`` -- the
    very ``(verdict, model)`` tuple -- and the cache generation it belongs
    to.  The solver writes it whenever it finds ``key`` in that cache or
    inserts it there, and while the generation is current it reads the
    entry back instead of looking ``key`` up.  Path constraints share their
    untouched groups, so the memo serves every later query of every state
    that extends the path.  A generation belongs to one cache: a solver
    never reads another solver's memo, it overwrites it.
    """

    __slots__ = ("constraints", "positions", "key", "symbols", "memo")

    def __init__(self, constraints: Tuple[Expr, ...], positions: Tuple[int, ...],
                 key: FrozenSet[Expr], symbols: FrozenSet[Expr]):
        self.constraints = constraints
        self.positions = positions
        self.key = key
        self.symbols = symbols
        self.memo: Optional[Tuple[object, Tuple[bool, Optional[Model]]]] = None

    @classmethod
    def of(cls, constraints: Iterable[Expr]) -> "Group":
        """All of ``constraints`` as a single group, whatever they share."""
        members = tuple(constraints)
        symbols: FrozenSet[Expr] = frozenset().union(
            *(c.symbols() for c in members))
        return cls(members, tuple(range(len(members))), frozenset(members),
                   symbols)


def grouped(groups: Tuple[Group, ...], position: int,
            constraint: Expr) -> Tuple[Group, ...]:
    """``groups`` with ``constraint`` (query index ``position``, larger than
    any already placed) added.

    The groups sharing a symbol with the constraint merge with it into one
    group, which takes the place of the earliest of them; without any, the
    constraint opens a new last group (so a symbol-free constraint is always
    a singleton).  Groups therefore stay ordered by their first constraint
    and every group lists its constraints in query order.
    """
    symbols = constraint.symbols()
    touched = [g for g in groups if not symbols.isdisjoint(g.symbols)]
    if not touched:
        return groups + (Group((constraint,), (position,),
                               frozenset((constraint,)), symbols),)
    first = touched[0]
    if len(touched) == 1:
        constraints = first.constraints + (constraint,)
        positions = first.positions + (position,)
    else:
        # Interleave the merging groups back into query order.
        placed = sorted(
            (pair for group in touched
             for pair in zip(group.positions, group.constraints)),
            key=lambda pair: pair[0])
        positions = tuple(p for p, _ in placed) + (position,)
        constraints = tuple(c for _, c in placed) + (constraint,)
    merged = Group(
        constraints, positions,
        first.key.union(*(g.key for g in touched[1:]), (constraint,)),
        symbols.union(*(g.symbols for g in touched)))
    slot = groups.index(first)
    rest = groups[slot + 1:]
    if len(touched) > 1:
        rest = tuple(g for g in rest if g not in touched)
    return groups[:slot] + (merged,) + rest


def partition(constraints: Sequence[Expr]) -> List[List[Expr]]:
    """Split ``constraints`` into independent groups, from scratch.

    Two constraints land in the same group iff they are connected through
    shared symbols.  The result is deterministic: groups are ordered by the
    first constraint that introduced them, and constraints keep their query
    order within each group.  Constraints without any symbol (fully constant
    after simplification) each form their own singleton group.
    """
    groups: Tuple[Group, ...] = ()
    for position, constraint in enumerate(constraints):
        groups = grouped(groups, position, constraint)
    return [list(group.constraints) for group in groups]
