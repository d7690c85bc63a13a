"""The path constraint as a value that remembers its solver front-end.

Every query the engine asks is "the path constraint so far, plus one branch
condition".  Reaching the solver's caches for such a query means simplifying
each constraint, splitting it into conjuncts, partitioning the conjuncts into
independent groups and building each group's cache key -- work that depends
on the prefix only through its *result*.  A :class:`PathConstraint` keeps
that result: the constraints as added, their simplified conjuncts and the
ordered independent groups, each group with its key and symbol set.

:meth:`PathConstraint.extended` pays for the new condition alone: one
(memoised) :func:`~repro.solver.simplify.simplify`, one
:func:`~repro.solver.independence.grouped` step per conjunct -- a disjointness
test against each group's symbol set and a new key for the one group the
conjunct joins -- and pointer copies of the tuples it appends to.  No
constraint of the prefix is simplified, hashed or grouped again, and the
untouched groups are shared, keys included, with the value extended.

Values are immutable: a forked state shares its parent's path constraint.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.solver.expr import BOOL_CONST, Expr
from repro.solver.independence import Group, grouped
from repro.solver.simplify import conjuncts, simplify

__all__ = ["PathConstraint"]


class PathConstraint:
    """An immutable conjunction of constraints, partitioned as it grows.

    * ``constraints`` -- the constraints exactly as added.  Iteration, ``len``,
      truth and ``in`` read these.
    * ``conjuncts`` -- their simplified top-level conjuncts in order,
      duplicates kept, boolean constants dropped.
    * ``groups`` -- the independent groups of ``conjuncts``
      (:class:`~repro.solver.independence.Group`), ordered by first conjunct.
    * ``is_false`` -- some constraint simplified to (a conjunction with)
      ``FALSE``: the whole is unsatisfiable whatever else it holds.
    """

    __slots__ = ("constraints", "conjuncts", "groups", "is_false")

    def __init__(self, constraints: Iterable[Expr] = ()):
        self.constraints: Tuple[Expr, ...] = ()
        self.conjuncts: Tuple[Expr, ...] = ()
        self.groups: Tuple[Group, ...] = ()
        self.is_false = False
        for constraint in constraints:
            self._absorb(constraint)

    def extended(self, constraint: Expr) -> "PathConstraint":
        """This path constraint and ``constraint`` (appended even when it is
        already present: a query repeats what the engine repeats)."""
        out = PathConstraint.__new__(PathConstraint)
        out.constraints = self.constraints
        out.conjuncts = self.conjuncts
        out.groups = self.groups
        out.is_false = self.is_false
        out._absorb(constraint)
        return out

    def _absorb(self, constraint: Expr) -> None:
        """Take in one more constraint.  Only for a value nobody else holds
        yet; every field is replaced, never mutated."""
        self.constraints += (constraint,)
        for conjunct in conjuncts(simplify(constraint)):
            if conjunct.op is BOOL_CONST:
                if not conjunct.value:
                    self.is_false = True
                continue
            self.groups = grouped(self.groups, len(self.conjuncts), conjunct)
            self.conjuncts += (conjunct,)

    def __contains__(self, constraint: object) -> bool:
        # Interned expressions compare by identity, so the scan is exact.
        return constraint in self.constraints

    def __iter__(self) -> Iterator[Expr]:
        return iter(self.constraints)

    def __len__(self) -> int:
        return len(self.constraints)

    def __repr__(self) -> str:
        return "PathConstraint(%d constraints, %d groups%s)" % (
            len(self.constraints), len(self.groups),
            ", false" if self.is_false else "")
