"""Satisfying assignments (models) produced by the solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from repro.solver.expr import Expr, evaluate


@dataclass
class Model:
    """A complete assignment of symbols to unsigned integer values.

    The engine uses models to concretize symbolic inputs when generating test
    cases (the "inputs that take the program to the bug" of the paper).
    """

    assignment: Dict[Expr, int] = field(default_factory=dict)

    def value_of(self, symbol: Expr, default: int = 0) -> int:
        """The assigned value for ``symbol`` (0 for don't-care symbols)."""
        return self.assignment.get(symbol, default)

    def evaluate(self, expr: Expr) -> object:
        """Evaluate an expression under this model (don't-cares default to 0)."""
        return evaluate(expr, self.assignment, 0)

    def satisfies(self, constraints: Iterable[Expr]) -> bool:
        """Whether every constraint evaluates to True under this model."""
        return all(bool(evaluate(c, self.assignment, 0)) for c in constraints)

    def as_bytes(self, symbols: Iterable[Expr]) -> bytes:
        """Concretize a sequence of byte-sized symbols into a bytes object."""
        get = self.assignment.get
        return bytes([get(s, 0) & 0xFF for s in symbols])

    def merged_with(self, other: Mapping[Expr, int]) -> "Model":
        merged = dict(self.assignment)
        merged.update(other)
        return Model(merged)

    def restricted_to(self, symbols: Iterable[Expr]) -> "Model":
        """A copy keeping only the assignments of ``symbols``.

        Dropped symbols revert to the implicit don't-care value 0, so the
        restriction of a satisfying model still satisfies any constraint set
        mentioning only ``symbols``.
        """
        keep = set(symbols)
        return Model({s: v for s, v in self.assignment.items() if s in keep})

    def __len__(self) -> int:
        return len(self.assignment)
