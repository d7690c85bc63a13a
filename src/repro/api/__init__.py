"""The public names of the exploration API.

A symbolic test runs on any of the five backends through one call,
:meth:`SymbolicTest.run(backend=...) <repro.testing.symbolic_test.SymbolicTest.run>`;
this package names the two things every backend shares:

* :class:`~repro.engine.limits.ExplorationLimits` -- one bag of
  budgets/goals accepted uniformly by every backend (and by the lower-level
  ``run`` methods of the engine and the coordinator).
* :class:`~repro.api.result.RunResult` -- the one result type: the engine
  and the coordinator build it directly, so backends compare
  apples-to-apples.
"""

from repro.api.result import RunResult
from repro.engine.limits import UNLIMITED, ExplorationLimits

__all__ = [
    "ExplorationLimits",
    "UNLIMITED",
    "RunResult",
]
