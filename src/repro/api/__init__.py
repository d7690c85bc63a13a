"""The unified exploration API (one front end over every backend).

This package is the single supported way to execute symbolic tests:

* :class:`~repro.api.limits.ExplorationLimits` -- one bag of budgets/goals
  accepted uniformly by every backend (and by the lower-level ``run``
  methods of the engine and the coordinator).
* :func:`~repro.api.runner.run_test` -- one test on one of the five
  backends (``"single"``, ``"cluster"``, ``"static"``, ``"process"``,
  ``"tcp"``), behind ``SymbolicTest.run(backend=...)``.
* :class:`~repro.api.result.RunResult` -- the one result type: the engine
  and the coordinator build it directly, so backends compare
  apples-to-apples.
* :class:`~repro.api.campaign.Campaign` -- batch execution of many tests
  and/or configuration grids with aggregated coverage, bugs and timelines.
"""

from repro.api.limits import UNLIMITED, ExplorationLimits
from repro.api.result import RunResult
from repro.api.runner import available_backends, run_test
from repro.api.campaign import Campaign, CampaignEntry, CampaignResult

__all__ = [
    "ExplorationLimits",
    "UNLIMITED",
    "RunResult",
    "available_backends",
    "run_test",
    "Campaign",
    "CampaignEntry",
    "CampaignResult",
]
