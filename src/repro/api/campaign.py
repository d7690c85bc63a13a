"""Batch execution of symbolic tests: the scenario-diversity engine.

A :class:`Campaign` collects runnable entries -- any mix of symbolic tests,
backends, limits and backend options -- runs each one through
:func:`repro.api.runner.run_test`, in order, and aggregates the unified
:class:`~repro.api.result.RunResult` outcomes.  Two common shapes:

* many tests, one configuration (``add_tests``): a regression battery or the
  Table 4 "does everything run" sweep;
* one test, a grid of configurations (``add_grid``): the scalability and
  ablation experiments (same workload across backends or worker counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    TYPE_CHECKING)

from repro.engine.errors import BugReport

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult
from repro.api.runner import run_test

if TYPE_CHECKING:  # pragma: no cover - import cycle: testing imports repro.api
    from repro.testing.report import CoverageAccounting
    from repro.testing.symbolic_test import SymbolicTest

__all__ = ["Campaign", "CampaignEntry", "CampaignResult"]


@dataclass
class CampaignEntry:
    """One scheduled run: a test bound to a backend, limits and options."""

    label: str
    test: "SymbolicTest"
    backend: str = "single"
    limits: Optional[ExplorationLimits] = None
    options: Dict[str, object] = field(default_factory=dict)

    def execute(self) -> RunResult:
        return run_test(self.test, backend=self.backend, limits=self.limits,
                        **dict(self.options))


@dataclass
class CampaignResult:
    """Aggregated outcome of one campaign run."""

    name: str
    results: Dict[str, RunResult] = field(default_factory=dict)

    # -- aggregation ------------------------------------------------------------------

    @property
    def total_paths(self) -> int:
        return sum(r.paths_completed for r in self.results.values())

    @property
    def total_useful_instructions(self) -> int:
        return sum(r.useful_instructions for r in self.results.values())

    @property
    def all_bugs(self) -> List[BugReport]:
        out: List[BugReport] = []
        for result in self.results.values():
            out.extend(result.bugs)
        return out

    def bug_summaries(self) -> List[str]:
        return sorted({b.summary() for b in self.all_bugs})

    def by_backend(self) -> Dict[str, List[RunResult]]:
        grouped: Dict[str, List[RunResult]] = {}
        for result in self.results.values():
            grouped.setdefault(result.backend, []).append(result)
        return grouped

    def combined_covered_lines(self, test_name: str) -> Set[int]:
        """Union of lines covered by every run of one test's program."""
        covered: Set[int] = set()
        for result in self.results.values():
            if result.test_name == test_name:
                covered.update(result.covered_lines)
        return covered

    def combined_coverage_percent(self, test_name: str) -> float:
        line_count = max((r.line_count for r in self.results.values()
                          if r.test_name == test_name), default=0)
        if not line_count:
            return 0.0
        return 100.0 * len(self.combined_covered_lines(test_name)) / line_count

    def coverage_accounting(self, baseline: Optional[str] = None
                            ) -> "CoverageAccounting":
        """Table 5's bookkeeping with one method per entry (all entries are
        taken to run the same program); ``baseline`` is the label of the
        entry the others are cumulated onto."""
        from repro.testing.report import CoverageAccounting  # layered above
        accounting = CoverageAccounting(line_count=max(
            (r.line_count for r in self.results.values()), default=0))
        for label, result in self.results.items():
            accounting.add_method(label, result.paths_completed,
                                  result.covered_lines,
                                  baseline=(label == baseline))
        return accounting

    def timelines(self) -> Dict[str, object]:
        """Per-entry cluster timelines (entries without one are omitted)."""
        return {label: r.timeline for label, r in self.results.items()
                if r.timeline is not None}

    def summary_rows(self) -> List[Sequence[object]]:
        """(label, backend, workers, paths, coverage %, bugs, instructions)
        rows, ready for a text table."""
        return [
            (label, r.backend, r.num_workers, r.paths_completed,
             round(r.coverage_percent, 1), len(r.bugs), r.total_instructions)
            for label, r in self.results.items()
        ]


class Campaign:
    """An ordered batch of exploration runs over the unified API."""

    def __init__(self, name: str,
                 limits: Optional[ExplorationLimits] = None):
        self.name = name
        #: Default limits applied to entries that do not carry their own.
        self.default_limits = limits
        self.entries: List[CampaignEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    # -- scheduling -------------------------------------------------------------------

    def _unique_label(self, base: str) -> str:
        existing = {entry.label for entry in self.entries}
        if base not in existing:
            return base
        index = 2
        while "%s#%d" % (base, index) in existing:
            index += 1
        return "%s#%d" % (base, index)

    def add(self, test: "SymbolicTest", backend: str = "single",
            limits: Optional[ExplorationLimits] = None,
            label: Optional[str] = None, **options: object) -> CampaignEntry:
        """Schedule one run.  Limit fields among ``options`` fold into
        ``limits``; the rest are backend options (``workers=``, ...).

        Generated labels are made unique automatically; an explicitly given
        duplicate label is an error (results are keyed by label).
        """
        if label is not None and any(e.label == label for e in self.entries):
            raise ValueError("duplicate campaign label %r" % label)
        limits = ExplorationLimits.pop_from(options,
                                            base=limits or self.default_limits)
        entry = CampaignEntry(
            label=label or self._unique_label("%s@%s" % (test.name, backend)),
            test=test, backend=backend, limits=limits, options=options)
        self.entries.append(entry)
        return entry

    def add_tests(self, tests: Iterable["SymbolicTest"],
                  backend: str = "single",
                  limits: Optional[ExplorationLimits] = None,
                  **options: object) -> List[CampaignEntry]:
        """Schedule a list of tests under one shared configuration; two
        tests of one name in the list is an error."""
        tests = list(tests)
        names = [test.name for test in tests]
        if len(set(names)) != len(names):
            raise ValueError("duplicate test name among %r" % (names,))
        return [self.add(test, backend=backend, limits=limits, **dict(options))
                for test in tests]

    def add_grid(self, test: "SymbolicTest",
                 grid: Iterable[Dict[str, object]],
                 limits: Optional[ExplorationLimits] = None) -> List[CampaignEntry]:
        """Schedule one test across a grid of configurations.

        Each grid point is a dict that may name ``backend``, ``label``,
        ``limits``, limit fields, and backend options, e.g.::

            campaign.add_grid(test, [{"backend": "single"}] + [
                {"backend": "cluster", "workers": w} for w in (2, 4, 8)])
        """
        entries = []
        for point in grid:
            point = dict(point)
            backend = point.pop("backend", "single")
            label = point.pop("label", None)
            point_limits = point.pop("limits", limits)
            entries.append(self.add(test, backend=backend, limits=point_limits,
                                    label=label, **point))
        return entries

    # -- execution --------------------------------------------------------------------

    def run(self, fail_fast: bool = False,
            on_result: Optional[Callable[[CampaignEntry, RunResult], None]] = None
            ) -> CampaignResult:
        """Execute every entry, in order, and aggregate the outcomes.

        ``fail_fast`` stops the campaign after the first run that reports a
        bug; ``on_result`` is called after each run (progress reporting).
        """
        outcome = CampaignResult(name=self.name)
        for entry in self.entries:
            result = entry.execute()
            outcome.results[entry.label] = result
            if on_result is not None:
                on_result(entry, result)
            if fail_fast and result.found_bug:
                break
        return outcome
