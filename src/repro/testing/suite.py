"""Symbolic test suites: collections of symbolic tests run together."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult
from repro.engine.errors import BugReport
from repro.testing.report import CoverageAccounting
from repro.testing.symbolic_test import SymbolicTest


@dataclass
class SuiteResult:
    """Aggregated outcome of running a suite of symbolic tests."""

    suite_name: str
    per_test: Dict[str, RunResult] = field(default_factory=dict)
    line_count: int = 0

    @property
    def total_paths(self) -> int:
        return sum(r.paths_completed for r in self.per_test.values())

    @property
    def all_bugs(self) -> List[BugReport]:
        out: List[BugReport] = []
        for result in self.per_test.values():
            out.extend(result.bugs)
        return out

    @property
    def combined_coverage_lines(self) -> Set[int]:
        covered: Set[int] = set()
        for result in self.per_test.values():
            covered.update(result.covered_lines)
        return covered

    @property
    def combined_coverage_percent(self) -> float:
        if not self.line_count:
            return 0.0
        return 100.0 * len(self.combined_coverage_lines) / self.line_count

    def coverage_accounting(self, baseline: Optional[str] = None) -> CoverageAccounting:
        accounting = CoverageAccounting(line_count=self.line_count)
        for name, result in self.per_test.items():
            accounting.add_method(name, result.paths_completed,
                                  result.covered_lines,
                                  baseline=(name == baseline))
        return accounting


class SymbolicTestSuite:
    """A named collection of symbolic tests over the same program."""

    def __init__(self, name: str):
        self.name = name
        self.tests: List[SymbolicTest] = []

    def add(self, test: SymbolicTest) -> SymbolicTest:
        if any(t.name == test.name for t in self.tests):
            raise ValueError("duplicate test name %r in suite %r" % (test.name, self.name))
        self.tests.append(test)
        return test

    def __len__(self) -> int:
        return len(self.tests)

    def __iter__(self):
        return iter(self.tests)

    def run(self, limits: Optional[ExplorationLimits] = None,
            **limit_fields: object) -> SuiteResult:
        """Run every test on a single engine and aggregate the results.

        The limits (``limits=`` and/or loose limit fields, as for
        :meth:`SymbolicTest.run`) apply to each test separately.
        """
        result = SuiteResult(suite_name=self.name)
        for test in self.tests:
            outcome = test.run(backend="single", limits=limits, **limit_fields)
            result.per_test[test.name] = outcome
            result.line_count = max(result.line_count, outcome.line_count)
        return result
