"""Batch execution of symbolic tests: the scenario-diversity engine.

A :class:`Campaign` collects runnable entries -- any mix of symbolic tests,
backends, limits and backend options -- and executes them through the
:mod:`repro.api.runner` registry, aggregating the unified
:class:`~repro.api.result.RunResult` outcomes.  Two common shapes:

* many tests, one configuration (``add_tests``): a regression battery or the
  Table 4 "does everything run" sweep;
* one test, a grid of configurations (``add_grid``): the scalability and
  ablation experiments (same workload across backends or worker counts).

Campaigns over spec-built tests (:func:`repro.distrib.specs.resolve_test`)
can fan their entries out across a process pool with
``campaign.run(processes=N)``: each shippable entry travels as its
``(spec_name, spec_params, backend, limits, options)`` tuple and is rebuilt
and executed in a pool worker, so independent grid points use real cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple, TYPE_CHECKING)

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

    @property
    def shippable(self) -> bool:
        """Whether this entry can run in a pool process (spec-built test).

        The pool worker rebuilds the test from its spec and then re-applies
        the picklable test fields (``name``, ``strategy``, ``options``,
        ``engine_config``, ``solver_config``, ``use_posix_model``) from this
        entry's live test, so post-``resolve_test`` tweaks to those fields
        are honored.
        Mutations to ``setup`` or ``program`` cannot travel; tests carrying
        such mutations should not keep their spec reference.
        """
        return self.test.spec_name is not None

    def ship(self) -> Tuple[object, ...]:
        """The picklable description a pool worker rebuilds this entry from."""
        test = self.test
        overrides = {
            "name": test.name,
            "strategy": test.strategy,
            "options": dict(test.options),
            "engine_config": test.engine_config,
            "solver_config": test.solver_config,
            "use_posix_model": test.use_posix_model,
        }
        return (test.spec_name, dict(test.spec_params), overrides,
                self.backend, self.limits, dict(self.options))


def _execute_shipped(spec_name: str, spec_params: Dict[str, object],
                     overrides: Dict[str, object], backend: str,
                     limits: Optional[ExplorationLimits],
                     options: Dict[str, object]) -> RunResult:
    """Pool-worker entry point: rebuild the test from its spec and run it."""
    from repro.distrib.specs import resolve_test
    test = resolve_test(spec_name, **spec_params)
    for field_name, value in overrides.items():
        setattr(test, field_name, value)
    return run_test(test, backend=backend, limits=limits, **dict(options))


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

            campaign.add_grid(test, [
                {"backend": "single"},
                {"backend": "cluster", "workers": w} for w in (2, 4, 8) ...
            ])
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
            on_result: Optional[Callable[[CampaignEntry, RunResult], None]] = None,
            processes: Optional[int] = None) -> CampaignResult:
        """Execute every entry and aggregate the outcomes.

        ``fail_fast`` stops the campaign after the first run that reports a
        bug; ``on_result`` is called after each run (progress reporting).

        ``processes=N`` fans the campaign out across a pool of N worker
        processes: entries whose tests were built from a registered spec
        (see :attr:`CampaignEntry.shippable`) execute in the pool, the rest
        in this process.  Results are still reported in entry order, and
        ``fail_fast`` still truncates in entry order -- but pool entries
        scheduled before the truncation point may have run anyway.
        """
        if processes is not None and processes > 1:
            return self._run_pooled(processes, fail_fast, on_result)
        outcome = CampaignResult(name=self.name)
        for entry in self.entries:
            if not self._record(outcome, entry, entry.execute(),
                                fail_fast, on_result):
                break
        return outcome

    def _record(self, outcome: CampaignResult, entry: CampaignEntry,
                result: RunResult, fail_fast: bool,
                on_result: Optional[Callable[[CampaignEntry, RunResult], None]]
                ) -> bool:
        """Record one entry's result; False means fail_fast says stop."""
        outcome.results[entry.label] = result
        if on_result is not None:
            on_result(entry, result)
        return not (fail_fast and result.found_bug)

    def _run_pooled(self, processes: int, fail_fast: bool,
                    on_result: Optional[Callable[[CampaignEntry, RunResult], None]]
                    ) -> CampaignResult:
        from concurrent.futures import ProcessPoolExecutor

        # Prefer fork so specs registered at runtime in this process are
        # visible in the pool workers (the shared process-backend default;
        # spawn-only platforms fall back to import-time registrations).
        from repro.distrib.cluster import default_mp_context

        outcome = CampaignResult(name=self.name)
        gathered: Dict[str, RunResult] = {}
        with ProcessPoolExecutor(max_workers=processes,
                                 mp_context=default_mp_context()) as pool:
            futures = {
                entry.label: pool.submit(_execute_shipped, *entry.ship())
                for entry in self.entries if entry.shippable
            }
            # Non-shippable entries run here while the pool works.
            for entry in self.entries:
                if entry.label not in futures:
                    gathered[entry.label] = entry.execute()
            for label, future in futures.items():
                gathered[label] = future.result()
        for entry in self.entries:
            if not self._record(outcome, entry, gathered[entry.label],
                                fail_fast, on_result):
                break
        return outcome
