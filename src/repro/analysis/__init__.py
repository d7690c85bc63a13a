"""Static distributed-invariants checker for the repro codebase.

A symbolic-execution cluster fails in ways unit tests are bad at
catching: a wire-message field added on one side of a version bump, a
trace key renamed in one backend but not the other five, a blocking
socket call that sneaks under a lock, an unordered ``set`` silently
deciding which state gets explored first.  This package checks those
invariants *statically* -- pure :mod:`ast`, no imports of the analyzed
code -- so the CI gate runs in milliseconds and works on any parseable
tree (including test fixtures that are not importable packages).

Since PR 10 the checkers share a whole-program index
(:mod:`repro.analysis.program`): one parse of the tree with import
resolution, class/method tables, attribute typing, and a cross-module
call resolver, so the rules below are program-level invariants rather
than per-file lints.

Checker families (see each module's docstring for the rule catalog):

=========  ==========================================================
``PROTO``  wire-protocol lock: message classes vs ``PROTOCOL_VERSION``
           and the committed ``protocol.lock.json``; semver rule
           (``PROTOCOL_COMPAT_VERSION`` floor, additive-only
           compatible bumps)
``TRACE``  tracer emit sites vs the declared schema registry
           (:mod:`repro.obs.schema`)
``CONC``   blocking calls under held locks; lock-acquisition-order
           cycles over the cross-module call graph
``DET``    unseeded RNGs, wall clocks, and set-iteration order feeding
           schedule/solver decisions
=========  ==========================================================

Run it with ``python -m repro.analysis [--baseline FILE] [PATHS...]``;
findings new since the committed baseline fail the run.  Suppress a
single line with a ``# analysis-ignore`` (or ``# analysis-ignore[ID]``)
comment.
"""

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.cli import main, run_analysis
from repro.analysis.core import Finding, SourceModule, load_modules
from repro.analysis.program import ProjectIndex

__all__ = [
    "Finding",
    "ProjectIndex",
    "SourceModule",
    "apply_baseline",
    "load_baseline",
    "load_modules",
    "main",
    "run_analysis",
    "write_baseline",
]
