"""Static distributed-invariants checker for the repro codebase.

A symbolic-execution cluster fails in ways unit tests are bad at
catching: a wire-message field added on one side of a version bump, a
blocking socket call that sneaks under a lock, an unordered ``set``
silently deciding which state gets explored first.  This package checks
those invariants *statically* -- pure :mod:`ast`, no imports of the
analyzed code -- so the CI gate runs in milliseconds and works on any
parseable tree (including test fixtures that are not importable
packages).  A rule stays only while this tree has code it is about.

Checker families (see each module's docstring for the rule catalog):

=========  ==========================================================
``PROTO``  wire-protocol lock: message classes vs ``PROTOCOL_VERSION``
           and the committed ``protocol.lock.json``; semver rule
           (``PROTOCOL_COMPAT_VERSION`` floor, additive-only
           compatible bumps)
``CONC``   blocking calls under held locks; untimed queue receives
``DET``    unseeded RNGs, wall clocks, and set-iteration order feeding
           schedule/solver decisions
=========  ==========================================================

The trace-event schema (:mod:`repro.obs.schema`) is not checked here: it
is checked at runtime, on every record the test suite emits
(:func:`repro.obs.trace.schema_validator`, switched on by
``tests/conftest.py``).

Run it with ``python -m repro.analysis [PATHS...]``; any finding fails
the run.  Suppress a single line with a ``# analysis-ignore`` (or
``# analysis-ignore[ID]``) comment.
"""

from repro.analysis.cli import main, run_analysis
from repro.analysis.core import Finding, SourceModule, load_modules

__all__ = [
    "Finding",
    "SourceModule",
    "load_modules",
    "main",
    "run_analysis",
]
