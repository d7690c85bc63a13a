"""Static wire-protocol checker for the repro codebase.

A wire-message field added on one side of a version bump desynchronizes
a cluster in a way unit tests are bad at catching, because both sides of
a test run the same tree.  This package checks the wire messages
*statically* -- pure :mod:`ast`, no imports of the analyzed code -- so
the CI gate runs in milliseconds and works on any parseable tree
(including test fixtures that are not importable packages).

One checker family (see :mod:`repro.analysis.protocol` for the rules):

=========  ==========================================================
``PROTO``  wire-protocol lock: message classes vs ``PROTOCOL_VERSION``
           and the committed ``protocol.lock.json``; semver rule
           (``PROTOCOL_COMPAT_VERSION`` floor, additive-only
           compatible bumps)
=========  ==========================================================

The rest is checked by running the code, not by reading it: the
trace-event schema on every record the test suite emits
(:func:`repro.obs.trace.schema_validator`, switched on by
``tests/conftest.py``), and determinism -- exploration as a pure function
of program and seed -- by ``tests/test_determinism.py``, which runs every
registered spec under two hash seeds and compares what they explored.

Run it with ``python -m repro.analysis [PATHS...]``; any finding fails
the run.
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
