"""Public home of the one result type every backend returns.

The implementation lives in :mod:`repro.engine.result` so the engine and the
coordinator can build it without importing :mod:`repro.api` back.  This
re-export stays because the benchmark harness (``bench/workloads.py``)
imports ``RunResult`` from here.
"""

from repro.engine.result import RunResult

__all__ = ["RunResult"]
