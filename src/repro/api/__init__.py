"""The public path of the one result type.

Every backend takes :class:`~repro.engine.limits.ExplorationLimits` and
returns :class:`~repro.engine.result.RunResult`; both live under
:mod:`repro.engine`, so the engine and the coordinator build them without
importing this package.  :mod:`repro.api.result` names ``RunResult`` once
more, because the benchmark harness (``bench/workloads.py``) imports it
from there; it is the one re-export module in ``repro``.
"""
