"""Observability for the whole fleet: tracing, metrics, live status.

The paper's entire evaluation is time-series observability -- coverage over
time (Fig. 8/11), useful-vs-replay work breakdowns (Fig. 9/10), transfer
counts (Fig. 12) -- while the rest of this repo reports end-of-run
aggregates only.  This package is the substrate those views are built on:

* :mod:`repro.obs.trace` -- structured JSONL event tracing.  One run, one
  ordered trace file, identical event schema on every backend; workers on
  the process and TCP backends forward their events to the coordinator
  over the existing status channel.  Enabled with ``trace_path=`` on
  :class:`~repro.engine.limits.ExplorationLimits` / ``SymbolicTest.run``.
* :mod:`repro.obs.metrics` -- :class:`Histogram`, the one shared metrics
  primitive (solver latency, round wall time).  Counters are plain fields
  of ``SolverStats``/``CacheStats``/``WorkerStats``; a run's totals are read
  from ``RunResult`` and the trace's ``solver_query`` event.
* :mod:`repro.obs.status` -- a read-only coordinator-side status server:
  connect, read one JSON line (the last round's ``round_completed`` record,
  :class:`~repro.obs.schema.RoundSnapshot`, plus ``backend``), disconnect.
* :mod:`repro.obs.report` -- ``python -m repro.obs.report trace.jsonl``
  renders coverage-over-time, per-worker utilization and the
  transfer/membership/failure timeline from any run's trace.
"""

from repro.obs import schema
from repro.obs.metrics import Histogram
from repro.obs.trace import NULL_TRACER, BufferTracer, NullTracer, Tracer, load_trace
from repro.obs.status import StatusServer, read_status

__all__ = [
    "schema",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "BufferTracer",
    "load_trace",
    "StatusServer",
    "read_status",
]
