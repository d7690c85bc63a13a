"""The declared trace-event schema registry: one vocabulary, every backend.

Every backend writes the same JSONL trace format (:mod:`repro.obs.trace`),
and downstream consumers -- the report CLI and the trace-integrity tests --
key off event names and field names.  This module makes that vocabulary
explicit:

* one :class:`EventSchema` per event, declaring its required keys (present
  at every emit site), its optional keys (present at some), and whether the
  payload is open (``allow_extra``, for pass-through dumps like
  ``solver_query``);
* one module-level constant per event name (``ROUND_COMPLETED`` ...), which
  emit call sites use instead of string literals;
* :class:`RoundSnapshot`, the one round record: the timeline entry, and as
  :meth:`~RoundSnapshot.as_record` the ``round_completed`` payload and the
  live-status document (:mod:`repro.obs.status`) on every backend.

The registry is checked in one place, at runtime:
:func:`repro.obs.trace.schema_validator` holds every record to
:func:`validate_keys` before it is written, and ``tests/conftest.py`` turns
it on for the whole suite (worker processes and TCP agents included), so an
emit site that drifts from its schema fails the first traced test that
reaches it.

Registering a new event
-----------------------

1. Add a constant here via ``_event("my_event", required=(...),
   optional=(...))``; keys in ``required`` must appear at every emit site,
   keys in ``optional`` may appear at some.
2. Use the constant at the emit site: ``tracer.emit(schema.MY_EVENT, ...)``.
3. Reach the emit site from a test that passes ``trace_path=`` -- an
   unknown event, an undeclared key or a missing required key raises
   ``ValueError`` there.

Envelope keys (``seq``/``ts``/``event``/``run``/``worker``/``round``/
``wts``) are added by the tracer itself and never declared per event.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Tuple

__all__ = ["EventSchema", "EVENT_SCHEMAS", "ENVELOPE_KEYS", "RoundSnapshot",
           "schema_for", "validate_keys"]

#: Keys owned by the trace envelope (:meth:`repro.obs.trace.Tracer.emit`),
#: legal on any event and never part of a per-event schema.
ENVELOPE_KEYS = frozenset({"seq", "ts", "event", "run", "worker", "round",
                           "wts"})


@dataclass(frozen=True)
class EventSchema:
    """Declared shape of one trace event's payload."""

    name: str
    #: Keys every emit site must pass (the cross-backend contract).
    required: Tuple[str, ...] = ()
    #: Keys some emit sites pass (backend-specific detail).
    optional: Tuple[str, ...] = ()
    #: Open payload: sites may pass keys not listed here (dynamic dumps).
    allow_extra: bool = False

    def allowed(self) -> frozenset:
        return frozenset(self.required) | frozenset(self.optional)


#: name -> schema, populated by the ``_event`` calls below.
EVENT_SCHEMAS: Dict[str, EventSchema] = {}


def _event(name: str, required: Tuple[str, ...] = (),
           optional: Tuple[str, ...] = (), allow_extra: bool = False) -> str:
    """Register one event schema; returns the name (bound to a constant)."""
    if name in EVENT_SCHEMAS:
        raise ValueError("duplicate trace event schema %r" % name)
    EVENT_SCHEMAS[name] = EventSchema(name=name, required=tuple(required),
                                      optional=tuple(optional),
                                      allow_extra=allow_extra)
    return name


# -- the round record --------------------------------------------------------------------


@dataclass
class RoundSnapshot:
    """One round of a run (totals so far; the instruction and transfer
    counts are this round's increments) -- a cluster timeline entry."""

    round_index: int
    #: Monotonic seconds since the run started when the round closed.
    elapsed: float
    coverage_percent: float
    covered_lines: int
    paths_completed: int
    #: Bug reports so far, one per path that reached a bug -- not distinct
    #: defects: a defect that two paths reach counts twice here and once in
    #: ``run_finished``'s ``bugs`` and ``RunResult.bugs``
    #: (:func:`~repro.engine.result.dedupe_bugs`).
    bugs_found: int
    total_candidates: int
    #: Live (exploring) workers -- the elastic-membership trace.
    num_workers: int
    useful_instructions: int
    replay_instructions: int
    states_transferred: int
    queue_lengths: Dict[int, int]
    #: Worker id -> ``{"useful": .., "replay": ..}`` this round.
    workers_detail: Dict[int, Dict[str, int]]
    load_balancing_enabled: bool

    @property
    def transfer_fraction(self) -> float:
        """Fraction of all candidate states transferred during this round."""
        if self.total_candidates == 0:
            return 0.0
        return self.states_transferred / self.total_candidates

    def as_record(self) -> Dict[str, Any]:
        """The fields as a shallow dict with ``round_index`` under the
        envelope key ``round``: the ``round_completed`` payload."""
        record = dict(vars(self))
        record["round"] = record.pop("round_index")
        return record


# -- run lifecycle -----------------------------------------------------------------------

RUN_STARTED = _event(
    "run_started",
    required=("backend", "workers", "line_count"),
    optional=("test", "resumed_from_round"))

#: :meth:`RoundSnapshot.as_record`; its ``round`` is the envelope key.
ROUND_COMPLETED = _event(
    "round_completed",
    required=tuple(f.name for f in fields(RoundSnapshot)
                   if f.name != "round_index"))

#: ``RunResult.summary()``, plus the round wall-time percentiles on a cluster.
RUN_FINISHED = _event(
    "run_finished",
    required=("paths", "coverage_percent", "bugs", "useful", "replay",
              "exhausted", "goal_reached", "wall_time"),
    optional=("rounds", "steps", "round_time_p50", "round_time_p99"))

BUG_FOUND = _event(
    "bug_found",
    optional=("kind", "message", "bugs", "new"))

CHECKPOINT_WRITTEN = _event(
    "checkpoint_written",
    optional=("path",))

#: End-of-run dump of the solver/cache counters, built on every backend by
#: :func:`repro.obs.trace.emit_solver_query`: the non-zero entries of the
#: ``Solver.cache_counters()`` keys plus the latency percentiles.  Open
#: because the payload is whatever integer counters the solver reports;
#: ``tests/test_backend_parity.py`` holds the backends to one key set.
SOLVER_QUERY = _event(
    "solver_query",
    optional=("constraint_cache_hits", "constraint_cache_misses",
              "cex_cache_hits", "cex_cache_misses", "solver_queries",
              "solver_search_steps", "independence_groups", "groups_solved",
              "independence_hits", "unknown_cache_hits",
              "latency_count", "latency_p50", "latency_p99"),
    allow_extra=True)

# -- load balancing ----------------------------------------------------------------------

JOB_TRANSFERRED = _event(
    "job_transferred",
    required=("source", "destination", "jobs"))

# -- membership --------------------------------------------------------------------------

WORKER_JOINED = _event("worker_joined", optional=("workers",))

WORKER_LEFT = _event("worker_left", optional=("workers",))

# -- fault tolerance ---------------------------------------------------------------------

HEARTBEAT_MISS = _event("heartbeat_miss")

WORKER_DIED = _event("worker_died", required=("reason",))

WORKER_RESPAWNED = _event("worker_respawned")

JOBS_RECOVERED = _event("jobs_recovered", required=("jobs",))

# -- worker-side forwarding --------------------------------------------------------------

#: Timed phase (``Tracer.span``); payload is the span's free-form fields.
SPAN = _event("span", required=("phase", "duration"), allow_extra=True)

#: The worker-side buffer overflowed between drains (``BufferTracer``).
TRACE_EVENTS_DROPPED = _event("trace_events_dropped", required=("count",))

#: Fallback name for a forwarded worker event that lost its ``event`` key.
WORKER_EVENT = _event("worker_event", allow_extra=True)


# -- helpers -----------------------------------------------------------------------------


def schema_for(name: str) -> EventSchema:
    """The declared schema for ``name``; raises ``KeyError`` if unknown."""
    return EVENT_SCHEMAS[name]


def validate_keys(name: str, keys) -> Tuple[str, ...]:
    """Problems with emitting ``keys`` for event ``name`` (empty = valid).

    The contract :func:`repro.obs.trace.schema_validator` enforces on every
    record.
    """
    problems = []
    schema = EVENT_SCHEMAS.get(name)
    if schema is None:
        return ("unknown trace event %r" % name,)
    keyset = frozenset(keys) - ENVELOPE_KEYS
    for missing in sorted(frozenset(schema.required) - keyset):
        problems.append("event %r missing required key %r" % (name, missing))
    if not schema.allow_extra:
        for extra in sorted(keyset - schema.allowed()):
            problems.append("event %r has undeclared key %r" % (name, extra))
    return tuple(problems)
