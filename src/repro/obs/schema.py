"""The declared trace-event schema registry: one vocabulary, six backends.

Every backend writes the same JSONL trace format (:mod:`repro.obs.trace`),
and downstream consumers -- the report CLI, the replay tooling ROADMAP item
6 asks for, and the trace-integrity tests -- key off event names and field
names that until now lived only as string literals scattered across four
subsystems.  This module makes the vocabulary explicit:

* one :class:`EventSchema` per event, declaring its required keys (present
  at every emit site), its optional keys (backend-specific extras), and
  whether the payload is open (``allow_extra``, for pass-through dumps like
  ``solver_query``);
* one module-level constant per event name (``ROUND_COMPLETED`` ...), which
  emit call sites use instead of string literals.

The registry is deliberately *statically parseable*: every ``_event(...)``
call below uses only literals, so the static checker
(:mod:`repro.analysis.traceschema`) reads this file's AST -- no imports, no
execution -- and verifies every ``Tracer.emit`` call site in the tree
against it.  Drift between backends on a shared event (a key renamed in one
coordinator but not the other) is a CI failure, not a silently broken
report.

Registering a new event
-----------------------

1. Add a constant here via ``_event("my_event", required=(...),
   optional=(...))``; keys in ``required`` must appear at every emit site,
   keys in ``optional`` may appear at some.
2. Use the constant at the emit site: ``tracer.emit(schema.MY_EVENT, ...)``.
3. Run ``python -m repro.analysis src/`` -- unknown events, unknown keys
   and missing required keys are findings with file:line positions.

Envelope keys (``seq``/``ts``/``event``/``run``/``worker``/``round``/
``wts``) are added by the tracer itself and never declared per event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["EventSchema", "EVENT_SCHEMAS", "ENVELOPE_KEYS", "schema_for",
           "validate_keys"]

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
    #: Emitted by more than one backend; the checker holds every site to
    #: the same required set, which is what keeps the backends in sync.
    shared: bool = False

    def allowed(self) -> frozenset:
        return frozenset(self.required) | frozenset(self.optional)


#: name -> schema, populated by the ``_event`` calls below.
EVENT_SCHEMAS: Dict[str, EventSchema] = {}


def _event(name: str, required: Tuple[str, ...] = (),
           optional: Tuple[str, ...] = (), allow_extra: bool = False,
           shared: bool = False) -> str:
    """Register one event schema; returns the name (bound to a constant).

    Call sites of this helper must stay literal-only -- the static checker
    parses them from the AST.
    """
    if name in EVENT_SCHEMAS:
        raise ValueError("duplicate trace event schema %r" % name)
    EVENT_SCHEMAS[name] = EventSchema(name=name, required=tuple(required),
                                      optional=tuple(optional),
                                      allow_extra=allow_extra, shared=shared)
    return name


# -- run lifecycle -----------------------------------------------------------------------

RUN_STARTED = _event(
    "run_started",
    required=("backend", "workers", "line_count"),
    optional=("test", "resumed_from_round"),
    shared=True)

ROUND_COMPLETED = _event(
    "round_completed",
    required=("elapsed", "coverage_percent", "covered_lines", "paths",
              "candidates", "workers", "useful", "replay", "transferred",
              "queues", "workers_detail"),
    shared=True)

RUN_FINISHED = _event(
    "run_finished",
    required=("paths", "coverage_percent", "bugs", "exhausted", "wall_time"),
    optional=("rounds", "steps", "instructions", "useful", "replay",
              "goal_reached", "round_time_p50", "round_time_p99"),
    shared=True)

BUG_FOUND = _event(
    "bug_found",
    optional=("kind", "message", "bugs", "new"),
    shared=True)

CHECKPOINT_WRITTEN = _event(
    "checkpoint_written",
    optional=("path",),
    shared=True)

#: End-of-run dump of the solver/cache counters, built on every backend by
#: :func:`repro.obs.trace.emit_solver_query`: the non-zero entries of the
#: ``Solver.cache_counters()`` keys plus the latency percentiles.  Open only
#: because that helper filters zeros out of a dict and so emits ``**payload``
#: (TRACE004); ``tests/test_backend_parity.py`` holds the backends to one key
#: set.
SOLVER_QUERY = _event(
    "solver_query",
    optional=("constraint_cache_hits", "constraint_cache_misses",
              "cex_cache_hits", "cex_cache_misses", "solver_queries",
              "solver_search_steps", "independence_groups", "groups_solved",
              "independence_hits", "unknown_cache_hits",
              "latency_count", "latency_p50", "latency_p99"),
    allow_extra=True, shared=True)

# -- load balancing ----------------------------------------------------------------------

JOB_TRANSFERRED = _event(
    "job_transferred",
    required=("source", "destination", "jobs"),
    shared=True)

# -- membership --------------------------------------------------------------------------

WORKER_JOINED = _event("worker_joined", optional=("workers",), shared=True)

WORKER_DRAINING = _event("worker_draining", required=("queue",), shared=True)

WORKER_LEFT = _event("worker_left", optional=("workers",), shared=True)

AUTOSCALE_DECISION = _event(
    "autoscale_decision",
    required=("action", "count", "workers"))

# -- fault tolerance ---------------------------------------------------------------------

HEARTBEAT_MISS = _event("heartbeat_miss")

WORKER_DIED = _event("worker_died", required=("reason", "draining"))

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

    The same contract the static checker enforces, usable at runtime by
    tests that build events dynamically.
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
