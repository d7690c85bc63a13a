"""Structured JSONL event tracing: one run, one ordered trace file.

The trace is the raw material for every paper figure the report renders
(coverage over time, per-worker utilization, transfer timelines), so the
format is deliberately boring: one JSON object per line, append-only.

Envelope keys, identical on every backend:

``seq``
    Strictly increasing per-file sequence number (trace-integrity tests
    key off it).
``ts``
    Seconds since the tracer was opened, from ``time.monotonic`` --
    immune to wall-clock steps, comparable within one file only.
``event``
    The event name (``run_started``, ``round_completed``, ...).
``run``
    Short random run id, so concatenated traces stay attributable.
``worker`` / ``round``
    Present where meaningful.

Everything else is event-specific payload.  Writers use a single
``os.write`` on an ``O_APPEND`` fd per event, so concurrent emitters
never interleave partial lines; a reader only ever
sees whole lines plus at most one truncated final line after a crash,
which :func:`load_trace` tolerates.

Workers on the process and TCP backends cannot write the coordinator's
file; they buffer events in a :class:`BufferTracer` and piggyback them on
their next status reply, and the coordinator re-stamps them into the
single ordered file (the worker-local timestamp survives as ``wts``).

:data:`NULL_TRACER` is the disabled path: ``enabled`` is ``False`` and
every method is a no-op, so call sites guard hot-path payload building
with ``if tracer.enabled:`` and pay nothing when tracing is off.

Payloads are validated against the declared schema registry
(:mod:`repro.obs.schema`) at runtime, and nowhere else: pass ``validate=``
to :class:`Tracer` / :class:`BufferTracer`, or set
``REPRO_TRACE_VALIDATE=1`` in the environment to turn on
:func:`schema_validator` for every tracer, worker processes and TCP agents
included.  ``tests/conftest.py`` sets it, so every record the test suite
emits is checked -- literal payloads and ``**``-built ones alike; a plain
run leaves it off and pays nothing.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.metrics import Histogram
from repro.obs.schema import SOLVER_QUERY, SPAN, TRACE_EVENTS_DROPPED, WORKER_EVENT
from repro.obs.schema import validate_keys as _schema_validate_keys

__all__ = ["Tracer", "NullTracer", "NULL_TRACER", "BufferTracer",
           "load_trace", "schema_validator", "TRACE_VALIDATE_ENV",
           "emit_solver_query"]

#: Environment switch: any value except "" / "0" turns on
#: :func:`schema_validator` for every tracer constructed without an
#: explicit ``validate=``.
TRACE_VALIDATE_ENV = "REPRO_TRACE_VALIDATE"

def schema_validator(event: str, record: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``record`` satisfies the declared schema
    (:mod:`repro.obs.schema`) for ``event``.  Envelope keys are exempt."""
    problems = _schema_validate_keys(event, record.keys())
    if problems:
        raise ValueError("trace record for %r violates the declared "
                         "schema: %s" % (event, "; ".join(problems)))


def _validates(validate: Optional[bool]) -> bool:
    """Whether a tracer checks its records: ``None`` defers to the
    environment switch."""
    if validate is None:
        return os.environ.get(TRACE_VALIDATE_ENV, "") not in ("", "0")
    return validate


def _build_record(envelope: Dict[str, Any], worker: Optional[int],
                  round: Optional[int], fields: Dict[str, Any],
                  validate: bool) -> Dict[str, Any]:
    """Finish one record in place: ``envelope`` (its ``event`` included)
    plus ``worker``/``round`` and the payload fields that are not ``None``,
    held to :func:`schema_validator` when ``validate`` is set."""
    if worker is not None:
        envelope["worker"] = worker
    if round is not None:
        envelope["round"] = round
    for key, value in fields.items():
        if value is not None:
            envelope[key] = value
    if validate:
        schema_validator(envelope["event"], envelope)
    return envelope


class Tracer:
    """Process-safe JSONL trace writer.

    The file is truncated on open (one run, one trace) and then written
    with atomic ``O_APPEND`` single-write records.  ``emit`` drops keys
    whose value is ``None`` so call sites can pass optional fields
    unconditionally.

    ``validate`` holds every finished record to :func:`schema_validator`
    before it is written (default: only when ``REPRO_TRACE_VALIDATE`` is
    set in the environment, as it is under pytest).
    """

    enabled = True

    def __init__(self, path: str, run_id: Optional[str] = None,
                 validate: Optional[bool] = None):
        self.path = str(path)
        self.run_id = run_id or os.urandom(4).hex()
        self._fd: Optional[int] = os.open(
            self.path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
            0o644)
        self._lock = threading.Lock()
        self._seq = 0
        self._epoch = time.monotonic()
        self._validate = _validates(validate)

    # -- core ---------------------------------------------------------------------------

    def emit(self, event: str, *, worker: Optional[int] = None,
             round: Optional[int] = None, **fields: Any) -> None:
        """Append one event record, stamped now (tracer clock)."""
        if self._fd is None:
            return
        record = _build_record({
            "seq": 0,  # patched under the lock below
            "ts": time.monotonic() - self._epoch,
            "event": event,
            "run": self.run_id,
        }, worker, round, fields, self._validate)
        with self._lock:
            if self._fd is None:
                return
            self._seq += 1
            record["seq"] = self._seq
            data = json.dumps(record, default=str) + "\n"
            os.write(self._fd, data.encode("utf-8"))

    def ingest(self, events: Iterable[Dict[str, Any]],
               worker: Optional[int] = None) -> None:
        """Write worker-forwarded events under coordinator ``seq``/``ts``.

        The worker's own monotonic timestamp (its ``ts``) is preserved as
        ``wts`` -- worker clocks are not comparable to the coordinator's,
        but intra-worker ordering and durations still are.
        """
        for event in events:
            fields = dict(event)
            name = fields.pop("event", WORKER_EVENT)
            fields.pop("seq", None)
            fields.pop("run", None)
            wts = fields.pop("ts", None)
            if wts is not None:
                fields["wts"] = wts
            who = fields.pop("worker", worker)
            rnd = fields.pop("round", None)
            self.emit(name, worker=who, round=rnd, **fields)

    def span(self, phase: str, **fields: Any):
        """Context manager timing a phase; emits one ``span`` event on exit."""
        return _Span(self, phase, fields)

    def close(self) -> None:
        with self._lock:
            fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _Span:
    __slots__ = ("_tracer", "_phase", "_fields", "_start")

    def __init__(self, tracer, phase: str, fields: Dict[str, Any]):
        self._tracer = tracer
        self._phase = phase
        self._fields = fields
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer.emit(SPAN, phase=self._phase,
                          duration=time.monotonic() - self._start,
                          **self._fields)


class NullTracer:
    """The tracing-off path: every operation is a no-op.

    ``enabled`` is ``False`` so hot paths can skip building event payloads
    entirely -- disabled tracing costs one attribute check.
    """

    enabled = False
    run_id = ""
    path = None

    def emit(self, event: str, **fields: Any) -> None:
        pass

    def ingest(self, events: Iterable[Dict[str, Any]],
               worker: Optional[int] = None) -> None:
        pass

    def span(self, phase: str, **fields: Any) -> "_NullSpan":
        return _NULL_SPAN

    def close(self) -> None:
        pass

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc) -> None:
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


_NULL_SPAN = _NullSpan()

#: Shared no-op tracer; ``tracer = NULL_TRACER`` is the disabled default
#: everywhere a component holds a tracer.
NULL_TRACER = NullTracer()


class BufferTracer:
    """Worker-side event buffer for the process and TCP backends.

    Workers cannot append to the coordinator's file, so they collect
    events as plain dicts and the coordinator drains them over the status
    channel (one reply per command; the buffer rides along) into the real
    :class:`Tracer` via :meth:`Tracer.ingest`.  Bounded: beyond
    ``capacity`` events between drains, new events are counted but
    dropped, and the drop count is emitted as a ``trace_events_dropped``
    event on the next drain.
    """

    enabled = True

    def __init__(self, capacity: int = 10_000,
                 validate: Optional[bool] = None):
        self.capacity = capacity
        self._events: List[Dict[str, Any]] = []
        self._dropped = 0
        self._epoch = time.monotonic()
        self._validate = _validates(validate)

    def emit(self, event: str, *, worker: Optional[int] = None,
             round: Optional[int] = None, **fields: Any) -> None:
        if len(self._events) >= self.capacity:
            self._dropped += 1
            return
        self._events.append(_build_record({
            "ts": time.monotonic() - self._epoch,
            "event": event,
        }, worker, round, fields, self._validate))

    def span(self, phase: str, **fields: Any) -> _Span:
        return _Span(self, phase, fields)

    def drain(self) -> List[Dict[str, Any]]:
        """Return buffered events and reset the buffer."""
        events, self._events = self._events, []
        if self._dropped:
            events.append({
                "ts": time.monotonic() - self._epoch,
                "event": TRACE_EVENTS_DROPPED,
                "count": self._dropped,
            })
            self._dropped = 0
        return events

    def close(self) -> None:
        self._events = []


def emit_solver_query(tracer: Union[Tracer, NullTracer],
                      cache_stats: Optional[Dict[str, float]],
                      latency: Histogram) -> None:
    """The end-of-run ``solver_query`` event, built here for every backend.

    Payload: the non-zero integer counters of a ``RunResult.cache_stats``
    (the :meth:`~repro.solver.solver.Solver.cache_counters` keys; the
    derived float hit rates stay out) plus the query-latency percentiles.
    ``latency`` is a solver's lifetime distribution -- the counters are the
    run's own, the percentiles also cover earlier runs on a reused solver.
    """
    payload: Dict[str, Any] = {
        key: value for key, value in (cache_stats or {}).items()
        if isinstance(value, int) and value}
    if latency.count:
        payload["latency_count"] = latency.count
        payload["latency_p50"] = round(latency.percentile(50.0) or 0.0, 6)
        payload["latency_p99"] = round(latency.percentile(99.0) or 0.0, 6)
    tracer.emit(SOLVER_QUERY, **payload)


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL trace, tolerating one truncated final line.

    A coordinator SIGKILL can leave a partial last record (the ``O_APPEND``
    write was cut); everything before it is still whole lines.  A line that
    does not parse anywhere *except* at the end is a real corruption: a
    :class:`json.JSONDecodeError` naming the file, with the file's line and
    column.  A line that parses to anything but a JSON object is a
    ``ValueError`` naming the file and line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    events: List[Dict[str, Any]] = []
    end = 0
    for number, line in enumerate(lines, 1):
        start, end = end, end + len(line) + 1
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except (ValueError, RecursionError) as exc:
            if number == len(lines):
                break  # torn final write -- expected after a crash
            raise json.JSONDecodeError(
                "corrupt trace record in %s" % path, text,
                start + getattr(exc, "pos", 0)) from None
        if not isinstance(event, dict):
            raise ValueError("%s: line %d: a trace record is a JSON object, "
                             "not %s" % (path, number, type(event).__name__))
        events.append(event)
    return events
