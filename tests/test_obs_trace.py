"""The JSONL tracer, the worker-side buffer, crash-tolerant loading, and the
event-schema registry."""

import ast
import json
import os
import pathlib
import tempfile
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.distrib import specs
from repro.obs import report as report_module
from repro.obs import schema as schema_module
from repro.obs import trace as trace_module
from repro.obs.trace import (
    NULL_TRACER,
    BufferTracer,
    NullTracer,
    Tracer,
    load_trace,
)

from conftest import python_calls


# The mechanics tests below emit deliberately minimal payloads (they test
# the envelope, the buffer, and crash tolerance -- not the event schemas),
# so they opt out of runtime validation (which tests/conftest.py turns on
# for the whole suite) explicitly; TestRuntimeValidation covers the
# validator itself.


class TestTracer:
    def test_emit_envelope(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path), validate=False) as tracer:
            tracer.emit("run_started", backend="single", workers=1)
            tracer.emit("round_completed", round=0, worker=3, skipme=None)
        events = load_trace(str(path))
        assert [e["event"] for e in events] == ["run_started",
                                                "round_completed"]
        first, second = events
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["run"] == second["run"]
        assert second["ts"] >= first["ts"] >= 0.0
        assert second["round"] == 0 and second["worker"] == 3
        assert "skipme" not in second  # None-valued fields are dropped

    def test_truncates_previous_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path), validate=False) as t:
            t.emit("a")
        with Tracer(str(path), validate=False) as t:
            t.emit("b")
        assert [e["event"] for e in load_trace(str(path))] == ["b"]

    def test_concurrent_emit_whole_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(str(path), validate=False)

        def hammer(i):
            for _ in range(200):
                tracer.emit("tick", worker=i, payload="x" * 50)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracer.close()
        events = load_trace(str(path))
        assert len(events) == 800
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs) and len(set(seqs)) == 800

    def test_ingest_preserves_worker_ts_as_wts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            tracer.ingest([{"ts": 1.25, "event": "span", "phase": "explore",
                            "duration": 0.5}], worker=4)
        (event,) = load_trace(str(path))
        assert event["event"] == "span"
        assert event["worker"] == 4
        assert event["wts"] == 1.25
        assert event["ts"] != 1.25  # re-stamped on the coordinator clock

    def test_span_emits_duration(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            with tracer.span("explore", worker=1):
                pass
        (event,) = load_trace(str(path))
        assert event["event"] == "span" and event["phase"] == "explore"
        assert event["duration"] >= 0.0

    def test_emit_after_close_is_noop(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(str(path))
        tracer.close()
        tracer.close()  # idempotent
        tracer.emit("late")
        assert load_trace(str(path)) == []


class TestNullTracer:
    def test_disabled_surface(self, tmp_path):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        NULL_TRACER.emit("anything", round=1)
        NULL_TRACER.ingest([{"event": "x"}])
        with NULL_TRACER.span("phase"):
            pass
        NULL_TRACER.close()


class TestBufferTracer:
    def test_drain_returns_and_resets(self):
        buf = BufferTracer(validate=False)
        buf.emit("a", worker=1)
        with buf.span("explore", budget=10):
            pass
        events = buf.drain()
        assert [e["event"] for e in events] == ["a", "span"]
        assert buf.drain() == []

    def test_capacity_drops_are_accounted(self):
        buf = BufferTracer(capacity=3, validate=False)
        for i in range(5):
            buf.emit("tick", round=i)
        events = buf.drain()
        assert [e["event"] for e in events] == [
            "tick", "tick", "tick", "trace_events_dropped"]
        assert events[-1]["count"] == 2
        # The drop counter resets with the drain.
        buf.emit("after")
        assert [e["event"] for e in buf.drain()] == ["after"]


class TestRuntimeValidation:
    def test_schema_validator_rejects_bad_payload(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path), validate=True) as tracer:
            with pytest.raises(ValueError, match="declared schema"):
                tracer.emit("jobs_recovered")  # missing required "jobs"
            tracer.emit("jobs_recovered", worker=1, jobs=3)
        assert [e["event"] for e in load_trace(str(path))] == [
            "jobs_recovered"]

    def test_schema_validator_rejects_unknown_key(self):
        buf = BufferTracer(validate=True)
        with pytest.raises(ValueError, match="declared schema"):
            buf.emit("worker_died", reason="x", bogus=1)
        with pytest.raises(ValueError, match="unknown trace event"):
            buf.emit("no_such_event")
        assert buf.drain() == []

    def test_validation_is_on_for_the_whole_suite(self, tmp_path):
        """conftest.py owns the switch; this is the only schema check there
        is, so turning it off there must not go unnoticed."""
        with Tracer(str(tmp_path / "t.jsonl")) as tracer:
            with pytest.raises(ValueError, match="undeclared key"):
                tracer.emit("worker_died", reason="x", bogus=1)
        with pytest.raises(ValueError, match="undeclared key"):
            BufferTracer().emit("jobs_recovered", jobs=1, bogus=1)

    def test_env_switch_enables_validation(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_VALIDATE", "1")
        path = tmp_path / "t.jsonl"
        with Tracer(str(path)) as tracer:
            with pytest.raises(ValueError):
                tracer.emit("jobs_recovered")
        # "0" (and explicit validate=False) keep validation off.
        monkeypatch.setenv("REPRO_TRACE_VALIDATE", "0")
        with Tracer(str(path)) as tracer:
            tracer.emit("jobs_recovered")

    def test_custom_validator_callable(self):
        seen = []
        buf = BufferTracer(validate=lambda event, record:
                           seen.append((event, dict(record))))
        buf.emit("anything", worker=2)
        assert seen == [("anything", {"ts": seen[0][1]["ts"],
                                      "event": "anything", "worker": 2})]


class TestSchemaRegistry:
    """A registered event is one something emits, and a reader keys off
    registered events only: a removed emit site takes its schema along."""

    @staticmethod
    def _names_read_outside_the_registry():
        package = pathlib.Path(repro.__file__).parent
        readers = {package / "obs" / "schema.py", package / "obs" / "report.py"}
        names = set()
        for path in package.rglob("*.py"):
            if path in readers:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
        return names

    def test_every_registered_event_has_an_emit_site(self):
        constants = {value: name for name, value in vars(schema_module).items()
                     if isinstance(value, str)
                     and value in schema_module.EVENT_SCHEMAS}
        assert set(constants) == set(schema_module.EVENT_SCHEMAS)
        read = self._names_read_outside_the_registry()
        unused = sorted(event for event, name in constants.items()
                        if name not in read)
        assert unused == [], "registered but never emitted: %s" % unused

    def test_every_timeline_event_is_registered(self):
        assert report_module._TIMELINE_EVENTS
        for event in report_module._TIMELINE_EVENTS:
            assert event in schema_module.EVENT_SCHEMAS, event


class TestLoadTrace:
    def test_tolerates_torn_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(str(path), validate=False) as tracer:
            tracer.emit("a")
            tracer.emit("b")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 3, "event": "torn-mid-wri')
        events = load_trace(str(path))
        assert [e["event"] for e in events] == ["a", "b"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\nnot json\n{"event": "b"}\n')
        with pytest.raises(json.JSONDecodeError):
            load_trace(str(path))

    def test_corruption_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n{"event": b}\n{"event": "c"}\n')
        with pytest.raises(ValueError,
                           match=r"t\.jsonl: line 2 column 11 \(char 25\)"):
            load_trace(str(path))

    def test_a_record_that_is_not_an_object_is_refused(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "a"}\n[1, 2]\n{"event": "b"}\n')
        with pytest.raises(ValueError, match=r"t\.jsonl: line 2: .* not list"):
            load_trace(str(path))

    def test_a_torn_multibyte_character_is_a_torn_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes('{"event": "a"}\n{"event": "\u00e9'.encode()[:-1])
        assert [e["event"] for e in load_trace(str(path))] == ["a"]

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(
        [b'{"event": "a", "seq": 1}', b"[1]", b"7", b'"s"', b"{", b"\xff\xfe",
         b"", b"   ", b"[" * 5000, b'{"event": "\xc3']) | st.binary(max_size=20),
        max_size=6))
    def test_fuzzed_traces_fail_only_with_value_error(self, lines):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "t.jsonl")
            with open(path, "wb") as fh:
                fh.write(b"\n".join(lines))
            try:
                events = load_trace(path)
            except ValueError as exc:
                assert path in str(exc)
            else:
                assert all(isinstance(event, dict) for event in events)


class TestTracingCost:
    """What tracing costs, counted rather than timed (the style of
    ``tests/test_engine_step_cost.py``): Python-level calls repeat from run
    to run, seconds on a shared runner do not."""

    @staticmethod
    def _counted_run(max_rounds, trace_path=None):
        """One ``cluster`` run: ``(result, every Python call it made, the
        calls among them into repro/obs/trace.py)``."""
        test = specs.resolve_test("printf", format_length=3)
        with python_calls() as calls:
            result = test.run(backend="cluster", workers=2,
                              instructions_per_round=500,
                              max_rounds=max_rounds, trace_path=trace_path)
        return result, sum(calls.values()), calls[trace_module.__file__]

    def test_tracing_costs_calls_per_event_and_nothing_when_off(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        # A first run fills the expression intern table with what a run
        # leaves alive; the two compared runs then start from the same table
        # and build the same nodes.
        warm, _, _ = self._counted_run(60)
        plain, plain_calls, plain_tracer_calls = self._counted_run(60)
        traced, traced_calls, _ = self._counted_run(60, trace_path)
        events = load_trace(trace_path)

        # Tracing observes the run; it does not steer it.
        assert warm.paths_completed == plain.paths_completed
        assert plain.exhausted and traced.exhausted
        for counter in ("rounds_executed", "paths_completed", "covered_lines",
                        "useful_instructions", "replay_instructions",
                        "states_transferred"):
            assert getattr(traced, counter) == getattr(plain, counter), counter

        # On: a bounded number of calls per emitted record (11.3 measured,
        # 14.8 with the suite's schema validation), under 1 % of the run.
        extra = traced_calls - plain_calls
        assert 0 < extra <= 20 * len(events)
        assert extra <= 0.01 * plain_calls

        # Off: the tracer module is entered a constant number of times (one
        # emit, one close), not once per round -- a short run makes exactly
        # as many calls into it as a long one.
        short, _, short_tracer_calls = self._counted_run(5)
        assert short.rounds_executed == 5 < plain.rounds_executed
        assert plain_tracer_calls == short_tracer_calls <= 2
