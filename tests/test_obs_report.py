"""The trace report: analysis reductions and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs.report import analyze_trace, main, render_report
from repro.obs.trace import Tracer


def _synthetic_events():
    return [
        {"seq": 1, "ts": 0.0, "event": "run_started", "run": "abc",
         "backend": "cluster", "workers": 2, "test": "branchy",
         "line_count": 20},
        {"seq": 2, "ts": 0.1, "event": "round_completed", "run": "abc",
         "round": 0, "elapsed": 0.1, "coverage_percent": 40.0,
         "covered_lines": 8, "paths_completed": 2, "bugs_found": 0,
         "total_candidates": 4, "num_workers": 2, "useful_instructions": 100,
         "replay_instructions": 0, "states_transferred": 0,
         "queue_lengths": {"0": 2, "1": 2},
         "workers_detail": {"0": {"useful": 60, "replay": 0},
                            "1": {"useful": 40, "replay": 0}},
         "load_balancing_enabled": True},
        {"seq": 3, "ts": 0.15, "event": "job_transferred", "run": "abc",
         "round": 0, "source": 0, "destination": 1, "jobs": 2},
        {"seq": 4, "ts": 0.2, "event": "round_completed", "run": "abc",
         "round": 1, "elapsed": 0.2, "coverage_percent": 80.0,
         "covered_lines": 16, "paths_completed": 5, "bugs_found": 0,
         "total_candidates": 1, "num_workers": 2, "useful_instructions": 90,
         "replay_instructions": 10, "states_transferred": 2,
         "queue_lengths": {"0": 1, "1": 0},
         "workers_detail": {"0": {"useful": 90, "replay": 10},
                            "1": {"useful": 0, "replay": 0}},
         "load_balancing_enabled": True},
        {"seq": 5, "ts": 0.3, "event": "run_finished", "run": "abc",
         "rounds": 2, "paths": 6, "coverage_percent": 80.0, "bugs": 0,
         "useful": 190, "replay": 10, "exhausted": True,
         "goal_reached": False, "wall_time": 0.3},
    ]


class TestAnalyzeTrace:
    def test_coverage_over_time(self):
        analysis = analyze_trace(_synthetic_events())
        coverage = analysis["coverage_over_time"]
        assert [p["coverage_percent"] for p in coverage] == [40.0, 80.0]
        assert [p["round"] for p in coverage] == [0, 1]
        assert [p["paths"] for p in coverage] == [2, 5]
        assert [p["candidates"] for p in coverage] == [4, 1]
        assert [p["workers"] for p in coverage] == [2, 2]

    def test_worker_utilization_sums_round_deltas(self):
        util = analyze_trace(_synthetic_events())["worker_utilization"]
        assert util[0]["useful"] == 150 and util[0]["replay"] == 10
        assert util[0]["total"] == 160
        assert util[0]["idle_rounds"] == 0
        assert util[1]["useful"] == 40
        assert util[1]["idle_rounds"] == 1  # idle in round 1

    def test_timeline_and_summary(self):
        analysis = analyze_trace(_synthetic_events())
        names = [e["event"] for e in analysis["timeline"]]
        assert names == ["run_started", "job_transferred", "run_finished"]
        assert analysis["summary"]["paths"] == 6
        assert analysis["run"]["backend"] == "cluster"
        assert analysis["event_count"] == 5

    def test_empty_trace(self):
        analysis = analyze_trace([])
        assert analysis["coverage_over_time"] == []
        assert analysis["worker_utilization"] == {}
        assert analysis["summary"] == {}


class TestRender:
    def test_sections_present(self):
        text = render_report(analyze_trace(_synthetic_events()))
        for section in ("== Run ==", "== Coverage over time ==",
                        "== Per-worker utilization ==", "== Timeline ==",
                        "== Summary =="):
            assert section in text
        assert "final: 80.0%" in text

    def test_renders_empty_trace(self):
        text = render_report(analyze_trace([]))
        assert "(no round_completed events)" in text


class TestCli:
    def test_text_output(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        # The synthetic events are whole records, so the writer holds them
        # to the declared schema.
        with Tracer(str(path), validate=True) as tracer:
            for event in _synthetic_events():
                fields = {k: v for k, v in event.items()
                          if k not in ("seq", "ts", "event", "run")}
                tracer.emit(event["event"], **fields)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "== Coverage over time ==" in out

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in _synthetic_events())
                        + "\n")
        assert main([str(path), "--json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["summary"]["rounds"] == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_a_reader_that_hangs_up_gets_no_traceback(self, tmp_path):
        """``python -m repro.obs.report trace.jsonl | head -1``: the report
        outgrows the pipe buffer, the reader leaves after one line, and the
        CLI exits quietly instead of dying in a ``BrokenPipeError``."""
        events = _synthetic_events()
        transfer = events[2]
        events[2:3] = [dict(transfer, seq=3 + i) for i in range(5000)]
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        src = Path(__file__).resolve().parent.parent / "src"
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.obs.report", str(path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert child.stdout.readline() == b"== Run ==\n"
        child.stdout.close()
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err
