"""Smoke test of the harness itself (not part of tier-1):

    python -m pytest -q bench/

``--quick`` runs one unit per workload with budgets divided by ten and no
oracle, so the whole file finishes in well under a minute.
"""

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _quick(workload: str, trace: int):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def test_declared_metrics_match_the_harness():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert declared == table
    assert sum(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"]) == 1
    assert len(BENCHMARK["per_layer"]) <= 64


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_quick_run_emits_exactly_the_declared_metrics(trace, key):
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    started = time.monotonic()
    for workload in BENCHMARK["workloads"]:
        result, info = _quick(workload["name"], trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, info["failures"]
        assert result["attempted"] >= 1
        emitted = result["metrics"]
        assert set(emitted) == set(declared)
        for name, metric in emitted.items():
            assert NAME.match(name)
            assert metric["unit"] == declared[name]
            assert isinstance(metric["value"], float)
        if trace:
            # The spans nest as the calls do: their self times are the unit.
            assert info["traced_unit_self_sum_s"] == pytest.approx(
                info["traced_unit_raw_s"], rel=0.05)
    assert time.monotonic() - started < 30


def test_sampler_segments_account_for_the_unit():
    started = time.perf_counter()
    with calib.AlarmSampler() as record:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    wall = time.perf_counter() - started
    assert len(record.segments) >= 5
    assert len(record.kernels) == len(record.segments) + 1
    assert record.raw_s == pytest.approx(wall - record.kernel_s, rel=0.01)
    # A unit as fast as the reference is credited its own duration.
    assert 0.3 < record.norm_s / record.raw_s < 1.5


def test_span_table_hides_kernel_time():
    import spans

    table = spans.SpanTable()

    def inner():
        table.hide(10.0)  # as if a 10 s kernel had run in here

    outer = table.span("outer", table.span("inner", inner))
    outer()
    assert table.calls == {"outer": 1, "inner": 1}
    # Both spans were open, so both lose the 10 s; what is left is real time.
    assert -10.0 < table.total_s["inner"] < table.total_s["outer"] < -9.99
    assert 0.0 < table.self_s["outer"] < 0.01
