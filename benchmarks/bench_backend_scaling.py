"""Backend scaling: wall-clock time of single vs in-process vs process workers.

The virtual-time benchmarks (Fig. 7-13) compare *rounds*; this one compares
real seconds.  The paper's architectural bet is that shipping paths to
shared-nothing workers buys wall-clock speedup on real cores (§7.2); in this
reproduction the in-process ``cluster`` backend steps its members one
after another (pure-Python workers could not overlap under the GIL anyway),
so the ``process`` backend -- the same coordinator over mp queues -- is
where that bet pays off, on a multi-core machine.  (On a single-core runner all parallel backends
degenerate to IPC overhead; the JSON baseline records ``cpu_count`` so
readers can interpret the numbers.)

Every backend runs the same spec under the same
:class:`~repro.api.limits.ExplorationLimits`.  Results (wall time, coverage,
paths, replay overhead, transfer encoding savings, solver-cache hit rates)
are printed as a table and written to ``BENCH_backend_scaling.json`` at the
repository root -- the first entry of the benchmark-baseline trajectory.

The tracing-overhead check rides along: the same cluster run with and
without ``trace_path=`` (best-of-N wall time each) must stay within a few
percent -- structured tracing is one JSONL append per round, and disabled
tracing is a single attribute check.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time

from repro.api import ExplorationLimits
from repro.distrib import specs

from conftest import print_table, run_once, worker_counts

SPEC_NAME = "printf"
SPEC_PARAMS = {"format_length": 3}
LIMITS = ExplorationLimits(max_rounds=60, max_instructions=60_000)
INSTRUCTIONS_PER_ROUND = 500

OUTPUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_backend_scaling.json")


def _row(backend: str, sweep_workers: int, result) -> dict:
    cache = result.cache_stats or {}
    return {
        "backend": backend,
        "sweep_workers": sweep_workers,
        "workers": result.num_workers,
        "wall_time": result.wall_time,
        "coverage_percent": result.coverage_percent,
        "paths_completed": result.paths_completed,
        "useful_instructions": result.useful_instructions,
        "replay_instructions": result.replay_instructions,
        "replay_overhead": result.replay_overhead,
        "exhausted": result.exhausted,
        "rounds_executed": result.rounds_executed,
        "states_transferred": result.states_transferred,
        "transfer_jobs": result.transfer_cost.jobs if result.transfer_cost else 0,
        "transfer_savings_ratio": result.transfer_savings_ratio,
        "constraint_cache_hit_rate": cache.get("constraint_cache_hit_rate", 0.0),
        "cex_cache_hit_rate": cache.get("cex_cache_hit_rate", 0.0),
    }


def _run_backend(backend: str, workers: int) -> dict:
    test = specs.resolve_test(SPEC_NAME, **SPEC_PARAMS)
    if backend == "single":
        result = test.run(backend="single", limits=LIMITS)
    else:
        result = test.run(backend=backend, workers=workers, limits=LIMITS,
                          instructions_per_round=INSTRUCTIONS_PER_ROUND)
    return _row(backend, workers, result)


def _run_sweep() -> dict:
    rows = []
    for workers in worker_counts():
        for backend in ("single", "cluster", "process"):
            rows.append(_run_backend(backend, workers))
    baseline = {
        "benchmark": "backend_scaling",
        "spec": SPEC_NAME,
        "spec_params": SPEC_PARAMS,
        "limits": LIMITS.as_dict(),
        "instructions_per_round": INSTRUCTIONS_PER_ROUND,
        "worker_counts": worker_counts(),
        "cpu_count": multiprocessing.cpu_count(),
        "rows": rows,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def _print_baseline(baseline: dict) -> None:
    print_table(
        "Backend scaling -- wall time (s) under identical limits "
        "(%d CPU core(s) available)" % baseline["cpu_count"],
        ["backend", "workers", "wall s", "coverage %", "paths",
         "replay %", "xfer savings"],
        [(row["backend"], row["sweep_workers"],
          round(row["wall_time"], 3), round(row["coverage_percent"], 1),
          row["paths_completed"], round(100 * row["replay_overhead"], 1),
          round(row["transfer_savings_ratio"], 2))
         for row in baseline["rows"]])
    print("baseline written to %s" % os.path.normpath(OUTPUT_PATH))


def _measure_tracing_overhead(repeats: int = 5) -> dict:
    """Best-of-N wall time for the same cluster run, traced vs untraced."""
    def run_one(trace_path=None):
        test = specs.resolve_test(SPEC_NAME, **SPEC_PARAMS)
        started = time.perf_counter()
        test.run(backend="cluster", workers=2, limits=LIMITS,
                 instructions_per_round=INSTRUCTIONS_PER_ROUND,
                 trace_path=trace_path)
        return time.perf_counter() - started

    trace_path = os.path.join(tempfile.mkdtemp(prefix="repro-obs-bench-"),
                              "trace.jsonl")
    untraced = min(run_one() for _ in range(repeats))
    traced = min(run_one(trace_path) for _ in range(repeats))
    trace_bytes = os.path.getsize(trace_path)
    os.remove(trace_path)
    os.rmdir(os.path.dirname(trace_path))
    return {
        "untraced_wall_time": untraced,
        "traced_wall_time": traced,
        "overhead_ratio": (traced - untraced) / untraced,
        "trace_bytes": trace_bytes,
    }


def test_tracing_overhead(benchmark):
    overhead = run_once(benchmark, _measure_tracing_overhead)
    print("tracing overhead: untraced %.3fs traced %.3fs (%+.2f%%), "
          "%d trace bytes"
          % (overhead["untraced_wall_time"], overhead["traced_wall_time"],
             100 * overhead["overhead_ratio"], overhead["trace_bytes"]))
    assert overhead["trace_bytes"] > 0
    # Acceptance: tracing costs under 3% wall time (best-of-N absorbs
    # scheduler noise; one O_APPEND write per round is the whole cost).
    assert overhead["overhead_ratio"] < 0.03


def test_backend_scaling_baseline(benchmark):
    baseline = run_once(benchmark, _run_sweep)
    _print_baseline(baseline)
    rows = baseline["rows"]
    by_backend = {}
    for row in rows:
        by_backend.setdefault(row["backend"], []).append(row)
    # Every backend measured at every sweep point, wall times recorded.
    assert set(by_backend) == {"single", "cluster", "process"}
    for backend_rows in by_backend.values():
        assert len(backend_rows) == len(worker_counts())
        assert all(r["wall_time"] > 0 for r in backend_rows)
    # Parallel backends must not lose coverage against the single engine
    # under the same limits (the merged-frontier completeness claim).
    single_cov = max(r["coverage_percent"] for r in by_backend["single"])
    for backend in ("cluster", "process"):
        assert max(r["coverage_percent"]
                   for r in by_backend[backend]) >= single_cov
    assert os.path.exists(OUTPUT_PATH)


if __name__ == "__main__":
    _print_baseline(_run_sweep())
