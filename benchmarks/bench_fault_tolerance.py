"""Fault tolerance: recovery overhead under injected worker kills (§2.3).

Cloud9 tolerates worker failures: the coordinator requeues a dead worker's
territory (its frontier ledger entries) to the survivors, which re-explore
it from path-encoded jobs.  This benchmark measures what that recovery
*costs* on the multiprocess backend: how many completed paths the dead
worker took with it (work that must be redone), how many extra rounds and
instructions the run needs compared to a crash-free baseline, and that the
final outcome (paths, coverage) is nevertheless identical -- the §2.3
claim, strengthened from "adjust the frontier as if deleted" to full
recovery.

One worker of a 2-worker cluster is SIGKILLed at several points of the run
(early / middle / late), plus one run with ``respawn=True`` where a
replacement process joins instead of shrinking the cluster.  Results are
printed as a table and written to ``BENCH_fault_tolerance.json`` at the
repository root.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal

from repro.api import ExplorationLimits
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig

from conftest import print_table, run_once

SPEC_NAME = "printf"
SPEC_PARAMS = {"format_length": 2}
LIMITS = ExplorationLimits(max_rounds=400)
INSTRUCTIONS_PER_ROUND = 100

OUTPUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_fault_tolerance.json")


def _config(**kw) -> ProcessClusterConfig:
    kw.setdefault("num_workers", 2)
    kw.setdefault("instructions_per_round", INSTRUCTIONS_PER_ROUND)
    kw.setdefault("reply_timeout", 1.0)
    kw.setdefault("shutdown_timeout", 2.0)
    return ProcessClusterConfig(**kw)


def _kill_hook(target_round: int):
    killed = {}

    def hook(round_index, cluster):
        if killed or round_index < target_round or len(cluster.handles) < 2:
            return
        victim = cluster.handles[-1]
        if victim.queue_length == 0:
            return  # wait until it owns territory worth recovering
        killed["round"] = round_index
        killed["paths_lost"] = victim.paths_completed
        os.kill(victim.process.pid, signal.SIGKILL)

    hook.killed = killed
    return hook


def _row(label, result, baseline=None, killed=None) -> dict:
    row = {
        "label": label,
        "rounds_executed": result.rounds_executed,
        "paths_completed": result.paths_completed,
        "coverage_percent": result.coverage_percent,
        "useful_instructions": result.useful_instructions,
        "replay_instructions": result.replay_instructions,
        "wall_time": result.wall_time,
        "worker_failures": result.worker_failures,
        "jobs_recovered": result.jobs_recovered,
        "respawns": result.respawns,
        "exhausted": result.exhausted,
        "kill_round": (killed or {}).get("round"),
        "paths_lost": (killed or {}).get("paths_lost", 0),
        # Work the dead worker had done that vanished with it (its totals
        # are excluded from the run's counters to avoid double counting).
        "instructions_lost": sum(
            s.useful_instructions + s.replay_instructions
            for s in result.failed_worker_stats.values()),
    }
    if baseline is not None:
        row["extra_rounds"] = result.rounds_executed - baseline.rounds_executed
        row["extra_instructions"] = (
            result.total_instructions - baseline.total_instructions)
    return row


def _run_baseline():
    cluster = ProcessCloud9Cluster(SPEC_NAME, spec_params=SPEC_PARAMS,
                                   config=_config())
    return cluster.run(limits=LIMITS)


def _run_with_kill(target_round: int, respawn: bool = False):
    cluster = ProcessCloud9Cluster(
        SPEC_NAME, spec_params=SPEC_PARAMS,
        config=_config(respawn=respawn, max_worker_failures=3))
    hook = _kill_hook(target_round)
    cluster.round_hook = hook
    result = cluster.run(limits=LIMITS)
    return result, hook.killed


def _run_experiment() -> dict:
    baseline = _run_baseline()
    rows = [_row("baseline", baseline)]
    kill_rounds = sorted({max(1, baseline.rounds_executed // 4),
                          max(1, baseline.rounds_executed // 2),
                          max(1, (3 * baseline.rounds_executed) // 4)})
    for target in kill_rounds:
        result, killed = _run_with_kill(target)
        rows.append(_row("kill@%d" % target, result, baseline, killed))
    result, killed = _run_with_kill(kill_rounds[0], respawn=True)
    rows.append(_row("kill@%d+respawn" % kill_rounds[0], result, baseline,
                     killed))

    payload = {
        "benchmark": "fault_tolerance",
        "spec": SPEC_NAME,
        "spec_params": SPEC_PARAMS,
        "limits": LIMITS.as_dict(),
        "instructions_per_round": INSTRUCTIONS_PER_ROUND,
        "cpu_count": multiprocessing.cpu_count(),
        "rows": rows,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def _print_payload(payload: dict) -> None:
    print_table(
        "Fault tolerance -- recovery overhead of one SIGKILLed worker "
        "(2-worker process cluster)",
        ["run", "kill@", "paths lost", "jobs recovered", "rounds",
         "extra rounds", "extra instr", "paths", "coverage %"],
        [(row["label"], row["kill_round"] if row["kill_round"] is not None
          else "-", row["paths_lost"], row["jobs_recovered"],
          row["rounds_executed"], row.get("extra_rounds", "-"),
          row.get("extra_instructions", "-"), row["paths_completed"],
          round(row["coverage_percent"], 1))
         for row in payload["rows"]])
    print("baseline written to %s" % os.path.normpath(OUTPUT_PATH))


def test_fault_tolerance_recovery_overhead(benchmark):
    payload = run_once(benchmark, _run_experiment)
    _print_payload(payload)
    rows = payload["rows"]
    baseline = rows[0]
    assert baseline["worker_failures"] == 0
    assert baseline["exhausted"]
    killed_rows = rows[1:]
    assert killed_rows
    for row in killed_rows:
        # Every injected kill was detected and recovered from...
        assert row["worker_failures"] == 1
        assert row["jobs_recovered"] > 0
        assert row["exhausted"]
        # ...and converged to the crash-free outcome on this deterministic
        # target, paying only redone work (never losing results).
        assert row["paths_completed"] == baseline["paths_completed"]
        assert row["coverage_percent"] == baseline["coverage_percent"]
        # ("extra_instructions" can go negative: the dead worker's counted
        # work vanishes from the totals while survivors redo only the
        # unfinished part of its territory.)
    respawn_row = rows[-1]
    assert respawn_row["respawns"] == 1


if __name__ == "__main__":  # pragma: no cover - manual invocation
    class _Bench:
        @staticmethod
        def pedantic(func, rounds, iterations, warmup_rounds):
            return func()

    _print_payload(run_once(_Bench, _run_experiment))
