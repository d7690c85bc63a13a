"""What one run measures: units, set-up probes, and the metrics made of them.

Imported by ``run.py`` once the program under test is importable.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from typing import Callable, Dict, List, Optional, Tuple

import micro
import spans
from calib import AlarmSampler, HookSampler
from oracle import load_expected, mismatches
from workloads import BY_NAME, outcome_of, run_unit

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 5


class Operations:
    """Counts what was attempted and what failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def attempt(self, label: str, action: Callable[[], object]) -> Optional[object]:
        self.attempted += 1
        try:
            return action()
        except Exception as exc:  # a failed operation must not end the run
            self.fail("%s: %s: %s" % (label, type(exc).__name__, exc))
            return None

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print("FAILED %s" % reason, file=sys.stderr)


class Unit:
    """One timed exploration: its calibrated time and what it produced."""

    def __init__(self, record, result) -> None:
        self.record = record
        self.result = result
        self.outcome = outcome_of(result)

    @property
    def norm_s(self) -> float:
        return self.record.norm_s


def timed_unit(workload, seed: int, quick: bool, table=None) -> Unit:
    """Run one unit under the sampler that suits its backend."""
    hide = table.hide if table is not None else None
    explore = table.span("harness.unit", run_unit) if table is not None else run_unit
    gc.collect()
    if workload.backend == "single":
        with AlarmSampler(on_kernel=hide) as record:
            result = explore(workload, seed, quick)
    else:
        sampler = HookSampler(on_kernel=hide)
        with sampler as record:
            result = explore(workload, seed, quick, round_hook=sampler.hook)
    return Unit(record, result)


def checked_units(ops: Operations, workload, seed: int, count: int,
                  quick: bool) -> List[Unit]:
    """``count`` plain units; each is checked against the oracle and against
    its siblings (identical inputs must do identical work)."""
    expected = None if quick else load_expected()[workload.name]
    units: List[Unit] = []
    for index in range(count):
        label = "%s unit %d" % (workload.name, index)
        unit = ops.attempt(label, lambda: timed_unit(workload, seed, quick))
        if unit is None:
            continue
        problems = [] if expected is None else mismatches(
            workload, seed, unit.outcome, expected)
        if units and unit.outcome != units[0].outcome:
            problems.append("differs from unit 0: %r" % (unit.outcome,))
        if problems:
            ops.fail("%s: %s" % (label, "; ".join(problems)))
        else:
            units.append(unit)
    return units


def setup_probe(workload) -> Dict[str, float]:
    """One set-up in a fresh interpreter, timed and calibrated by the probe
    itself: ``raw_s``, ``norm_s`` and the seconds per layer."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload.name],
        check=True, capture_output=True, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"))
    return json.loads(done.stdout)


def measured_setup(ops: Operations, workload, probes: int) -> List[Dict[str, float]]:
    done = [ops.attempt("%s set-up %d" % (workload.name, i),
                        lambda: setup_probe(workload)) for i in range(probes)]
    return [probe for probe in done if probe is not None]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (the workers; zero before any child has run)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(ops: Operations, workload, seed: int, units_wanted: int,
               quick: bool) -> Tuple[Dict[str, float], Dict[str, object]]:
    units = checked_units(ops, workload, seed, units_wanted, quick)
    # Read before the set-up probes run: they are children too.
    rss = peak_rss_mb()
    probes = measured_setup(ops, workload, 1 if quick else SETUP_PROBES)
    if not units or not probes:
        raise SystemExit("no unit or no set-up probe succeeded")
    best = min(units, key=lambda unit: unit.norm_s)
    result = best.result
    total = result.useful_instructions + result.replay_instructions
    metrics = {
        "norm_wall_s": best.norm_s,
        "useful_instr_per_norm_s": result.useful_instructions / best.norm_s,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(probe["norm_s"] for probe in probes),
        "useful_work_pct": 100.0 * result.useful_instructions / total,
    }
    info = {
        "raw_wall_s": min(unit.record.raw_s for unit in units),
        "raw_setup_s": statistics.median(probe["raw_s"] for probe in probes),
        "unit_norm_s": [unit.norm_s for unit in units],
        "unit_raw_s": [unit.record.raw_s for unit in units],
        "kernel_median_s": statistics.median(
            k for unit in units for k in unit.record.kernels),
    }
    return metrics, info


def per_layer(ops: Operations, workload, seed: int, quick: bool
              ) -> Tuple[Dict[str, float], Dict[str, object]]:
    plain = checked_units(ops, workload, seed, 1, quick)
    table = spans.SpanTable()
    with tempfile.TemporaryDirectory(prefix=".trace-", dir=HERE) as dump_dir:
        patches = spans.install(table, dump_dir)
        try:
            traced = ops.attempt(
                "%s traced unit" % workload.name,
                lambda: timed_unit(workload, seed, quick, table=table))
        finally:
            spans.uninstall(patches)
        workers = spans.load_worker_tables(dump_dir)
    if not plain or traced is None:
        raise SystemExit("no plain or no traced unit succeeded")
    if traced.outcome != plain[0].outcome:
        ops.fail("%s: tracing changed the outcome: %r"
                 % (workload.name, traced.outcome))
    probes = measured_setup(ops, workload, 1)
    if not probes:
        raise SystemExit("the set-up probe failed")
    distributed = workload.backend == "process"
    reference = checked_units(ops, BY_NAME["memcached_single"], seed, 1,
                              quick) if distributed else []

    unit_self_s = sum(table.self_s.values())
    for dumped in workers:
        table.merge(dumped)
    scale = traced.norm_s / traced.record.raw_s
    result = traced.result
    cache = result.cache_stats or {}
    stats = list((result.worker_stats or {}).values())
    probe = probes[0]
    probe_scale = probe["norm_s"] / probe["raw_s"]

    def calls(name: str) -> float:
        return float(table.calls[name])

    def total(name: str) -> float:
        return table.total_s[name] * scale

    def own(name: str) -> float:
        return table.self_s[name] * scale

    def workers_sum(field: str) -> float:
        return float(sum(getattr(s, field) for s in stats))

    straggler = sum(max(round_) - min(round_) for round_ in
                    zip(*(w["explore_s"] for w in workers))) if workers else 0.0
    micro_results = (micro.run(table.messages,
                               [s.queue_lengths for s in result.timeline.snapshots])
                     if distributed and not quick else {})
    values: Dict[str, float] = {
        "solver.check_calls": calls("solver.check"),
        "solver.check_norm_s": total("solver.check"),
        "solver.simplify_calls": calls("solver.simplify"),
        "solver.simplify_norm_s": total("solver.simplify"),
        "solver.partition_calls": calls("solver.partition"),
        "solver.partition_norm_s": total("solver.partition"),
        "solver.cache_lookup_norm_s": total("solver.cache_lookup"),
        "solver.search_steps": float(cache.get("solver_search_steps", 0)),
        "solver.groups_solved": float(cache.get("groups_solved", 0)),
        "solver.constraint_cache_hit_rate": cache.get("constraint_cache_hit_rate", 0.0),
        "solver.cex_cache_hit_rate": cache.get("cex_cache_hit_rate", 0.0),
        "solver.independence_hit_rate": cache.get("independence_hit_rate", 0.0),
        "solver.expr_allocs": float(table.counts["expr_allocs"]),
        "engine.select_calls": calls("engine.select"),
        "engine.select_norm_s": total("engine.select"),
        "engine.frontier_peak": float(table.counts["frontier_peak"]),
        "engine.fork_calls": calls("engine.fork"),
        "engine.fork_norm_s": total("engine.fork"),
        "engine.step_calls": calls("engine.step"),
        "engine.step_self_norm_s": own("engine.step"),
        "engine.loop_self_norm_s": own("engine.loop"),
        "lang.compile_norm_s": probe["compile_s"] * probe_scale,
        "posix.install_norm_s": probe["install_s"] * probe_scale,
        "api.import_norm_s": probe["import_s"] * probe_scale,
        "cluster.rounds": float(result.rounds_executed or 0),
        "cluster.replay_instructions": float(result.replay_instructions),
        "cluster.replay_overhead_pct": 100.0 * result.replay_overhead,
        "cluster.replays": workers_sum("replays"),
        "cluster.jobs_exported": workers_sum("jobs_exported"),
        "cluster.jobs_imported": workers_sum("jobs_imported"),
        "cluster.transfers": workers_sum("transfers"),
        "cluster.transfer_encoded_nodes": workers_sum("transfer_encoded_nodes"),
        "cluster.transfer_savings_ratio": result.transfer_savings_ratio,
        "cluster.export_norm_s": total("cluster.export"),
        "cluster.import_replay_norm_s": total("cluster.import_replay"),
        "cluster.balance_norm_s": total("cluster.balance"),
        "cluster.replay_solver_queries": workers_sum("replay_solver_queries"),
        "distrib.explore_phase_norm_s": total("distrib.explore_phase"),
        "distrib.status_phase_norm_s": total("distrib.status_phase"),
        "distrib.transfer_phase_norm_s": total("distrib.transfer_phase"),
        "distrib.straggler_wait_norm_s": straggler * scale,
        "distrib.msgs": float(len(table.messages)),
        "distrib.msg_bytes": float(spans.message_bytes(table.messages)),
        "distrib.spawn_norm_s": total("distrib.spawn"),
        "distrib.speedup_vs_single": (reference[0].norm_s / plain[0].norm_s
                                      if reference else 0.0),
        "harness.raw_wall_s": plain[0].record.raw_s,
        "harness.kernel_share_pct": 100.0 * plain[0].record.kernel_s / (
            plain[0].record.kernel_s + plain[0].record.raw_s),
        "harness.kernel_cv_pct": plain[0].record.kernel_cv_pct,
        "harness.trace_overhead_pct": 100.0 * (traced.norm_s / plain[0].norm_s - 1.0),
    }
    values.update({name: value for name, value in micro_results.items()
                   if "@" not in name})
    info = {
        "traced_unit_raw_s": traced.record.raw_s,
        "traced_unit_self_sum_s": unit_self_s,
        "layer_self_norm_s": {name: own(name) for name in sorted(table.self_s)},
        "micro": {k: v for k, v in micro_results.items() if "@" in k},
    }
    return values, info
