"""The benchmark: one command, every metric by name and unit, outputs checked.

    python bench/run.py                       # every workload, both modes
    python bench/run.py --workload printf_single --seed 3 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation:
``--seconds // UNIT_TARGET_S`` identical units in this one process, each timed
in calibrated (normalised) seconds, the minimum reported.  ``--trace 1`` runs
one plain and one traced unit and reports the per-layer metrics.  Every unit
and every set-up probe is an *operation*: it fails on an exception, on a
result that differs from ``expected.json``, or when it differs from its
sibling units.  The last line printed is the result as one JSON object.

See ``bench/README.md`` for what each metric means and how time is calibrated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Units are sized for about this many seconds; ``--seconds`` buys this many.
UNIT_TARGET_S = 5

Metric = Tuple[str, str, str]  # name, unit, which direction is better

END_TO_END: List[Metric] = [
    ("norm_wall_s", "s", "lower"),
    ("useful_instr_per_norm_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
    ("useful_work_pct", "%", "higher"),
]

PER_LAYER: List[Metric] = [
    ("solver.check_calls", "count", "lower"),
    ("solver.check_norm_s", "s", "lower"),
    ("solver.simplify_calls", "count", "lower"),
    ("solver.simplify_norm_s", "s", "lower"),
    ("solver.partition_calls", "count", "lower"),
    ("solver.partition_norm_s", "s", "lower"),
    ("solver.cache_lookup_norm_s", "s", "lower"),
    ("solver.search_steps", "count", "lower"),
    ("solver.groups_solved", "count", "lower"),
    ("solver.constraint_cache_hit_rate", "ratio", "higher"),
    ("solver.cex_cache_hit_rate", "ratio", "higher"),
    ("solver.independence_hit_rate", "ratio", "higher"),
    ("solver.expr_allocs", "count", "lower"),
    ("engine.select_calls", "count", "lower"),
    ("engine.select_norm_s", "s", "lower"),
    ("engine.frontier_peak", "count", "lower"),
    ("engine.fork_calls", "count", "lower"),
    ("engine.fork_norm_s", "s", "lower"),
    ("engine.step_calls", "count", "lower"),
    ("engine.step_self_norm_s", "s", "lower"),
    ("engine.loop_self_norm_s", "s", "lower"),
    ("lang.compile_norm_s", "s", "lower"),
    ("posix.install_norm_s", "s", "lower"),
    ("api.import_norm_s", "s", "lower"),
    ("cluster.rounds", "count", "lower"),
    ("cluster.replay_instructions", "count", "lower"),
    ("cluster.replay_overhead_pct", "%", "lower"),
    ("cluster.replays", "count", "lower"),
    ("cluster.jobs_exported", "count", "lower"),
    ("cluster.jobs_imported", "count", "lower"),
    ("cluster.transfers", "count", "lower"),
    ("cluster.transfer_encoded_nodes", "count", "lower"),
    ("cluster.transfer_savings_ratio", "ratio", "higher"),
    ("cluster.export_norm_s", "s", "lower"),
    ("cluster.import_replay_norm_s", "s", "lower"),
    ("cluster.balance_norm_s", "s", "lower"),
    ("cluster.replay_solver_queries", "count", "lower"),
    ("cluster.jobtree_encode_us", "us", "lower"),
    ("cluster.jobtree_decode_us", "us", "lower"),
    ("cluster.balance_us", "us", "lower"),
    ("distrib.explore_phase_norm_s", "s", "lower"),
    ("distrib.status_phase_norm_s", "s", "lower"),
    ("distrib.transfer_phase_norm_s", "s", "lower"),
    ("distrib.straggler_wait_norm_s", "s", "lower"),
    ("distrib.msgs", "count", "lower"),
    ("distrib.msg_bytes", "B", "lower"),
    ("distrib.spawn_norm_s", "s", "lower"),
    ("distrib.speedup_vs_single", "ratio", "higher"),
    ("net.frame_encode_us", "us", "lower"),
    ("net.frame_decode_us", "us", "lower"),
    ("net.frame_bytes_per_job", "B", "lower"),
    ("harness.raw_wall_s", "s", "lower"),
    ("harness.kernel_share_pct", "%", "lower"),
    ("harness.kernel_cv_pct", "%", "lower"),
    ("harness.trace_overhead_pct", "%", "lower"),
]


def run_workload(args) -> int:
    from calib import K_REF
    from measure import Operations, end_to_end, per_layer
    from workloads import BY_NAME

    workload = BY_NAME.get(args.workload)
    if workload is None:
        raise SystemExit("unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(sorted(BY_NAME))))
    if workload.workers > (os.cpu_count() or 1):
        raise SystemExit("%s needs %d cores, this host has %r: refused, not "
                         "skipped" % (workload.name, workload.workers,
                                      os.cpu_count()))
    ops = Operations()
    if args.trace:
        metrics, info = per_layer(ops, workload, args.seed, args.quick)
        declared = PER_LAYER
    else:
        units = 1 if args.quick else max(1, args.seconds // UNIT_TARGET_S)
        metrics, info = end_to_end(ops, workload, args.seed, units, args.quick)
        declared = END_TO_END
    info.update(workload=workload.name, seed=args.seed, trace=args.trace,
                nproc=os.cpu_count(), python=platform.python_version(),
                hash_seed=os.environ.get("PYTHONHASHSEED"), k_ref_s=K_REF,
                failures=ops.failures)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        # A layer the workload does not exercise reads 0.
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit, _better in declared},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process; one row per metric."""
    from workloads import WORKLOADS

    wrong = 0
    for workload in WORKLOADS:
        for trace_mode in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload.name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace_mode)]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print("%s trace=%d: exit code %d" % (workload.name, trace_mode,
                                                     done.returncode))
                wrong += 1
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            wrong += not result["correct"]
            print("%s trace=%d correct=%s attempted=%d failed=%d"
                  % (workload.name, trace_mode, result["correct"],
                     result["attempted"], result["failed"]))
            for name, metric in result["metrics"].items():
                print("  %-36s %16.6f %s" % (name, metric["value"], metric["unit"]))
    return 1 if wrong else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all, both modes)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the search strategy, and of nothing else")
    parser.add_argument("--seconds", type=int, default=15,
                        help="measuring time; buys seconds // %d units" % UNIT_TARGET_S)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: one unit, budgets / 10, no oracle")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit("no program to measure: %s is missing"
                         % os.path.join(ROOT, "src", "repro"))
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Set iteration order must not differ between two runs of one seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    return run_workload(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
