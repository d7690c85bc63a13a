"""Transport cost: mp-queue pairs vs loopback TCP under identical limits.

The socket transport (:mod:`repro.net`) buys location transparency -- agents
can dial in from other machines -- and this benchmark measures what that
costs when it buys nothing, i.e. on one host where the mp-queue transport is
also available.  Both carriers drive the *same* coordinator protocol over
the same spec and limits, so paths/coverage/bugs must come out identical;
what differs is wall time (framing + pickling + socket hops vs queue puts)
and that difference is the price of a `transport="tcp"` cluster folded onto
127.0.0.1.  Results go to ``BENCH_net_transport.json``.
"""

from __future__ import annotations

import json
import multiprocessing
import os

from repro.api import ExplorationLimits
from repro.distrib import specs

from conftest import print_table, run_once

WORKERS = 2

#: Each workload runs under its own limits; identical across transports.
WORKLOADS = [
    {"spec": "printf", "spec_params": {"format_length": 3},
     "limits": ExplorationLimits(max_rounds=60, max_instructions=60_000),
     "instructions_per_round": 500},
    {"spec": "testcmd", "spec_params": {},
     "limits": ExplorationLimits(max_rounds=60),
     "instructions_per_round": 500},
]

OUTPUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "BENCH_net_transport.json")


def _row(workload: dict, transport: str, result) -> dict:
    cost = result.transfer_cost
    return {
        "spec": workload["spec"],
        "transport": transport,
        "workers": result.num_workers,
        "wall_time": result.wall_time,
        "paths_completed": result.paths_completed,
        "coverage_percent": result.coverage_percent,
        "exhausted": result.exhausted,
        "rounds_executed": result.rounds_executed,
        "messages_sent": result.messages_sent,
        "transfer_jobs": cost.jobs if cost else 0,
        "transfer_encoded_nodes": cost.encoded_nodes if cost else 0,
        "transfer_naive_nodes": cost.naive_nodes if cost else 0,
        "transfer_savings_ratio": result.transfer_savings_ratio,
        "worker_failures": result.worker_failures,
        "heartbeat_misses": result.heartbeat_misses,
    }


def _run_workload(workload: dict, transport: str) -> dict:
    test = specs.resolve_test(workload["spec"], **workload["spec_params"])
    options = {
        "workers": WORKERS,
        "limits": workload["limits"],
        "instructions_per_round": workload["instructions_per_round"],
    }
    if transport == "tcp":
        # Self-contained loopback cluster: the coordinator spawns agents
        # that dial into its own listener -- the full socket path, one host.
        result = test.run(backend="tcp", spawn_local_agents=True, **options)
    else:
        result = test.run(backend="process", **options)
    return _row(workload, transport, result)


def _run_sweep() -> dict:
    rows = []
    for workload in WORKLOADS:
        for transport in ("mp", "tcp"):
            rows.append(_run_workload(workload, transport))
    baseline = {
        "benchmark": "net_transport",
        "workers": WORKERS,
        "workloads": [{"spec": w["spec"], "spec_params": w["spec_params"],
                       "limits": w["limits"].as_dict(),
                       "instructions_per_round": w["instructions_per_round"]}
                      for w in WORKLOADS],
        "cpu_count": multiprocessing.cpu_count(),
        "rows": rows,
    }
    with open(OUTPUT_PATH, "w") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return baseline


def _print_baseline(baseline: dict) -> None:
    print_table(
        "Transport cost -- mp queues vs loopback TCP, %d workers "
        "(%d CPU core(s) available)" % (baseline["workers"],
                                        baseline["cpu_count"]),
        ["spec", "transport", "wall s", "paths", "coverage %", "messages",
         "xfer jobs", "xfer savings"],
        [(row["spec"], row["transport"], round(row["wall_time"], 3),
          row["paths_completed"], round(row["coverage_percent"], 1),
          row["messages_sent"], row["transfer_jobs"],
          round(row["transfer_savings_ratio"], 2))
         for row in baseline["rows"]])
    print("baseline written to %s" % os.path.normpath(OUTPUT_PATH))


def test_net_transport_baseline(benchmark):
    baseline = run_once(benchmark, _run_sweep)
    _print_baseline(baseline)
    rows = baseline["rows"]
    by_spec = {}
    for row in rows:
        by_spec.setdefault(row["spec"], {})[row["transport"]] = row
    assert set(by_spec) == {w["spec"] for w in WORKLOADS}
    for spec, transports in by_spec.items():
        assert set(transports) == {"mp", "tcp"}
        mp_row, tcp_row = transports["mp"], transports["tcp"]
        # The carrier must be invisible to the protocol: identical outcome.
        assert tcp_row["paths_completed"] == mp_row["paths_completed"], spec
        assert tcp_row["coverage_percent"] == mp_row["coverage_percent"], spec
        assert tcp_row["exhausted"] == mp_row["exhausted"], spec
        assert tcp_row["worker_failures"] == 0
        assert all(r["wall_time"] > 0 for r in transports.values())
    assert os.path.exists(OUTPUT_PATH)


if __name__ == "__main__":
    _print_baseline(_run_sweep())
