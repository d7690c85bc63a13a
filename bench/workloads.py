"""The four workloads and how one *unit* of each is run.

A unit is one complete, deterministic exploration through the program's
public API.  The table below is the whole definition of a workload; the
``why`` strings are copied into ``BENCHMARK.json``.

Unit sizes are for about 4.5 s each on the reference host, so that three units,
their kernels and the set-up probes fit the driver's time cap (about 37 s per
run).  The paper-sized targets (memcached 2x6 bytes, lighttpd 1 M
instructions, printf 30 k) take 10 s per unit and do not.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.api.result import RunResult
from repro.distrib import specs
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig
from repro.engine.limits import ExplorationLimits
from repro.engine.strategies import make_strategy


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: str
    params: Dict[str, object] = field(default_factory=dict)
    backend: str = "single"
    strategy: str = "interleaved"
    #: ``max_instructions``; ``None`` runs to exhaustion.
    budget: Optional[int] = None
    #: Instructions one exhaustive unit executes (sizes the ``--quick`` budget).
    size: int = 0
    workers: int = 1
    instructions_per_round: int = 0

    @property
    def exhaustive(self) -> bool:
        return self.budget is None

    @property
    def seeded(self) -> bool:
        """Whether ``--seed`` reaches this workload's search order.  ``dfs``
        draws no random numbers, and worker processes seed their strategy
        from their worker id (``repro.cluster.worker``), which the cluster
        configuration cannot change."""
        return self.backend == "single" and self.strategy != "dfs"


_MEMCACHED = dict(num_packets=3, packet_size=4)

WORKLOADS: List[Workload] = [
    Workload(
        name="memcached_single",
        why="Fig. 7 target run to exhaustion on one engine: many small "
            "independent constraint groups, so the solver stack is the largest layer",
        spec="memcached-packets", params=_MEMCACHED, size=13635),
    Workload(
        name="lighttpd_dfs",
        why="Sec. 7.3.4 fragmentation target under DFS: few forks and trivial "
            "selection, so the interpreter dominates and solver or strategy "
            "changes must not move it",
        spec="lighttpd-frag-1.4.12", strategy="dfs", budget=500_000),
    Workload(
        name="printf_single",
        why="printf with 4 symbolic format bytes: a frontier of hundreds of "
            "states and long dependent path constraints, so strategy select "
            "and fork dominate",
        spec="printf", params=dict(format_length=4), budget=15_000),
    Workload(
        name="memcached_process2",
        why="the memcached target on 2 worker processes: the only workload "
            "where replay, job transfer, pickling and the round barrier do work",
        spec="memcached-packets", params=_MEMCACHED, backend="process",
        size=13727, workers=2, instructions_per_round=500),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def coverage_digest(lines) -> str:
    text = ",".join(str(line) for line in sorted(lines))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def outcome_of(result: RunResult) -> Dict[str, object]:
    """What the oracle compares: results first, then exact work counters."""
    cache = result.cache_stats or {}
    return {
        "paths": result.paths_completed,
        "coverage": coverage_digest(result.covered_lines),
        "bugs": result.bug_summaries(),
        "exhausted": result.exhausted,
        "useful_instructions": result.useful_instructions,
        "replay_instructions": result.replay_instructions,
        "solver_queries": int(cache.get("solver_queries", 0)),
        "rounds": result.rounds_executed or 0,
        "states_transferred": result.states_transferred or 0,
    }


def run_unit(workload: Workload, seed: int, quick: bool = False,
             round_hook: Optional[Callable[..., None]] = None) -> RunResult:
    """One exploration.  ``seed`` goes to the search strategy and nowhere else."""
    budget = workload.budget
    if quick:
        budget = (budget or workload.size) // 10
    limits = ExplorationLimits(max_instructions=budget)
    test = specs.resolve_test(workload.spec, **workload.params)
    if workload.backend == "single":
        strategy = make_strategy(workload.strategy, seed=seed,
                                 program=test.program)
        return test.run(backend="single", strategy=strategy, limits=limits)
    config = ProcessClusterConfig(
        num_workers=workload.workers,
        instructions_per_round=workload.instructions_per_round,
        strategy=workload.strategy)
    cluster = ProcessCloud9Cluster(workload.spec, spec_params=workload.params,
                                   config=config,
                                   line_count=test.program.line_count)
    cluster.round_hook = round_hook
    return RunResult.from_cluster(cluster.run(limits=limits),
                                  backend="process", test_name=test.name)
