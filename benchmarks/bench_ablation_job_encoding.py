"""Ablation: job encoding as paths vs. serialized states (§3.2, §6).

The paper chooses to encode transferred jobs "as the path from the root to
the candidate node" rather than serializing program state, trading replay CPU
on the destination for network bandwidth ("the state of a real program is
typically at least several megabytes"), and aggregates the paths of one
transfer into a prefix-sharing job tree.

This ablation quantifies both halves of the trade-off on the printf
format-string workload of Fig. 8:

* **encoding size** -- bytes to ship a batch of candidate nodes as (a) a
  prefix-sharing job tree, (b) one path per job without sharing, and (c) an
  estimate of serialized program states (the state's memory-object payload);
* **replay cost** -- the fraction of a real cluster run's instructions spent
  re-executing transferred paths (the price of the compact encoding).
"""

from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.targets import printf

from conftest import WORKER_COUNTS, print_table

INSTRUCTIONS_PER_ROUND = 200
BALANCE_INTERVAL = 2
ROUND_BUDGET = 200
FORMAT_LENGTH = 3


def _estimate_state_bytes(state) -> int:
    """A conservative lower bound on serializing one execution state."""
    total = 0
    for process in state.processes.values():
        for obj in process.address_space.objects.values():
            total += obj.size
    for obj in state.cow_domain.objects.values():
        total += obj.size
    # Path constraints and thread stacks add to this; ignore them so the
    # comparison against path encoding stays conservative.
    return total


def _frontier_jobs_and_state_size(test, max_steps: int = 400):
    """Explore a bit on one node and snapshot its frontier as jobs."""
    executor = test.build_executor()
    from collections import deque

    frontier = deque([test.build_initial_state(executor)])
    steps = 0
    while frontier and steps < max_steps:
        state = frontier.popleft()
        result = executor.step(state)
        steps += 1
        for child in result.children:
            if child.is_running:
                frontier.append(child)
    jobs = [Job(tuple(state.fork_trace)) for state in frontier]
    state_bytes = sum(_estimate_state_bytes(state) for state in frontier)
    return jobs, state_bytes


def _run_experiment():
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    jobs, serialized_bytes = _frontier_jobs_and_state_size(test)
    tree = JobTree.from_jobs(jobs)
    tree_size = tree.encoded_size()
    naive_size = JobTree.naive_size(jobs)

    workers = WORKER_COUNTS[-1]
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND,
        balance_interval=BALANCE_INTERVAL))
    result = cluster.run(max_rounds=ROUND_BUDGET)

    rows = [
        ("candidate nodes in the batch", len(jobs)),
        ("job tree (prefix sharing), path elements", tree_size),
        ("one path per job, path elements", naive_size),
        ("serialized states, bytes (lower bound)", serialized_bytes),
        ("cluster run: states transferred", result.states_transferred),
        ("cluster run: replay overhead", "%.1f%%" % (100.0 * result.replay_overhead)),
        ("cluster run: broken replays",
         sum(s.broken_replays for s in result.worker_stats.values())),
    ]
    return jobs, tree_size, naive_size, serialized_bytes, result, rows


def test_ablation_job_encoding_tradeoff():
    jobs, tree_size, naive_size, serialized_bytes, result, rows = _run_experiment()
    print_table(
        "Ablation -- job encoding: path-encoded job trees vs. alternatives",
        ["quantity", "value"],
        rows)

    # Shape: prefix sharing never encodes more than one-path-per-job, and the
    # path encoding is far smaller than shipping program state.
    assert tree_size <= naive_size
    assert naive_size < serialized_bytes
    # The price of the compact encoding is bounded: replay work stays a
    # minority of total work, and replays are not broken (deterministic
    # allocator, §6).
    assert result.replay_overhead < 0.5
    assert sum(s.broken_replays for s in result.worker_stats.values()) == 0
