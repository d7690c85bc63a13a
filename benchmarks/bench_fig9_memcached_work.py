"""Figure 9: useful work on memcached scales linearly with the cluster size.

Paper result: for fixed wall-clock budgets (4/6/8/10 minutes), the total
number of useful (non-replay) instructions executed grows roughly linearly
with the number of workers, and the useful work per worker stays roughly
constant.

Reproduction: fixed budgets of virtual rounds; total and per-worker useful
instructions for increasing cluster sizes on the symbolic-packet memcached
workload.
"""

from repro.cluster.core import ClusterConfig
from repro.targets import memcached

from conftest import WORKER_COUNTS, print_table

ROUND_BUDGETS = [10, 20, 30]        # the analogue of the 4/6/8/10-minute budgets
INSTRUCTIONS_PER_ROUND = 60
PACKET_SIZE = 6
NUM_PACKETS = 2


def _useful_work(workers, rounds):
    test = memcached.make_symbolic_packets_test(
        num_packets=NUM_PACKETS, packet_size=PACKET_SIZE)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND))
    result = cluster.run(max_rounds=rounds)
    return result.useful_instructions


def _run_sweep():
    table = {}
    for workers in WORKER_COUNTS:
        table[workers] = {budget: _useful_work(workers, budget)
                          for budget in ROUND_BUDGETS}
    return table


def test_fig9_memcached_useful_work_scaling():
    table = _run_sweep()

    total_rows = []
    per_worker_rows = []
    for workers, per_budget in sorted(table.items()):
        total_rows.append([workers] + [per_budget[b] for b in ROUND_BUDGETS])
        per_worker_rows.append(
            [workers] + [round(per_budget[b] / workers, 1) for b in ROUND_BUDGETS])
    headers = ["workers"] + ["%d rounds" % b for b in ROUND_BUDGETS]
    print_table("Figure 9 (top) -- total useful work on memcached "
                "[# instructions]", headers, total_rows)
    print_table("Figure 9 (bottom) -- normalized useful work "
                "[# instructions / worker]", headers, per_worker_rows)

    # Shape: for the largest budget, total useful work grows with workers and
    # the largest cluster does substantially more work than a single worker.
    budget = ROUND_BUDGETS[-1]
    workers_list = sorted(table)
    totals = [table[w][budget] for w in workers_list]
    assert totals[-1] > totals[0]
    assert all(later >= 0.8 * earlier
               for earlier, later in zip(totals, totals[1:]))
    # Per-worker useful work stays within a reasonable band (no collapse).
    per_worker = [table[w][budget] / w for w in workers_list]
    assert min(per_worker) > 0.25 * max(per_worker)
