"""Figure 10: useful work on printf and test scales with the cluster size.

Paper result: the useful-work scaling observed on memcached (Fig. 9) also
holds for the much smaller ``printf`` and ``test`` utilities, even though the
three programs exercise very different code (parsing/formatting vs data
structures and network I/O).

Reproduction: total useful instructions executed within a fixed budget of
virtual rounds on the printf and test models, for increasing cluster sizes.
"""

from repro.cluster import ClusterConfig
from repro.targets import printf, testcmd

from conftest import WORKER_COUNTS, print_table

ROUND_BUDGET = 25
INSTRUCTIONS_PER_ROUND = 60


def _useful_work(make_test, workers):
    test = make_test()
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND))
    result = cluster.run(max_rounds=ROUND_BUDGET)
    return result.useful_instructions


def _run_sweep():
    table = {"printf": {}, "test": {}}
    for workers in WORKER_COUNTS:
        table["printf"][workers] = _useful_work(
            lambda: printf.make_symbolic_test(format_length=4), workers)
        table["test"][workers] = _useful_work(testcmd.make_symbolic_test, workers)
    return table


def test_fig10_printf_and_test_useful_work():
    table = _run_sweep()
    rows = []
    for workers in WORKER_COUNTS:
        rows.append([workers, table["printf"][workers], table["test"][workers]])
    print_table(
        "Figure 10 -- useful work within %d rounds [# instructions]" % ROUND_BUDGET,
        ["workers", "printf", "test"], rows)

    for program in ("printf", "test"):
        series = [table[program][w] for w in WORKER_COUNTS]
        # Shape: the largest cluster does more useful work than one worker
        # whenever the workload has not already been exhausted by one worker.
        assert series[-1] >= series[0]
