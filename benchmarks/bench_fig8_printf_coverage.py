"""Figure 8: time to reach a target coverage level for printf vs workers.

Paper result: the time to achieve a fixed line-coverage target on the
``printf`` utility decreases proportionally with the number of workers, and
the highest targets are only reachable (within the time budget) by the
larger clusters.

Reproduction: rounds of virtual time needed to reach each coverage target on
the printf model, for increasing cluster sizes.
"""

from repro.cluster.core import ClusterConfig
from repro.targets import printf

from conftest import WORKER_COUNTS, print_table

COVERAGE_TARGETS = [50.0, 60.0, 70.0, 80.0]
INSTRUCTIONS_PER_ROUND = 100
FORMAT_LENGTH = 3
MAX_ROUNDS = 400


def _rounds_to_targets(workers):
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND))
    result = cluster.run(max_rounds=MAX_ROUNDS)
    return {target: result.rounds_to_coverage(target)
            for target in COVERAGE_TARGETS}


def _run_sweep():
    table = {}
    for workers in WORKER_COUNTS:
        table[workers] = _rounds_to_targets(workers)
    return table


def test_fig8_printf_time_to_coverage():
    table = _run_sweep()
    rows = []
    for workers, per_target in sorted(table.items()):
        rows.append([workers] + [per_target[t] if per_target[t] is not None else "-"
                                 for t in COVERAGE_TARGETS])
    print_table(
        "Figure 8 -- rounds of virtual time to reach a line-coverage target "
        "on printf (format length %d)" % FORMAT_LENGTH,
        ["workers"] + ["%d%%" % t for t in COVERAGE_TARGETS],
        rows)

    workers_list = sorted(table)
    smallest, largest = workers_list[0], workers_list[-1]
    # Shape: every target reachable by 1 worker is reachable at least as fast
    # by the largest cluster.
    for target in COVERAGE_TARGETS:
        single = table[smallest][target]
        big = table[largest][target]
        if single is not None:
            assert big is not None
            assert big <= single
    # The largest cluster reaches at least as many targets as the single worker.
    reached_single = sum(1 for t in COVERAGE_TARGETS if table[smallest][t] is not None)
    reached_big = sum(1 for t in COVERAGE_TARGETS if table[largest][t] is not None)
    assert reached_big >= reached_single
