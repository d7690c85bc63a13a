"""Figure 13: the effect of disabling load balancing mid-run.

Paper result: taking load balancing away at any point during the exhaustive
memcached run significantly reduces the total useful work subsequently done
(the earlier the cut-off, the worse), demonstrating that *dynamic* balancing
-- not just an initial static partitioning -- is necessary.

Reproduction: the same workload run with continuous balancing and with
balancing disabled after round 1/2/4/8; reported is the total useful work
done within a fixed budget of rounds.
"""

from repro.cluster import ClusterConfig
from repro.targets import memcached

from conftest import WORKER_COUNTS, print_table

INSTRUCTIONS_PER_ROUND = 50
ROUND_BUDGET = 30
PACKET_SIZE = 6
CUTOFFS = [None, 8, 4, 2, 1]      # None = continuous load balancing


def _useful_work_with_cutoff(workers, cutoff):
    test = memcached.make_symbolic_packets_test(num_packets=2,
                                                packet_size=PACKET_SIZE)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers,
        instructions_per_round=INSTRUCTIONS_PER_ROUND,
        disable_balancing_after_round=cutoff))
    result = cluster.run(max_rounds=ROUND_BUDGET)
    return result.useful_instructions


def _run_experiment():
    workers = WORKER_COUNTS[-1]
    rows = []
    for cutoff in CUTOFFS:
        label = "continuous LB" if cutoff is None else "LB stops after round %d" % cutoff
        rows.append((label, _useful_work_with_cutoff(workers, cutoff)))
    return workers, rows


def test_fig13_load_balancing_ablation():
    workers, rows = _run_experiment()
    print_table(
        "Figure 13 -- useful work within %d rounds under load-balancing "
        "cut-offs (%d workers)" % (ROUND_BUDGET, workers),
        ["configuration", "useful instructions"],
        rows)

    continuous = rows[0][1]
    earliest_cutoff = rows[-1][1]
    # Shape: cutting load balancing early does less useful work than keeping
    # it on, and the earliest cut-off is the worst (or tied) among cut-offs.
    assert continuous >= earliest_cutoff
    cutoff_values = [value for _, value in rows[1:]]
    assert earliest_cutoff == min(cutoff_values)
