"""Figure 12: fraction of states transferred between workers over time.

Paper result: during the exhaustive 48-worker memcached run, load balancing
is active throughout -- in almost every 10-second interval, 3-6% of all
candidate states in the system are transferred between workers.

Reproduction: the per-round fraction of candidate states transferred during
an exhaustive multi-worker run of the symbolic-packet memcached workload.
The expected shape is a non-trivial, sustained transfer fraction (load
balancing keeps happening, not just at start-up).
"""

from repro.cluster.core import ClusterConfig
from repro.targets import memcached

from conftest import WORKER_COUNTS, print_table

INSTRUCTIONS_PER_ROUND = 80
PACKET_SIZE = 5


def _run_experiment():
    workers = WORKER_COUNTS[-1]
    test = memcached.make_symbolic_packets_test(num_packets=1,
                                                packet_size=PACKET_SIZE)
    cluster = test.build_cluster(ClusterConfig(
        num_workers=workers, instructions_per_round=INSTRUCTIONS_PER_ROUND))
    result = cluster.run()
    assert result.exhausted
    series = [(snap.round_index, snap.states_transferred, snap.total_candidates,
               round(100.0 * snap.transfer_fraction, 2))
              for snap in result.timeline.snapshots]
    return workers, result, series


def test_fig12_states_transferred_over_time():
    workers, result, series = _run_experiment()
    print_table(
        "Figure 12 -- states transferred between workers per round "
        "(%d workers, memcached symbolic packet)" % workers,
        ["round", "states transferred", "candidates in system", "% transferred"],
        series)
    total_transferred = sum(row[1] for row in series)
    rounds_with_transfers = sum(1 for row in series if row[1] > 0)
    print("total states transferred: %d across %d of %d rounds"
          % (total_transferred, rounds_with_transfers, len(series)))

    # Shape: transfers happen, and they are not confined to a single round
    # (dynamic balancing keeps operating while the tree is explored).
    assert total_transferred > 0
    assert rounds_with_transfers >= 2
