#!/usr/bin/env python3
"""Elastic membership: workers join and leave a running cluster (§2.3, §3.3).

A cluster calls its ``round_hook`` at the round barrier, where no command is
in flight -- the place to call ``add_worker`` (the newcomer starts from the
merged coverage and takes jobs at the next balance) and ``remove_worker``
(the member's whole frontier goes to the least-loaded survivor before the
call returns).  This script grows a 1-worker printf cluster to four workers,
one join a round; at the first boundary after the third join at which the
newcomers hold work, it retires the member with the shortest queue.  Both
are keyed to what the cluster holds, not to a round number, so the script
means the same under any schedule.  It checks that the run explored exactly
what one engine explores.

Run with:  python examples/elastic.py
"""

from repro.cluster import ClusterConfig
from repro.targets import printf


def main() -> None:
    test = printf.make_symbolic_test(format_length=2)
    cluster = test.build_cluster(
        ClusterConfig(num_workers=1, instructions_per_round=100))

    newcomers, retired = [], []

    def grow_then_shrink(round_index, cl):
        if len(newcomers) < 3:
            if round_index > 0:
                newcomers.append(cl.add_worker())
        elif not retired and any(h.queue_length for h in cl.handles
                                 if h.worker_id in newcomers):
            shortest = min(cl.handles,
                           key=lambda h: (h.queue_length, h.worker_id))
            retired.append(cl.remove_worker(shortest.worker_id))

    cluster.round_hook = grow_then_shrink
    result = cluster.run()
    single = test.run(backend="single")
    bugs = ", ".join(result.bug_summaries()) or "none"
    print("rounds %d: added %d, removed %d, peak %d; %d paths; bugs: %s"
          % (result.rounds_executed, result.workers_added,
             result.workers_removed, result.peak_workers,
             result.paths_completed, bugs))
    assert (result.workers_added, result.workers_removed) == (3, 1)
    assert result.paths_completed == single.paths_completed
    assert result.bug_summaries() == single.bug_summaries()


if __name__ == "__main__":
    main()
