#!/usr/bin/env python3
"""Multiprocess symbolic execution: real cores behind the same test.

The quickstart for the ``"process"`` backend (:mod:`repro.distrib`): resolve
a registered test spec, run it on one engine and then across worker
processes, and compare the merged results.  Worker processes never exchange
program state -- jobs travel as path-encoded trees (§3.2) and the receiving
process replays them -- so the printout also shows the quantities that make
that design visible: replay overhead, the prefix-sharing savings of the
JobTree transfer encoding, and the solver-cache hit rates each private
solver rebuilt after replay (§6).

Run with:  python examples/process_backend.py [workers]

Also used by CI as the multiprocessing smoke test (2 workers, tight limits).
"""

import sys

from repro.engine.limits import ExplorationLimits
from repro.distrib import specs


def describe(label, result):
    cache = result.cache_stats or {}
    print("%-8s workers=%d  wall=%.2fs  paths=%d  coverage=%.1f%%  bugs=%d" % (
        label, result.num_workers, result.wall_time, result.paths_completed,
        result.coverage_percent, len(result.bugs)))
    print("         replay overhead=%.1f%%  constraint-cache hits=%.0f%%  "
          "cex-cache hits=%.0f%%" % (
              100 * result.replay_overhead,
              100 * cache.get("constraint_cache_hit_rate", 0.0),
              100 * cache.get("cex_cache_hit_rate", 0.0)))
    if result.transfer_cost and result.transfer_cost.jobs:
        cost = result.transfer_cost
        print("         transfers: %d jobs in %d messages, %d trie nodes on "
              "the wire vs %d naive (%.0f%% saved)" % (
                  cost.jobs, cost.transfers, cost.encoded_nodes,
                  cost.naive_nodes, 100 * cost.savings_ratio))


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    # Any registered spec works the same way; `specs.available_specs()`
    # lists them all.  The spec reference is what lets worker processes
    # rebuild the program locally -- live tests do not pickle.
    test = specs.resolve_test("printf", format_length=2)
    limits = ExplorationLimits(max_rounds=100)

    print("workload: %s (spec %r)" % (test.name, test.spec_name))
    single = test.run(backend="single", limits=limits)
    describe("single", single)
    print()

    parallel = test.run(backend="process", workers=workers, limits=limits,
                        instructions_per_round=300)
    describe("process", parallel)
    print()

    assert parallel.covered_lines >= single.covered_lines, \
        "the merged frontier must not lose coverage"
    print("merged process coverage >= single-engine coverage: OK "
          "(%d lines each)" % len(parallel.covered_lines))
    if parallel.exhausted and single.exhausted:
        print("both runs exhausted the tree; paths: single=%d process=%d"
              % (single.paths_completed, parallel.paths_completed))


if __name__ == "__main__":
    main()
