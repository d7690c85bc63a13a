#!/usr/bin/env python3
"""Parallel symbolic execution: watching Cloud9 scale with cluster size.

Runs the same exhaustive symbolic test (the printf format-string workload of
Fig. 8 / Fig. 10) on clusters of increasing size and prints, per cluster
size, the virtual time (rounds) to exhaustion, the useful work done, the
replay overhead and the number of job transfers -- the quantities behind the
scalability figures of the paper.

Run with:  python examples/parallel_exploration.py
"""

from repro.targets import printf


def main() -> None:
    worker_counts = [1, 2, 4, 8]
    instructions_per_round = 120

    print("workload: printf with a %d-byte symbolic format string" %
          printf.DEFAULT_FORMAT_LENGTH)
    print()
    print("%8s %10s %14s %14s %12s %12s" % (
        "workers", "rounds", "paths", "useful work", "replay work", "transfers"))

    # One test, one run per cluster size: every RunResult is kept for the
    # comparison below.
    test = printf.make_symbolic_test(format_length=3)
    results = {workers: test.run(backend="cluster", workers=workers,
                                 instructions_per_round=instructions_per_round)
               for workers in worker_counts}

    baseline_rounds = None
    for workers in worker_counts:
        result = results[workers]
        if baseline_rounds is None:
            baseline_rounds = result.rounds_executed
        speedup = baseline_rounds / max(result.rounds_executed, 1)
        print("%8d %10d %14d %14d %12d %12d    (speed-up vs 1 worker: %.2fx)" % (
            workers, result.rounds_executed, result.paths_completed,
            result.useful_instructions, result.replay_instructions,
            result.states_transferred, speedup))

    print()
    print("Every cluster size explores the same set of paths (the dynamic")
    print("partitioning is complete and non-redundant); larger clusters finish")
    print("in fewer rounds of virtual time, at the cost of some replayed")
    print("instructions when jobs migrate between workers.")


if __name__ == "__main__":
    main()
