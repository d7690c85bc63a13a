"""Ablation: dynamic load balancing vs. static partitioning of the tree.

Section 2 of the paper rejects static partitioning ("this approach leads to
high workload imbalance among nodes, making the entire cluster proceed at the
pace of the slowest node") and §8 notes that the statically-partitioned
parallel JPF of Staats & Pasareanu can even get *slower* as workers are
added.  Figure 13 shows the dynamic side of the claim; this ablation measures
the static side directly by running the same workload to exhaustion on

* the Cloud9 cluster (dynamic partitioning + load balancing), and
* :class:`repro.distrib.loopback.StaticPartitionCluster` (one up-front split, no
  transfers),

and comparing (a) virtual rounds until the exhaustive test completes -- the
Fig. 7 metric -- and (b) the fraction of worker-rounds spent idle.  The
workload is the printf format-string test of Fig. 8, whose execution tree is
deep and skewed (parsing loops), exactly the situation in which a static
split leaves some workers starved while one grinds through a heavy subtree.
"""

from repro.engine.limits import ExplorationLimits
from repro.targets import printf

from conftest import WORKER_COUNTS, print_table

INSTRUCTIONS_PER_ROUND = 200
BALANCE_INTERVAL = 2
ROUND_LIMIT = 5_000
FORMAT_LENGTH = 3


def _idle_fraction(result) -> float:
    """Fraction of worker-rounds in which a worker had nothing to explore."""
    total = 0
    idle = 0
    for snap in result.timeline.snapshots:
        lengths = list(snap.queue_lengths.values())
        total += len(lengths)
        idle += sum(1 for length in lengths if length == 0)
    return idle / total if total else 0.0


def _run_pair(workers: int):
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    limits = ExplorationLimits(max_rounds=ROUND_LIMIT)
    dynamic = test.run(backend="cluster", workers=workers,
                       instructions_per_round=INSTRUCTIONS_PER_ROUND,
                       balance_interval=BALANCE_INTERVAL, limits=limits)
    static = test.run(backend="static", workers=workers,
                      instructions_per_round=INSTRUCTIONS_PER_ROUND,
                      limits=limits)
    return dynamic, static


def _run_experiment():
    workers = WORKER_COUNTS[-1]
    dynamic, static = _run_pair(workers)
    rows = [
        ("dynamic (Cloud9)", dynamic.rounds_executed, dynamic.paths_completed,
         dynamic.useful_instructions,
         "%.0f%%" % (100.0 * _idle_fraction(dynamic))),
        ("static partitioning", static.rounds_executed, static.paths_completed,
         static.useful_instructions,
         "%.0f%%" % (100.0 * _idle_fraction(static))),
    ]
    return workers, dynamic, static, rows


def test_ablation_static_vs_dynamic_partitioning():
    workers, dynamic, static, rows = _run_experiment()
    print_table(
        "Ablation -- dynamic load balancing vs. static partitioning "
        "(printf exhaustive test, %d workers)" % workers,
        ["partitioning", "rounds to exhaustion", "paths completed",
         "useful instructions", "idle worker-rounds"],
        rows)

    # Both approaches are complete: they explore the same number of paths.
    assert dynamic.exhausted and static.exhausted
    assert dynamic.paths_completed == static.paths_completed
    # Shape (§2): the statically partitioned cluster proceeds at the pace of
    # its most loaded worker -- it needs at least as many rounds to finish and
    # leaves workers idle at least as often as the dynamically balanced one.
    assert dynamic.rounds_executed <= static.rounds_executed
    assert _idle_fraction(dynamic) <= _idle_fraction(static)
