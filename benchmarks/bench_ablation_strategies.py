"""Ablation: search strategies on a coverage goal (§3.3, §7 setup).

The paper's workers run KLEE's best searchers -- "an interleaving of
random-path and coverage-optimized strategies" -- and Cloud9 exposes the
strategy interface so users can plug in their own (§3.3).  This ablation runs
the printf coverage workload of Fig. 8 under each built-in strategy with the
same step budget and reports the line coverage each one reaches, verifying
that the interleaved default (the paper's choice) is competitive.
"""

from repro.targets import printf

from conftest import print_table

STRATEGIES = ["dfs", "bfs", "random_path", "random_state",
              "coverage_optimized", "interleaved"]
STEP_BUDGET = 1500
FORMAT_LENGTH = 3


def _coverage_with_strategy(strategy: str) -> float:
    test = printf.make_symbolic_test(format_length=FORMAT_LENGTH)
    result = test.run(max_steps=STEP_BUDGET, strategy=strategy)
    return result.coverage_percent, result.paths_completed


def _run_experiment():
    rows = []
    for strategy in STRATEGIES:
        coverage, paths = _coverage_with_strategy(strategy)
        rows.append((strategy, round(coverage, 1), paths))
    return rows


def test_ablation_search_strategies():
    rows = _run_experiment()
    print_table(
        "Ablation -- line coverage of printf by search strategy "
        "(%d-step budget)" % STEP_BUDGET,
        ["strategy", "line coverage %", "paths completed"],
        rows)

    by_name = {name: coverage for name, coverage, _ in rows}
    # Every strategy makes progress on the workload.
    assert all(coverage > 0 for coverage in by_name.values())
    # The paper's default (random-path + coverage-optimized interleaving) is
    # competitive: within 10 coverage points of the best strategy.
    best = max(by_name.values())
    assert by_name["interleaved"] >= best - 10.0
