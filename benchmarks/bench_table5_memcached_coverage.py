"""Table 5: path and code coverage increase from each symbolic testing
technique applied to memcached.

Paper result (Table 5): the hand-written test suite reaches 83.67% line
coverage; adding exhaustive symbolic packets (74,503 paths) raises cumulated
coverage by +1.13%, and adding fault injection over the test suite (312,465
paths) raises it by +1.28% -- many more paths, modest line-coverage growth,
illustrating the weakness of line coverage as a thoroughness metric.

Reproduction: the same four testing methods on the memcached model, with the
same accounting (isolated coverage, cumulated coverage over the baseline
suite, and explored path counts).
"""

from repro.targets import memcached
from repro.testing.report import CoverageAccounting

from conftest import print_table


def _run_methods():
    concrete = memcached.make_concrete_suite_test().run()
    binary = memcached.make_binary_suite_test().run()
    symbolic = memcached.make_symbolic_packets_test(
        num_packets=1, packet_size=6).run()
    fault = memcached.make_fault_injection_test().run(max_paths=400)

    accounting = CoverageAccounting(line_count=concrete.line_count)
    accounting.add_method("Entire test suite", concrete.paths_completed,
                          concrete.covered_lines, baseline=True)
    accounting.add_method("Binary protocol test suite", binary.paths_completed,
                          binary.covered_lines)
    accounting.add_method("Symbolic packets", symbolic.paths_completed,
                          symbolic.covered_lines)
    accounting.add_method("Test suite + fault injection", fault.paths_completed,
                          fault.covered_lines)
    return accounting, {"concrete": concrete, "binary": binary,
                        "symbolic": symbolic, "fault": fault}


def test_table5_memcached_coverage_accounting():
    accounting, results = _run_methods()
    rows = []
    for row in accounting.rows():
        rows.append((row["method"], row["paths"], row["isolated_percent"],
                     row["cumulated_percent"] if row["cumulated_percent"] is not None else "-",
                     ("+%.2f" % row["increase_percent"])
                     if row["increase_percent"] is not None else "-"))
    print_table("Table 5 -- memcached coverage by testing method",
                ["testing method", "paths covered", "isolated coverage %",
                 "cumulated coverage %", "increase"],
                rows)

    # Shape checks mirroring the paper's observations:
    # 1. the symbolic-packet and fault-injection methods explore far more
    #    paths than the concrete suites;
    assert results["symbolic"].paths_completed > 10 * results["concrete"].paths_completed
    assert results["fault"].paths_completed > 10 * results["concrete"].paths_completed
    # 2. each symbolic method adds (possibly modest) coverage on top of the
    #    baseline suite rather than losing any;
    assert accounting.increase_over_baseline("Symbolic packets") >= 0.0
    assert accounting.increase_over_baseline("Test suite + fault injection") >= 0.0
    # 3. the binary protocol suite alone covers less than the whole suite.
    assert (accounting.rows()[1]["isolated_percent"]
            <= accounting.rows()[0]["isolated_percent"])
