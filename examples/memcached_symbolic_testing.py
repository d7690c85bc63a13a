#!/usr/bin/env python3
"""Case study §7.3.3: testing memcached with symbolic packets, fault
injection and hang detection.

Three symbolic-testing techniques from the paper, applied to the memcached
model:

1. *Symbolic packets*: a fully symbolic binary command explores every
   protocol path at once and its coverage is compared with the concrete test
   suite (the Table 5 accounting).
2. *Fault injection*: the concrete suite is replayed while every POSIX call
   is allowed to fail, ordered by the fewest-faults-first strategy.
3. *Symbolic UDP datagrams + instruction limit*: finds the infinite-loop hang
   in the UDP record scan and emits the reproducing datagram.

Run with:  python examples/memcached_symbolic_testing.py
"""

from repro.engine.errors import BugKind
from repro.targets import memcached
from repro.testing.report import CoverageAccounting


def main() -> None:
    print("=== 1. concrete suite vs symbolic packets (Table 5 accounting) ===")
    # Three testing techniques over the same target, run one after another.
    concrete = memcached.make_concrete_suite_test().run()
    symbolic = memcached.make_symbolic_packets_test(num_packets=1,
                                                    packet_size=6).run()
    fault = memcached.make_fault_injection_test().run(max_paths=150)

    accounting = CoverageAccounting(line_count=concrete.line_count)
    accounting.add_method("entire test suite", concrete.paths_completed,
                          concrete.covered_lines, baseline=True)
    accounting.add_method("symbolic packets", symbolic.paths_completed,
                          symbolic.covered_lines)
    accounting.add_method("test suite + fault injection", fault.paths_completed,
                          fault.covered_lines)
    print(accounting.format_table())

    print()
    print("=== 2. fault injection details ===")
    print("paths explored with injected faults: %d" % fault.paths_completed)
    injected = [t for t in fault.test_cases if t.input_bytes("faults")]
    print("test cases that include at least one injected fault: %d" % len(injected))

    print()
    print("=== 3. hang detection on symbolic UDP datagrams ===")
    udp = memcached.make_udp_hang_test().run()
    hangs = [b for b in udp.bugs if b.kind == BugKind.INFINITE_LOOP]
    print("paths explored: %d, hangs detected: %d" % (udp.paths_completed, len(hangs)))
    for bug in hangs[:1]:
        print("  -", bug.summary())
        if bug.test_case is not None:
            print("    reproducing datagram:", bug.test_case.input_bytes("datagram0"))
    print()
    print("A zero record-size byte makes the datagram scan stop advancing;")
    print("the per-path instruction limit converts the hang into a bug report,")
    print("mirroring how the paper found memcached's UDP infinite loop.")


if __name__ == "__main__":
    main()
