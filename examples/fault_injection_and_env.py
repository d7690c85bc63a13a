#!/usr/bin/env python3
"""Fault injection and environment control, end to end (paper §5.1-§5.2).

This example tests the Apache-httpd model three ways, mirroring the paper's
use case for a newly added ``X-NewExtension`` header:

1. a symbolic header value ("one symbolic test instead of hundreds of
   concrete ones") -- which also finds the latent division-by-zero in the
   buggy extension handler;
2. request fragmentation patterns set per descriptor, the mechanism that
   exposed the incomplete lighttpd fix in Table 6;
3. fault injection on the server socket, so error-handling paths that a
   concrete suite never reaches get explored too.

Run with:  python examples/fault_injection_and_env.py
"""

from repro.engine import BugKind
from repro.targets import httpd


def symbolic_header() -> None:
    print("=== 1. symbolic X-NewExtension header value ===")
    test = httpd.make_symbolic_header_test(value_length=2, buggy=True)
    result = test.run(max_steps=20_000)
    print("paths explored:     %d" % result.paths_completed)
    print("distinct outcomes:  %s"
          % sorted({tc.exit_code for tc in result.test_cases
                    if tc.exit_code is not None}))
    for bug in result.bugs:
        if bug.kind == BugKind.DIVISION_BY_ZERO:
            reproducer = bug.test_case.input_bytes("extension") if bug.test_case else b""
            print("found the level-0 throttle bug; reproducing header value: %r"
                  % reproducer)
    print()


def fragmentation() -> None:
    print("=== 2. request fragmentation patterns (per-fd ioctl) ===")
    for pattern in ([7, 40], [1, 1, 1, 1, 1, 42], [13, 13, 21]):
        test = httpd.make_fragmentation_test(pattern, header_value=b"n")
        result = test.run()
        verdict = "ok" if not result.bugs else "CRASH"
        print("pattern %-22s -> exit %s (%s)"
              % ("+".join(str(p) for p in pattern),
                 result.test_cases[0].exit_code, verdict))
    print()


def fault_injection() -> None:
    print("=== 3. fault injection on the server socket ===")
    test = httpd.make_fault_injection_test(header_value=b"n")
    result = test.run(max_steps=20_000)
    print("paths explored: %d" % result.paths_completed)
    for case in result.test_cases:
        faults = case.input_bytes("faults")
        injected = sum(1 for b in faults if b != 0)
        print("  exit=%-4s faults injected along the path: %d"
              % (case.exit_code, injected))
    print()


def main() -> None:
    symbolic_header()
    fragmentation()
    fault_injection()


if __name__ == "__main__":
    main()
