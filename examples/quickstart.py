#!/usr/bin/env python3
"""Quickstart: one symbolic test, every backend, one `run` call.

The program under test parses a tiny "command packet": a 4-byte buffer whose
first byte selects an operation.  The symbolic test marks the whole packet
symbolic, so a single test covers every possible packet, and the engine
generates one concrete test case per explored path -- including the one that
triggers the (deliberate) division-by-zero-style assertion failure.

The point of the unified API is that the *same* test runs unchanged on a
single engine, on an in-process Cloud9 cluster, or on worker processes:
``test.run(backend=..., ...)`` always returns the same ``RunResult`` shape,
so the backends compare apples-to-apples.

Run with:  python examples/quickstart.py
"""

from repro import lang as L
from repro.api import ExplorationLimits
from repro.testing import SymbolicTest


def build_program() -> L.Program:
    """A toy packet handler with a bug on one specific input."""
    handle = L.func(
        "handle", ["pkt", "n"],
        L.if_(L.lt(L.var("n"), 2), [L.ret(0xFFFFFFFF)]),
        L.decl("op", L.index(L.var("pkt"), 0)),
        L.decl("arg", L.index(L.var("pkt"), 1)),
        L.if_(L.eq(L.var("op"), ord("a")), [L.ret(L.add(L.var("arg"), 1))]),
        L.if_(L.eq(L.var("op"), ord("s")), [L.ret(L.sub(L.var("arg"), 1))]),
        L.if_(L.eq(L.var("op"), ord("d")), [
            # BUG: the handler asserts the argument is non-zero instead of
            # checking it -- symbolic execution finds the failing input.
            L.assert_(L.ne(L.var("arg"), 0), "division by zero in 'd' command"),
            L.ret(L.div(100, L.var("arg"))),
        ]),
        L.ret(0),
    )
    main = L.func(
        "main", [],
        L.decl("pkt", L.call("cloud9_symbolic_buffer", 4, L.strconst("packet"))),
        L.ret(L.call("handle", L.var("pkt"), 4)),
    )
    return L.program("quickstart", handle, main)


def main() -> None:
    test = SymbolicTest("quickstart", build_program())

    print("=== single-engine run (plain KLEE / 1-worker Cloud9) ===")
    single = test.run()  # backend="single" is the default
    print("paths explored:   %d" % single.paths_completed)
    print("line coverage:    %.1f%%" % single.coverage_percent)
    print("bugs found:       %d" % len(single.bugs))
    for bug in single.bugs:
        print("  -", bug.summary())
        if bug.test_case is not None:
            print("    reproducer packet:", bug.test_case.input_bytes("packet"))
    print("generated test cases:")
    for case in single.test_cases[:8]:
        print("  packet=%-18r exit=%s%s" % (
            case.input_bytes("packet"), case.exit_code,
            "  [error path]" if case.is_error else ""))

    print()
    print("=== 4-worker Cloud9 cluster run (same test, same call shape) ===")
    cluster = test.run(backend="cluster", workers=4, instructions_per_round=100)
    print("paths explored:   %d" % cluster.paths_completed)
    print("virtual rounds:   %d" % cluster.rounds_executed)
    print("states moved:     %d (job transfers between workers)"
          % cluster.states_transferred)
    print("bugs found:       %s" % ", ".join(cluster.bug_summaries()))

    print()
    print("=== bug hunting with uniform limits ===")
    limits = ExplorationLimits(stop_on_first_bug=True, max_rounds=200)
    for backend in ("single", "cluster", "static"):
        options = {} if backend == "single" else {"workers": 2,
                                                  "instructions_per_round": 100}
        result = test.run(backend=backend, limits=limits, **options)
        print("%-9s found %d bug(s) after %d instructions"
              % (backend, len(result.bugs), result.total_instructions))


if __name__ == "__main__":
    main()
