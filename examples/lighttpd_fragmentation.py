#!/usr/bin/env python3
"""Case study §7.3.4: proving lighttpd's fragmentation bug fix incomplete.

This example reproduces Table 6 of the paper: the same HTTP request is
delivered to three versions of the (modeled) lighttpd request parser under
three different read-fragmentation patterns, and then symbolic fragmentation
is used to let Cloud9 *search* for a crashing pattern -- which demonstrates
that the 1.4.13 fix is incomplete without having to guess the pattern.

Run with:  python examples/lighttpd_fragmentation.py
"""

from repro.engine.errors import BugKind
from repro.targets import lighttpd


def verdict(version: int, pattern) -> str:
    result = lighttpd.make_fragmentation_test(version, pattern).run()
    crashed = any(b.kind in (BugKind.MEMORY_ERROR, BugKind.ASSERTION_FAILURE)
                  for b in result.bugs)
    return "crash + hang" if crashed else "OK"


def main() -> None:
    patterns = [
        ("1x28", lighttpd.PATTERN_WHOLE),
        ("1x26 + 1x2", lighttpd.PATTERN_SPLIT_TERMINATOR),
        ("2+5+1+5+2x1+3x2+5+2x1", lighttpd.PATTERN_MANY_SMALL),
    ]
    versions = [
        ("ver. 1.4.12 (pre-patch)", lighttpd.VERSION_1_4_12),
        ("ver. 1.4.13 (post-patch)", lighttpd.VERSION_1_4_13),
        ("fixed", lighttpd.VERSION_FIXED),
    ]

    print("=== Table 6: concrete fragmentation patterns ===")
    header = "%-28s" % "Fragmentation pattern"
    for label, _ in versions:
        header += " %-26s" % label
    print(header)
    for pattern_label, pattern in patterns:
        row = "%-28s" % pattern_label
        for _, version in versions:
            row += " %-26s" % verdict(version, pattern)
        print(row)

    print()
    print("=== symbolic fragmentation: let Cloud9 find the pattern ===")
    for label, version in versions:
        test = lighttpd.make_symbolic_fragmentation_test(
            version, bookkeeping_slots=3, frag_choice_limit=2)
        result = test.run(max_paths=400)
        crashes = [b for b in result.bugs if b.kind == BugKind.MEMORY_ERROR]
        if crashes:
            print("%-26s CRASH found after %d paths: %s"
                  % (label, result.paths_completed, crashes[0].message))
        else:
            print("%-26s no crash in %d explored paths"
                  % (label, result.paths_completed))
    print()
    print("Conclusion: the post-patch version still crashes for some "
          "fragmentation patterns -- the fix is incomplete, exactly as the "
          "paper reports.")


if __name__ == "__main__":
    main()
