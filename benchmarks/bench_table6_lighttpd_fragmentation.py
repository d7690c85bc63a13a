"""Table 6: lighttpd's behaviour under different request fragmentations.

Paper result (Table 6), for the request "GET /index.html HTTP/1.0CRLFCRLF"
(28 bytes):

    pattern                         ver. 1.4.12     ver. 1.4.13
    1x28                            OK              OK
    1x26 + 1x2                      crash + hang    OK
    2+5+1+5+2x1+3x2+5+2x1           crash + hang    crash + hang

i.e. the bug fix shipped in 1.4.13 was incomplete.

Reproduction: the identical 3x2 verdict matrix on the modeled parser, plus a
fixed version that survives all patterns, plus a symbolic-fragmentation
search that rediscovers a crashing pattern for 1.4.13 without being given
one.
"""

from repro.engine import BugKind
from repro.targets import lighttpd

from conftest import print_table

PATTERN_LABELS = [
    ("1x28", lighttpd.PATTERN_WHOLE),
    ("1x26 + 1x2", lighttpd.PATTERN_SPLIT_TERMINATOR),
    ("2+5+1+5+2x1+3x2+5+2x1", lighttpd.PATTERN_MANY_SMALL),
]
VERSIONS = [lighttpd.VERSION_1_4_12, lighttpd.VERSION_1_4_13, lighttpd.VERSION_FIXED]

# The verdict matrix reported by the paper (fixed column added by us).
EXPECTED = {
    ("1x28", lighttpd.VERSION_1_4_12): "OK",
    ("1x28", lighttpd.VERSION_1_4_13): "OK",
    ("1x28", lighttpd.VERSION_FIXED): "OK",
    ("1x26 + 1x2", lighttpd.VERSION_1_4_12): "crash + hang",
    ("1x26 + 1x2", lighttpd.VERSION_1_4_13): "OK",
    ("1x26 + 1x2", lighttpd.VERSION_FIXED): "OK",
    ("2+5+1+5+2x1+3x2+5+2x1", lighttpd.VERSION_1_4_12): "crash + hang",
    ("2+5+1+5+2x1+3x2+5+2x1", lighttpd.VERSION_1_4_13): "crash + hang",
    ("2+5+1+5+2x1+3x2+5+2x1", lighttpd.VERSION_FIXED): "OK",
}


def _verdict(version, pattern):
    result = lighttpd.make_fragmentation_test(version, pattern).run()
    crashed = any(b.kind in (BugKind.MEMORY_ERROR, BugKind.ASSERTION_FAILURE)
                  for b in result.bugs)
    return "crash + hang" if crashed else "OK"


def _run_matrix():
    matrix = {}
    for label, pattern in PATTERN_LABELS:
        for version in VERSIONS:
            matrix[(label, version)] = _verdict(version, pattern)
    # Symbolic fragmentation search against the "incomplete fix" version.
    search = lighttpd.make_symbolic_fragmentation_test(
        lighttpd.VERSION_1_4_13, bookkeeping_slots=3,
        frag_choice_limit=2).run(max_paths=400)
    found_incomplete_fix = any(b.kind == BugKind.MEMORY_ERROR for b in search.bugs)
    return matrix, found_incomplete_fix


def test_table6_lighttpd_fragmentation_matrix():
    matrix, found_incomplete_fix = _run_matrix()
    rows = []
    for label, _pattern in PATTERN_LABELS:
        rows.append((label,
                     matrix[(label, lighttpd.VERSION_1_4_12)],
                     matrix[(label, lighttpd.VERSION_1_4_13)],
                     matrix[(label, lighttpd.VERSION_FIXED)]))
    print_table(
        "Table 6 -- lighttpd behaviour per fragmentation pattern "
        "(request length 28)",
        ["fragmentation pattern", "ver. 1.4.12 (pre-patch)",
         "ver. 1.4.13 (post-patch)", "fixed"],
        rows)
    print("symbolic fragmentation rediscovers a crash in 1.4.13:",
          "yes" if found_incomplete_fix else "no")

    # The verdict matrix must match the paper cell for cell.
    for key, expected in EXPECTED.items():
        assert matrix[key] == expected, key
    assert found_incomplete_fix
