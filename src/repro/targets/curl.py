"""A model of curl's URL globbing (§7.3.2).

Cloud9 found a new bug in curl: a URL such as
``http://site.{one,two,three}.com{`` -- a complete brace glob followed by an
*unmatched* opening brace -- crashes the globbing code.  "Cloud9 exposed a
general problem in curl's handling of the case when braces used for regular
expression globbing are not matched properly."

The model parses a URL with ``{a,b,c}`` alternation globs and ``[0-9]`` range
globs.  Faithfully to the original bug, the pattern-counting pass and the
expansion pass disagree when a glob opener appears without its closer at the
end of the URL: the expansion pass then reads past the end of the URL buffer
(out-of-bounds read -> crash).  A symbolic URL suffix makes symbolic
execution find the crashing input automatically.
"""

from __future__ import annotations

from typing import List

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

DEFAULT_PREFIX = b"http://s.{a,b}.com"
DEFAULT_SYMBOLIC_SUFFIX = 2


def build_program(prefix: bytes = DEFAULT_PREFIX,
                  symbolic_suffix: int = DEFAULT_SYMBOLIC_SUFFIX) -> Program:
    url_length = len(prefix) + symbolic_suffix

    # count_globs(url, n) -> number of glob openers ('{' or '[') seen.
    # Note: counts openers without verifying each has a matching closer --
    # the discrepancy at the heart of the bug.
    count_globs = L.func(
        "count_globs", ["url", "n"],
        L.decl("i", 0),
        L.decl("count", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.decl("c", L.index(L.var("url"), L.var("i"))),
            L.if_(L.eq(L.var("c"), 0), [L.break_()]),
            L.if_(L.lor(L.eq(L.var("c"), ord("{")), L.eq(L.var("c"), ord("["))), [
                L.assign("count", L.add(L.var("count"), 1)),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("count")),
    )

    # expand_brace(url, n, start) -> index just past the matching '}'.
    # BUG: scans for ',' and '}' but never checks the running index against
    # the buffer length, so an unmatched '{' walks off the end of the buffer.
    expand_brace = L.func(
        "expand_brace", ["url", "n", "start"],
        L.decl("i", L.add(L.var("start"), 1)),
        L.decl("alternatives", 1),
        L.while_(L.ne(L.index(L.var("url"), L.var("i")), ord("}")),
            L.if_(L.eq(L.index(L.var("url"), L.var("i")), ord(",")), [
                L.assign("alternatives", L.add(L.var("alternatives"), 1)),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.add(L.var("i"), 1)),
    )

    # expand_range(url, n, start) -> index past the ']'; same missing check.
    expand_range = L.func(
        "expand_range", ["url", "n", "start"],
        L.decl("i", L.add(L.var("start"), 1)),
        L.while_(L.ne(L.index(L.var("url"), L.var("i")), ord("]")),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.add(L.var("i"), 1)),
    )

    # glob_url(url, n) -> number of globs expanded.
    glob_url = L.func(
        "glob_url", ["url", "n"],
        L.decl("total", L.call("count_globs", L.var("url"), L.var("n"))),
        L.if_(L.eq(L.var("total"), 0), [L.ret(0)]),
        L.decl("i", 0),
        L.decl("expanded", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.decl("c", L.index(L.var("url"), L.var("i"))),
            L.if_(L.eq(L.var("c"), 0), [L.break_()]),
            L.if_(L.eq(L.var("c"), ord("{")), [
                L.assign("i", L.call("expand_brace", L.var("url"), L.var("n"),
                                     L.var("i"))),
                L.assign("expanded", L.add(L.var("expanded"), 1)),
                L.continue_(),
            ]),
            L.if_(L.eq(L.var("c"), ord("[")), [
                L.assign("i", L.call("expand_range", L.var("url"), L.var("n"),
                                     L.var("i"))),
                L.assign("expanded", L.add(L.var("expanded"), 1)),
                L.continue_(),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("expanded")),
    )

    body: List[object] = [
        L.decl("url", L.call("malloc", url_length)),
    ]
    for i, byte in enumerate(prefix):
        body.append(L.store(L.var("url"), i, byte))
    if symbolic_suffix:
        body.append(L.decl("suffix", L.call("cloud9_symbolic_buffer",
                                            L.const(symbolic_suffix),
                                            L.strconst("url_suffix"))))
        body.append(L.expr_stmt(L.call("memcpy",
                                       L.add(L.var("url"), len(prefix)),
                                       L.var("suffix"),
                                       L.const(symbolic_suffix))))
    body.append(L.decl("expanded", L.call("glob_url", L.var("url"),
                                          L.const(url_length))))
    body.append(L.ret(L.var("expanded")))
    main = L.func("main", [], *body)

    return L.program("curl", count_globs, expand_brace, expand_range,
                     glob_url, main)


def make_globbing_test(prefix: bytes = DEFAULT_PREFIX,
                       symbolic_suffix: int = DEFAULT_SYMBOLIC_SUFFIX,
                       max_instructions: int = 20_000) -> SymbolicTest:
    """The §7.3.2 workload: symbolic URL suffix after a concrete glob prefix.

    The crashing input of the paper corresponds to a suffix containing an
    unmatched ``{`` (or ``[``): the expansion loop then runs past the end of
    the URL buffer and the engine reports a memory error.
    """
    return SymbolicTest(
        name="curl-url-globbing",
        program=build_program(prefix, symbolic_suffix),
        options={"max_instructions": max_instructions},
        use_posix_model=False,
    )


def crashing_url() -> bytes:
    """The concrete URL shape reported in the paper."""
    return b"http://site.{one,two,three}.com{"
