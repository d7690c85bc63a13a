"""A model of lighttpd's request parsing across fragmented reads (§7.3.4).

The POSIX specification offers no guarantee on how many bytes a single
``read()`` returns, and lighttpd 1.4.12 crashed (hanging connected clients)
for certain fragmentations of an incoming request.  The fix shipped in 1.4.13
was incomplete: some fragmentation patterns still crash it, which the paper
demonstrates with the symbolic fragmentation ioctl (Table 6).

The model reproduces that history with three versions of the same parser:

* ``1.4.12`` -- when a chunk boundary falls inside the final ``CRLFCRLF``
  terminator, the parser "peeks" past the bytes received so far to look for
  the rest of the terminator and runs off the end of the request buffer
  (out-of-bounds read -> crash).
* ``1.4.13`` -- the peek is fixed, but per-request chunk bookkeeping lives in
  a fixed-size array that overflows when a request arrives in more than
  ``BOOKKEEPING_SLOTS`` chunks (out-of-bounds write -> crash).
* ``fixed`` -- bounds-checked bookkeeping; no crash for any fragmentation.

The three fragmentation patterns of Table 6 map onto these bugs exactly:
``1x28`` is fine everywhere, ``1x26 + 1x2`` splits the terminator (crashes
only 1.4.12), and ``2+5+1+5+2x1+3x2+5+2x1`` both splits the terminator and
uses 12 chunks (crashes 1.4.12 and 1.4.13).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

VERSION_1_4_12 = 1412
VERSION_1_4_13 = 1413
VERSION_FIXED = 1414

DEFAULT_REQUEST = b"GET /index.html HTTP/1.0\r\n\r\n"      # 28 bytes, as in Table 6
BOOKKEEPING_SLOTS = 8

# The three fragmentation patterns of Table 6.
PATTERN_WHOLE = [28]
PATTERN_SPLIT_TERMINATOR = [26, 2]
PATTERN_MANY_SMALL = [2, 5, 1, 5, 1, 1, 2, 2, 2, 5, 1, 1]

CR = 0x0D
LF = 0x0A


def build_program(version: int,
                  request: bytes = DEFAULT_REQUEST,
                  bookkeeping_slots: int = BOOKKEEPING_SLOTS,
                  fragment_pattern: Optional[Sequence[int]] = None,
                  symbolic_fragmentation: bool = False) -> Program:
    """Build the lighttpd model for one server version and one test driver."""
    request_length = len(request)

    # scan_terminator(buf, total) -> 1 if CRLFCRLF appears in buf[0..total).
    scan_terminator = L.func(
        "scan_terminator", ["buf", "total"],
        L.if_(L.lt(L.var("total"), 4), [L.ret(0)]),
        L.decl("i", 0),
        L.while_(L.le(L.var("i"), L.sub(L.var("total"), 4)),
            L.if_(L.land(
                    L.land(L.eq(L.index(L.var("buf"), L.var("i")), CR),
                           L.eq(L.index(L.var("buf"), L.add(L.var("i"), 1)), LF)),
                    L.land(L.eq(L.index(L.var("buf"), L.add(L.var("i"), 2)), CR),
                           L.eq(L.index(L.var("buf"), L.add(L.var("i"), 3)), LF))),
                  [L.ret(1)]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(0),
    )

    # parse_request_line(buf, total) -> 0 ok, 1 bad method, 2 bad protocol.
    parse_request_line = L.func(
        "parse_request_line", ["buf", "total"],
        L.if_(L.lt(L.var("total"), 14), [L.ret(2)]),
        L.decl("m0", L.index(L.var("buf"), 0)),
        L.decl("m1", L.index(L.var("buf"), 1)),
        L.decl("m2", L.index(L.var("buf"), 2)),
        L.decl("method", 0),
        L.if_(L.land(L.eq(L.var("m0"), ord("G")),
                     L.land(L.eq(L.var("m1"), ord("E")), L.eq(L.var("m2"), ord("T")))),
              [L.assign("method", 1)]),
        L.if_(L.land(L.eq(L.var("m0"), ord("P")),
                     L.land(L.eq(L.var("m1"), ord("O")), L.eq(L.var("m2"), ord("S")))),
              [L.assign("method", 2)]),
        L.if_(L.land(L.eq(L.var("m0"), ord("H")),
                     L.land(L.eq(L.var("m1"), ord("E")), L.eq(L.var("m2"), ord("A")))),
              [L.assign("method", 3)]),
        L.if_(L.eq(L.var("method"), 0), [L.ret(1)]),
        # Find the space before the protocol version and check "HTTP/1.".
        L.decl("i", 4),
        L.decl("space", 0),
        L.while_(L.lt(L.var("i"), L.var("total")),
            L.if_(L.eq(L.index(L.var("buf"), L.var("i")), ord(" ")), [
                L.assign("space", L.var("i")),
                L.break_(),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.if_(L.eq(L.var("space"), 0), [L.ret(2)]),
        L.if_(L.gt(L.add(L.var("space"), 7), L.var("total")), [L.ret(2)]),
        L.if_(L.ne(L.index(L.var("buf"), L.add(L.var("space"), 1)), ord("H")),
              [L.ret(2)]),
        L.if_(L.ne(L.index(L.var("buf"), L.add(L.var("space"), 5)), ord("/")),
              [L.ret(2)]),
        L.ret(0),
    )

    # read_request(fd, version) -> 0 incomplete, 1 parsed, 2 parse error.
    read_request = L.func(
        "read_request", ["fd", "version"],
        L.decl("reqbuf", L.call("malloc", request_length)),
        L.decl("chunk_sizes", L.call("malloc", bookkeeping_slots)),
        L.decl("total", 0),
        L.decl("chunks", 0),
        L.decl("complete", 0),
        L.decl("lookahead", 0),
        L.while_(L.land(L.eq(L.var("complete"), 0),
                        L.lt(L.var("total"), request_length)),
            L.decl("n", L.call("read", L.var("fd"),
                               L.add(L.var("reqbuf"), L.var("total")),
                               L.sub(request_length, L.var("total")))),
            L.if_(L.le(L.var("n"), 0), [L.break_()]),
            # Per-request chunk bookkeeping.  Version 1.4.13 writes without a
            # bounds check (the incomplete fix); the fixed version guards it.
            L.if_(L.eq(L.var("version"), VERSION_1_4_13), [
                L.store(L.var("chunk_sizes"), L.var("chunks"), L.var("n")),
            ]),
            L.if_(L.eq(L.var("version"), VERSION_FIXED), [
                L.if_(L.lt(L.var("chunks"), bookkeeping_slots), [
                    L.store(L.var("chunk_sizes"), L.var("chunks"), L.var("n")),
                ]),
            ]),
            L.assign("chunks", L.add(L.var("chunks"), 1)),
            L.assign("total", L.add(L.var("total"), L.var("n"))),
            L.assign("complete", L.call("scan_terminator", L.var("reqbuf"),
                                        L.var("total"))),
            # Version 1.4.12: if the data received so far ends in the middle
            # of what could be the terminator, peek ahead for the rest of it
            # -- past the bytes actually received, and past the end of the
            # request buffer when the boundary falls in the last bytes.
            L.if_(L.land(L.eq(L.var("version"), VERSION_1_4_12),
                         L.eq(L.var("complete"), 0)), [
                L.decl("last", L.index(L.var("reqbuf"), L.sub(L.var("total"), 1))),
                L.if_(L.lor(L.eq(L.var("last"), CR), L.eq(L.var("last"), LF)), [
                    L.assign("lookahead",
                             L.add(L.index(L.var("reqbuf"), L.var("total")),
                                   L.add(L.index(L.var("reqbuf"),
                                                 L.add(L.var("total"), 1)),
                                         L.index(L.var("reqbuf"),
                                                 L.add(L.var("total"), 2))))),
                ]),
            ]),
        ),
        L.if_(L.eq(L.var("complete"), 0), [L.ret(0)]),
        L.decl("status", L.call("parse_request_line", L.var("reqbuf"), L.var("total"))),
        L.if_(L.eq(L.var("status"), 0), [L.ret(1)]),
        L.ret(2),
    )

    # main: write the request to a socket pair (optionally with an explicit
    # fragmentation pattern or symbolic fragmentation) and run the server.
    body: List[object] = [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
        L.decl("req", L.call("malloc", request_length)),
    ]
    for i, byte in enumerate(request):
        body.append(L.store(L.var("req"), i, byte))
    body.append(L.expr_stmt(L.call("write", L.var("client"), L.var("req"),
                                   L.const(request_length))))
    if fragment_pattern is not None:
        body.append(L.decl("pattern", L.call("malloc", len(fragment_pattern))))
        for i, size in enumerate(fragment_pattern):
            body.append(L.store(L.var("pattern"), i, size))
        body.append(L.expr_stmt(L.call("c9_set_frag_pattern", L.var("server"),
                                       L.var("pattern"),
                                       L.const(len(fragment_pattern)))))
    elif symbolic_fragmentation:
        # SIO_PKT_FRAGMENT = 0x9002 (see repro.posix.ioctl).
        body.append(L.expr_stmt(L.call("ioctl", L.var("server"), 0x9002, 1)))
    body.append(L.decl("result", L.call("read_request", L.var("server"),
                                        L.const(version))))
    body.append(L.assert_(L.ne(L.var("result"), 2), "request parse error"))
    body.append(L.ret(L.var("result")))
    main = L.func("main", [], *body)

    return L.program("lighttpd", scan_terminator, parse_request_line,
                     read_request, main)


# -- SymbolicTest factories -----------------------------------------------------------


def version_label(version: int) -> str:
    return {VERSION_1_4_12: "1.4.12", VERSION_1_4_13: "1.4.13",
            VERSION_FIXED: "fixed"}.get(version, str(version))


def make_fragmentation_test(version: int, pattern: Sequence[int],
                            request: bytes = DEFAULT_REQUEST) -> SymbolicTest:
    """One Table 6 cell: a concrete request delivered with a concrete pattern."""
    pattern_name = "x".join(str(p) for p in pattern)
    return SymbolicTest(
        name="lighttpd-%s-frag-%s" % (version_label(version), pattern_name),
        program=build_program(version, request=request, fragment_pattern=list(pattern)),
    )


def make_symbolic_fragmentation_test(version: int,
                                     request: bytes = DEFAULT_REQUEST,
                                     bookkeeping_slots: int = BOOKKEEPING_SLOTS,
                                     frag_choice_limit: int = 3) -> SymbolicTest:
    """The §7.3.4 regression test: let Cloud9 choose the fragmentation.

    ``frag_choice_limit`` bounds the per-read fan-out (each read forks over
    chunk sizes 1..limit-1 plus "all remaining"); the search still reaches
    both the terminator-split crash of 1.4.12 and, with a reduced
    ``bookkeeping_slots``, the many-chunks crash of 1.4.13.
    """
    return SymbolicTest(
        name="lighttpd-%s-symbolic-fragmentation" % version_label(version),
        program=build_program(version, request=request,
                              bookkeeping_slots=bookkeeping_slots,
                              symbolic_fragmentation=True),
        options={"frag_choice_limit": frag_choice_limit,
                 "max_instructions": 50_000},
    )
