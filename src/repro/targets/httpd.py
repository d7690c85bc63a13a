"""A model of Apache httpd's request/header processing (Table 4, §5.2).

Apache httpd is the largest entry in the paper's target table; the paper's
use case (§5.2) tests "support for a new ``X-NewExtension`` HTTP header, just
added to a web server" by marking the header's value symbolic and letting the
engine fork at every branch that depends on it.

The model reproduces that scenario end to end:

* ``read_request`` pulls the request from a socket (so the fragmentation and
  fault-injection ioctls apply to it exactly as in the paper's use case);
* ``parse_request_line`` validates the method and protocol;
* ``parse_headers`` walks the header block line by line, recognising
  ``Host``, ``Content-Length``, ``Connection`` and ``X-NewExtension``;
* ``handle_extension`` is the newly added feature: it interprets the
  extension header's value (a mode character plus a decimal level) with
  distinct code per mode and a latent defect -- mode ``'t'`` with level 0
  divides by the level, which only a symbolic test is likely to reach.

Test factories cover the paper's three §5.2 drivers: a symbolic header value,
request fragmentation, and fault injection on the socket.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.engine.config import EngineConfig
from repro.testing.symbolic_test import SymbolicTest

CR = 0x0D
LF = 0x0A

HEADER_VALUE_LENGTH = 4          # symbolic bytes in the X-NewExtension value

REQUEST_PREFIX = b"GET /app HTTP/1.0\r\nHost: a\r\nX-NewExtension: "
REQUEST_SUFFIX = b"\r\n\r\n"


def build_program(symbolic_header: bool = True,
                  header_value: bytes = b"t1",
                  header_value_length: int = HEADER_VALUE_LENGTH,
                  fragment_pattern: Optional[Sequence[int]] = None,
                  fault_injection: bool = False,
                  buggy_extension: bool = True) -> Program:
    """Build the httpd model with one §5.2-style test driver."""
    value_length = header_value_length if symbolic_header else len(header_value)
    request_length = len(REQUEST_PREFIX) + value_length + len(REQUEST_SUFFIX)

    # find_eol(buf, start, total) -> index of the CR ending the line, or total.
    find_eol = L.func(
        "find_eol", ["buf", "start", "total"],
        L.decl("i", L.var("start")),
        L.while_(L.lt(L.var("i"), L.var("total")),
            L.if_(L.eq(L.index(L.var("buf"), L.var("i")), CR), [L.ret(L.var("i"))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("total")),
    )

    # parse_request_line(buf, total) -> end-of-line index, or 0 on error.
    parse_request_line = L.func(
        "parse_request_line", ["buf", "total"],
        L.if_(L.lt(L.var("total"), 5), [L.ret(0)]),
        L.decl("ok", 0),
        L.if_(L.land(L.eq(L.index(L.var("buf"), 0), ord("G")),
                     L.land(L.eq(L.index(L.var("buf"), 1), ord("E")),
                            L.eq(L.index(L.var("buf"), 2), ord("T")))),
              [L.assign("ok", 1)]),
        L.if_(L.land(L.eq(L.index(L.var("buf"), 0), ord("P")),
                     L.eq(L.index(L.var("buf"), 1), ord("O"))),
              [L.assign("ok", 1)]),
        L.if_(L.eq(L.var("ok"), 0), [L.ret(0)]),
        L.decl("eol", L.call("find_eol", L.var("buf"), 0, L.var("total"))),
        L.if_(L.ge(L.var("eol"), L.var("total")), [L.ret(0)]),
        L.ret(L.var("eol")),
    )

    # header_is(buf, start, eol, letter) -> 1 when the header name begins with
    # ``letter`` (the model distinguishes headers by their first character,
    # which is unambiguous for the set it recognises).
    header_is = L.func(
        "header_is", ["buf", "start", "letter"],
        L.ret(L.eq(L.index(L.var("buf"), L.var("start")), L.var("letter"))),
    )

    # header_value_start(buf, start, eol) -> index just past ": ", or eol.
    header_value_start = L.func(
        "header_value_start", ["buf", "start", "eol"],
        L.decl("i", L.var("start")),
        L.while_(L.lt(L.var("i"), L.var("eol")),
            L.if_(L.eq(L.index(L.var("buf"), L.var("i")), ord(":")), [
                L.ret(L.add(L.var("i"), 2)),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("eol")),
    )

    # handle_extension(buf, start, eol, buggy) -> a small status code.
    #
    # Value grammar: one mode character ('n' none, 'c' compress, 't' throttle)
    # optionally followed by a decimal level.  Mode 't' divides a window
    # constant by the level; the buggy version misses the level==0 check.
    handle_extension = L.func(
        "handle_extension", ["buf", "start", "eol", "buggy"],
        L.if_(L.ge(L.var("start"), L.var("eol")), [L.ret(0)]),
        L.decl("mode", L.index(L.var("buf"), L.var("start"))),
        L.decl("level", 0),
        L.decl("i", L.add(L.var("start"), 1)),
        L.while_(L.lt(L.var("i"), L.var("eol")),
            L.decl("c", L.index(L.var("buf"), L.var("i"))),
            L.if_(L.lor(L.lt(L.var("c"), ord("0")), L.gt(L.var("c"), ord("9"))),
                  [L.break_()]),
            L.assign("level", L.add(L.mul(L.var("level"), 10),
                                    L.sub(L.var("c"), ord("0")))),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.if_(L.eq(L.var("mode"), ord("n")), [L.ret(1)]),
        L.if_(L.eq(L.var("mode"), ord("c")), [
            L.if_(L.gt(L.var("level"), 9), [L.ret(2)]),
            L.ret(3),
        ]),
        L.if_(L.eq(L.var("mode"), ord("t")), [
            L.if_(L.eq(L.var("buggy"), 0), [
                L.if_(L.eq(L.var("level"), 0), [L.ret(4)]),
            ]),
            # Buggy version: divides without checking the level.
            L.decl("window", L.div(1000, L.var("level"))),
            L.if_(L.gt(L.var("window"), 500), [L.ret(5)]),
            L.ret(6),
        ]),
        L.ret(7),
    )

    # parse_headers(buf, start, total, buggy) -> status of the last
    # recognised header (0 when the block is well formed but empty).
    parse_headers = L.func(
        "parse_headers", ["buf", "start", "total", "buggy"],
        L.decl("pos", L.var("start")),
        L.decl("status", 0),
        L.decl("seen_host", 0),
        L.while_(L.lt(L.var("pos"), L.var("total")),
            # A CRLF at the cursor ends the header block.
            L.if_(L.land(L.eq(L.index(L.var("buf"), L.var("pos")), CR),
                         L.eq(L.index(L.var("buf"), L.add(L.var("pos"), 1)), LF)),
                  [L.break_()]),
            L.decl("eol", L.call("find_eol", L.var("buf"), L.var("pos"),
                                 L.var("total"))),
            L.if_(L.ge(L.var("eol"), L.var("total")), [L.ret(255)]),
            L.decl("vstart", L.call("header_value_start", L.var("buf"),
                                    L.var("pos"), L.var("eol"))),
            L.if_(L.call("header_is", L.var("buf"), L.var("pos"), ord("H")), [
                L.assign("seen_host", 1),
            ]),
            L.if_(L.call("header_is", L.var("buf"), L.var("pos"), ord("X")), [
                L.assign("status", L.call("handle_extension", L.var("buf"),
                                          L.var("vstart"), L.var("eol"),
                                          L.var("buggy"))),
            ]),
            L.assign("pos", L.add(L.var("eol"), 2)),
        ),
        L.if_(L.eq(L.var("seen_host"), 0), [L.ret(254)]),
        L.ret(L.var("status")),
    )

    # read_request(fd, buf, capacity) -> number of bytes received.
    read_request = L.func(
        "read_request", ["fd", "buf", "capacity"],
        L.decl("total", 0),
        L.while_(L.lt(L.var("total"), L.var("capacity")),
            L.decl("n", L.call("read", L.var("fd"),
                               L.add(L.var("buf"), L.var("total")),
                               L.sub(L.var("capacity"), L.var("total")))),
            L.if_(L.le(L.var("n"), 0), [L.break_()]),
            L.assign("total", L.add(L.var("total"), L.var("n"))),
        ),
        L.ret(L.var("total")),
    )

    # main: assemble the request, push it through a socket pair, parse it.
    body: List[object] = [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
        L.decl("req", L.call("malloc", request_length)),
    ]
    offset = 0
    for byte in REQUEST_PREFIX:
        body.append(L.store(L.var("req"), offset, byte))
        offset += 1
    if symbolic_header:
        body += [
            L.decl("hval", L.call("cloud9_symbolic_buffer", value_length,
                                  L.strconst("extension"))),
            L.decl("h", 0),
            L.while_(L.lt(L.var("h"), value_length),
                L.store(L.var("req"), L.add(offset, L.var("h")),
                        L.index(L.var("hval"), L.var("h"))),
                L.assign("h", L.add(L.var("h"), 1)),
            ),
        ]
    else:
        for i, byte in enumerate(header_value):
            body.append(L.store(L.var("req"), offset + i, byte))
    offset += value_length
    for byte in REQUEST_SUFFIX:
        body.append(L.store(L.var("req"), offset, byte))
        offset += 1
    body.append(L.expr_stmt(L.call("write", L.var("client"), L.var("req"),
                                   request_length)))
    if fragment_pattern is not None:
        body.append(L.decl("pattern", L.call("malloc", len(fragment_pattern))))
        for i, size in enumerate(fragment_pattern):
            body.append(L.store(L.var("pattern"), i, size))
        body.append(L.expr_stmt(L.call("c9_set_frag_pattern", L.var("server"),
                                       L.var("pattern"),
                                       L.const(len(fragment_pattern)))))
    if fault_injection:
        # SIO_FAULT_INJ = 0x9003, RD | WR = 3 (see repro.posix.ioctl).
        body.append(L.expr_stmt(L.call("ioctl", L.var("server"), 0x9003, 3)))
    body += [
        L.decl("buf", L.call("malloc", request_length)),
        L.decl("total", L.call("read_request", L.var("server"), L.var("buf"),
                               request_length)),
        L.if_(L.eq(L.var("total"), 0), [L.ret(200)]),
        L.decl("eol", L.call("parse_request_line", L.var("buf"), L.var("total"))),
        L.if_(L.eq(L.var("eol"), 0), [L.ret(201)]),
        L.decl("status", L.call("parse_headers", L.var("buf"),
                                L.add(L.var("eol"), 2), L.var("total"),
                                L.const(1 if buggy_extension else 0))),
        L.ret(L.var("status")),
    ]
    main = L.func("main", [], *body)

    return L.program("httpd", find_eol, parse_request_line, header_is,
                     header_value_start, handle_extension, parse_headers,
                     read_request, main)


def make_concrete_test(header_value: bytes = b"c7") -> SymbolicTest:
    """One concrete request: the regression-suite baseline of §5.2."""
    return SymbolicTest(
        name="httpd-concrete",
        program=build_program(symbolic_header=False, header_value=header_value),
    )


def make_symbolic_header_test(value_length: int = HEADER_VALUE_LENGTH,
                              buggy: bool = True,
                              max_instructions: int = 200_000) -> SymbolicTest:
    """§5.2: mark the X-NewExtension header value symbolic."""
    return SymbolicTest(
        name="httpd-symbolic-extension%s" % ("-buggy" if buggy else "-fixed"),
        program=build_program(symbolic_header=True,
                              header_value_length=value_length,
                              buggy_extension=buggy),
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
    )


def make_fragmentation_test(pattern: Sequence[int],
                            header_value: bytes = b"n") -> SymbolicTest:
    """§5.2: deliver the request under an explicit fragmentation pattern."""
    return SymbolicTest(
        name="httpd-frag-%s" % "x".join(str(p) for p in pattern),
        program=build_program(symbolic_header=False, header_value=header_value,
                              fragment_pattern=list(pattern)),
    )


def make_fault_injection_test(header_value: bytes = b"n") -> SymbolicTest:
    """§5.2: inject faults on the server's socket reads."""
    return SymbolicTest(
        name="httpd-fault-injection",
        program=build_program(symbolic_header=False, header_value=header_value,
                              fault_injection=True),
    )
