"""A model of the ghttpd web server (Table 4, 0.6 KLOC).

ghttpd is the smallest server in the paper's target table.  Its historically
famous defect (present in 1.4.x) is a fixed-size buffer in the logging path:
the requested URL is copied into a stack buffer without a bounds check, so a
sufficiently long request path overflows it.  The model reproduces that path
structure:

* ``serve_request`` reads an HTTP request from a socket, parses the method
  and the path;
* the path is copied into a fixed ``LOG_BUFFER_SIZE``-byte buffer by
  ``log_request`` -- without a length check in the vulnerable version, with a
  check in the fixed version;
* requests whose path is longer than the buffer therefore produce an
  out-of-bounds write (a memory-error bug report) on the vulnerable version
  only.

The symbolic test marks the request path symbolic in content and drives the
request through the POSIX socket model, so finding the overflow requires the
same combination of environment handling and path exploration as the paper's
case studies.
"""

from __future__ import annotations

from typing import List

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

VERSION_VULNERABLE = 14
VERSION_FIXED = 15

LOG_BUFFER_SIZE = 8
DEFAULT_PATH_LENGTH = 12      # longer than LOG_BUFFER_SIZE: the overflow is reachable


def build_program(version: int = VERSION_VULNERABLE,
                  path_length: int = DEFAULT_PATH_LENGTH,
                  symbolic_path: bool = False,
                  concrete_path: bytes = b"/") -> Program:
    """Build the ghttpd model for one server version and one request shape."""

    # parse_method(buf, total) -> 1 GET, 2 HEAD, 3 POST, 0 unknown.
    parse_method = L.func(
        "parse_method", ["buf", "total"],
        L.if_(L.lt(L.var("total"), 4), [L.ret(0)]),
        L.if_(L.land(L.eq(L.index(L.var("buf"), 0), ord("G")),
                     L.land(L.eq(L.index(L.var("buf"), 1), ord("E")),
                            L.eq(L.index(L.var("buf"), 2), ord("T")))),
              [L.ret(1)]),
        L.if_(L.land(L.eq(L.index(L.var("buf"), 0), ord("H")),
                     L.eq(L.index(L.var("buf"), 1), ord("E"))),
              [L.ret(2)]),
        L.if_(L.land(L.eq(L.index(L.var("buf"), 0), ord("P")),
                     L.eq(L.index(L.var("buf"), 1), ord("O"))),
              [L.ret(3)]),
        L.ret(0),
    )

    # find_path(buf, total) -> offset of the path (first byte after "GET ").
    find_path = L.func(
        "find_path", ["buf", "total"],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("total")),
            L.if_(L.eq(L.index(L.var("buf"), L.var("i")), ord(" ")),
                  [L.ret(L.add(L.var("i"), 1))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("total")),
    )

    # path_length(buf, start, total) -> number of bytes until space/CR/end.
    path_length_fn = L.func(
        "path_length", ["buf", "start", "total"],
        L.decl("i", L.var("start")),
        L.while_(L.lt(L.var("i"), L.var("total")),
            L.decl("c", L.index(L.var("buf"), L.var("i"))),
            L.if_(L.lor(L.eq(L.var("c"), ord(" ")),
                        L.lor(L.eq(L.var("c"), 0x0D), L.eq(L.var("c"), 0))),
                  [L.break_()]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.sub(L.var("i"), L.var("start"))),
    )

    # log_request(buf, start, n, version): the vulnerable copy.
    log_request = L.func(
        "log_request", ["buf", "start", "n", "version"],
        L.decl("log", L.call("malloc", LOG_BUFFER_SIZE)),
        L.decl("limit", L.var("n")),
        L.if_(L.eq(L.var("version"), VERSION_FIXED), [
            # The fixed version truncates the copy to the buffer size.
            L.if_(L.gt(L.var("limit"), LOG_BUFFER_SIZE),
                  [L.assign("limit", LOG_BUFFER_SIZE)]),
        ]),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("limit")),
            L.store(L.var("log"), L.var("i"),
                    L.index(L.var("buf"), L.add(L.var("start"), L.var("i")))),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("i")),
    )

    # serve_request(fd, version) -> 0 bad request, 1 served, 2 not found.
    request_capacity = path_length + 16
    serve_request = L.func(
        "serve_request", ["fd", "version"],
        L.decl("req", L.call("malloc", request_capacity)),
        L.decl("total", L.call("read", L.var("fd"), L.var("req"),
                               request_capacity)),
        L.if_(L.le(L.var("total"), 0), [L.ret(0)]),
        L.decl("method", L.call("parse_method", L.var("req"), L.var("total"))),
        L.if_(L.eq(L.var("method"), 0), [L.ret(0)]),
        L.decl("start", L.call("find_path", L.var("req"), L.var("total"))),
        L.if_(L.ge(L.var("start"), L.var("total")), [L.ret(0)]),
        L.decl("plen", L.call("path_length", L.var("req"), L.var("start"),
                              L.var("total"))),
        L.if_(L.eq(L.var("plen"), 0), [L.ret(0)]),
        # The request path must start with '/'.
        L.if_(L.ne(L.index(L.var("req"), L.var("start")), ord("/")), [L.ret(0)]),
        L.expr_stmt(L.call("log_request", L.var("req"), L.var("start"),
                           L.var("plen"), L.var("version"))),
        # Serve "/" and "/index.html"; everything else is a 404.
        L.if_(L.eq(L.var("plen"), 1), [L.ret(1)]),
        L.if_(L.eq(L.var("plen"), 11), [L.ret(1)]),
        L.ret(2),
    )

    # main: build the request (concrete prefix "GET " + path), push it through
    # a socket pair and serve it.
    body: List[object] = [
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("client", L.index(L.var("pair"), 0)),
        L.decl("server", L.index(L.var("pair"), 1)),
    ]
    if symbolic_path:
        request_length = 4 + path_length
        body += [
            L.decl("req", L.call("malloc", request_length)),
            L.store(L.var("req"), 0, ord("G")),
            L.store(L.var("req"), 1, ord("E")),
            L.store(L.var("req"), 2, ord("T")),
            L.store(L.var("req"), 3, ord(" ")),
            L.decl("path", L.call("cloud9_symbolic_buffer", path_length,
                                  L.strconst("path"))),
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), path_length),
                L.store(L.var("req"), L.add(4, L.var("i")),
                        L.index(L.var("path"), L.var("i"))),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.expr_stmt(L.call("write", L.var("client"), L.var("req"),
                               request_length)),
        ]
    else:
        request = b"GET " + concrete_path + b" HTTP/1.0\r\n"
        body.append(L.decl("req", L.call("malloc", len(request))))
        for i, byte in enumerate(request):
            body.append(L.store(L.var("req"), i, byte))
        body.append(L.expr_stmt(L.call("write", L.var("client"), L.var("req"),
                                       len(request))))
    body += [
        L.decl("result", L.call("serve_request", L.var("server"),
                                L.const(version))),
        L.ret(L.var("result")),
    ]
    main = L.func("main", [], *body)

    return L.program("ghttpd", parse_method, find_path, path_length_fn,
                     log_request, serve_request, main)


def version_label(version: int) -> str:
    return {VERSION_VULNERABLE: "1.4", VERSION_FIXED: "fixed"}.get(
        version, str(version))


def make_concrete_test(version: int = VERSION_VULNERABLE,
                       path: bytes = b"/") -> SymbolicTest:
    """A single concrete request (the regression-suite baseline).

    The default path fits in the log buffer, so it passes on both versions;
    longer concrete paths overflow the vulnerable version just as the
    symbolic test discovers.
    """
    return SymbolicTest(
        name="ghttpd-%s-concrete" % version_label(version),
        program=build_program(version, symbolic_path=False, concrete_path=path),
    )


def make_symbolic_test(version: int = VERSION_VULNERABLE,
                       path_length: int = DEFAULT_PATH_LENGTH,
                       max_instructions: int = 100_000) -> SymbolicTest:
    """The overflow hunt: a fully symbolic request path of ``path_length`` bytes."""
    return SymbolicTest(
        name="ghttpd-%s-symbolic-path" % version_label(version),
        program=build_program(version, path_length=path_length,
                              symbolic_path=True),
        options={"max_instructions": max_instructions},
    )
