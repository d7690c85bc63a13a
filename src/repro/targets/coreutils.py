"""A Coreutils-like suite of small UNIX utilities.

The paper's Fig. 11 experiment runs KLEE (1-worker Cloud9) and a 12-worker
Cloud9 on each of the 96 Coreutils for a fixed time budget and reports the
additional line coverage the cluster obtains.  This module provides a suite
of small utilities in the reproduction's language -- each one a little
command-line-style program over a symbolic input buffer -- that plays the
role of that benchmark suite.

Every utility is deliberately input-driven (flag parsing, tokenizing,
small loops) so that deeper exploration translates into more covered lines,
which is the property the Fig. 11 experiment measures.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.lang import builder as L
from repro.lang.ast import Function, Program
from repro.testing.symbolic_test import SymbolicTest

DEFAULT_INPUT_SIZE = 4


def _symbolic_main(body_builder: Callable[[], List[object]],
                   input_size: int) -> Function:
    """main(): allocate the symbolic input then run the utility body.

    The body can refer to ``argv`` (the symbolic buffer) and ``argc`` (its
    size).
    """
    body: List[object] = [
        L.decl("argv", L.call("cloud9_symbolic_buffer", L.const(input_size),
                              L.strconst("argv"))),
        L.decl("argc", L.const(input_size)),
    ]
    body.extend(body_builder())
    return L.func("main", [], *body)


def _program(name: str, body_builder: Callable[[], List[object]],
             helpers: List[Function] = (),
             input_size: int = DEFAULT_INPUT_SIZE) -> Program:
    return L.program(name, *helpers, _symbolic_main(body_builder, input_size))


# -- individual utilities -----------------------------------------------------------


def _echo_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("newline", 1),
        L.decl("escapes", 0),
        L.decl("out", 0),
        # Flag parsing: -n suppresses the newline, -e enables escapes.
        L.if_(L.eq(L.index(L.var("argv"), 0), ord("-")), [
            L.if_(L.eq(L.index(L.var("argv"), 1), ord("n")),
                  [L.assign("newline", 0), L.assign("i", 2)]),
            L.if_(L.eq(L.index(L.var("argv"), 1), ord("e")),
                  [L.assign("escapes", 1), L.assign("i", 2)]),
        ]),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("c", L.index(L.var("argv"), L.var("i"))),
            L.if_(L.land(L.var("escapes"), L.eq(L.var("c"), ord("\\"))), [
                L.assign("i", L.add(L.var("i"), 2)),
                L.assign("out", L.add(L.var("out"), 1)),
                L.continue_(),
            ]),
            L.assign("out", L.add(L.var("out"), 1)),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.add(L.var("out"), L.var("newline"))),
    ]


def _cat_body() -> List[object]:
    return [
        L.decl("number_lines", 0),
        L.decl("start", 0),
        L.if_(L.land(L.eq(L.index(L.var("argv"), 0), ord("-")),
                     L.eq(L.index(L.var("argv"), 1), ord("n"))),
              [L.assign("number_lines", 1), L.assign("start", 2)]),
        L.decl("i", L.var("start")),
        L.decl("lines", 0),
        L.decl("bytes", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("c", L.index(L.var("argv"), L.var("i"))),
            L.if_(L.eq(L.var("c"), ord("\n")),
                  [L.assign("lines", L.add(L.var("lines"), 1))]),
            L.assign("bytes", L.add(L.var("bytes"), 1)),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.if_(L.var("number_lines"), [L.ret(L.add(L.var("lines"), L.var("bytes")))]),
        L.ret(L.var("bytes")),
    ]


def _wc_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("words", 0),
        L.decl("lines", 0),
        L.decl("in_word", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("c", L.index(L.var("argv"), L.var("i"))),
            L.if_(L.eq(L.var("c"), ord("\n")),
                  [L.assign("lines", L.add(L.var("lines"), 1))]),
            L.if_(L.lor(L.eq(L.var("c"), ord(" ")),
                        L.lor(L.eq(L.var("c"), ord("\n")),
                              L.eq(L.var("c"), ord("\t")))), [
                L.assign("in_word", 0),
            ], [
                L.if_(L.eq(L.var("in_word"), 0),
                      [L.assign("words", L.add(L.var("words"), 1))]),
                L.assign("in_word", 1),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.add(L.var("words"), L.var("lines"))),
    ]


def _seq_body() -> List[object]:
    return [
        L.decl("first", L.index(L.var("argv"), 0)),
        L.decl("last", L.index(L.var("argv"), 1)),
        L.if_(L.lor(L.lt(L.var("first"), ord("0")), L.gt(L.var("first"), ord("9"))),
              [L.ret(255)]),
        L.if_(L.lor(L.lt(L.var("last"), ord("0")), L.gt(L.var("last"), ord("9"))),
              [L.ret(255)]),
        L.decl("start", L.sub(L.var("first"), ord("0"))),
        L.decl("stop", L.sub(L.var("last"), ord("0"))),
        L.if_(L.gt(L.var("start"), L.var("stop")), [L.ret(0)]),
        L.decl("count", 0),
        L.while_(L.le(L.var("start"), L.var("stop")),
            L.assign("count", L.add(L.var("count"), 1)),
            L.assign("start", L.add(L.var("start"), 1)),
        ),
        L.ret(L.var("count")),
    ]


def _basename_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("last_slash", 0xFFFF),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.if_(L.eq(L.index(L.var("argv"), L.var("i")), ord("/")),
                  [L.assign("last_slash", L.var("i"))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.if_(L.eq(L.var("last_slash"), 0xFFFF), [L.ret(0)]),
        L.if_(L.eq(L.var("last_slash"), L.sub(L.var("argc"), 1)), [L.ret(1)]),
        L.ret(L.sub(L.sub(L.var("argc"), L.var("last_slash")), 1)),
    ]


def _dirname_body() -> List[object]:
    return [
        L.decl("i", L.sub(L.var("argc"), 1)),
        L.while_(L.gt(L.var("i"), 0),
            L.if_(L.eq(L.index(L.var("argv"), L.var("i")), ord("/")),
                  [L.ret(L.var("i"))]),
            L.assign("i", L.sub(L.var("i"), 1)),
        ),
        L.if_(L.eq(L.index(L.var("argv"), 0), ord("/")), [L.ret(1)]),
        L.ret(0),
    ]


def _tr_body() -> List[object]:
    return [
        L.decl("from", L.index(L.var("argv"), 0)),
        L.decl("to", L.index(L.var("argv"), 1)),
        L.decl("i", 2),
        L.decl("translated", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.if_(L.eq(L.index(L.var("argv"), L.var("i")), L.var("from")),
                  [L.assign("translated", L.add(L.var("translated"), 1))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.if_(L.eq(L.var("from"), L.var("to")), [L.ret(0)]),
        L.ret(L.var("translated")),
    ]


def _head_body() -> List[object]:
    return [
        L.decl("limit", 2),
        L.decl("start", 0),
        L.if_(L.eq(L.index(L.var("argv"), 0), ord("-")), [
            L.decl("d", L.index(L.var("argv"), 1)),
            L.if_(L.land(L.ge(L.var("d"), ord("0")), L.le(L.var("d"), ord("9"))), [
                L.assign("limit", L.sub(L.var("d"), ord("0"))),
                L.assign("start", 2),
            ], [L.ret(255)]),
        ]),
        L.decl("i", L.var("start")),
        L.decl("emitted", 0),
        L.while_(L.land(L.lt(L.var("i"), L.var("argc")),
                        L.lt(L.var("emitted"), L.var("limit"))),
            L.if_(L.eq(L.index(L.var("argv"), L.var("i")), ord("\n")),
                  [L.assign("emitted", L.add(L.var("emitted"), 1))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("emitted")),
    ]


def _cut_body() -> List[object]:
    return [
        L.decl("delim", L.index(L.var("argv"), 0)),
        L.decl("field", L.index(L.var("argv"), 1)),
        L.if_(L.lor(L.lt(L.var("field"), ord("1")), L.gt(L.var("field"), ord("3"))),
              [L.ret(255)]),
        L.decl("want", L.sub(L.var("field"), ord("0"))),
        L.decl("current", 1),
        L.decl("i", 2),
        L.decl("picked", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.if_(L.eq(L.index(L.var("argv"), L.var("i")), L.var("delim")), [
                L.assign("current", L.add(L.var("current"), 1)),
            ], [
                L.if_(L.eq(L.var("current"), L.var("want")),
                      [L.assign("picked", L.add(L.var("picked"), 1))]),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("picked")),
    ]


def _sort_body() -> List[object]:
    return [
        L.decl("buf", L.call("malloc", L.var("argc"))),
        L.expr_stmt(L.call("memcpy", L.var("buf"), L.var("argv"), L.var("argc"))),
        L.decl("i", 1),
        L.decl("swaps", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("j", L.var("i")),
            L.while_(L.land(L.gt(L.var("j"), 0),
                            L.gt(L.index(L.var("buf"), L.sub(L.var("j"), 1)),
                                 L.index(L.var("buf"), L.var("j")))),
                L.decl("tmp", L.index(L.var("buf"), L.var("j"))),
                L.store(L.var("buf"), L.var("j"),
                        L.index(L.var("buf"), L.sub(L.var("j"), 1))),
                L.store(L.var("buf"), L.sub(L.var("j"), 1), L.var("tmp")),
                L.assign("swaps", L.add(L.var("swaps"), 1)),
                L.assign("j", L.sub(L.var("j"), 1)),
            ),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("swaps")),
    ]


def _uniq_body() -> List[object]:
    return [
        L.decl("i", 1),
        L.decl("unique", 1),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.if_(L.ne(L.index(L.var("argv"), L.var("i")),
                       L.index(L.var("argv"), L.sub(L.var("i"), 1))),
                  [L.assign("unique", L.add(L.var("unique"), 1))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("unique")),
    ]


def _rev_body() -> List[object]:
    return [
        L.decl("buf", L.call("malloc", L.var("argc"))),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.store(L.var("buf"), L.var("i"),
                    L.index(L.var("argv"), L.sub(L.sub(L.var("argc"), 1), L.var("i")))),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.decl("palindrome", 1),
        L.assign("i", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.if_(L.ne(L.index(L.var("buf"), L.var("i")),
                       L.index(L.var("argv"), L.var("i"))),
                  [L.assign("palindrome", 0)]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("palindrome")),
    ]


def _expand_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("column", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("c", L.index(L.var("argv"), L.var("i"))),
            L.if_(L.eq(L.var("c"), ord("\t")), [
                L.assign("column", L.add(L.var("column"),
                                         L.sub(8, L.mod(L.var("column"), 8)))),
            ], [
                L.if_(L.eq(L.var("c"), ord("\n")), [L.assign("column", 0)],
                      [L.assign("column", L.add(L.var("column"), 1))]),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("column")),
    ]


def _expr_body() -> List[object]:
    return [
        # Evaluate "<digit> <op> <digit>" where op is +, -, *, /.
        L.decl("a", L.index(L.var("argv"), 0)),
        L.decl("op", L.index(L.var("argv"), 1)),
        L.decl("b", L.index(L.var("argv"), 2)),
        L.if_(L.lor(L.lt(L.var("a"), ord("0")), L.gt(L.var("a"), ord("9"))),
              [L.ret(255)]),
        L.if_(L.lor(L.lt(L.var("b"), ord("0")), L.gt(L.var("b"), ord("9"))),
              [L.ret(255)]),
        L.decl("x", L.sub(L.var("a"), ord("0"))),
        L.decl("y", L.sub(L.var("b"), ord("0"))),
        L.if_(L.eq(L.var("op"), ord("+")), [L.ret(L.add(L.var("x"), L.var("y")))]),
        L.if_(L.eq(L.var("op"), ord("-")), [L.ret(L.sub(L.var("x"), L.var("y")))]),
        L.if_(L.eq(L.var("op"), ord("*")), [L.ret(L.mul(L.var("x"), L.var("y")))]),
        L.if_(L.eq(L.var("op"), ord("/")), [
            L.if_(L.eq(L.var("y"), 0), [L.ret(254)]),
            L.ret(L.div(L.var("x"), L.var("y"))),
        ]),
        L.ret(255),
    ]


def _yes_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("emitted", 0),
        L.while_(L.lt(L.var("i"), 3),
            L.if_(L.eq(L.index(L.var("argv"), 0), ord("y")),
                  [L.assign("emitted", L.add(L.var("emitted"), 2))],
                  [L.assign("emitted", L.add(L.var("emitted"), 1))]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("emitted")),
    ]


def _od_body() -> List[object]:
    return [
        L.decl("i", 0),
        L.decl("printable", 0),
        L.decl("control", 0),
        L.decl("high", 0),
        L.while_(L.lt(L.var("i"), L.var("argc")),
            L.decl("c", L.index(L.var("argv"), L.var("i"))),
            L.if_(L.lt(L.var("c"), 32), [
                L.assign("control", L.add(L.var("control"), 1)),
            ], [
                L.if_(L.ge(L.var("c"), 127),
                      [L.assign("high", L.add(L.var("high"), 1))],
                      [L.assign("printable", L.add(L.var("printable"), 1))]),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.add(L.var("printable"), L.var("control"))),
    ]


_UTILITIES: Dict[str, Callable[[], List[object]]] = {
    "echo": _echo_body,
    "cat": _cat_body,
    "wc": _wc_body,
    "seq": _seq_body,
    "basename": _basename_body,
    "dirname": _dirname_body,
    "tr": _tr_body,
    "head": _head_body,
    "cut": _cut_body,
    "sort": _sort_body,
    "uniq": _uniq_body,
    "rev": _rev_body,
    "expand": _expand_body,
    "expr": _expr_body,
    "yes": _yes_body,
    "od": _od_body,
}


def utility_names() -> List[str]:
    return sorted(_UTILITIES)


def build_utility_program(name: str,
                          input_size: int = DEFAULT_INPUT_SIZE) -> Program:
    try:
        body_builder = _UTILITIES[name]
    except KeyError:
        raise ValueError("unknown utility %r (have: %s)"
                         % (name, ", ".join(utility_names()))) from None
    return _program(name, body_builder, input_size=input_size)


def make_utility_test(name: str, input_size: int = DEFAULT_INPUT_SIZE,
                      max_instructions: int = 50_000) -> SymbolicTest:
    """A symbolic test for one utility: fully symbolic argv/stdin bytes."""
    return SymbolicTest(
        name="coreutils-%s" % name,
        program=build_utility_program(name, input_size),
        options={"max_instructions": max_instructions},
        use_posix_model=False,
    )
