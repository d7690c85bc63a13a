"""A model of the ``printf`` UNIX utility's format-string parser.

The paper uses ``printf`` for the coverage-scaling experiment (Fig. 8) and
the useful-work experiment (Fig. 10) because "printf performs a lot of
parsing of its input (format specifiers), which produces complex constraints
when executed symbolically".  The model reproduces that structure: a
character-by-character scanner over a symbolic format string that recognizes
flags, field width, precision, length modifiers and conversion characters,
plus escape sequences, with distinct handling code per conversion class.
"""

from __future__ import annotations

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

DEFAULT_FORMAT_LENGTH = 5


def build_program() -> Program:
    """The printf model: ``main`` parses a symbolic format string."""

    # classify_conversion(c) -> 1 int-like, 2 unsigned-like, 3 char, 4 string,
    # 5 literal '%', 0 invalid.
    classify_conversion = L.func(
        "classify_conversion", ["c"],
        L.if_(L.lor(L.eq(L.var("c"), ord("d")), L.eq(L.var("c"), ord("i"))),
              [L.ret(1)]),
        L.if_(L.lor(L.eq(L.var("c"), ord("u")),
                    L.lor(L.eq(L.var("c"), ord("x")),
                          L.lor(L.eq(L.var("c"), ord("o")),
                                L.eq(L.var("c"), ord("X"))))),
              [L.ret(2)]),
        L.if_(L.eq(L.var("c"), ord("c")), [L.ret(3)]),
        L.if_(L.eq(L.var("c"), ord("s")), [L.ret(4)]),
        L.if_(L.eq(L.var("c"), ord("%")), [L.ret(5)]),
        L.ret(0),
    )

    is_digit = L.func(
        "is_digit", ["c"],
        L.if_(L.land(L.ge(L.var("c"), ord("0")), L.le(L.var("c"), ord("9"))),
              [L.ret(1)]),
        L.ret(0),
    )

    is_flag = L.func(
        "is_flag", ["c"],
        L.if_(L.eq(L.var("c"), ord("-")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("+")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord(" ")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("#")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("0")), [L.ret(1)]),
        L.ret(0),
    )

    # emit_int(value, base, pad): digit-generation loop whose shape depends on
    # the parsed width, mimicking printf's number formatting code.
    emit_int = L.func(
        "emit_int", ["value", "base", "pad"],
        L.decl("digits", 0),
        L.decl("v", L.var("value")),
        L.while_(L.gt(L.var("v"), 0),
                 L.assign("v", L.div(L.var("v"), L.var("base"))),
                 L.assign("digits", L.add(L.var("digits"), 1))),
        L.if_(L.eq(L.var("digits"), 0), [L.assign("digits", 1)]),
        L.if_(L.gt(L.var("pad"), L.var("digits")),
              [L.ret(L.var("pad"))]),
        L.ret(L.var("digits")),
    )

    # parse_escape(c) -> output length contribution of a backslash escape.
    parse_escape = L.func(
        "parse_escape", ["c"],
        L.if_(L.eq(L.var("c"), ord("n")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("t")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("\\")), [L.ret(1)]),
        L.if_(L.eq(L.var("c"), ord("0")), [L.ret(0)]),
        # Unknown escape: printf prints it verbatim (2 characters).
        L.ret(2),
    )

    # parse_format(fmt, n) -> number of conversions, or a large error marker.
    parse_format = L.func(
        "parse_format", ["fmt", "n"],
        L.decl("i", 0),
        L.decl("conversions", 0),
        L.decl("output", 0),
        L.while_(L.lt(L.var("i"), L.var("n")),
            L.decl("c", L.index(L.var("fmt"), L.var("i"))),
            L.if_(L.eq(L.var("c"), 0), [L.break_()]),
            L.if_(L.eq(L.var("c"), ord("\\")), [
                L.assign("i", L.add(L.var("i"), 1)),
                L.if_(L.ge(L.var("i"), L.var("n")), [L.ret(9999)]),
                L.assign("output", L.add(L.var("output"),
                                         L.call("parse_escape",
                                                L.index(L.var("fmt"), L.var("i"))))),
                L.assign("i", L.add(L.var("i"), 1)),
                L.continue_(),
            ]),
            L.if_(L.ne(L.var("c"), ord("%")), [
                L.assign("output", L.add(L.var("output"), 1)),
                L.assign("i", L.add(L.var("i"), 1)),
                L.continue_(),
            ]),
            # '%' specifier: flags, width, precision, length, conversion.
            L.assign("i", L.add(L.var("i"), 1)),
            L.decl("width", 0),
            L.decl("precision", 0),
            L.decl("zero_pad", 0),
            L.while_(L.land(L.lt(L.var("i"), L.var("n")),
                            L.call("is_flag", L.index(L.var("fmt"), L.var("i")))),
                L.if_(L.eq(L.index(L.var("fmt"), L.var("i")), ord("0")),
                      [L.assign("zero_pad", 1)]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.while_(L.land(L.lt(L.var("i"), L.var("n")),
                            L.call("is_digit", L.index(L.var("fmt"), L.var("i")))),
                L.assign("width", L.add(L.mul(L.var("width"), 10),
                                        L.sub(L.index(L.var("fmt"), L.var("i")), ord("0")))),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.if_(L.land(L.lt(L.var("i"), L.var("n")),
                         L.eq(L.index(L.var("fmt"), L.var("i")), ord("."))), [
                L.assign("i", L.add(L.var("i"), 1)),
                L.while_(L.land(L.lt(L.var("i"), L.var("n")),
                                L.call("is_digit", L.index(L.var("fmt"), L.var("i")))),
                    L.assign("precision", L.add(L.mul(L.var("precision"), 10),
                                                L.sub(L.index(L.var("fmt"), L.var("i")),
                                                      ord("0")))),
                    L.assign("i", L.add(L.var("i"), 1)),
                ),
            ]),
            L.if_(L.land(L.lt(L.var("i"), L.var("n")),
                         L.lor(L.eq(L.index(L.var("fmt"), L.var("i")), ord("l")),
                               L.eq(L.index(L.var("fmt"), L.var("i")), ord("h")))), [
                L.assign("i", L.add(L.var("i"), 1)),
            ]),
            L.if_(L.ge(L.var("i"), L.var("n")), [L.ret(9999)]),
            L.decl("kind", L.call("classify_conversion", L.index(L.var("fmt"), L.var("i")))),
            L.if_(L.eq(L.var("kind"), 0), [L.ret(9999)]),
            L.if_(L.eq(L.var("kind"), 1), [
                L.assign("output", L.add(L.var("output"),
                                         L.call("emit_int", 42, 10, L.var("width")))),
            ]),
            L.if_(L.eq(L.var("kind"), 2), [
                L.assign("output", L.add(L.var("output"),
                                         L.call("emit_int", 42, 16, L.var("width")))),
            ]),
            L.if_(L.eq(L.var("kind"), 3), [
                L.assign("output", L.add(L.var("output"), 1)),
            ]),
            L.if_(L.eq(L.var("kind"), 4), [
                L.decl("len", 5),
                L.if_(L.land(L.gt(L.var("precision"), 0),
                             L.lt(L.var("precision"), 5)),
                      [L.assign("len", L.var("precision"))]),
                L.assign("output", L.add(L.var("output"), L.var("len"))),
            ]),
            L.if_(L.eq(L.var("kind"), 5), [
                L.assign("output", L.add(L.var("output"), 1)),
            ]),
            L.if_(L.ne(L.var("kind"), 5), [
                L.assign("conversions", L.add(L.var("conversions"), 1)),
            ]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("conversions")),
    )

    main = L.func(
        "main", [],
        L.decl("fmt", L.call("cloud9_symbolic_buffer", L.const(DEFAULT_FORMAT_LENGTH),
                             L.strconst("format"))),
        L.decl("result", L.call("parse_format", L.var("fmt"),
                                L.const(DEFAULT_FORMAT_LENGTH))),
        L.ret(L.var("result")),
    )

    return L.program("printf", classify_conversion, is_digit, is_flag, emit_int,
                     parse_escape, parse_format, main)


def build_program_with_length(format_length: int) -> Program:
    """Same model with a caller-chosen symbolic format length."""
    program = build_program()
    main = L.func(
        "main", [],
        L.decl("fmt", L.call("cloud9_symbolic_buffer", L.const(format_length),
                             L.strconst("format"))),
        L.decl("result", L.call("parse_format", L.var("fmt"),
                                L.const(format_length))),
        L.ret(L.var("result")),
    )
    functions = [fn for name, fn in sorted(program.functions.items()) if name != "main"]
    return L.program("printf", *functions, main)


def make_symbolic_test(format_length: int = DEFAULT_FORMAT_LENGTH,
                       max_instructions: int = 200_000) -> SymbolicTest:
    """The Fig. 8 / Fig. 10 workload: a fully symbolic format string."""
    return SymbolicTest(
        name="printf-symbolic-format",
        program=build_program_with_length(format_length),
        options={"max_instructions": max_instructions},
        use_posix_model=False,
    )
