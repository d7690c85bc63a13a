"""A model of the ``test`` (``[``) UNIX utility.

Used together with ``printf`` in the useful-work scalability experiment
(Fig. 10).  The model evaluates a small expression language over a symbolic
argument vector: unary string/file predicates (``-n``, ``-z``, ``-e``,
``-f``, ``-d``), string equality/inequality and integer comparisons
(``-eq``, ``-ne``, ``-gt``, ``-lt``, ``-ge``, ``-le``), with the same
kind of token-classification branching the real utility performs.

The symbolic "argv" is encoded as a flat byte buffer of three
fixed-width slots (operator / operand / operand), which keeps the model
self-contained while preserving the branching structure.
"""

from __future__ import annotations

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.engine.config import EngineConfig
from repro.testing.symbolic_test import SymbolicTest

# Layout of the symbolic argv buffer: 3 slots of 4 bytes each.
SLOT_SIZE = 4
SLOT_COUNT = 3


def build_program() -> Program:
    # parse_int(buf, base_off) -> value of a single decimal digit, or 255 on
    # a non-digit (the utility's "integer expression expected" error path).
    parse_int = L.func(
        "parse_int", ["argv", "base"],
        L.decl("c0", L.index(L.var("argv"), L.var("base"))),
        L.if_(L.lor(L.lt(L.var("c0"), ord("0")), L.gt(L.var("c0"), ord("9"))),
              [L.ret(255)]),
        L.ret(L.sub(L.var("c0"), ord("0"))),
    )

    # classify_operator(argv) -> 1..8 for the recognized binary operators
    # encoded in slot 1 ('=', '!', plus -eq/-ne/-gt/-lt/-ge/-le spelled as
    # '-' followed by the distinguishing letter), 0 otherwise.
    classify_operator = L.func(
        "classify_operator", ["argv"],
        L.decl("c0", L.index(L.var("argv"), SLOT_SIZE)),
        L.decl("c1", L.index(L.var("argv"), SLOT_SIZE + 1)),
        L.if_(L.eq(L.var("c0"), ord("=")), [L.ret(1)]),
        L.if_(L.land(L.eq(L.var("c0"), ord("!")), L.eq(L.var("c1"), ord("="))),
              [L.ret(2)]),
        L.if_(L.eq(L.var("c0"), ord("-")), [
            L.if_(L.eq(L.var("c1"), ord("e")), [L.ret(3)]),   # -eq
            L.if_(L.eq(L.var("c1"), ord("n")), [L.ret(4)]),   # -ne
            L.if_(L.eq(L.var("c1"), ord("g")), [
                L.decl("c2", L.index(L.var("argv"), SLOT_SIZE + 2)),
                L.if_(L.eq(L.var("c2"), ord("e")), [L.ret(7)]),   # -ge
                L.ret(5),                                          # -gt
            ]),
            L.if_(L.eq(L.var("c1"), ord("l")), [
                L.decl("c2", L.index(L.var("argv"), SLOT_SIZE + 2)),
                L.if_(L.eq(L.var("c2"), ord("e")), [L.ret(8)]),   # -le
                L.ret(6),                                          # -lt
            ]),
        ]),
        L.ret(0),
    )

    # unary_test(argv) -> 0/1 for -n/-z/-e style predicates on slot 2.
    unary_test = L.func(
        "unary_test", ["argv", "kind"],
        L.decl("first", L.index(L.var("argv"), 2 * SLOT_SIZE)),
        L.if_(L.eq(L.var("kind"), ord("n")),
              [L.ret(L.ne(L.var("first"), 0))]),
        L.if_(L.eq(L.var("kind"), ord("z")),
              [L.ret(L.eq(L.var("first"), 0))]),
        L.if_(L.eq(L.var("kind"), ord("e")),
              [L.ret(L.eq(L.var("first"), ord("/")))]),
        L.if_(L.eq(L.var("kind"), ord("f")),
              [L.ret(L.eq(L.var("first"), ord("f")))]),
        L.if_(L.eq(L.var("kind"), ord("d")),
              [L.ret(L.eq(L.var("first"), ord("d")))]),
        L.ret(2),   # unknown unary operator
    )

    string_equal = L.func(
        "string_equal", ["argv"],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), 2),
            L.decl("a", L.index(L.var("argv"), L.var("i"))),
            L.decl("b", L.index(L.var("argv"), L.add(2 * SLOT_SIZE, L.var("i")))),
            L.if_(L.ne(L.var("a"), L.var("b")), [L.ret(0)]),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(1),
    )

    evaluate = L.func(
        "evaluate", ["argv"],
        L.decl("first", L.index(L.var("argv"), 0)),
        # Unary form: "-X operand" (operator in slot 0).
        L.if_(L.eq(L.var("first"), ord("-")), [
            L.ret(L.call("unary_test", L.var("argv"),
                         L.index(L.var("argv"), 1))),
        ]),
        # Binary form: "operand OP operand".
        L.decl("op", L.call("classify_operator", L.var("argv"))),
        L.if_(L.eq(L.var("op"), 0), [L.ret(2)]),
        L.if_(L.eq(L.var("op"), 1), [L.ret(L.call("string_equal", L.var("argv")))]),
        L.if_(L.eq(L.var("op"), 2), [
            L.ret(L.sub(1, L.call("string_equal", L.var("argv")))),
        ]),
        # Numeric comparisons.
        L.decl("lhs", L.call("parse_int", L.var("argv"), 0)),
        L.decl("rhs", L.call("parse_int", L.var("argv"), 2 * SLOT_SIZE)),
        L.if_(L.lor(L.eq(L.var("lhs"), 255), L.eq(L.var("rhs"), 255)), [L.ret(2)]),
        L.if_(L.eq(L.var("op"), 3), [L.ret(L.eq(L.var("lhs"), L.var("rhs")))]),
        L.if_(L.eq(L.var("op"), 4), [L.ret(L.ne(L.var("lhs"), L.var("rhs")))]),
        L.if_(L.eq(L.var("op"), 5), [L.ret(L.gt(L.var("lhs"), L.var("rhs")))]),
        L.if_(L.eq(L.var("op"), 6), [L.ret(L.lt(L.var("lhs"), L.var("rhs")))]),
        L.if_(L.eq(L.var("op"), 7), [L.ret(L.ge(L.var("lhs"), L.var("rhs")))]),
        L.if_(L.eq(L.var("op"), 8), [L.ret(L.le(L.var("lhs"), L.var("rhs")))]),
        L.ret(2),
    )

    main = L.func(
        "main", [],
        L.decl("argv", L.call("cloud9_symbolic_buffer",
                              L.const(SLOT_SIZE * SLOT_COUNT),
                              L.strconst("argv"))),
        L.ret(L.call("evaluate", L.var("argv"))),
    )

    return L.program("testcmd", parse_int, classify_operator, unary_test,
                     string_equal, evaluate, main)


def make_symbolic_test(max_instructions: int = 100_000) -> SymbolicTest:
    """The Fig. 10 workload: fully symbolic ``test`` arguments."""
    return SymbolicTest(
        name="test-symbolic-argv",
        program=build_program(),
        engine_config=EngineConfig(max_instructions_per_path=max_instructions),
        use_posix_model=False,
    )
