"""A model of the Bandicoot DBMS GET handler (§7.3.5).

Bandicoot is a lightweight DBMS accessed over HTTP.  Exhaustively exploring
the paths that handle GET commands, Cloud9 found "a bug in which Bandicoot
reads from outside its allocated memory": the particular run did not crash
(the read landed in the allocator's metadata), but the read data was wrong
and the bug could crash depending on allocation layout.

The model parses a GET request of the form ``GET /<relation>?n=<count>``
against a fixed catalogue of relations.  The handler trusts the
client-supplied ``count`` when iterating over the relation's tuples, so a
count larger than the relation's cardinality walks past the end of the
relation's buffer -- an out-of-bounds read the engine reports as a memory
error.  Exhaustive exploration of the symbolic query string finds it.
"""

from __future__ import annotations

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

# Catalogue layout: two relations, each a byte array of tuples.
RELATION_A_TUPLES = 4
RELATION_B_TUPLES = 2
QUERY_LENGTH = 6     # "/x?n=Y" -- relation letter, count digit, padding


def build_program(query_length: int = QUERY_LENGTH) -> Program:
    # catalogue_init() -> pointer to two relations laid out back to back is
    # deliberately avoided: each relation is its own allocation so that an
    # overrun is an out-of-bounds access rather than a silent read of the
    # neighbouring relation.
    relation_init = L.func(
        "relation_init", ["tuples"],
        L.decl("rel", L.call("malloc", L.var("tuples"))),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), L.var("tuples")),
            L.store(L.var("rel"), L.var("i"), L.add(L.var("i"), 1)),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("rel")),
    )

    # sum_tuples(rel, count): the handler's scan; no bounds check on count.
    sum_tuples = L.func(
        "sum_tuples", ["rel", "count"],
        L.decl("i", 0),
        L.decl("total", 0),
        L.while_(L.lt(L.var("i"), L.var("count")),
            L.assign("total", L.add(L.var("total"),
                                    L.index(L.var("rel"), L.var("i")))),
            L.assign("i", L.add(L.var("i"), 1)),
        ),
        L.ret(L.var("total")),
    )

    # handle_get(query, n) -> response code.
    handle_get = L.func(
        "handle_get", ["query", "n"],
        L.if_(L.lt(L.var("n"), 5), [L.ret(400)]),
        L.if_(L.ne(L.index(L.var("query"), 0), ord("/")), [L.ret(400)]),
        L.decl("relname", L.index(L.var("query"), 1)),
        L.if_(L.ne(L.index(L.var("query"), 2), ord("?")), [L.ret(400)]),
        L.if_(L.ne(L.index(L.var("query"), 3), ord("n")), [L.ret(400)]),
        L.decl("digit", L.index(L.var("query"), 4)),
        L.if_(L.lor(L.lt(L.var("digit"), ord("0")), L.gt(L.var("digit"), ord("9"))),
              [L.ret(400)]),
        L.decl("count", L.sub(L.var("digit"), ord("0"))),
        L.if_(L.eq(L.var("relname"), ord("a")), [
            L.decl("rel_a", L.call("relation_init", RELATION_A_TUPLES)),
            # BUG: count comes straight from the request; counts above the
            # relation's cardinality read past the end of the allocation.
            L.decl("total_a", L.call("sum_tuples", L.var("rel_a"), L.var("count"))),
            L.ret(200),
        ]),
        L.if_(L.eq(L.var("relname"), ord("b")), [
            L.decl("rel_b", L.call("relation_init", RELATION_B_TUPLES)),
            L.decl("total_b", L.call("sum_tuples", L.var("rel_b"), L.var("count"))),
            L.ret(200),
        ]),
        L.ret(404),
    )

    main = L.func(
        "main", [],
        L.decl("query", L.call("cloud9_symbolic_buffer", L.const(query_length),
                               L.strconst("query"))),
        L.decl("code", L.call("handle_get", L.var("query"), L.const(query_length))),
        L.ret(L.var("code")),
    )

    return L.program("bandicoot", relation_init, sum_tuples, handle_get, main)


def make_get_exploration_test(query_length: int = QUERY_LENGTH,
                              max_instructions: int = 20_000) -> SymbolicTest:
    """The §7.3.5 workload: exhaustively explore GET handling."""
    return SymbolicTest(
        name="bandicoot-get",
        program=build_program(query_length),
        options={"max_instructions": max_instructions},
        use_posix_model=False,
    )
