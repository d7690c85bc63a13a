"""A model of libevent's event-notification core (Table 4, 10.2 KLOC).

libevent multiplexes callbacks over file descriptors: callers register
``(fd, callback)`` pairs with an event base and ``event_dispatch`` invokes
the callbacks whose descriptors become ready, as reported by the polling
backend (``select`` in the model, as in the paper's POSIX model).

The model keeps that structure:

* an *event table* of registered events (descriptor, callback id, pending
  flag, dispatch count);
* ``event_dispatch`` repeatedly polls the registered descriptors with the
  modeled ``select`` and invokes the matching handler for every ready one,
  until a full poll round finds nothing ready;
* two handlers drain one pipe each and tally what they read.

The test driver writes one symbolic byte into the first pipe and -- only for
half of the input space -- a second byte into the second pipe, so whether the
second callback runs at all depends on symbolic input.  Path assertions check
the dispatcher's core invariants: a callback never runs for an empty
descriptor, and every written byte is delivered to exactly one callback.
"""

from __future__ import annotations

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

MAX_EVENTS = 4

# Event-table layout: 4 bytes per event in the arena.
EV_FD = 0
EV_CALLBACK = 1
EV_ACTIVE = 2
EV_CALLS = 3
EV_RECORD = 4

# Arena layout.
A_NUM_EVENTS = 0
A_TOTAL_DISPATCHED = 1
A_BYTES_A = 2          # bytes delivered to handler A
A_BYTES_B = 3          # bytes delivered to handler B
A_EVENTS = 4           # event records start here
ARENA_SIZE = A_EVENTS + MAX_EVENTS * EV_RECORD


def build_program(symbolic_trigger: bool = True) -> Program:
    """Build the libevent model with its two-pipe test driver."""

    # event_add(arena, fd, callback_id) -> slot index.
    event_add = L.func(
        "event_add", ["arena", "fd", "callback"],
        L.decl("slot", L.index(L.var("arena"), A_NUM_EVENTS)),
        L.if_(L.ge(L.var("slot"), MAX_EVENTS), [L.ret(255)]),
        L.decl("base", L.add(A_EVENTS, L.mul(L.var("slot"), EV_RECORD))),
        L.store(L.var("arena"), L.add(L.var("base"), EV_FD), L.var("fd")),
        L.store(L.var("arena"), L.add(L.var("base"), EV_CALLBACK), L.var("callback")),
        L.store(L.var("arena"), L.add(L.var("base"), EV_ACTIVE), 1),
        L.store(L.var("arena"), L.add(L.var("base"), EV_CALLS), 0),
        L.store(L.var("arena"), A_NUM_EVENTS, L.add(L.var("slot"), 1)),
        L.ret(L.var("slot")),
    )

    # event_del(arena, slot): deactivate one registration.
    event_del = L.func(
        "event_del", ["arena", "slot"],
        L.decl("base", L.add(A_EVENTS, L.mul(L.var("slot"), EV_RECORD))),
        L.store(L.var("arena"), L.add(L.var("base"), EV_ACTIVE), 0),
        L.ret(0),
    )

    # handler_a(arena, fd) / handler_b(arena, fd): drain one byte and tally it.
    handler_a = L.func(
        "handler_a", ["arena", "fd"],
        L.decl("buf", L.call("malloc", 1)),
        L.decl("n", L.call("read", L.var("fd"), L.var("buf"), 1)),
        L.assert_(L.eq(L.var("n"), 1), "handler A dispatched on an empty fd"),
        L.store(L.var("arena"), A_BYTES_A,
                L.add(L.index(L.var("arena"), A_BYTES_A), L.var("n"))),
        L.ret(L.var("n")),
    )

    handler_b = L.func(
        "handler_b", ["arena", "fd"],
        L.decl("buf", L.call("malloc", 1)),
        L.decl("n", L.call("read", L.var("fd"), L.var("buf"), 1)),
        L.assert_(L.eq(L.var("n"), 1), "handler B dispatched on an empty fd"),
        L.store(L.var("arena"), A_BYTES_B,
                L.add(L.index(L.var("arena"), A_BYTES_B), L.var("n"))),
        L.ret(L.var("n")),
    )

    # invoke(arena, slot): call the slot's handler and bump its counters.
    invoke = L.func(
        "invoke", ["arena", "slot"],
        L.decl("base", L.add(A_EVENTS, L.mul(L.var("slot"), EV_RECORD))),
        L.decl("fd", L.index(L.var("arena"), L.add(L.var("base"), EV_FD))),
        L.decl("cb", L.index(L.var("arena"), L.add(L.var("base"), EV_CALLBACK))),
        L.if_(L.eq(L.var("cb"), 1),
              [L.expr_stmt(L.call("handler_a", L.var("arena"), L.var("fd")))]),
        L.if_(L.eq(L.var("cb"), 2),
              [L.expr_stmt(L.call("handler_b", L.var("arena"), L.var("fd")))]),
        L.store(L.var("arena"), L.add(L.var("base"), EV_CALLS),
                L.add(L.index(L.var("arena"), L.add(L.var("base"), EV_CALLS)), 1)),
        L.store(L.var("arena"), A_TOTAL_DISPATCHED,
                L.add(L.index(L.var("arena"), A_TOTAL_DISPATCHED), 1)),
        L.ret(0),
    )

    # event_dispatch(arena) -> total number of callbacks invoked.
    #
    # Repeatedly polls the active descriptors; a poll round that finds nothing
    # ready ends the loop (the driver has no timers, so nothing new can
    # arrive once the pipes are drained).
    event_dispatch = L.func(
        "event_dispatch", ["arena"],
        L.decl("progress", 1),
        L.while_(L.var("progress"),
            L.assign("progress", 0),
            L.decl("count", L.index(L.var("arena"), A_NUM_EVENTS)),
            L.decl("fds", L.call("malloc", MAX_EVENTS)),
            L.decl("slots", L.call("malloc", MAX_EVENTS)),
            L.decl("n", 0),
            L.decl("s", 0),
            L.while_(L.lt(L.var("s"), L.var("count")),
                L.decl("base", L.add(A_EVENTS, L.mul(L.var("s"), EV_RECORD))),
                L.if_(L.index(L.var("arena"), L.add(L.var("base"), EV_ACTIVE)), [
                    L.store(L.var("fds"), L.var("n"),
                            L.index(L.var("arena"), L.add(L.var("base"), EV_FD))),
                    L.store(L.var("slots"), L.var("n"), L.var("s")),
                    L.assign("n", L.add(L.var("n"), 1)),
                ]),
                L.assign("s", L.add(L.var("s"), 1)),
            ),
            L.if_(L.eq(L.var("n"), 0), [L.break_()]),
            # timeout == 0: poll without blocking.
            L.decl("mask", L.call("select", L.var("fds"), L.var("n"), 0, 0, 0)),
            L.decl("i", 0),
            L.while_(L.lt(L.var("i"), L.var("n")),
                L.if_(L.band(L.shr(L.var("mask"), L.var("i")), 1), [
                    L.expr_stmt(L.call("invoke", L.var("arena"),
                                       L.index(L.var("slots"), L.var("i")))),
                    L.assign("progress", 1),
                ]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
        ),
        L.ret(L.index(L.var("arena"), A_TOTAL_DISPATCHED)),
    )

    # main: two pipes, two registered events, a driver that conditionally
    # writes to the second pipe, then the dispatch loop plus invariants.
    body = [
        L.decl("arena", L.call("malloc", ARENA_SIZE)),
        L.decl("pipe_a", L.call("malloc", 2)),
        L.decl("pipe_b", L.call("malloc", 2)),
        L.expr_stmt(L.call("pipe", L.var("pipe_a"))),
        L.expr_stmt(L.call("pipe", L.var("pipe_b"))),
        L.decl("a_read", L.index(L.var("pipe_a"), 0)),
        L.decl("a_write", L.index(L.var("pipe_a"), 1)),
        L.decl("b_read", L.index(L.var("pipe_b"), 0)),
        L.decl("b_write", L.index(L.var("pipe_b"), 1)),
        L.expr_stmt(L.call("event_add", L.var("arena"), L.var("a_read"), 1)),
        L.expr_stmt(L.call("event_add", L.var("arena"), L.var("b_read"), 2)),
    ]
    if symbolic_trigger:
        body += [
            L.decl("data", L.call("cloud9_symbolic_buffer", 1, L.strconst("event"))),
            L.decl("expected_b", 0),
            L.expr_stmt(L.call("write", L.var("a_write"), L.var("data"), 1)),
            # Only inputs whose low bit is set also trigger the second event.
            L.if_(L.band(L.index(L.var("data"), 0), 1), [
                L.expr_stmt(L.call("write", L.var("b_write"), L.var("data"), 1)),
                L.assign("expected_b", 1),
            ]),
        ]
    else:
        body += [
            L.decl("data", L.strconst("x")),
            L.decl("expected_b", 1),
            L.expr_stmt(L.call("write", L.var("a_write"), L.var("data"), 1)),
            L.expr_stmt(L.call("write", L.var("b_write"), L.var("data"), 1)),
        ]
    body += [
        L.decl("dispatched", L.call("event_dispatch", L.var("arena"))),
        # Invariants: handler A saw exactly the byte written to pipe A, and
        # handler B ran exactly when the driver wrote to pipe B.
        L.assert_(L.eq(L.index(L.var("arena"), A_BYTES_A), 1),
                  "handler A did not consume exactly one byte"),
        L.assert_(L.eq(L.index(L.var("arena"), A_BYTES_B), L.var("expected_b")),
                  "handler B dispatch count does not match the driver"),
        L.assert_(L.eq(L.var("dispatched"),
                       L.add(1, L.var("expected_b"))),
                  "total dispatch count is wrong"),
        L.expr_stmt(L.call("event_del", L.var("arena"), 0)),
        L.expr_stmt(L.call("event_del", L.var("arena"), 1)),
        L.ret(L.var("dispatched")),
    ]
    main = L.func("main", [], *body)

    return L.program("libevent", event_add, event_del, handler_a, handler_b,
                     invoke, event_dispatch, main)


def make_concrete_test() -> SymbolicTest:
    """Both pipes written concretely: a single deterministic dispatch path."""
    return SymbolicTest(name="libevent-concrete",
                        program=build_program(symbolic_trigger=False))


def make_symbolic_test(max_instructions: int = 200_000) -> SymbolicTest:
    """Symbolic trigger byte: the set of fired events depends on the input."""
    return SymbolicTest(
        name="libevent-symbolic-trigger",
        program=build_program(symbolic_trigger=True),
        options={"max_instructions": max_instructions},
    )
