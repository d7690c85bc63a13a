"""The multi-threaded / multi-process producer-consumer benchmark (§7.1).

"In addition to the testing targets mentioned above, we also tested a
benchmark consisting of a multi-threaded and multi-process producer-consumer
simulation.  The benchmark exercises the entire functionality of the POSIX
model: threads, synchronization, processes, and networking."

Structure of the model:

* the parent process creates a socket pair and ``fork()``s;
* the child (producer process) writes ``N`` items -- one of them symbolic --
  into the socket and exits;
* the parent's main thread reads items from the socket and pushes them into
  a bounded queue protected by a mutex and two condition variables;
* two consumer threads pop items from the queue and accumulate a checksum;
* the parent joins the consumers, ``waitpid``s the child, and asserts that
  every produced item was consumed exactly once.
"""

from __future__ import annotations

from typing import List

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.testing.symbolic_test import SymbolicTest

DEFAULT_ITEMS = 3
QUEUE_CAPACITY = 2

# Shared-state layout (a single shared buffer):
#   [0]          queue count
#   [1]          queue head index
#   [2]          queue tail index
#   [3]          items consumed (total)
#   [4]          checksum of consumed items (mod 256)
#   [5]          producer-done flag
#   [6]          mutex handle
#   [7]          "not full" condition-variable handle
#   [8]          "not empty" condition-variable handle
#   [10..10+cap) queue slots
SHARED_SIZE = 10 + QUEUE_CAPACITY


def build_program(num_items: int = DEFAULT_ITEMS,
                  num_consumers: int = 2,
                  symbolic_items: int = 1) -> Program:
    """Build the producer-consumer benchmark program."""

    # queue_push(shared, mutex, not_full, not_empty, value)
    queue_push = L.func(
        "queue_push", ["shared", "mutex", "not_full", "not_empty", "value"],
        L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
        L.while_(L.ge(L.index(L.var("shared"), 0), QUEUE_CAPACITY),
            L.expr_stmt(L.call("pthread_cond_wait", L.var("not_full"), L.var("mutex"))),
        ),
        L.decl("tail", L.index(L.var("shared"), 2)),
        L.store(L.var("shared"), L.add(10, L.var("tail")), L.var("value")),
        L.store(L.var("shared"), 2, L.mod(L.add(L.var("tail"), 1), QUEUE_CAPACITY)),
        L.store(L.var("shared"), 0, L.add(L.index(L.var("shared"), 0), 1)),
        L.expr_stmt(L.call("pthread_cond_signal", L.var("not_empty"))),
        L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
        L.ret(0),
    )

    # queue_pop(shared, mutex, not_full, not_empty) -> value, or 0xFFFF when
    # the producer is done and the queue drained.
    queue_pop = L.func(
        "queue_pop", ["shared", "mutex", "not_full", "not_empty"],
        L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
        L.while_(L.eq(L.index(L.var("shared"), 0), 0),
            L.if_(L.eq(L.index(L.var("shared"), 5), 1), [
                L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
                L.ret(0xFFFF),
            ]),
            L.expr_stmt(L.call("pthread_cond_wait", L.var("not_empty"), L.var("mutex"))),
        ),
        L.decl("head", L.index(L.var("shared"), 1)),
        L.decl("value", L.index(L.var("shared"), L.add(10, L.var("head")))),
        L.store(L.var("shared"), 1, L.mod(L.add(L.var("head"), 1), QUEUE_CAPACITY)),
        L.store(L.var("shared"), 0, L.sub(L.index(L.var("shared"), 0), 1)),
        L.expr_stmt(L.call("pthread_cond_signal", L.var("not_full"))),
        L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
        L.ret(L.var("value")),
    )

    # consumer(args): args is a pointer to a small block holding the shared
    # buffer address and the synchronization handles (packed as bytes would
    # lose information, so the block stores them as consecutive "slots" via
    # repeated byte writes -- instead we pass the shared address itself and
    # re-derive handles from the shared header where main stored them).
    consumer = L.func(
        "consumer", ["shared"],
        L.decl("mutex", L.index(L.var("shared"), 6)),
        L.decl("not_full", L.index(L.var("shared"), 7)),
        L.decl("not_empty", L.index(L.var("shared"), 8)),
        L.decl("running", 1),
        L.while_(L.eq(L.var("running"), 1),
            L.decl("value", L.call("queue_pop", L.var("shared"), L.var("mutex"),
                                   L.var("not_full"), L.var("not_empty"))),
            L.if_(L.eq(L.var("value"), 0xFFFF), [L.assign("running", 0)], [
                L.store(L.var("shared"), 3, L.add(L.index(L.var("shared"), 3), 1)),
                L.store(L.var("shared"), 4,
                        L.band(L.add(L.index(L.var("shared"), 4), L.var("value")), 0xFF)),
            ]),
        ),
        L.ret(0),
    )

    # producer(fd): runs in the child process, writes items into the socket.
    producer_body: List[object] = [
        L.decl("item", L.call("malloc", 1)),
    ]
    for index in range(num_items):
        if index < symbolic_items:
            producer_body.append(L.decl("sym%d" % index,
                                        L.call("cloud9_symbolic_buffer", 1,
                                               L.strconst("item%d" % index))))
            producer_body.append(L.store(L.var("item"), 0,
                                         L.index(L.var("sym%d" % index), 0)))
        else:
            producer_body.append(L.store(L.var("item"), 0, 10 + index))
        producer_body.append(L.expr_stmt(L.call("write", L.var("fd"),
                                                L.var("item"), 1)))
    producer_body.append(L.expr_stmt(L.call("close", L.var("fd"))))
    producer_body.append(L.expr_stmt(L.call("exit", 0)))
    producer_body.append(L.ret(0))
    producer = L.func("producer", ["fd"], *producer_body)

    main = L.func(
        "main", [],
        # Networking: a socket pair shared with the forked producer.
        L.decl("pair", L.call("malloc", 2)),
        L.expr_stmt(L.call("socketpair", L.var("pair"))),
        L.decl("rx", L.index(L.var("pair"), 0)),
        L.decl("tx", L.index(L.var("pair"), 1)),
        # Shared state for the consumer threads.
        L.decl("shared", L.call("malloc", SHARED_SIZE)),
        L.decl("mutex", L.call("pthread_mutex_init")),
        L.decl("not_full", L.call("pthread_cond_init")),
        L.decl("not_empty", L.call("pthread_cond_init")),
        L.store(L.var("shared"), 6, L.var("mutex")),
        L.store(L.var("shared"), 7, L.var("not_full")),
        L.store(L.var("shared"), 8, L.var("not_empty")),
        # Processes: fork the producer.
        L.decl("child", L.call("fork")),
        L.if_(L.eq(L.var("child"), 0), [
            L.expr_stmt(L.call("producer", L.var("tx"))),
            L.ret(0),
        ]),
        # Threads: start the consumers.
        L.decl("consumers", L.call("malloc", num_consumers)),
        L.decl("c", 0),
        L.while_(L.lt(L.var("c"), num_consumers),
            L.store(L.var("consumers"), L.var("c"),
                    L.call("pthread_create", L.strconst("consumer"), L.var("shared"))),
            L.assign("c", L.add(L.var("c"), 1)),
        ),
        # The parent's main thread pumps items from the socket into the queue.
        L.decl("buf", L.call("malloc", 1)),
        L.decl("received", 0),
        L.while_(L.lt(L.var("received"), num_items),
            L.decl("n", L.call("read", L.var("rx"), L.var("buf"), 1)),
            L.if_(L.le(L.var("n"), 0), [L.break_()]),
            L.expr_stmt(L.call("queue_push", L.var("shared"), L.var("mutex"),
                               L.var("not_full"), L.var("not_empty"),
                               L.index(L.var("buf"), 0))),
            L.assign("received", L.add(L.var("received"), 1)),
        ),
        # Signal completion and wake any waiting consumer.
        L.expr_stmt(L.call("pthread_mutex_lock", L.var("mutex"))),
        L.store(L.var("shared"), 5, 1),
        L.expr_stmt(L.call("pthread_cond_broadcast", L.var("not_empty"))),
        L.expr_stmt(L.call("pthread_mutex_unlock", L.var("mutex"))),
        # Join the consumers, reap the child, check the invariant.
        L.assign("c", 0),
        L.while_(L.lt(L.var("c"), num_consumers),
            L.expr_stmt(L.call("pthread_join", L.index(L.var("consumers"), L.var("c")))),
            L.assign("c", L.add(L.var("c"), 1)),
        ),
        L.decl("child_status", L.call("waitpid", L.var("child"))),
        L.assert_(L.eq(L.index(L.var("shared"), 3), num_items),
                  "every produced item is consumed exactly once"),
        L.ret(L.index(L.var("shared"), 4)),
    )

    return L.program("prodcons", queue_push, queue_pop, consumer, producer, main)


def make_benchmark_test(num_items: int = DEFAULT_ITEMS,
                        num_consumers: int = 2,
                        symbolic_items: int = 1,
                        fork_schedules: bool = False,
                        max_instructions: int = 20_000) -> SymbolicTest:
    """The §7.1 benchmark: threads + synchronization + processes + sockets.

    With ``fork_schedules=True`` the scheduler forks the state at every
    scheduling decision (the "symbolic scheduler" of §5.1), exploring thread
    interleavings as well as input values.
    """
    options = {"max_instructions": max_instructions}
    if fork_schedules:
        options["fork_schedules"] = True
    return SymbolicTest(
        name="producer-consumer",
        program=build_program(num_items, num_consumers, symbolic_items),
        options=options,
    )
