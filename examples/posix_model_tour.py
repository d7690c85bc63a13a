#!/usr/bin/env python3
"""A tour of the symbolic POSIX environment model (paper §4).

The program below is a miniature multi-process pipeline that touches most of
the modeled environment in one run:

* the parent creates a System V shared-memory segment and ``fork()``s;
* the child ``mmap``s the shared "spool" file, copies a configuration value
  read from an environment variable into it, posts a message on a System V
  message queue and exits;
* the parent receives the message, waits for the child, checks the file
  contents the child flushed with ``msync``, and reports how much virtual
  time the whole exchange took.

One byte of the configuration value is symbolic, so the run explores the
branch structure of the parent's final check -- demonstrating that symbolic
data flows across processes, IPC objects, memory mappings and files.

Run with:  python examples/posix_model_tour.py
"""

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.posix.api import add_concrete_file
from repro.posix.env import add_symbolic_env_var
from repro.testing.symbolic_test import SymbolicTest

IPC_CREAT = 0x200
MAP_SHARED = 0x01
PROT_RW = 0x3


def build_program() -> Program:
    child = L.func(
        "child_work", ["qid"],
        # Map the spool file shared, copy the MODE env value into it.
        L.decl("fd", L.call("open", L.strconst("/spool"), 0)),
        L.decl("map", L.call("mmap", 0, 4, PROT_RW, MAP_SHARED, L.var("fd"), 0)),
        L.decl("mode", L.call("getenv", L.strconst("MODE"))),
        L.store(L.var("map"), 0, L.index(L.var("mode"), 0)),
        L.expr_stmt(L.call("msync", L.var("map"), 4, 0)),
        # Tell the parent we are done, then exit.
        L.expr_stmt(L.call("msgsnd", L.var("qid"), 1, L.strconst("ok"), 2, 0)),
        L.expr_stmt(L.call("exit", 0)),
        L.ret(0),
    )

    main = L.func(
        "main", [],
        L.decl("qid", L.call("msgget", 7, IPC_CREAT)),
        L.decl("shm", L.call("shmget", 9, 4, IPC_CREAT)),
        L.decl("counter", L.call("shmat", L.var("shm"))),
        L.store(L.var("counter"), 0, 1),
        L.decl("t0", L.call("time", 0)),
        L.decl("pid", L.call("fork")),
        L.if_(L.eq(L.var("pid"), 0), [
            L.expr_stmt(L.call("child_work", L.var("qid"))),
        ]),
        # Parent: wait for the child's message, then for the child itself.
        L.decl("buf", L.call("malloc", 4)),
        L.expr_stmt(L.call("msgrcv", L.var("qid"), L.var("buf"), 4, 0, 0)),
        L.expr_stmt(L.call("waitpid", L.var("pid"))),
        L.decl("t1", L.call("time", 0)),
        # Read back what the child flushed into the spool file.
        L.decl("fd", L.call("open", L.strconst("/spool"), 0)),
        L.decl("out", L.call("malloc", 1)),
        L.expr_stmt(L.call("read", L.var("fd"), L.var("out"), 1)),
        L.assert_(L.ge(L.var("t1"), L.var("t0")), "virtual clock went backwards"),
        L.assert_(L.eq(L.index(L.var("buf"), 0), ord("o")),
                  "unexpected message from the child"),
        # Branch on the (symbolic) configuration byte the child forwarded.
        L.if_(L.eq(L.index(L.var("out"), 0), ord("f")), [L.ret(1)]),
        L.if_(L.eq(L.index(L.var("out"), 0), ord("s")), [L.ret(2)]),
        L.ret(3),
    )
    return L.program("posix-tour", child, main)


def setup(state) -> None:
    add_concrete_file(state, "/spool", b"....")
    add_symbolic_env_var(state, "MODE", size=1, label="mode")


def main() -> None:
    test = SymbolicTest("posix-model-tour", build_program(), setup=setup)
    result = test.run()
    print("paths explored:  %d" % result.paths_completed)
    print("bugs found:      %d" % len(result.bugs))
    for case in sorted(result.test_cases, key=lambda c: (c.exit_code or 0)):
        print("  MODE=%-6r -> exit %s"
              % (case.input_bytes("mode"), case.exit_code))
    print()
    print("The same symbolic test, on a 3-worker cluster:")
    cluster = test.run(backend="cluster", workers=3, instructions_per_round=200)
    print("paths explored:  %d (rounds: %d, states transferred: %d)"
          % (cluster.paths_completed, cluster.rounds_executed,
             cluster.states_transferred))


if __name__ == "__main__":
    main()
