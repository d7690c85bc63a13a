"""Shared fixtures and helper programs for the test suite."""

from __future__ import annotations

import os

# The one trace-schema check: every record any test emits is held to
# repro.obs.schema.  Set before repro is imported so forked worker
# processes and spawned TCP agents inherit it.
os.environ["REPRO_TRACE_VALIDATE"] = "1"

import gc
import multiprocessing
import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import settings

from repro.lang import builder as L
from repro.lang.ast import Program
from repro.distrib import specs
from repro.engine.config import EngineConfig
from repro.engine.executor import SymbolicExecutor
from repro.posix.model import install_posix_model

# One hypothesis profile for every property test: the same examples on every
# run and every machine (a CI failure reproduces locally), no example
# database, and no per-example deadline (solver-heavy examples vary in time).
# Each test sets only its own max_examples.
settings.register_profile("repro", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("repro")

#: The stock specs, listed before any test module registers its own.
BUILTIN_SPECS = specs.available_specs()


def wait_until(predicate, timeout=5.0, what="condition"):
    """Poll ``predicate`` until it holds, failing with ``what`` after
    ``timeout`` seconds.  A test that needs an event waits for that event,
    bounded, never for a fixed time that a loaded machine can outrun."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError("timed out waiting for %s" % what)
        time.sleep(0.01)


def _cluster_processes():
    """The live worker processes and TCP agents (reaping the dead ones)."""
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("cloud9-worker-") or p.name == "cloud9-agent"]


def pytest_sessionfinish(session):
    """No worker process outlives the suite.  A run reaps its members when
    it ends, so one still alive after a bounded wait was leaked: the session
    fails naming it, and it is killed."""
    try:
        wait_until(lambda: not _cluster_processes(), timeout=10.0,
                   what="worker processes to exit")
    except AssertionError:
        leaked = _cluster_processes()
        for process in leaked:
            process.kill()
            process.join(5.0)
        if leaked:
            names = ", ".join("%s (pid %s)" % (p.name, p.pid) for p in leaked)
            reporter = session.config.pluginmanager.get_plugin(
                "terminalreporter")
            if reporter is not None:
                reporter.write_line("")
                reporter.write_sep("=", "worker processes outlived the suite",
                                   red=True)
                reporter.write_line(names)
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


@contextmanager
def python_calls(by_code: bool = False):
    """Count the Python-level calls made inside the block, per source file,
    or per code object with ``by_code`` (``sum(calls.values())`` is all of
    them either way).  Calls repeat exactly between
    runs that start from the same state, including the same live nodes in
    the expression intern table (a node still alive is not built again), so
    a cost pinned this way holds on a noisy runner.

    The cycle collector is run before the block and held off inside it: a
    collection frees interned nodes, and each freed node is a Python-level
    call into the table, at a point set by allocation counts rather than by
    the code under test."""
    calls: Counter = Counter()

    def on_event(frame, event, arg):
        if event == "call":
            calls[frame.f_code if by_code else frame.f_code.co_filename] += 1

    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        yield calls
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()


def branchy_program(buffer_size: int = 3) -> Program:
    """A small program with 3^buffer_size paths over a symbolic buffer."""
    return L.program(
        "branchy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", buffer_size,
                                 L.strconst("input"))),
            L.decl("i", 0),
            L.decl("acc", 0),
            L.while_(L.lt(L.var("i"), buffer_size),
                L.decl("c", L.index(L.var("buf"), L.var("i"))),
                L.if_(L.eq(L.var("c"), ord("A")),
                      [L.assign("acc", L.add(L.var("acc"), 1))],
                      [L.if_(L.eq(L.var("c"), ord("B")),
                             [L.assign("acc", L.add(L.var("acc"), 2))])]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.ret(L.var("acc")),
        ),
    )


def single_branch_program() -> Program:
    """Two paths: the first symbolic byte is either '!' or not."""
    return L.program(
        "single_branch",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1, L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")), [L.ret(1)], [L.ret(0)]),
        ),
    )


def make_executor(program: Program, posix: bool = False,
                  config: EngineConfig = None) -> SymbolicExecutor:
    installers = [install_posix_model] if posix else []
    return SymbolicExecutor(program, config=config,
                            environment_installers=installers)


@pytest.fixture
def branchy():
    return branchy_program()


@pytest.fixture
def single_branch():
    return single_branch_program()
