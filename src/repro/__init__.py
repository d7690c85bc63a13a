"""Cloud9 reproduction: parallel symbolic execution for automated software testing.

This package reproduces the system described in "Parallel Symbolic Execution
for Automated Real-World Software Testing" (Bucur, Ureche, Zamfir, Candea --
EuroSys 2011) as a pure-Python library:

* :mod:`repro.solver`  -- bitvector constraint solving substrate.
* :mod:`repro.lang`    -- the small imperative language of programs under test.
* :mod:`repro.engine`  -- the single-node symbolic execution engine (KLEE analogue).
* :mod:`repro.posix`   -- the symbolic POSIX environment model (§4).
* :mod:`repro.cluster` -- cluster-parallel exploration with dynamic load
  balancing (§3), the paper's core contribution.
* :mod:`repro.distrib` -- the same protocol across worker processes (real
  cores): path-encoded job shipping between private engines.
* :mod:`repro.testing` -- the symbolic-test platform API (§5): one
  ``SymbolicTest.run`` over five fixed backends.
* :mod:`repro.api`     -- :mod:`repro.api.result`, the result type's
  public path for the benchmark harness.
* :mod:`repro.targets` -- models of the real-world systems evaluated in §7
  (memcached, lighttpd, printf, test, curl, Coreutils, Bandicoot, and a
  producer-consumer benchmark).

Quickstart -- the same symbolic test scales transparently from one engine to
a cluster, which is the paper's core pitch.  Every name is imported from
the module that defines it; no package re-exports one::

    from repro.lang import builder as L
    from repro.testing.symbolic_test import SymbolicTest

    program = L.program("demo",
        L.func("main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 2, L.strconst("input"))),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")), [L.ret(1)], [L.ret(0)]),
        ),
    )
    test = SymbolicTest("demo", program)
    print(test.run().paths_completed)                       # one engine: 2 paths
    print(test.run(backend="cluster", workers=4).paths_completed)

Every backend (``"single"``, ``"cluster"``, ``"static"``, ``"process"``,
``"tcp"``) accepts the same :class:`~repro.engine.limits.ExplorationLimits`
-- either as a ``limits=`` bundle or as direct kwargs -- and returns the
same :class:`~repro.engine.result.RunResult`::

    from repro.engine.limits import ExplorationLimits

    limits = ExplorationLimits(max_paths=100, stop_on_first_bug=True)
    for backend in ("single", "cluster"):
        result = test.run(backend=backend, limits=limits)
        print(backend, result.paths_completed, result.coverage_percent)

A batch of tests (or one test across a grid of configurations) is a loop
over ``test.run``::

    results = {workers: test.run(backend="cluster", workers=workers,
                                 max_rounds=50)
               for workers in (1, 2, 4, 8)}
    for workers, result in results.items():
        print(workers, result.rounds_executed, result.paths_completed)
"""

__version__ = "0.2.0"
