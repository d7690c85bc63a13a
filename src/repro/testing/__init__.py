"""The symbolic testing platform (paper §5).

A :class:`SymbolicTest` packages a program under test together with the
environment setup (symbolic data, files, network conditions, fault injection,
scheduler policy, instruction limits) and can then be run either on a single
engine ("1-worker Cloud9", i.e. plain KLEE) or on a cluster of any
size, all through :meth:`SymbolicTest.run(backend=...) <SymbolicTest.run>`.
A batch of tests is a loop over ``test.run``; Table 5's combined coverage
accounting is built from the results with :class:`CoverageAccounting`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.testing.symbolic_test": ("SymbolicTest",),
    "repro.testing.report": ("CoverageAccounting", "MethodCoverage"),
})

__all__ = [
    "SymbolicTest",
    "CoverageAccounting",
    "MethodCoverage",
]
