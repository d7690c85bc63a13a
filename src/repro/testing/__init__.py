"""The symbolic testing platform (paper §5).

A :class:`~repro.testing.symbolic_test.SymbolicTest` packages a program
under test together with the environment setup (symbolic data, files,
network conditions, fault injection, scheduler policy, instruction limits)
and can then be run either on a single engine ("1-worker Cloud9", i.e.
plain KLEE) or on a cluster of any size, all through
:meth:`SymbolicTest.run(backend=...)
<repro.testing.symbolic_test.SymbolicTest.run>`.  A batch of tests is a
loop over ``test.run``; Table 5's combined coverage accounting is built
from the results with :class:`~repro.testing.report.CoverageAccounting`.
"""
