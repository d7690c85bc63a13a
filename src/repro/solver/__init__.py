"""Constraint-solver substrate used by the symbolic execution engine.

The original Cloud9 delegates constraint solving to STP over bitvector
formulas.  This package provides a from-scratch replacement that is sufficient
for the workloads the paper evaluates (byte-granular symbolic inputs such as
network packets, format strings and HTTP headers):

* :mod:`repro.solver.expr` -- a small bitvector/boolean expression language,
  interned (one object per structure, so nodes hash and compare by
  identity); per-node facts are memoised on the node.
* :mod:`repro.solver.simplify` -- canonicalization and constant folding,
  once per node.
* :mod:`repro.solver.independence` -- independent constraint groups, grown
  one constraint at a time.
* :mod:`repro.solver.pathconstraint` -- the path constraint as an immutable
  value that keeps its simplified conjuncts, groups and cache keys.
* :mod:`repro.solver.interval` -- an unsigned-interval abstract domain used
  for fast infeasibility checks and for pruning the search.
* :mod:`repro.solver.solver` -- a feasibility checker and model generator
  based on bounds propagation plus backtracking enumeration.
* :mod:`repro.solver.cache` -- constraint and counterexample caches mirroring
  the caching architecture described in section 6 of the paper.
"""
