"""Single-node symbolic execution engine (the KLEE analogue of the paper).

The engine interprets compiled programs (:mod:`repro.lang`) over states that
carry symbolic memory, multiple processes/threads and a path constraint.  It
provides:

* forking at symbolic branches with feasibility checks (:mod:`repro.engine.interpreter`),
* an address-space model with copy-on-write domains and a per-state
  deterministic allocator (:mod:`repro.engine.memory`, paper §4.2 and §6),
* a cooperative thread scheduler with optional schedule forking and hang
  detection (:mod:`repro.engine.scheduler`),
* the symbolic system-call primitives of Table 1 (:mod:`repro.engine.syscalls`),
* the execution tree and its node life-cycle (:mod:`repro.engine.tree`,
  Fig. 2--3),
* search strategies including random-path and coverage-optimized
  (:mod:`repro.engine.strategies`, §7), selecting from the one
  :class:`~repro.engine.frontier.Frontier` an exploration owns
  (:mod:`repro.engine.frontier`),
* the one :class:`~repro.engine.explorer.Explorer` -- tree, frontier,
  strategy, results, and the single step that counts a result where it
  happens and grafts the children -- that both the single-node driver and
  the cluster worker explore with (:mod:`repro.engine.explorer`),
* the uniform exploration limits shared by every backend
  (:mod:`repro.engine.limits`, exported by :mod:`repro.api`) and the one
  result type they all return (:mod:`repro.engine.result`, re-exported as
  :mod:`repro.api.result`),
* a single-node exploration driver (:mod:`repro.engine.executor`).
"""

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.executor import SymbolicExecutor, StepResult
from repro.engine.explorer import Explorer
from repro.engine.frontier import Frontier
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult
from repro.engine.state import ExecutionState, StateStatus
from repro.engine.strategies import (
    BfsStrategy,
    CoverageOptimizedStrategy,
    DfsStrategy,
    InterleavedStrategy,
    RandomPathStrategy,
    RandomStateStrategy,
    make_strategy,
)
from repro.engine.coverage import CoverageBitVector
from repro.engine.test_case import TestCase
from repro.engine.tree import NodeLife, NodeStatus, TreeNode

__all__ = [
    "EngineConfig",
    "BugKind",
    "BugReport",
    "ExplorationLimits",
    "Explorer",
    "Frontier",
    "RunResult",
    "SymbolicExecutor",
    "StepResult",
    "ExecutionState",
    "StateStatus",
    "BfsStrategy",
    "CoverageOptimizedStrategy",
    "DfsStrategy",
    "InterleavedStrategy",
    "RandomPathStrategy",
    "RandomStateStrategy",
    "make_strategy",
    "CoverageBitVector",
    "TestCase",
    "NodeLife",
    "NodeStatus",
    "TreeNode",
]
