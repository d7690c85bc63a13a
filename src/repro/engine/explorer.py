"""The one exploration step: step a candidate, count what the step produced,
graft its children.

An :class:`Explorer` owns what one exploration consists of -- the execution
tree (which holds the :class:`~repro.engine.frontier.Frontier` of its
candidates and keeps it in step with the nodes' lives), the search
strategy, and the exploration's own results (``bugs``, ``test_cases``,
``paths_completed``, ``covered_lines``), which are the only books of
results: the executor keeps none.  :meth:`Explorer.step_node` is the only place a node
is stepped for exploration: it reads what the step produced off the
:class:`~repro.engine.executor.StepResult` -- so a replay on the same
executor, which steps without it, books nothing -- and is the only place a
step's children enter the tree.  Most steps never get
that far: when the only child is the node's own state, still running, the
node stays a candidate and the frontier is told that its state moved, and
only forks and terminations reach :meth:`Explorer._graft`.

The paper's worker *is* a KLEE engine plus job import/export (§3.1--3.2), and
so it is here: :meth:`SymbolicExecutor.run
<repro.engine.executor.SymbolicExecutor.run>` is limits and tracing around an
``Explorer``, and :class:`repro.cluster.worker.Worker` is an ``Explorer`` plus
replay, export/import and recovered regions.  With nothing imported, fenced
or revived, the two explore the same nodes in the same order.

Coverage is handed on (:meth:`Explorer.new_lines`) once per step, as the
lines that step executed: the state ``step_node`` steps came out of an
earlier ``step_node``, which handed on everything up to there, so only the
lines just executed can be new -- one for a one-instruction step, the set a
straight-line step ran through otherwise.  The
exception is a node holding a state ``step_node`` did *not* produce -- the
seeded root, or a node a worker materialised (by replay, or a fence revived
with the state it kept).  Whoever installs such a state calls
:meth:`Explorer.adopt`, and that node's next step diffs its children's whole
``coverage`` against what was handed on, as every step once did.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Set

from repro.engine.errors import BugReport
from repro.engine.state import RUNNING, ExecutionState
from repro.engine.strategies import SearchStrategy
from repro.engine.test_case import TestCase
from repro.engine.tree import (DEAD, FENCE, MATERIALIZED, ExecutionTree,
                               TreeNode)

if TYPE_CHECKING:  # pragma: no cover - the executor's run loop builds an Explorer
    from repro.engine.executor import StepResult, SymbolicExecutor

__all__ = ["Explorer"]


class Explorer:
    """One exploration of one program on one executor."""

    def __init__(self, executor: SymbolicExecutor,
                 strategy: SearchStrategy) -> None:
        self.executor = executor
        self.strategy = strategy
        self.tree = ExecutionTree()
        # Until seed_state() -- or, on a worker, an import -- says otherwise
        # the root is an interior shell like any other node on the way to a
        # candidate.
        self.tree.root.mark_dead()
        self.frontier = self.tree.frontier
        self.bugs: List[BugReport] = []
        self.test_cases: List[TestCase] = []
        self.paths_completed = 0
        # The lines this exploration covered, each handed on through
        # new_lines() once: a worker's status reports this set.
        self.covered_lines: Set[int] = set()
        # Ids of nodes whose state did not come out of step_node (see adopt()).
        self._adopted: Set[int] = set()

    def seed_state(self, state: ExecutionState) -> None:
        """Make the root the one candidate, holding ``state``."""
        root = self.tree.root
        root.materialize(state)
        root.mark_candidate()
        self.adopt(root)

    def adopt(self, node: TreeNode) -> None:
        """``node`` now holds a state that :meth:`step_node` did not produce.

        Whoever puts such a state on a node that may be stepped must say so:
        :meth:`seed_state` (the root) and a worker's ``_materialize`` (a
        replayed node, or a revived fence that kept its state).
        Lines on that state's path may not have been handed on yet, so the
        node's next step diffs its children's whole coverage; every other
        step hands on just the line it executed.
        """
        self._adopted.add(node.node_id)

    def step_node(self, node: TreeNode, budget: int = 1) -> StepResult:
        """Step ``node``'s state once, by up to ``budget`` instructions of a
        straight line (see :meth:`SymbolicExecutor.step
        <repro.engine.executor.SymbolicExecutor.step>`), and book everything
        the step produced.

        Most steps run straight on: the only child is the node's own state,
        still running.  Then the node stays where it is and the frontier
        only hears that its state moved; forks and terminations go on to
        :meth:`_graft`.  A budget above one is for a strategy that would
        select this node again after every instruction until it forks or
        ends (:attr:`SearchStrategy.sticky
        <repro.engine.strategies.SearchStrategy.sticky>`).
        """
        state = node.state
        result = self.executor.step(state, budget)
        if result.terminated:
            self.paths_completed += len(result.terminated)
            self.bugs.extend(result.bugs)
            self.test_cases.extend(result.test_cases)
        children = result.children
        told = self.covered_lines
        if node.node_id in self._adopted:
            self._adopted.discard(node.node_id)
            new: Set[int] = set()
            for child in children:
                new.update(child.coverage - told)
            if new:
                told.update(new)
                self.new_lines(new)
        else:
            # The stepped state came out of an earlier step_node, so all of
            # its path was handed on then: only this step's lines can be new.
            lines = result.lines
            if lines is None:
                line = result.line
                if line is not None and line not in told:
                    told.add(line)
                    self.new_lines({line})
            else:
                new = lines - told
                if new:
                    told.update(new)
                    self.new_lines(new)
        if len(children) == 1 and children[0] is state and state.status is RUNNING:
            self.frontier.moved(node)
        else:
            self._graft(node, children)
        return result

    def new_lines(self, lines: Set[int]) -> None:
        """Lines this exploration covered for the first time (never empty)."""
        self.strategy.notify_covered(lines)

    def _graft(self, node: TreeNode, children: Sequence[ExecutionState]) -> None:
        """Update the tree (and with it the frontier) after ``node`` was
        stepped."""
        if len(children) == 1 and children[0] is node.state:
            if children[0].status is RUNNING:
                self.frontier.moved(node)
            else:
                node.mark_dead()
            return
        # A fork (or a termination that replaced the state object): the node
        # becomes an interior dead node and each resulting state gets a child,
        # which holds its state before it becomes a candidate (the frontier
        # weighs a node when it joins).
        node.mark_dead()
        for index, child_state in enumerate(children):
            child_node = node.children.get(index)
            if child_node is None:
                child_node = node.add_child(index, life=DEAD)
            elif child_node.life is FENCE:
                # The subtree below this child belongs to another worker --
                # either a fence installed by replay or one shipped with a
                # recovered job (a dead worker's ceded subtree).  Leave it.
                continue
            elif child_node.life is DEAD and child_node.status is MATERIALIZED:
                # Explored to completion here earlier (its paths are already
                # counted); reachable again only by re-stepping a revived
                # ancestor -- a bounced job or a recovered subtree whose
                # fence-protected part this worker finished meanwhile.
                continue
            if child_state.status is RUNNING:
                child_node.materialize(child_state)
                child_node.mark_candidate()
            else:
                child_node.materialize(None)
                child_node.mark_dead()
