"""Search strategies: which candidate node to explore next.

Section 7 of the paper: "the underlying KLEE engine used the best searchers
from [Cadar 2008], namely an interleaving of random-path and
coverage-optimized strategies".  This module provides those two plus the
classic DFS/BFS/random-state baselines, and an interleaving combinator.

``select(tree, candidates)`` receives the exploration loop's own
:class:`~repro.engine.frontier.Frontier` -- not a copy: ``len``, ``in`` and
iteration in ascending ``node_id`` order are all it may rely on, and it must
not change it.  No strategy here sorts or copies the frontier;
:class:`CoverageOptimizedStrategy` keeps a
:class:`~repro.engine.frontier.WeightIndex` on it, so a weighted pick costs
O(log n) plus the nodes that changed since the previous one.

``sticky`` is a fact about a strategy, not a setting.  A sticky strategy's
pick depends on the frontier's members alone -- not on their states, on the
coverage it is told about, on a random draw or on how often it was asked --
so after a step that left the node a candidate and the frontier otherwise
as it was, it picks that node again.  The loops may then step the node
through its whole straight line at once (``Explorer.step_node(node,
budget)``): the strategy is asked once per line instead of once per
instruction and answers every remaining question as before.  DFS and BFS
are sticky; the other strategies here are not.

A strategy operates on worker-local tree nodes; the cluster layer coordinates
strategies across workers through the global coverage overlay (§3.3): a
member hands the merged global lines to :meth:`SearchStrategy.notify_covered`
like its own, and lines a strategy was told before change nothing.
"""

from __future__ import annotations

import random
from itertools import cycle, islice
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

from repro.engine.frontier import Frontier, WeightIndex
from repro.engine.state import RUNNING
from repro.engine.tree import ExecutionTree, TreeNode
from repro.lang.compiler import CompiledProgram


def _uniform(rng: random.Random, candidates: Frontier) -> TreeNode:
    """A uniformly random member: one draw, counted off in id order."""
    return next(islice(candidates, rng.randrange(len(candidates)), None))


class SearchStrategy:
    """Base class for candidate-selection strategies."""

    name = "base"
    #: Whether the pick depends on the frontier's members alone, so that a
    #: straight-line step never changes it (see the module docstring).
    sticky = False

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        raise NotImplementedError

    def notify_covered(self, lines: Iterable[int]) -> None:
        """Inform the strategy about covered lines: those local exploration
        covered for the first time, or the cluster's merged coverage."""


class DfsStrategy(SearchStrategy):
    """Depth-first: always pick the deepest (most recently created) node."""

    name = "dfs"
    sticky = True

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        return candidates.last()


class BfsStrategy(SearchStrategy):
    """Breadth-first: always pick the oldest node."""

    name = "bfs"
    sticky = True

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        return candidates.first()


class RandomStateStrategy(SearchStrategy):
    """Uniformly random choice among candidate nodes."""

    name = "random_state"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        return _uniform(self._rng, candidates)


class RandomPathStrategy(SearchStrategy):
    """KLEE's random-path searcher.

    Walk the execution tree from the root, choosing a random child at every
    interior node among children that still contain candidate nodes, until a
    candidate is reached.  This biases selection toward shallow states and is
    immune to the "swarm of states in one loop" pathology of random-state.

    Every level draws ``_randbelow(n)`` among its ``n`` live children in
    fork-index order, also where only one is live.  At a two-way fork (the
    node's ``pair``) the draw is written out as the loop ``_randbelow``
    runs (``k = n.bit_length()`` bits, redrawn while ``>= n``): ``n == 2``
    draws two bits until they are below 2, ``n == 1`` one bit until it is
    0.  Both consume exactly the generator state ``_randbelow(n)`` would,
    so such a level costs its ``getrandbits`` calls and nothing else
    (``tests/test_frontier_differential.py`` holds every select to the
    plain walk).  Any other node -- a three-way fork, a lone child left by
    an import -- takes the sorted live list and ``_randbelow``.
    """

    name = "random_path"

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        getrandbits = self._rng.getrandbits
        node = tree.root
        while True:
            pair = node.pair
            if pair is not None:
                first, second = pair
                if first.candidate_count:
                    if second.candidate_count:
                        pick = getrandbits(2)
                        while pick >= 2:
                            pick = getrandbits(2)
                        node = second if pick else first
                        continue
                    while getrandbits(1):
                        pass
                    node = first
                    continue
                if second.candidate_count:
                    while getrandbits(1):
                        pass
                    node = second
                    continue
            elif node.children:
                kids = node.children
                live = [kids[k] for k in sorted(kids)
                        if kids[k].candidate_count]
                if live:
                    # ``randrange(n)`` is ``_randbelow(n)`` for every
                    # ``n >= 1``, without the argument checks.
                    below = self._rng._randbelow  # type: ignore[attr-defined]
                    node = live[below(len(live))]
                    continue
            # No child holds a candidate.  A frontier member with candidate
            # descendants can exist transiently; descending is preferred.
            if node in candidates:
                return node
            return _uniform(self._rng, candidates)


class CoverageOptimizedStrategy(SearchStrategy):
    """Weight states by their estimated ability to cover new code.

    The paper's coverage-optimized searcher weighs states "according to an
    estimated distance to an uncovered line of code" and samples by weight.
    Our estimate for a candidate node is based on the current line of its
    state: a state sitting on an uncovered line gets the highest weight, then
    states in functions that still contain uncovered lines, then the rest.
    The covered-line set is the union of locally covered lines and the global
    coverage vector received from the load balancer.

    A node's weight depends on its state's position and on the covered set
    only, so the strategy keeps the weights in a
    :class:`~repro.engine.frontier.WeightIndex` on the frontier: a node is
    weighed when it joins the frontier or its state moves, and everything is
    weighed again only after the covered set actually grew.  The weight of a
    position, ``(function, pc)``, is memoised until then as well.
    """

    name = "coverage_optimized"

    def __init__(self, seed: int = 0, program=None):
        self._rng = random.Random(seed)
        self._covered: Set[int] = set()
        self._program = program
        self._function_lines: Dict[str, Set[int]] = {}
        if program is not None:
            for name, fn in program.functions.items():
                self._function_lines[name] = {i.line for i in fn.instructions}
        #: function -> number of its lines not covered yet, and
        #: ``(function, pc)`` -> the weight of a state there; both emptied
        #: whenever the covered set grows.
        self._uncovered_left: Dict[str, int] = {}
        self._weights: Dict[Tuple[str, int], int] = {}
        self._index: Optional[WeightIndex] = None

    def notify_covered(self, lines: Iterable[int]) -> None:
        known = len(self._covered)
        self._covered.update(lines)
        if len(self._covered) != known:
            self._uncovered_left.clear()
            self._weights.clear()
            if self._index is not None:
                self._index.invalidate()

    def _weight(self, node: TreeNode) -> int:
        state = node.state
        if state is None or state.status is not RUNNING or state.current is None:
            return 1
        pid, tid = state.current
        stack = state.processes[pid].threads[tid].stack
        if not stack:
            # The current thread just terminated; the state is waiting for a
            # scheduling decision and carries no useful position information.
            return 1
        frame = stack[-1]
        position = (frame.function, frame.pc)
        weight = self._weights.get(position)
        if weight is None:
            weight = self._weights[position] = self._position_weight(
                state.program, *position)
        return weight

    def _position_weight(self, program: CompiledProgram, name: str,
                         pc: int) -> int:
        function = program.function(name)
        if pc < len(function.instructions):
            line = function.instructions[pc].line
            if line not in self._covered:
                return 16
        uncovered_here = self._uncovered_left.get(name)
        if uncovered_here is None:
            fn_lines = self._function_lines.get(name)
            if fn_lines is None:
                fn_lines = {i.line for i in function.instructions}
                self._function_lines[name] = fn_lines
            uncovered_here = len(fn_lines - self._covered)
            self._uncovered_left[name] = uncovered_here
        if uncovered_here:
            return 4 + min(uncovered_here, 8)
        return 1

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        index = self._index
        if index is None or index.frontier is not candidates:
            index = self._index = WeightIndex(candidates, self._weight)
        total = index.total()
        # ``uniform(0.0, total)`` computes ``0.0 + (total - 0.0) * random()``:
        # the same float, without its Python frame.
        return index.pick(float(total) * self._rng.random())


class InterleavedStrategy(SearchStrategy):
    """Alternate between several strategies (KLEE's round-robin interleaving)."""

    name = "interleaved"

    def __init__(self, strategies: Sequence[SearchStrategy]):
        if not strategies:
            raise ValueError("InterleavedStrategy needs at least one strategy")
        self._strategies = list(strategies)
        self._turns = cycle(self._strategies)

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        return next(self._turns).select(tree, candidates)

    def notify_covered(self, lines: Iterable[int]) -> None:
        lines = list(lines)
        for strategy in self._strategies:
            strategy.notify_covered(lines)


class FewestFaultsFirstStrategy(SearchStrategy):
    """Prefer states with fewer injected faults along their path (§7.3.3).

    Used in the memcached fault-injection experiment: first explore paths
    with one injected fault, then pairs of faults, and so on, which yields a
    uniform injection of faults over the original test-suite path.
    """

    name = "fewest_faults_first"

    def select(self, tree: ExecutionTree, candidates: Frontier) -> TreeNode:
        def fault_count(node: TreeNode) -> int:
            state = node.state
            if state is None:
                return 0
            return int(state.options.get("faults_injected", 0))

        # min() keeps the first of equals, and the frontier iterates in id
        # order: the oldest node among those with the fewest faults.
        return min(candidates, key=fault_count)


def make_strategy(name: str, seed: int = 0, program=None) -> SearchStrategy:
    """Factory used by configuration code and the cluster layer."""
    if name == "dfs":
        return DfsStrategy()
    if name == "bfs":
        return BfsStrategy()
    if name == "random_state":
        return RandomStateStrategy(seed)
    if name == "random_path":
        return RandomPathStrategy(seed)
    if name == "coverage_optimized":
        return CoverageOptimizedStrategy(seed, program=program)
    if name == "fewest_faults_first":
        return FewestFaultsFirstStrategy()
    if name == "interleaved":
        return InterleavedStrategy([
            RandomPathStrategy(seed),
            CoverageOptimizedStrategy(seed + 1, program=program),
        ])
    raise ValueError("unknown strategy %r" % name)
