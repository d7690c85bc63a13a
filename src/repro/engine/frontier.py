"""The exploration frontier: the candidate nodes, in ``node_id`` order.

Every :class:`~repro.engine.tree.ExecutionTree` holds one :class:`Frontier`,
and only the tree's nodes change it: a node is added when it becomes a
candidate and discarded when it stops being one (``TreeNode._set_life``).
Every :class:`~repro.engine.explorer.Explorer` -- the one behind
:meth:`repro.engine.executor.SymbolicExecutor.run` and each
:class:`repro.cluster.worker.Worker` -- hands its tree's frontier to
``strategy.select(tree, frontier)`` and tells it when a member's state
moved.  A strategy reads it like a sequence of nodes sorted by ``node_id``
(``len``, ``in``, iteration, :meth:`Frontier.first` /
:meth:`Frontier.last`); nothing is copied or sorted per step.

A strategy that samples by weight keeps a :class:`WeightIndex` on the
frontier.  The frontier tells its indexes about every change -- a node added,
removed, or *moved* (its program state changed, so its weight may have) --
and the index re-weighs only that node, so one selection costs
O(log n) plus the changes since the previous one instead of a scan.

Memory: a frontier holds one dict entry per live member; an index holds at
most ``2 * len(frontier) + 16`` slots (removed members leave an empty slot
until the next compaction).  Nothing grows with the number of steps, and a
frontier nobody indexes (DFS, BFS, ...) keeps no record of changes at all.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - the tree imports this module
    from repro.engine.tree import TreeNode

__all__ = ["Frontier", "WeightIndex"]


class Frontier:
    """A set of tree nodes that iterates in ascending ``node_id`` order.

    Node ids grow with creation time, so a loop that only adds freshly
    created nodes appends in order and the backing dict *is* the order.  A
    worker also revives old nodes (imported jobs, recovered territory); such
    an add only flags the dict, which is re-sorted once at the next ordered
    read.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, TreeNode] = {}
        #: No id added since the last sort was lower than one added before it.
        self._in_order = True
        self._highest_id = 0
        self._indexes: List[WeightIndex] = []

    # -- mutation -----------------------------------------------------------

    def add(self, node: TreeNode) -> None:
        node_id = node.node_id
        if node_id in self._nodes:
            return
        if node_id < self._highest_id:
            self._in_order = False
        else:
            self._highest_id = node_id
        self._nodes[node_id] = node
        for index in self._indexes:
            index.added(node)

    def discard(self, node: TreeNode) -> None:
        if self._nodes.pop(node.node_id, None) is not None:
            for index in self._indexes:
                index.removed(node)

    def moved(self, node: TreeNode) -> None:
        """``node``'s program state changed in place (it was stepped,
        replayed, or lost its state) while it stayed a member."""
        if self._indexes and node.node_id in self._nodes:
            for index in self._indexes:
                index.moved(node)

    # -- reading, in node_id order --------------------------------------------

    def _ordered(self) -> Dict[int, TreeNode]:
        if not self._in_order:
            self._nodes = dict(sorted(self._nodes.items()))
            self._in_order = True
        return self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: TreeNode) -> bool:
        return node.node_id in self._nodes

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self._ordered().values())

    def __reversed__(self) -> Iterator[TreeNode]:
        return reversed(self._ordered().values())

    def first(self) -> TreeNode:
        """The member with the lowest id (the oldest)."""
        return next(iter(self))

    def last(self) -> TreeNode:
        """The member with the highest id (the most recently created)."""
        nodes = self._nodes if self._in_order else self._ordered()
        return next(reversed(nodes.values()))


class WeightIndex:
    """Prefix sums of integer node weights over a frontier, in id order.

    A Fenwick tree over *slots*; slots are handed out in ascending node id,
    so a prefix of slots is a prefix of the frontier's order.  A removed
    member leaves a zero-weight slot behind; slots are packed again once
    more than half are empty (amortised O(1) per removal, no re-weighing).
    The index re-weighs every member at the next :meth:`total` after
    :meth:`invalidate` -- the weights themselves changed -- or after a member
    arrived whose id is not the highest (a worker reviving an old node).

    ``weigh(node)`` must return a positive ``int``: integer sums are exact,
    so :meth:`pick` agrees to the last bit with a float scan over the same
    weights.
    """

    def __init__(self, frontier: Frontier,
                 weigh: Callable[[TreeNode], int]) -> None:
        self.frontier = frontier
        self._weigh = weigh
        self._slot: Dict[int, int] = {}
        self._nodes: List[Optional[TreeNode]] = []
        self._weights: List[int] = []
        self._tree: List[int] = [0]
        self._total = 0
        self._last_id = 0
        #: Rebuild from the frontier before the next pick; until then the
        #: frontier's reports are ignored.
        self._stale = True
        frontier._indexes.append(self)

    # -- changes, as the frontier reports them --------------------------------

    def invalidate(self) -> None:
        """Every weight may have changed (the strategy learned something)."""
        self._stale = True

    def added(self, node: TreeNode) -> None:
        if self._stale:
            return
        nodes = self._nodes
        if node.node_id < self._last_id:
            self._stale = True
            return
        weight = self._weigh(node)
        self._slot[node.node_id] = len(nodes)
        self._last_id = node.node_id
        nodes.append(node)
        self._weights.append(weight)
        self._total += weight
        # Fenwick append: entry i covers the (i & -i) slots ending at i.
        tree = self._tree
        i = len(nodes)
        covered = weight
        low = i & -i
        step = 1
        while step < low:
            covered += tree[i - step]
            step <<= 1
        tree.append(covered)

    def removed(self, node: TreeNode) -> None:
        if self._stale:
            return
        slot = self._slot.pop(node.node_id)
        self._adjust(slot, -self._weights[slot])
        self._nodes[slot] = None
        if len(self._nodes) > 2 * len(self._slot) + 16:
            live = [(member, weight) for member, weight
                    in zip(self._nodes, self._weights) if member is not None]
            self._build([member for member, _ in live],
                        [weight for _, weight in live])

    def moved(self, node: TreeNode) -> None:
        if self._stale:
            return
        slot = self._slot[node.node_id]
        delta = self._weigh(node) - self._weights[slot]
        if delta:
            self._adjust(slot, delta)

    # -- queries ----------------------------------------------------------------

    def total(self) -> int:
        """Sum of all weights (bringing the index up to date first)."""
        if self._stale:
            members = list(self.frontier)
            self._build(members, [self._weigh(node) for node in members])
        return self._total

    def pick(self, point: float) -> TreeNode:
        """The first member, in id order, whose cumulative weight reaches
        ``point`` (``0 <= point <= total()``, called after :meth:`total`).

        Cumulative weights are integers, so "reaches ``point``" is "reaches
        ``ceil(point)``"; a point of 0 is reached by the first member.
        """
        target = min(max(math.ceil(point), 1), self._total)
        tree = self._tree
        size = len(tree) - 1
        slot = 0
        step = 1 << (size.bit_length() - 1)
        while step:
            probe = slot + step
            if probe <= size and tree[probe] < target:
                slot = probe
                target -= tree[probe]
            step >>= 1
        node = self._nodes[slot]
        assert node is not None
        return node

    # -- internals ----------------------------------------------------------------

    def _adjust(self, slot: int, delta: int) -> None:
        self._weights[slot] += delta
        self._total += delta
        tree = self._tree
        i = slot + 1
        while i < len(tree):
            tree[i] += delta
            i += i & -i

    def _build(self, members: List[TreeNode], weights: List[int]) -> None:
        size = len(members)
        tree = [0] + weights
        for i in range(1, size + 1):
            parent = i + (i & -i)
            if parent <= size:
                tree[parent] += tree[i]
        self._nodes = list(members)
        self._weights = weights
        self._tree = tree
        self._total = sum(weights)
        self._slot = {node.node_id: slot for slot, node in enumerate(members)}
        self._last_id = members[-1].node_id if members else 0
        self._stale = False
