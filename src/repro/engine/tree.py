"""The symbolic execution tree and its node life-cycle.

Figure 2 and Figure 3 of the paper define the worker-side view of the global
execution tree.  Every node carries two attributes:

* ``status`` in {materialized, virtual}: a *materialized* node holds the
  corresponding program state; a *virtual* node is an "empty shell" received
  in a job and not yet replayed.
* ``life`` in {candidate, fence, dead}: *candidate* nodes form the
  exploration frontier, *fence* nodes demarcate work delegated to other
  workers, and *dead* nodes are fully explored interior nodes whose program
  state can be discarded.

A tree holds its :class:`~repro.engine.frontier.Frontier`, and only its
nodes change it: a node is a member exactly while it is a candidate, since
node creation and ``TreeNode._set_life`` add and remove it there.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.frontier import Frontier


class NodeStatus(enum.Enum):
    MATERIALIZED = "materialized"
    VIRTUAL = "virtual"


class NodeLife(enum.Enum):
    CANDIDATE = "candidate"
    FENCE = "fence"
    DEAD = "dead"


# Every member as a module constant, for the checks made per step: on
# CPython 3.11 ``NodeLife.DEAD`` inside a function goes through the enum
# metaclass's attribute hook, about ten times a global load.
MATERIALIZED, VIRTUAL = NodeStatus.MATERIALIZED, NodeStatus.VIRTUAL
CANDIDATE, FENCE, DEAD = NodeLife.CANDIDATE, NodeLife.FENCE, NodeLife.DEAD


_node_id_counter = itertools.count(1)


class TreeNode:
    """One node of a worker's local view of the execution tree.

    ``pair`` is ``(children[0], children[1])`` while the children are
    exactly fork indices 0 and 1, else ``None``: a two-way fork, the shape
    the random-path walk meets at almost every level, read without a dict
    lookup.  :meth:`refresh_pair` keeps it, where a child is attached
    (``__init__``) and where one is detached (a recovered subtree's reset
    in :mod:`repro.cluster.worker`).
    """

    __slots__ = ("node_id", "parent", "children", "pair", "status", "life",
                 "state", "fork_index", "candidate_count", "frontier")

    def __init__(self, parent: Optional["TreeNode"] = None, fork_index: int = 0,
                 status: NodeStatus = NodeStatus.MATERIALIZED,
                 life: NodeLife = NodeLife.CANDIDATE):
        self.node_id = next(_node_id_counter)
        self.parent = parent
        # A root starts its tree's frontier; every node below shares it.
        self.frontier: Frontier = (Frontier() if parent is None
                                   else parent.frontier)
        self.children: Dict[int, TreeNode] = {}
        self.pair: Optional[Tuple[TreeNode, TreeNode]] = None
        self.status = status
        self.life = life
        # ExecutionState for materialized candidate/fence nodes
        self.state: Any = None
        self.fork_index = fork_index
        # Number of candidate nodes in this subtree (self included); kept up
        # to date by _set_life so random-path selection can walk the tree
        # without scanning it.
        self.candidate_count = 1 if life is CANDIDATE else 0
        if parent is not None:
            parent.children[fork_index] = self
            parent.refresh_pair()
            if self.candidate_count:
                parent._propagate_candidate_delta(self.candidate_count)
        if self.candidate_count:
            self.frontier.add(self)

    # -- structure ----------------------------------------------------------

    def add_child(self, fork_index: int,
                  status: NodeStatus = NodeStatus.MATERIALIZED,
                  life: NodeLife = NodeLife.CANDIDATE) -> "TreeNode":
        if fork_index in self.children:
            raise ValueError("child %d already exists under node %d"
                             % (fork_index, self.node_id))
        return TreeNode(self, fork_index, status=status, life=life)

    def refresh_pair(self) -> None:
        """Recompute ``pair`` after a child was attached or detached."""
        kids = self.children
        self.pair = ((kids[0], kids[1])
                     if len(kids) == 2 and 0 in kids and 1 in kids else None)

    def path_from_root(self) -> List[int]:
        """The sequence of fork indices leading from the root to this node."""
        path: List[int] = []
        node = self
        while node.parent is not None:
            path.append(node.fork_index)
            node = node.parent
        path.reverse()
        return path

    def root(self) -> "TreeNode":
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def descend(self, path: Sequence[int]) -> Optional["TreeNode"]:
        """Follow a fork-index path downward; None if it leaves the tree."""
        node = self
        for index in path:
            child = node.children.get(index)
            if child is None:
                return None
            node = child
        return node

    # -- life-cycle (Fig. 3) ---------------------------------------------------

    def _propagate_candidate_delta(self, delta: int) -> None:
        node: Optional[TreeNode] = self
        while node is not None:
            node.candidate_count += delta
            node = node.parent

    def _set_life(self, life: NodeLife) -> None:
        """The one place a node's candidacy changes: the subtree counts and
        the tree's frontier follow it here."""
        was_candidate = self.life is CANDIDATE
        self.life = life
        if was_candidate is (life is CANDIDATE):
            return
        if was_candidate:
            self._propagate_candidate_delta(-1)
            self.frontier.discard(self)
        else:
            self._propagate_candidate_delta(1)
            self.frontier.add(self)

    def mark_dead(self) -> None:
        """Explored: discard the program state, keep only the skeleton."""
        self._set_life(DEAD)
        self.state = None

    def mark_fence(self) -> None:
        """The subtree below is being explored elsewhere (job sent away)."""
        self._set_life(FENCE)

    def mark_candidate(self) -> None:
        self._set_life(CANDIDATE)

    def materialize(self, state) -> None:
        """Attach a program state (virtual -> materialized after replay)."""
        self.status = MATERIALIZED
        self.state = state

    @property
    def is_candidate(self) -> bool:
        return self.life is CANDIDATE

    @property
    def is_fence(self) -> bool:
        return self.life is FENCE

    @property
    def is_dead(self) -> bool:
        return self.life is DEAD

    @property
    def is_materialized(self) -> bool:
        return self.status is MATERIALIZED

    @property
    def is_virtual(self) -> bool:
        return self.status is VIRTUAL

    # -- traversal ---------------------------------------------------------------

    def iter_subtree(self) -> Iterator["TreeNode"]:
        """Depth-first iteration over the subtree, children in fork-index order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children[k] for k in sorted(node.children, reverse=True))

    def __repr__(self) -> str:
        return "TreeNode(id=%d, %s/%s, children=%d)" % (
            self.node_id, self.status.value, self.life.value, len(self.children))


class ExecutionTree:
    """A worker-local (or single-engine) view of the execution tree, and the
    frontier of its candidates."""

    def __init__(self):
        self.root = TreeNode()
        self.frontier = self.root.frontier

    def fences(self) -> List[TreeNode]:
        return [n for n in self.root.iter_subtree() if n.is_fence]

    def node_at(self, path: Sequence[int]) -> Optional[TreeNode]:
        return self.root.descend(path)

    def ensure_path(self, path: Sequence[int],
                    status: NodeStatus = NodeStatus.VIRTUAL,
                    life: NodeLife = NodeLife.CANDIDATE) -> TreeNode:
        """Create any missing nodes along ``path`` (used when importing jobs).

        Intermediate nodes created on the way are virtual and dead (they are
        interior nodes of a path that will be replayed); only the final node
        gets the requested status/life.
        """
        node = self.root
        for depth, index in enumerate(path):
            child = node.children.get(index)
            if child is None:
                is_last = depth == len(path) - 1
                child = node.add_child(
                    index,
                    status=status if is_last else VIRTUAL,
                    life=life if is_last else DEAD,
                )
            node = child
        return node
