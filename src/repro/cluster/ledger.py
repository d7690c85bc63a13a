"""The coordinator-side frontier ledger: who owns which subtree.

Cloud9 tolerates worker failures (§2.3): "the system adjusts the global
exploration frontier as if the failed worker's candidate nodes were deleted".
This reproduction *recovers* the lost work instead: every job a worker ever
receives flows through the coordinator (the seed job and every brokered
transfer), so the coordinator can record each worker's *territory* without
seeing its private frontier.

The record is one trie of fork indices.  A node may carry an owner label, and
a path belongs to the label on its deepest labelled prefix, so every path has
one owner and territories are disjoint by construction.  The label
``NOBODY`` (worker ids start at 1) marks a cession not yet acquired and a
forgotten member's territory.  Labels stay canonical: a label equal to the
one it inherits is dropped, and a node with no label and no children is
pruned, so a job that bounces back leaves nothing behind.  ``acquire(w, p)``
labels ``p`` with ``w`` (a received job carries its whole subtree, §3.2, but
labels below ``p`` keep their owners); ``cede(w, p)`` labels it nobody until
the receiver acquires it.

Recovery is relabelling: ``recovery_jobs(w)`` is one job per label of the
dead worker, fenced at the first (foreign) labels below it; ``forget(w)``
turns its labels into nobody; a survivor that acquires a job's root takes
exactly the dead worker's paths under it, as the fences keep their labels.
The survivors import each root as a virtual candidate and its fences as fence
nodes, so a deterministic run converges to the crash-free explored tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

Path = Tuple[int, ...]

__all__ = ["FrontierLedger", "RecoveryJob"]

#: The owner of a ceded, not yet acquired path and of a forgotten member's.
NOBODY = 0


class RecoveryJob:
    """One requeueable unit of a dead worker's territory."""

    __slots__ = ("root", "fences")

    def __init__(self, root: Path, fences: Tuple[Path, ...] = ()):
        self.root = tuple(root)
        self.fences = tuple(tuple(f) for f in fences)

    def __repr__(self) -> str:
        return "RecoveryJob(root=%r, fences=%r)" % (self.root, self.fences)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecoveryJob):
            return NotImplemented
        return self.root == other.root and set(self.fences) == set(other.fences)


class _Node:
    __slots__ = ("label", "children")

    def __init__(self) -> None:
        self.label: Optional[int] = None
        self.children: Dict[int, _Node] = {}


class FrontierLedger:
    """Every path's owner, from the coordinator's vantage point."""

    def __init__(self) -> None:
        self._members: Set[int] = set()
        self._root = _Node()

    # -- membership --------------------------------------------------------------

    def register(self, worker_id: int) -> None:
        self._members.add(worker_id)

    def forget(self, worker_id: int) -> None:
        self._members.discard(worker_id)
        self._relabel((), dead=worker_id)

    @property
    def worker_ids(self) -> List[int]:
        return sorted(self._members)

    # -- queries -----------------------------------------------------------------

    def owned_roots(self, worker_id: int) -> Set[Path]:
        return {job.root for job in self.recovery_jobs(worker_id)}

    def covers(self, worker_id: int, path: Path) -> bool:
        """Whether ``path`` lies inside the worker's territory: the label on
        its deepest labelled prefix is the worker's."""
        node, owner = self._root, self._root.label
        for index in path:
            if index not in node.children:
                break
            node = node.children[index]
            if node.label is not None:
                owner = node.label
        return owner == worker_id

    # -- territory updates ---------------------------------------------------------

    def acquire(self, worker_id: int, path: Path) -> None:
        self.register(worker_id)
        self._relabel(path, label=worker_id)

    def cede(self, worker_id: int, path: Path) -> None:
        if self.covers(worker_id, path):
            self._relabel(path, label=NOBODY)

    def _relabel(self, path: Path, label: Optional[int] = None,
                 dead: int = NOBODY) -> None:
        """Label ``path`` (unless ``label`` is None), turn ``dead``'s labels
        under it into nobody's, and make the subtree canonical again."""
        node, inherited = self._root, NOBODY
        visited: List[Tuple[_Node, int, _Node]] = []
        for index in path:
            if node.label is not None:
                inherited = node.label
            child = node.children.get(index)
            if child is None:
                child = node.children[index] = _Node()
            visited.append((node, index, child))
            node = child
        if label is not None:
            node.label = label
        stack = [(node, inherited)]
        while stack:
            node, inherited = stack.pop()
            if node.label == dead:
                node.label = NOBODY
            if node.label == inherited:
                node.label = None
            elif node.label is not None:
                inherited = node.label
            for index, child in node.children.items():
                visited.append((node, index, child))
                stack.append((child, inherited))
        # Children come after their parents in ``visited``: prune bottom-up.
        for parent, index, child in reversed(visited):
            if child.label is None and not child.children:
                del parent.children[index]

    # -- recovery ------------------------------------------------------------------

    def recovery_jobs(self, worker_id: int) -> List[RecoveryJob]:
        """The dead worker's territory as requeueable jobs (sorted, stable):
        one per label it holds, fenced at the first labels below it."""
        fences: Dict[Path, List[Path]] = {}
        stack: List[Tuple[Path, _Node, Optional[Path]]] = [((), self._root, None)]
        while stack:
            path, node, root = stack.pop()
            if node.label is not None:
                if root is not None:
                    fences[root].append(path)
                root = path if node.label == worker_id else None
                if root is not None:
                    fences[root] = []
            stack.extend((path + (index,), child, root)
                         for index, child in node.children.items())
        return [RecoveryJob(root, tuple(sorted(fences[root])))
                for root in sorted(fences)]
