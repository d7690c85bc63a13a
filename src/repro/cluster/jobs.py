"""Exploration jobs and their path encoding.

Section 3.2: a job can be sent either by serializing the program state or by
sending "the path from the tree root to the node", relying on the destination
to replay that path.  Cloud9 chooses the path encoding because commodity
clusters have abundant CPU but meager bisection bandwidth.  As an
optimization, "jobs are not encoded separately, but rather the corresponding
paths are aggregated into a job tree and sent as such", exploiting common
path prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NewType, Sequence, Tuple

#: The wire form of a :class:`JobTree` (:meth:`JobTree.encode`): nested
#: ``[terminal, [[index, subtree], ...]]`` lists.  A type of its own so the
#: message codec knows which fields carry one and checks their shape.
EncodedJobTree = NewType("EncodedJobTree", list)


@dataclass(frozen=True)
class Job:
    """One unit of exploration work: a path from the root to a candidate node."""

    path: Tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.path)

    def __repr__(self) -> str:
        return "Job(%s)" % "/".join(str(i) for i in self.path)


class JobTree:
    """A trie of job paths sharing common prefixes (the transfer encoding)."""

    def __init__(self):
        self._children: Dict[int, "JobTree"] = {}
        self._terminal = False

    # -- construction -----------------------------------------------------------

    def insert(self, path: Sequence[int]) -> None:
        node = self
        for index in path:
            node = node._children.setdefault(index, JobTree())
        node._terminal = True

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job]) -> "JobTree":
        tree = cls()
        for job in jobs:
            tree.insert(job.path)
        return tree

    # -- extraction --------------------------------------------------------------

    def jobs(self) -> List[Job]:
        """All job paths contained in the tree, in deterministic order."""
        out: List[Job] = []

        def walk(node: "JobTree", prefix: Tuple[int, ...]) -> None:
            if node._terminal:
                out.append(Job(prefix))
            for index in sorted(node._children):
                walk(node._children[index], prefix + (index,))

        walk(self, ())
        return out

    def __len__(self) -> int:
        return len(self.jobs())

    # -- wire format ---------------------------------------------------------------

    def encode(self) -> EncodedJobTree:
        """A compact nested-list encoding: [terminal, [[index, subtree], ...]].

        The encoded size is proportional to the number of *trie nodes*, i.e.
        shared prefixes are transferred once.  :meth:`encoded_size` measures
        it, which the evaluation uses to compare against per-path encoding.
        """
        return EncodedJobTree([
            1 if self._terminal else 0,
            [[index, child.encode()] for index, child in sorted(self._children.items())],
        ])

    @classmethod
    def decode(cls, payload: Sequence[object]) -> "JobTree":
        tree = cls()
        terminal, children = payload
        tree._terminal = bool(terminal)
        for index, encoded_child in children:
            tree._children[int(index)] = cls.decode(encoded_child)
        return tree

    def encoded_size(self) -> int:
        """Number of trie edges (a proxy for bytes on the wire)."""
        return sum(1 + child.encoded_size() for child in self._children.values())

    @staticmethod
    def naive_size(jobs: Iterable[Job]) -> int:
        """Wire size if every path were sent separately (no prefix sharing)."""
        return sum(len(job.path) for job in jobs)
