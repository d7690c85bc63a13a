"""The coordinator-side frontier ledger: who owns which subtree.

Cloud9 tolerates worker failures (§2.3): "the system adjusts the global
exploration frontier as if the failed worker's candidate nodes were deleted".
This reproduction goes one step further and *recovers* the lost work: because
every job a worker ever receives flows through the coordinator (the seed job
plus every brokered transfer), the coordinator can maintain, per worker, the
set of execution-tree subtrees that worker is responsible for -- its
*territory* -- without ever seeing the worker's private frontier.

Territory algebra (all paths are root-to-node fork-index tuples):

* ``acquire(w, p)`` -- worker ``w`` received a job for path ``p``: its
  territory grows by the whole subtree under ``p`` (an exported candidate
  node carries everything below it, §3.2).
* ``cede(w, p)`` -- worker ``w`` exported a job for path ``p``: the subtree
  under ``p`` leaves its territory (it is now someone else's acquisition).

``recovery_jobs(w)`` re-materializes the territory of a dead worker as jobs:
one job per owned subtree root, each paired with the *fence paths* -- ceded
subtrees nested inside it that still belong to live workers.  Requeuing those
jobs to survivors (importing the root as a virtual candidate and the fences
as fence nodes) makes the cluster re-explore exactly the dead worker's
territory and nothing else, so a deterministic run converges to the same
explored tree as a crash-free one.  ``take_over(w, job)`` books such a job
on survivor ``w``: the root acquired, the fences that are not ``w``'s own
ceded.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

Path = Tuple[int, ...]

__all__ = ["FrontierLedger", "RecoveryJob"]


def _within(path: Path, root: Path) -> bool:
    """True when ``path`` lies inside the subtree rooted at ``root``."""
    return len(path) >= len(root) and path[:len(root)] == root


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


class FrontierLedger:
    """Per-worker territory bookkeeping from the coordinator's vantage point."""

    def __init__(self) -> None:
        self._owned: Dict[int, Set[Path]] = {}
        self._ceded: Dict[int, Set[Path]] = {}

    # -- membership --------------------------------------------------------------

    def register(self, worker_id: int) -> None:
        self._owned.setdefault(worker_id, set())
        self._ceded.setdefault(worker_id, set())

    def forget(self, worker_id: int) -> None:
        self._owned.pop(worker_id, None)
        self._ceded.pop(worker_id, None)

    @property
    def worker_ids(self) -> List[int]:
        return sorted(self._owned)

    # -- queries -----------------------------------------------------------------

    def owned_roots(self, worker_id: int) -> Set[Path]:
        return set(self._owned.get(worker_id, ()))

    def covers(self, worker_id: int, path: Path) -> bool:
        """Whether ``path`` currently lies inside the worker's territory.

        The deepest owned/ceded root that is a prefix of ``path`` decides:
        owned means inside, ceded means outside, neither means outside.
        """
        best_len = -1
        best_owned = False
        for root in self._owned.get(worker_id, ()):
            if _within(path, root) and len(root) > best_len:
                best_len = len(root)
                best_owned = True
        for root in self._ceded.get(worker_id, ()):
            if _within(path, root) and len(root) > best_len:
                best_len = len(root)
                best_owned = False
        return best_owned

    # -- territory updates ---------------------------------------------------------

    def acquire(self, worker_id: int, path: Path) -> None:
        path = tuple(path)
        self.register(worker_id)
        # Roots already owned below the acquired one are subsumed, and so is
        # a cession of the acquired subtree itself (a job bouncing back).
        # Subtrees ceded from *inside* a subsumed root stay ceded: they are
        # someone else's, and a recovered root above them does not fill the
        # hole.
        subsumed = {o for o in self._owned[worker_id] if _within(o, path)}
        self._owned[worker_id] -= subsumed
        self._ceded[worker_id] = {
            c for c in self._ceded[worker_id]
            if not _within(c, path) or any(_within(c, o) for o in subsumed)}
        if not self.covers(worker_id, path):
            self._owned[worker_id].add(path)

    def cede(self, worker_id: int, path: Path) -> None:
        path = tuple(path)
        self.register(worker_id)
        self._owned[worker_id] = {o for o in self._owned[worker_id]
                                  if not _within(o, path)}
        self._ceded[worker_id] = {c for c in self._ceded[worker_id]
                                  if not _within(c, path)}
        if self.covers(worker_id, path):
            self._ceded[worker_id].add(path)

    # -- recovery ------------------------------------------------------------------

    def take_over(self, worker_id: int, job: RecoveryJob) -> None:
        """Survivor ``worker_id`` takes a dead worker's ``job``: it acquires
        the root and cedes the fences that are not its own.

        What the survivor holds inside such a foreign fence (a job handed
        to it from the dead worker's hole) stays as it was: the acquire
        would subsume it and the cede cut it out again, leaving it to no
        one.
        """
        foreign = [fence for fence in job.fences
                   if not self.covers(worker_id, fence)]

        def inside(paths: Iterable[Path]) -> Set[Path]:
            return {p for p in paths if any(_within(p, f) for f in foreign)}

        nested_owned = inside(self._owned.get(worker_id, ()))
        nested_ceded = inside(self._ceded.get(worker_id, ()))
        self.acquire(worker_id, job.root)
        for fence in foreign:
            self.cede(worker_id, fence)
        self._owned[worker_id] |= nested_owned
        self._ceded[worker_id] |= nested_ceded

    def recovery_jobs(self, worker_id: int) -> List[RecoveryJob]:
        """The dead worker's territory as requeueable jobs (sorted, stable)."""
        jobs: List[RecoveryJob] = []
        ceded = self._ceded.get(worker_id, set())
        for root in sorted(self._owned.get(worker_id, set())):
            fences = tuple(sorted(c for c in ceded
                                  if _within(c, root) and c != root))
            jobs.append(RecoveryJob(root, fences))
        return jobs
