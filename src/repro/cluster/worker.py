"""Cloud9 worker nodes (paper §3.2).

In the paper a worker is a KLEE engine plus job import/export, and so it is
here: :class:`Worker` *is* an :class:`~repro.engine.explorer.Explorer` -- the
tree, the frontier, the strategy, the one step that counts results and grafts
children, exactly what :meth:`SymbolicExecutor.run
<repro.engine.executor.SymbolicExecutor.run>` explores with -- plus replay,
export/import and recovered regions.  The tree is a local view of the
execution tree rooted at the global root; a node is a frontier member exactly
while its life is ``CANDIDATE``, because the tree keeps its frontier: the
methods below change lives, never the frontier itself.  The work-transfer
protocol guarantees frontiers are pairwise disjoint and that their union is
the global exploration frontier.  A worker:

* explores materialized candidates with :meth:`Explorer.step_node
  <repro.engine.explorer.Explorer.step_node>`,
* lazily replays virtual candidates received in jobs, each from a fork of
  the pristine initial state the worker was built with
  (:meth:`Worker._materialize` is the only place a node gets a state that
  ``step_node`` did not produce),
* exports candidate nodes as path-encoded jobs when asked by the load
  balancer (the exported node becomes a fence node locally),
* imports job trees from other workers (their leaves become virtual
  candidates).

How a worker hears from the coordinator -- commands in, status replies out
-- is :class:`repro.distrib.worker.DistribWorker`'s job, on every carrier.
"""

from __future__ import annotations

from itertools import islice
from typing import List, Optional, Sequence, Set, Tuple

from repro.cluster.jobs import Job, JobTree
from repro.cluster.replay import replay_path
from repro.cluster.stats import WorkerStats
from repro.engine.executor import SymbolicExecutor
from repro.engine.explorer import Explorer
from repro.engine.state import ExecutionState
from repro.engine.strategies import SearchStrategy, make_strategy
from repro.engine.tree import VIRTUAL, NodeLife, NodeStatus, TreeNode

#: Strategy used when neither a config nor a symbolic test names one.
DEFAULT_STRATEGY = "interleaved"


class Worker(Explorer):
    """One cluster node running an independent symbolic execution engine."""

    def __init__(self, worker_id: int, executor: SymbolicExecutor,
                 initial_state: ExecutionState,
                 strategy: Optional[SearchStrategy] = None,
                 strategy_name: str = DEFAULT_STRATEGY):
        if worker_id < 1:
            raise ValueError("worker ids start at 1")
        self.worker_id = worker_id
        # Pristine: never stepped, only forked -- the seed and every replay
        # start from a fork of it.
        self.initial_state = initial_state
        # Before Explorer.__init__: ``paths_completed`` lives on the stats.
        self.stats = WorkerStats(worker_id=worker_id)
        super().__init__(executor, strategy or make_strategy(
            strategy_name, seed=worker_id, program=executor.program))
        # Recovered territories this worker re-explores (root, fence paths):
        # inside them, replay must not fence off-path siblings -- they are
        # ours to explore, not "being explored elsewhere" (§2.3 recovery).
        self._recovered_regions: List[Tuple[Tuple[int, ...],
                                            Tuple[Tuple[int, ...], ...]]] = []

    @property
    def paths_completed(self) -> int:
        """The one path counter: the ``WorkerStats`` field that ships in
        every ``StatusReply`` is the number ``Explorer.step_node`` bumps."""
        return self.stats.paths_completed

    @paths_completed.setter
    def paths_completed(self, value: int) -> None:
        self.stats.paths_completed = value

    # -- frontier bookkeeping ----------------------------------------------------------

    @property
    def queue_length(self) -> int:
        """Length of the exploration-job queue reported to the load balancer."""
        return len(self.frontier)

    @property
    def has_work(self) -> bool:
        return bool(self.frontier)

    def frontier_paths(self) -> Set[Tuple[int, ...]]:
        """Paths of all candidate nodes (used to check disjointness/completeness)."""
        return {tuple(node.path_from_root()) for node in self.frontier}

    # -- seeding -----------------------------------------------------------------------

    def seed(self) -> None:
        """Receive the initial job covering the entire execution tree (§3.1),
        on a fork of the pristine initial state."""
        self.seed_state(self.initial_state.fork())

    # -- exploration -------------------------------------------------------------------

    def explore(self, instruction_budget: int) -> int:
        """Run exploration for up to ``instruction_budget`` instructions.

        Returns the budget actually consumed (instructions executed plus a
        unit charge for pure scheduling/replay-management steps, so a worker
        whose states only reschedule still makes bounded progress per round).
        """
        consumed = 0
        stats = self.stats
        # A sticky strategy picks a stepped node again until it forks or
        # ends: step its straight line at once, up to what is left.
        sticky = self.strategy.sticky
        while consumed < instruction_budget and self.frontier:
            node = self.strategy.select(self.tree, self.frontier)
            if node.status is VIRTUAL:
                consumed += self._materialize(node)
                continue
            instructions = self.step_node(
                node, instruction_budget - consumed if sticky else 1
            ).instructions
            if instructions:
                stats.useful_instructions += instructions
                consumed += instructions
            else:
                stats.schedule_steps += 1
                consumed += 1
        return consumed

    # -- materializing nodes ----------------------------------------------------------------

    def _materialize(self, node: TreeNode) -> int:
        """Put on ``node`` a state that :meth:`step_node` did not produce.

        A materialized node kept its state (a revived fence, or a job that
        bounced back) and is adopted as it is.  A virtual one is replayed
        from a fork of the pristine initial state along its whole path; the
        replay is booked as replay work, its interiors are marked dead and
        its off-path siblings fenced (§3.2).  Returns the budget the replay
        consumed.
        """
        if node.is_materialized:
            self.adopt(node)
            return 0
        path = node.path_from_root()
        stats, executor = self.stats, self.executor
        stats.replays += 1
        instructions_before = executor.total_instructions
        solver_stats = executor.solver.stats
        queries_before = solver_stats.queries
        cache_hits_before = solver_stats.cache_hits

        outcome = replay_path(executor, self.initial_state.fork(), path)

        # The replay's steps are replay work; what they found (paths, bugs,
        # test cases on each StepResult) the exporter already booked.
        stats.replay_instructions += executor.total_instructions - instructions_before
        stats.replay_solver_queries += solver_stats.queries - queries_before
        stats.replay_cache_hits += solver_stats.cache_hits - cache_hits_before

        if outcome.broken:
            stats.broken_replays += 1
            node.mark_dead()
            return max(outcome.instructions, 1)

        # Interior nodes along the path are dead; off-path siblings are fences.
        interior = self.tree.root
        for index in path[:-1]:
            child = interior.children.get(index)
            if child is None:
                child = interior.add_child(index, status=NodeStatus.VIRTUAL,
                                           life=NodeLife.DEAD)
            interior = child
            if interior.is_candidate:
                # One of our own candidates sits on the replayed path (it
                # can only happen inside a recovered territory): killing it
                # would orphan its state; stepping it later covers the same
                # interior fork anyway.
                continue
            if interior.is_fence:
                # A fence stays one: another member explores below it, and
                # ``_graft`` would revive a dead virtual child.  Like a
                # dead interior, it keeps no state.
                interior.state = None
            elif not interior.is_dead:
                interior.mark_dead()
        for fence_path, fence_state in outcome.fence_states:
            if self._ours_to_explore(fence_path):
                # The sibling lies inside territory this worker recovered:
                # it is not "being explored elsewhere" -- re-exploration of
                # the recovered root will reach it as a normal candidate.
                continue
            fence_node = self.tree.ensure_path(list(fence_path),
                                               status=NodeStatus.MATERIALIZED,
                                               life=NodeLife.FENCE)
            if fence_node.is_candidate:
                # Never demote one of our own candidates to a fence.
                continue
            fence_node.state = fence_state
            if not fence_node.is_fence:
                fence_node.mark_fence()

        node.materialize(outcome.state)
        self.adopt(node)
        self.frontier.moved(node)
        return max(outcome.instructions, 1)

    # -- job transfer -----------------------------------------------------------------------

    def export_jobs(self, count: int) -> JobTree:
        """Give away up to ``count`` candidate nodes as a path-encoded job tree.

        Exported nodes become fence nodes locally (they are now on the
        boundary between this worker's work and the destination's), which
        prevents redundant exploration (§3.2).
        """
        if count <= 0 or not self.frontier:
            return JobTree()
        # Prefer to part with the most recently created (deepest) candidates:
        # the local strategy tends to be working near the older/shallower part
        # of its frontier, so these are the least disruptive to give away.
        selected = list(islice(reversed(self.frontier), count))
        jobs: List[Job] = []
        for node in selected:
            jobs.append(Job(tuple(node.path_from_root())))
            node.mark_fence()
            self.stats.jobs_exported += 1
        job_tree = JobTree.from_jobs(jobs)
        self.stats.transfers += 1
        self.stats.transfer_encoded_nodes += job_tree.encoded_size()
        self.stats.transfer_naive_nodes += JobTree.naive_size(jobs)
        return job_tree

    def import_jobs(self, job_tree: JobTree,
                    fence_paths: Sequence[Sequence[int]] = (),
                    recovered: bool = False) -> int:
        """Add the leaves of an incoming job tree to the frontier as virtual nodes.

        Recovered jobs (``recovered=True``, a dead worker's re-queued
        territory, §2.3) take the dedicated path below: the local tree may
        hold arbitrary stale bookkeeping inside the recovered subtree --
        replay-time fence shells for work the *dead* worker was doing, dead
        interiors from old imports -- which must be re-explored, while the
        ``fence_paths`` (subtrees live workers own, possibly this very
        worker) must not be.
        """
        imported = 0
        if recovered:
            for job in job_tree.jobs():
                imported += self._import_recovered_job(job.path, fence_paths)
            return imported
        for job in job_tree.jobs():
            # A new node arrives dead and becomes a candidate below, like a
            # node already explored here (the same path bounced back).
            node = self.tree.ensure_path(list(job.path),
                                         status=NodeStatus.VIRTUAL,
                                         life=NodeLife.DEAD)
            if node.is_materialized and node.state is None:
                # A shell without a program state (e.g. the root of a
                # freshly reset tree, or a node killed by mark_dead): force
                # a replay instead of stepping a missing state.
                node.status = NodeStatus.VIRTUAL
            if not node.is_candidate:
                if node.is_materialized:
                    # A fence revived with the state it kept (a replay-time
                    # sibling, or a job that bounced back).
                    self._materialize(node)
                node.mark_candidate()
                imported += 1
                self.stats.jobs_imported += 1
        return imported

    def _import_recovered_job(self, path: Sequence[int],
                              fence_paths: Sequence[Sequence[int]]) -> int:
        """Install one recovered territory root, fencing off live work.

        The local view inside ``subtree(path)`` is *about the dead worker's
        exploration*, not ours: fence shells recorded while replaying jobs
        the dead worker once ceded to us, virtual-dead interiors from those
        imports, and so on.  Everything not protected by a fence path is
        discarded so the replayed root re-explores it from scratch;
        fence-path subtrees (live workers' territory -- including our own
        completed or pending work) are preserved and fenced.
        """
        root_path = tuple(path)
        fences = {tuple(f) for f in fence_paths}
        self._prune_recovered_regions()
        self._recovered_regions.append((root_path, tuple(sorted(fences))))
        node = self.tree.ensure_path(list(root_path),
                                     status=NodeStatus.VIRTUAL,
                                     life=NodeLife.DEAD)
        self._reset_recovered_subtree(node, root_path, fences)
        for fence in fences:
            if self.tree.node_at(list(fence)) is None:
                self.tree.ensure_path(list(fence), status=NodeStatus.VIRTUAL,
                                      life=NodeLife.FENCE)
        # The root always replays from scratch: any state it carried (e.g.
        # an export-time snapshot from when *we* ceded it) describes the
        # subtree before the dead worker explored it, and replay is the one
        # mechanism guaranteed to rebuild a consistent frontier from a path.
        node.state = None
        node.status = NodeStatus.VIRTUAL
        if node.is_candidate:
            self.frontier.moved(node)
            return 0
        node.mark_candidate()
        self.stats.jobs_imported += 1
        self.stats.jobs_recovered += 1
        return 1

    def _reset_recovered_subtree(self, root: TreeNode, root_path: Tuple[int, ...],
                                 fences: Set[Tuple[int, ...]]) -> None:
        # Interior nodes on the way from the root down to a fence survive
        # (re-exploration steps through them); everything else below the
        # root is discarded.
        keep_interior: Set[Tuple[int, ...]] = set()
        for fence in fences:
            for depth in range(len(root_path) + 1, len(fence)):
                keep_interior.add(fence[:depth])

        def walk(node: TreeNode, node_path: Tuple[int, ...]) -> None:
            for index in list(node.children):
                child = node.children[index]
                child_path = node_path + (index,)
                if child_path in fences:
                    # Live territory (possibly our own): keep it whole, and
                    # make sure stepping past it never re-enters -- unless
                    # it is our own pending candidate, which stays one.
                    if not child.is_candidate and not child.is_fence:
                        child.mark_fence()
                    continue
                if child_path in keep_interior:
                    if not child.is_candidate:
                        # Whatever this shell recorded -- a replay-time
                        # fence, or one a later replay marked dead while it
                        # still looked materialized -- described the *dead*
                        # worker's exploration: re-exploration must step
                        # through it, not stop at it.
                        child.status = NodeStatus.VIRTUAL
                        child.mark_dead()
                    walk(child, child_path)
                    continue
                self._discard_subtree(child)
                del node.children[index]
                node.refresh_pair()
                child.parent = None

        walk(root, root_path)

    def _discard_subtree(self, node: TreeNode) -> None:
        """Drop a stale subtree, keeping candidate bookkeeping consistent."""
        for stale in node.iter_subtree():
            if not stale.is_dead:
                # Fixes ancestor candidate counts and the frontier, drops state.
                stale.mark_dead()

    def _prune_recovered_regions(self) -> None:
        """Drop recovered regions whose re-exploration has finished.

        A region stays interesting only while candidates remain inside it
        (the tree's per-subtree candidate counts make the check O(depth));
        once drained, normal fence/dead bookkeeping covers it, and keeping
        it would make ``_ours_to_explore`` scans grow with worker churn.
        """
        live = []
        for root, fences in self._recovered_regions:
            node = self.tree.node_at(list(root))
            if node is not None and node.candidate_count > 0:
                live.append((root, fences))
        self._recovered_regions[:] = live

    def _ours_to_explore(self, path: Sequence[int]) -> bool:
        """Whether ``path`` lies inside a recovered territory of this worker
        (and outside the fence subtrees carved out of it)."""
        path = tuple(path)

        def within(p, root):
            return len(p) >= len(root) and p[:len(root)] == root

        for root, fences in self._recovered_regions:
            if within(path, root) and not any(within(path, f) for f in fences):
                return True
        return False
