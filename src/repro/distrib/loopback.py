"""The in-process shell: the driver over a loopback carrier.

The paper's prototype runs workers on separate machines and measures wall
clock.  :class:`Cloud9Cluster` runs the same protocol core and driver
(:class:`~repro.distrib.coordinator.Coordinator`) with every member in this
process: :class:`LoopbackTransport` hands each command straight to a
:class:`~repro.distrib.worker.DistribWorker` and queues its reply.  Members
step one after another within a round, which makes runs deterministic and
lets the scalability experiments compare rounds-to-goal and
useful-work-per-round across cluster sizes -- the shape of Figures 7-13 --
with exactly the counters a process or TCP cluster would report.  Its
members, and so its core and books, outlive a run.

:class:`StaticPartitionCluster` is the §2 strawman on the same driver:
Cloud9 does *not* statically divide the execution tree because "this
approach leads to high workload imbalance among nodes, making the entire
cluster proceed at the pace of the slowest node" (§8 discusses the same
limitation in the static-partitioning parallel JPF of Staats & Pasareanu
[2010]).  A short bootstrap exploration carves the tree into prefixes, the
prefixes are dealt to the members once, and balancing stays off -- so a
member that exhausts its partition early simply idles.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple, Type

from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.cluster.worker import DEFAULT_STRATEGY, Worker
from repro.distrib.coordinator import Coordinator
from repro.distrib.messages import ReadyReply, StopCommand
from repro.distrib.protocol import CarriedIn, Member, Operation
from repro.distrib.worker import DistribWorker
from repro.engine.executor import SymbolicExecutor
from repro.engine.state import ExecutionState
from repro.net.transport import Transport, TransportClosed

__all__ = ["LoopbackTransport", "Cloud9Cluster", "StaticPartitionCluster",
           "BootstrapOutcome", "ExecutorFactory", "StateFactory"]

ExecutorFactory = Callable[[], SymbolicExecutor]
StateFactory = Callable[[SymbolicExecutor], ExecutionState]

#: Hard limit on the static-partition bootstrap exploration, in steps.
BOOTSTRAP_STEPS = 2_000


class LoopbackTransport(Transport):
    """A channel to a member living in this process: ``send`` runs the
    command on it, ``recv`` pops the reply.  The one place to inject delay,
    loss or death in front of an in-process member (subclass and override)."""

    def __init__(self, member: DistribWorker):
        self.member = member
        self.peer = "in-process worker %d" % member.worker_id
        self._replies: Deque[object] = deque([ReadyReply(
            worker_id=member.worker_id, line_count=member.line_count)])
        self._closed = False

    def send(self, message: object) -> None:
        if self._closed:
            raise TransportClosed("%s is closed" % self.peer)
        if isinstance(message, StopCommand):
            self._closed = True
        else:
            self._replies.append(self.member.handle(message))

    def recv(self, timeout: Optional[float] = None) -> object:
        if not self._replies:
            # Nothing can arrive later: every reply is queued during send.
            raise TransportClosed("%s has no reply pending" % self.peer)
        return self._replies.popleft()

    def is_alive(self) -> bool:
        return not self._closed

    def close(self, timeout: float = 5.0) -> None:
        self._closed = True


class Cloud9Cluster(Coordinator):
    """The public front end: build an in-process cluster and run a
    symbolic-testing goal.

    Members are built eagerly and outlive ``run()``: a cluster can be run a
    few rounds at a time, inspected through :attr:`workers`, grown or shrunk
    between runs, and run again.
    """

    backend_name = "cluster"

    #: The channel put in front of every new member (a fault-injecting
    #: subclass of the cluster substitutes a faulty one).
    carrier: Type[LoopbackTransport] = LoopbackTransport

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[ClusterConfig] = None):
        self.executor_factory = executor_factory
        self.state_factory = state_factory
        # One executor per member; the first is built here, to learn the
        # program's line count, and goes to the first member.
        first = executor_factory()
        self._spare_executor: Optional[SymbolicExecutor] = first
        # Every Worker ever launched, by id (departed and dead ones included).
        self._launched: Dict[int, Worker] = {}
        super().__init__(config or ClusterConfig(), first.program.line_count)
        self._start_workers()

    def _launch(self) -> Member:
        executor = self._spare_executor or self.executor_factory()
        self._spare_executor = None
        # The member's pristine initial state: built once, only ever forked.
        worker = Worker(next(self.core.worker_ids), executor,
                        self.state_factory(executor),
                        strategy_name=self.strategy or DEFAULT_STRATEGY)
        self._launched[worker.worker_id] = worker
        return Member(worker.worker_id, self.carrier(DistribWorker(worker)))

    def _teardown_run(self) -> None:
        """Members outlive the run (see the class docstring)."""

    @property
    def workers(self) -> List[Worker]:
        """The live members' :class:`Worker` objects."""
        return [self._launched[h.worker_id] for h in self.handles]


@dataclass
class BootstrapOutcome(CarriedIn):
    """What the pre-partitioning exploration produced: the prefixes it carved
    the tree into, on top of its own results -- the account the run carries
    in, exactly like a resumed checkpoint's."""

    prefixes: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def instructions(self) -> int:
        return self.useful_instructions


class StaticPartitionCluster(Cloud9Cluster):
    """Statically partitioned parallel symbolic execution (the §2 strawman).

    The bootstrap mimics the offline pre-computation of disjoint
    preconditions; its own results are the run's carried-in account, exactly
    like a resumed checkpoint's.  It runs when a fresh run begins, so a
    cluster built to resume a checkpoint never bootstraps.
    """

    backend_name = "static"
    config: StaticPartitionConfig

    def __init__(self, executor_factory: ExecutorFactory,
                 state_factory: StateFactory,
                 config: Optional[StaticPartitionConfig] = None):
        super().__init__(executor_factory, state_factory,
                         config or StaticPartitionConfig())
        #: What the bootstrap produced (None until a fresh run has dealt it).
        self.bootstrap: Optional[BootstrapOutcome] = None

    def _seed(self) -> Operation:
        """Deal the bootstrap's prefixes in place of the seed job; nothing
        will ever move between members afterwards."""
        self.bootstrap = self._bootstrap_split()
        return self.core.carry_in(self.bootstrap, self.bootstrap.prefixes)

    def _bootstrap_split(self) -> BootstrapOutcome:
        """Expand the tree breadth-first until there is work for every worker."""
        wanted = self.config.num_workers
        executor = self.executor_factory()
        frontier: Deque[ExecutionState] = deque([self.state_factory(executor)])
        outcome = BootstrapOutcome()
        steps = 0
        while frontier and len(frontier) < wanted and steps < BOOTSTRAP_STEPS:
            state = frontier.popleft()
            result = executor.step(state)
            steps += 1
            outcome.paths_completed += len(result.terminated)
            outcome.bugs.extend(result.bugs)
            outcome.test_cases.extend(result.test_cases)
            for child in result.children:
                outcome.covered_lines.update(child.coverage)
                if child.is_running:
                    frontier.append(child)
        outcome.prefixes = [tuple(state.fork_trace) for state in frontier]
        outcome.useful_instructions = executor.total_instructions
        return outcome
