"""The process shells: worker processes or TCP agents under the driver.

This is the paper's deployment shape: shared-nothing workers (each owning a
private executor, solver, strategy and subtree of the global execution tree)
coordinated by a load balancer that only ever sees queue lengths and
coverage bit vectors (§3.1/§3.3).  Work moves between workers as
path-encoded job trees that the destination replays (§3.2) -- never as
serialized program state.

The protocol itself -- rounds, balancing, transfers, the frontier ledger and
failure recovery, checkpoints, finalization -- is decided by
:class:`~repro.distrib.protocol.ProtocolCore` and carried out by
:class:`~repro.distrib.coordinator.Coordinator`, the same two that drive
the in-process cluster over the loopback carrier, so results are directly
comparable across backends by construction.  This module contributes how a
member's :class:`~repro.net.transport.Transport` comes to exist, one shell
and one config class per backend:

* :class:`ProcessCloud9Cluster` / :class:`ProcessClusterConfig`
  (``"process"``) -- one worker process per channel on a pair of
  multiprocessing queues on this host; liveness is ``Process.is_alive()``.
* :class:`TcpCloud9Cluster` / :class:`TcpClusterConfig` (``"tcp"``) --
  framed JSON messages over sockets (:mod:`repro.net`): the coordinator
  listens (``listen="host:port"``) and workers are *agents* that dial in
  (``python -m repro.net.agent --connect HOST:PORT``), from this machine or
  any other.  Liveness is heartbeat-based (periodic pings;
  ``heartbeat_interval`` x ``heartbeat_miss_threshold`` of silence means
  dead), so a SIGKILLed or partitioned remote agent is detected without an
  OS-level oracle and recovered through the coordinator's ledger.

Each round the worker processes explore their instruction budgets
concurrently on real cores; a worker that dies mid-round is marked dead, its
territory requeued to the survivors, and -- under ``respawn=True`` --
replaced instead of the run raising.  Workers live for one ``run()``: they
are started when it begins and stopped when it returns, and the protocol
core (books, balancer and ledger) goes with them, so a second ``run()`` of
the same cluster object starts clean.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.cluster.core import ClusterConfig
from repro.distrib import specs
from repro.distrib.coordinator import Coordinator
from repro.distrib.protocol import Member, WorkerProcessError
from repro.net.framing import DEFAULT_MAX_FRAME_SIZE
from repro.net.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_MISS_THRESHOLD,
)
from repro.net.transport import QueuePairTransport, reap_process

if TYPE_CHECKING:  # the listener loads with the tcp backend
    from repro.net.server import AgentServer

__all__ = ["ProcessClusterConfig", "ProcessCloud9Cluster",
           "TcpClusterConfig", "TcpCloud9Cluster", "WorkerProcessError"]


def default_mp_context() -> Any:
    """The multiprocessing context of the worker processes and their
    channels: "fork" where available (cheap, inherits runtime-registered
    specs), else "spawn"."""
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn")


@dataclass
class ProcessClusterConfig(ClusterConfig):
    """Configuration of a multiprocess Cloud9 cluster.

    The shared :class:`~repro.cluster.core.ClusterConfig` knobs plus the
    spec modules.  The default ``instructions_per_round`` is higher than the
    in-process cluster's because each round costs a command/reply round trip
    per worker, and amortizing that IPC is what makes real-core parallelism
    pay off.
    """

    instructions_per_round: int = 2000
    #: Modules each worker process imports before resolving the spec, for
    #: specs registered outside repro.targets (required under "spawn").
    spec_modules: Tuple[str, ...] = ()


@dataclass
class TcpClusterConfig(ProcessClusterConfig):
    """Configuration of a Cloud9 cluster whose workers are TCP agents: the
    process config plus the listener, liveness and wire settings."""

    #: The ``"host:port"`` the coordinator listens on for agents (port 0
    #: picks a free port; the bound address is ``cluster.listen_address``).
    #: Default loopback-only; listen on ``"0.0.0.0:PORT"`` to accept remote
    #: machines.
    listen: str = "127.0.0.1:0"
    #: Seconds between agent heartbeat pings, and how many may be missed
    #: before a silent agent is declared dead and its territory recovered
    #: (detection latency = interval * miss threshold).
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL
    heartbeat_miss_threshold: int = DEFAULT_MISS_THRESHOLD
    #: Reject wire frames larger than this many bytes (a corrupt or hostile
    #: peer fails alone instead of ballooning the coordinator).
    max_frame_size: int = DEFAULT_MAX_FRAME_SIZE
    #: Seconds to wait for a dialed-in agent when one is needed (initial
    #: membership, ``add_worker``, respawn) before giving up.
    agent_wait_timeout: float = 30.0
    #: Let the coordinator spawn loopback agent processes itself whenever a
    #: worker is needed, instead of waiting for external agents.  Exercises
    #: the full socket path self-contained -- the CI smoke, the benchmarks
    #: and ``backend="tcp"`` quickstarts use this.
    spawn_local_agents: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.heartbeat_miss_threshold < 1:
            raise ValueError("heartbeat_miss_threshold must be at least 1")
        if self.max_frame_size < 1024:
            raise ValueError("max_frame_size must be at least 1 KiB")
        if self.agent_wait_timeout <= 0:
            raise ValueError("agent_wait_timeout must be positive")


class ProcessCloud9Cluster(Coordinator):
    """Run a registered test spec across worker processes on this host.

    Parameters
    ----------
    spec_name / spec_params:
        The registered test spec every worker process rebuilds locally
        (see :mod:`repro.distrib.specs`).
    config:
        Cluster knobs; defaults to ``ProcessClusterConfig()``.
    line_count:
        The program's line count (for the coverage overlay).  When omitted,
        the spec is resolved once in the coordinator to measure it.
    """

    backend_name = "process"
    config: ProcessClusterConfig

    def __init__(self, spec_name: str,
                 spec_params: Optional[Dict[str, object]] = None,
                 config: Optional[ProcessClusterConfig] = None,
                 line_count: Optional[int] = None):
        # Validate the spec (and its arguments' picklability matters only in
        # the children; a bad name should fail fast here in the parent).
        specs.get_spec(spec_name)
        if line_count is None:
            line_count = specs.resolve_test(
                spec_name, **dict(spec_params or {})).program.line_count
        super().__init__(config or ProcessClusterConfig(), line_count,
                         spec_name=spec_name, spec_params=spec_params)

    def _launch(self) -> Member:
        """Start one worker process on its queue pair (without waiting for
        its ReadyReply)."""
        from repro.distrib.worker import worker_main
        worker_id = next(self.core.worker_ids)
        ctx = default_mp_context()
        command_queue = ctx.Queue()
        reply_queue = ctx.Queue()
        process = ctx.Process(
            target=worker_main,
            args=(worker_id, self.spec_name, self.spec_params,
                  self.config.strategy, tuple(self.config.spec_modules),
                  command_queue, reply_queue),
            name="cloud9-worker-%d" % worker_id,
            daemon=True)
        process.start()
        return Member(
            worker_id, QueuePairTransport(process, command_queue, reply_queue))


class TcpCloud9Cluster(ProcessCloud9Cluster):
    """Run a registered test spec across TCP agents that dial in.

    Takes a :class:`TcpClusterConfig`.  The listener opens here, so
    :attr:`listen_address` is dialable before ``run()`` waits for agents.
    """

    backend_name = "tcp"
    config: TcpClusterConfig
    #: The listener agents dial into (closed and None between runs).
    server: Optional[AgentServer]

    def __init__(self, spec_name: str,
                 spec_params: Optional[Dict[str, object]] = None,
                 config: Optional[TcpClusterConfig] = None, **kwargs: Any):
        super().__init__(spec_name, spec_params, config or TcpClusterConfig(),
                         **kwargs)
        self._open_server()

    def _open_server(self) -> AgentServer:
        from repro.net.server import AgentServer
        self.server = AgentServer(
            spec_name=self.spec_name,
            spec_params=self.spec_params,
            strategy=self.config.strategy,
            spec_modules=tuple(self.config.spec_modules),
            listen=self.config.listen,
            heartbeat_interval=self.config.heartbeat_interval,
            heartbeat_miss_threshold=self.config.heartbeat_miss_threshold,
            max_frame_size=self.config.max_frame_size)
        return self.server

    @property
    def listen_address(self) -> Optional[Tuple[str, int]]:
        """The bound (host, port) agents should dial (None between runs)."""
        return self.server.address if self.server is not None else None

    def _spawn_local_agent(self, server: AgentServer) -> Any:
        """Fork one loopback agent process pointed at our own listener."""
        from repro.net.agent import _local_agent_main  # lazy: import cycle
        host, port = server.address
        process = default_mp_context().Process(
            target=_local_agent_main,
            args=("%s:%d" % (host, port), tuple(self.config.spec_modules),
                  self.config.max_frame_size),
            name="cloud9-agent", daemon=True)
        process.start()
        return process

    def _launch(self) -> Member:
        """Admit the next dialed-in agent from the pending pool (first
        spawning a loopback agent of our own under
        ``spawn_local_agents=True``), without waiting for its ReadyReply."""
        from repro.net.server import NoPendingAgent
        worker_id = next(self.core.worker_ids)
        # Re-running after a completed run() finds the listener closed.
        server = self.server or self._open_server()
        process = (self._spawn_local_agent(server)
                   if self.config.spawn_local_agents else None)
        try:
            transport = server.admit(
                worker_id, timeout=self.config.agent_wait_timeout)
        except NoPendingAgent as exc:
            if process is not None:
                reap_process(process, timeout=self.config.shutdown_timeout)
            raise WorkerProcessError(str(exc)) from None
        transport.process = process
        return Member(worker_id, transport)

    def _shutdown_workers(self) -> None:
        super()._shutdown_workers()
        if self.server is not None:
            self.server.close()
            self.server = None

    def add_worker(self) -> int:
        """Admit the next dialed-in agent (spawning a loopback agent first
        under ``spawn_local_agents=True``) -- which is how a ``round_hook``
        grows a cluster from a pool of standby remote hosts."""
        if (self.server is not None
                and not self.config.spawn_local_agents
                and self.server.pending_count == 0):
            # Fail fast instead of stalling the round for agent_wait_timeout:
            # mid-run growth admits agents that have *already* dialed in.
            raise WorkerProcessError(
                "no pending agent to admit at %s:%d -- start one with: "
                "python -m repro.net.agent --connect %s:%d"
                % (self.server.address + self.server.address))
        return super().add_worker()
