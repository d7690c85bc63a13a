"""The remote worker agent: ``python -m repro.net.agent --connect HOST:PORT``.

Run this on any machine that can reach the coordinator.  The agent dials in,
introduces itself (:class:`~repro.net.transport.HelloMessage`, protocol
version checked by the coordinator), waits in the coordinator's pending pool
until admitted, and on the :class:`~repro.net.transport.WelcomeMessage`
runs :func:`repro.distrib.worker.serve` -- the very loop a forked
:func:`~repro.distrib.worker.worker_main` process runs, except that the
``(spec_name, spec_params)`` pair arrived over the wire instead of as
process arguments and commands come off a socket instead of a queue: rebuild
the target from the spec registry, then explore one budget per round, report
status, export/import path-encoded jobs.

A daemon thread sends heartbeat pings every ``heartbeat_interval`` seconds
(from the welcome), so the coordinator can tell "busy exploring" from
"dead" without an OS-level ``is_alive``.  Any exception -- while rebuilding
the spec or while handling a command -- ships back as an ``ErrorReply`` so
the coordinator fails *this worker* with a real traceback; a vanished
coordinator (EOF on the socket) just ends the agent.
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
from typing import Optional, Sequence

from repro.net.framing import DEFAULT_MAX_FRAME_SIZE
from repro.net.heartbeat import HeartbeatSender
from repro.net.transport import (
    PROTOCOL_COMPAT_VERSION,
    PROTOCOL_VERSION,
    HelloMessage,
    RejectMessage,
    TcpTransport,
    TransportError,
    WelcomeMessage,
    parse_address,
)

__all__ = ["AgentRejected", "run_agent", "main"]


class AgentRejected(RuntimeError):
    """The coordinator refused this agent during the handshake."""


#: Seconds to wait for the TCP connection to the coordinator.
DIAL_TIMEOUT = 30.0


def _agent_name() -> str:
    return "%s:%d" % (socket.gethostname(), os.getpid())


def run_agent(connect: str, spec_modules: Sequence[str] = (),
              max_frame_size: int = DEFAULT_MAX_FRAME_SIZE) -> int:
    """Dial the coordinator and serve as one worker until stopped.

    Returns the number of commands served (useful to tests; the CLI ignores
    it).  The wait in the pending pool is unbounded, which is what a standby
    pool that ``add_worker`` admits from needs.  Raises
    :class:`AgentRejected` on a handshake refusal and :class:`TransportError`
    if the coordinator vanishes before admission.
    """
    host, port = parse_address(connect)
    sock = socket.create_connection((host, port), timeout=DIAL_TIMEOUT)
    sock.settimeout(None)
    transport = TcpTransport(sock, peer="coordinator %s:%d" % (host, port),
                             max_frame_size=max_frame_size)
    transport.start_receiver()
    sender = None
    try:
        transport.send(HelloMessage(protocol_version=PROTOCOL_VERSION,
                                    agent=_agent_name()))
        welcome = transport.recv()
        if isinstance(welcome, RejectMessage):
            raise AgentRejected(welcome.reason)
        if not isinstance(welcome, WelcomeMessage):
            raise TransportError("coordinator sent %r instead of a welcome"
                                 % (welcome,))
        if welcome.protocol_version < PROTOCOL_COMPAT_VERSION:
            # The mirror of the server-side window: this agent only knows
            # how to omit fields back to its own compat floor.
            raise AgentRejected(
                "coordinator speaks protocol %d but this agent requires "
                ">= %d" % (welcome.protocol_version,
                           PROTOCOL_COMPAT_VERSION))
        transport.max_frame_size = welcome.max_frame_size
        # Pings start *before* the (possibly slow) spec rebuild, so a big
        # target cannot read as a dead newcomer.
        sender = HeartbeatSender(transport.send_ping,
                                 interval=welcome.heartbeat_interval).start()
        # Late import: pulling in the engine stack only once we are
        # actually admitted keeps the dial-and-wait phase cheap.
        from repro.distrib.worker import serve

        def recv() -> Optional[object]:
            try:
                return transport.recv()
            except TransportError:
                return None  # coordinator hung up; nothing left to serve

        return serve(welcome.worker_id, welcome.spec_name, welcome.spec_params,
                     welcome.strategy,
                     tuple(spec_modules) + tuple(welcome.spec_modules),
                     recv, transport.send)
    finally:
        if sender is not None:
            sender.stop()
        transport.close(timeout=0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.agent",
        description="Worker agent: dial into a listening repro coordinator "
                    "and serve as one cluster worker.")
    parser.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="coordinator address (TcpClusterConfig(listen="
                             "...), printed as cluster.listen_address)")
    parser.add_argument("--spec-module", action="append", default=[],
                        metavar="MODULE",
                        help="extra module to import before resolving the "
                             "spec (repeatable; for specs registered outside "
                             "repro.targets)")
    parser.add_argument("--max-frame-size", type=int,
                        default=DEFAULT_MAX_FRAME_SIZE, metavar="BYTES",
                        help="reject wire frames larger than this "
                             "(default %(default)d)")
    args = parser.parse_args(argv)
    try:
        run_agent(args.connect, spec_modules=args.spec_module,
                  max_frame_size=args.max_frame_size)
    except AgentRejected as exc:
        print("agent rejected: %s" % exc, file=sys.stderr)
        return 2
    except (TransportError, OSError) as exc:
        print("agent: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _local_agent_main(connect: str, spec_modules: Sequence[str],
                      max_frame_size: int) -> None:
    """Process entry point for coordinator-spawned loopback agents
    (``TcpClusterConfig(spawn_local_agents=True)``)."""
    try:
        run_agent(connect, spec_modules=spec_modules,
                  max_frame_size=max_frame_size)
    except (AgentRejected, TransportError, OSError):
        pass  # the coordinator sees the death through the transport


if __name__ == "__main__":  # pragma: no cover - exercised by the CLI smoke
    sys.exit(main())
