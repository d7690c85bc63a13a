"""Coordinator-side listener: where remote worker agents dial in.

The paper's clusters grow by *workers joining*, not by the coordinator
reaching out: an operator starts agents on as many machines as desired and
points them all at one coordinator address.  This module is that rendezvous.
:class:`AgentServer` listens on a TCP address, performs the protocol
handshake with every connection (hello in, version checked, reject or park),
and keeps handshaken-but-unassigned connections in a *pending pool*.  The
cluster's ``add_worker`` on the TCP path means "admit the next agent from
this pool" -- so scale-up is an admission, and a ``round_hook`` that grows
the cluster reaches remote hosts without knowing it.

Admission (:meth:`AgentServer.admit`) is where an agent becomes a worker:
it is assigned its worker id and told, via :class:`WelcomeMessage`, which
registered spec to rebuild -- from then on the coordinator drives it with
the exact same command/reply protocol as a local worker process.
"""

from __future__ import annotations

import dataclasses
import queue as queue_module
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro.net.framing import (
    DEFAULT_MAX_FRAME_SIZE,
    FrameDecoder,
    FrameError,
    decode_message,
    encode_message,
)
from repro.net.heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_MISS_THRESHOLD,
    HeartbeatMonitor,
)
from repro.net.transport import (
    PROTOCOL_COMPAT_VERSION,
    PROTOCOL_VERSION,
    HelloMessage,
    RejectMessage,
    TcpTransport,
    TransportError,
    WelcomeMessage,
)

__all__ = ["AgentServer", "NoPendingAgent"]


class NoPendingAgent(RuntimeError):
    """``admit`` found no handshaken agent within its timeout."""


class AgentServer:
    """Listen for worker agents; handshake them; hand them out on demand.

    Parameters mirror what every admitted agent must be told: the spec to
    rebuild (name, params, strategy, extra modules) and the channel knobs
    (heartbeat cadence, frame-size ceiling).  ``listen`` is ``"host:port"``
    with port 0 meaning "pick a free port" -- the bound address is on
    :attr:`address` immediately after construction, so callers can print or
    publish it before any agent exists.  A ``spec_params`` value the wire
    cannot carry (see :mod:`repro.net.framing`) is a ``ValueError`` naming
    it, raised here rather than at every admission.
    """

    def __init__(self, spec_name: str,
                 spec_params: Optional[Dict[str, object]] = None,
                 strategy: Optional[str] = None,
                 spec_modules: Tuple[str, ...] = (),
                 listen: str = "127.0.0.1:0",
                 heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
                 heartbeat_miss_threshold: int = DEFAULT_MISS_THRESHOLD,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 handshake_timeout: float = 5.0):
        from repro.net.transport import parse_address
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_miss_threshold = heartbeat_miss_threshold
        self.max_frame_size = max_frame_size
        #: Every admission's welcome but for the worker id.
        self._welcome = WelcomeMessage(
            protocol_version=PROTOCOL_VERSION, worker_id=0,
            spec_name=spec_name, spec_params=dict(spec_params or {}),
            strategy=strategy, spec_modules=tuple(spec_modules),
            heartbeat_interval=heartbeat_interval,
            max_frame_size=max_frame_size)
        try:
            encode_message(self._welcome, max_frame_size=max_frame_size)
        except FrameError as exc:
            raise ValueError("tcp agents cannot be sent spec %r's "
                             "spec_params: %s" % (spec_name, exc)) from None
        self.handshake_timeout = handshake_timeout
        host, port = parse_address(listen)
        self._sock = socket.create_server((host, port))
        self._sock.settimeout(0.2)
        self.address: Tuple[str, int] = self._sock.getsockname()[:2]
        self._pending: "queue_module.Queue[TcpTransport]" = queue_module.Queue()
        self._closed = threading.Event()
        #: Total agents admitted as workers over this server's lifetime.
        self.agents_admitted = 0
        #: Connections refused during the handshake (version mismatch,
        #: malformed hello) -- visible for diagnostics and tests.
        self.handshakes_rejected = 0
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            name="agent-server %s:%d" % self.address, daemon=True)
        self._acceptor.start()

    # -- accepting ----------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Handshaken agents waiting to be admitted."""
        return self._pending.qsize()

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, addr = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            try:
                self._handshake(conn, "%s:%d" % (addr[0], addr[1]))
            except Exception:
                # One bad connection must never take the acceptor down.
                try:
                    conn.close()
                except OSError:
                    pass

    def _handshake(self, conn: socket.socket, peer: str) -> None:
        """Read the hello, verify the version, park or reject."""
        conn.settimeout(self.handshake_timeout)
        decoder = FrameDecoder(max_frame_size=self.max_frame_size)
        try:
            hello = self._read_hello(conn, decoder)
        except (OSError, FrameError):
            conn.close()
            self.handshakes_rejected += 1
            return
        transport = TcpTransport(conn, peer="agent %s" % peer,
                                 max_frame_size=self.max_frame_size)
        if (not isinstance(hello, HelloMessage)
                or not (PROTOCOL_COMPAT_VERSION
                        <= hello.protocol_version <= PROTOCOL_VERSION)):
            got = (hello.protocol_version
                   if isinstance(hello, HelloMessage) else repr(hello))
            try:
                transport.send(RejectMessage(
                    reason="protocol version mismatch: coordinator accepts "
                           "%d..%d, agent sent %s"
                           % (PROTOCOL_COMPAT_VERSION, PROTOCOL_VERSION,
                              got)))
            except TransportError:
                pass
            transport.close(timeout=0)
            self.handshakes_rejected += 1
            return
        if hello.agent:
            transport.peer = "agent %s (%s)" % (peer, hello.agent)
        conn.settimeout(None)
        self._pending.put(transport)

    def _read_hello(self, conn: socket.socket, decoder: FrameDecoder):
        """Blocking read of exactly one frame (the hello) from a raw socket."""
        while True:
            data = conn.recv(TcpTransport.RECV_CHUNK)
            if not data:
                raise OSError("connection closed during handshake")
            payloads = decoder.feed(data)
            if payloads:
                return decode_message(payloads[0])

    # -- admission ----------------------------------------------------------------

    def admit(self, worker_id: int, timeout: float = 30.0) -> TcpTransport:
        """Turn the next pending agent into worker ``worker_id``.

        Sends the :class:`WelcomeMessage` (spec, strategy, heartbeat
        cadence), arms the heartbeat monitor, and starts the receiver
        thread.  An agent that hung up while waiting in the pool is skipped.
        Raises :class:`NoPendingAgent` when no agent dials in within
        ``timeout`` seconds.
        """
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NoPendingAgent(
                    "no worker agent dialed into %s:%d within %.1fs -- "
                    "start one with: python -m repro.net.agent "
                    "--connect %s:%d"
                    % (self.address + (timeout,) + self.address))
            try:
                transport = self._pending.get(timeout=min(remaining, 0.5))
            except queue_module.Empty:
                continue
            monitor = HeartbeatMonitor(
                interval=self.heartbeat_interval,
                miss_threshold=self.heartbeat_miss_threshold)
            transport.heartbeat = monitor
            monitor.beat()
            try:
                transport.send(dataclasses.replace(self._welcome,
                                                   worker_id=worker_id))
            except TransportError:
                transport.close(timeout=0)
                continue  # vanished while pending; try the next one
            transport.start_receiver()
            self.agents_admitted += 1
            return transport

    # -- teardown -----------------------------------------------------------------

    def close(self) -> None:
        """Stop accepting and drop every still-pending connection."""
        self._closed.set()
        try:
            self._sock.close()
        except OSError:
            pass
        if self._acceptor.is_alive():
            self._acceptor.join(timeout=2.0)
        while True:
            try:
                transport = self._pending.get_nowait()
            except queue_module.Empty:
                break
            transport.close(timeout=0)
