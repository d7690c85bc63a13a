"""The coordinator<->worker channel, abstracted.

The process cluster's protocol was message-based from day one: every command
gets exactly one reply, and everything crossing the boundary is a plain-data
dataclass (:mod:`repro.distrib.messages`).  What varied was the *carrier* --
hardwired multiprocessing queues.  This module names the carrier:

* :class:`Transport` -- what the coordinator needs from a channel to one
  worker: ``send``/``recv``, a liveness verdict, and teardown with the
  shutdown-escalation semantics the cluster already has.
* :class:`QueuePairTransport` -- the existing in-host mp-queue pair plus its
  worker process, refactored behind the interface with zero behavior change
  (liveness is still ``Process.is_alive()``, teardown is still
  join -> terminate -> kill plus queue draining).
* :class:`TcpTransport` -- length-prefixed JSON frames of registered
  message classes (:mod:`repro.net.framing`) over a socket, with
  heartbeat-based liveness
  (:mod:`repro.net.heartbeat`) and a receiver thread that turns wire faults
  (EOF, oversized or corrupt frames) into per-peer errors instead of
  coordinator crashes.

The handshake messages (:class:`HelloMessage` / :class:`WelcomeMessage` /
:class:`RejectMessage`) also live here: an agent dials in and says hello
with its protocol version; the coordinator either rejects the version or
welcomes it with a worker id and the spec to rebuild -- the same
``(spec_name, spec_params)`` pair :func:`repro.distrib.worker.worker_main`
receives as process arguments today, just travelling over the wire.
"""

from __future__ import annotations

import queue as queue_module
import select
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.net.framing import (
    DEFAULT_MAX_FRAME_SIZE,
    PING_FRAME,
    FrameDecoder,
    FrameError,
    decode_message,
    encode_message,
)
from repro.net.heartbeat import HeartbeatMonitor

__all__ = [
    "PROTOCOL_VERSION", "PROTOCOL_COMPAT_VERSION",
    "HelloMessage", "WelcomeMessage", "RejectMessage",
    "TransportError", "TransportClosed", "ReceiveTimeout",
    "Transport", "QueuePairTransport", "TcpTransport",
    "parse_address", "reap_process",
]

#: Version of the coordinator<->agent wire protocol.  Bumped on any change
#: to the framing, the handshake, or the command/reply message set; the
#: handshake rejects mismatches so a stale agent fails fast with a clear
#: reason instead of desynchronizing mid-run.
#: v2: ExploreCommand.trace, the no-explore status command, StatusReply
#: events and cache_counters (the observability message set).
#: v3: the worker solver's query-latency histogram rides home with the
#: results, so the run-level solver_query p50/p99 covers process/tcp
#: workers too.
#: v4: a member files one report -- StatusReply carries its WorkerStats and,
#: asked in full, its results; ReportCommand replaces the drain-status and
#: finalize commands and the final reply is gone (breaking: floor moved too).
#: v5: a member leaves in one step, so ReportCommand always asks for the
#: full report and its ``full`` field is gone (breaking: floor moved too).
#: v6: frames carry schema-checked JSON instead of pickles (breaking: floor
#: moved too).
#: v7: StatusReply.covered_lines is gone: a member's lines are its
#: coverage_bits and the run's are the coordinator's overlay (breaking:
#: floor moved too).
PROTOCOL_VERSION = 7

#: Oldest protocol version whose agents may still join a campaign: the
#: coordinator admits any hello in
#: ``[PROTOCOL_COMPAT_VERSION, PROTOCOL_VERSION]``.  A purely additive
#: change (new trailing message fields with defaults) bumps only
#: ``PROTOCOL_VERSION``; a breaking change advances both.  The golden frames
#: in ``tests/golden/`` hold both numbers to the code.
PROTOCOL_COMPAT_VERSION = 7


# -- handshake messages ------------------------------------------------------------------


@dataclass(frozen=True)
class HelloMessage:
    """First frame an agent sends after connecting."""

    protocol_version: int
    agent: str = ""  # free-form peer description, e.g. "host:pid"


@dataclass(frozen=True)
class WelcomeMessage:
    """Coordinator's admission: identity plus everything needed to rebuild
    the target locally, exactly as a forked worker process receives it."""

    protocol_version: int
    worker_id: int
    spec_name: str
    spec_params: Dict[str, object] = field(default_factory=dict)
    strategy: Optional[str] = None
    spec_modules: Tuple[str, ...] = ()
    heartbeat_interval: float = 0.5
    max_frame_size: int = DEFAULT_MAX_FRAME_SIZE


@dataclass(frozen=True)
class RejectMessage:
    """Handshake refusal (version mismatch, malformed hello)."""

    reason: str
    protocol_version: int = PROTOCOL_VERSION


# -- errors ------------------------------------------------------------------------------


class TransportError(RuntimeError):
    """The channel to one peer failed (the peer, not the run, is lost)."""


class TransportClosed(TransportError):
    """The channel is closed: peer hung up or teardown already ran."""


class ReceiveTimeout(Exception):
    """``recv`` produced nothing within the caller's timeout (retryable)."""


# -- the interface -----------------------------------------------------------------------


class Transport:
    """One coordinator<->worker channel.

    ``send``/``recv`` move whole message objects; both raise
    :class:`TransportError` when the channel itself is broken (``recv``
    raises :class:`ReceiveTimeout` when merely idle).  ``is_alive`` is the
    liveness oracle the receive loop polls between timeouts -- process
    aliveness for the queue pair, heartbeat freshness for TCP.  ``close``
    tears the channel down, bounded by ``timeout`` at each escalation step,
    and reaps :attr:`process`.  The coordinator reads nothing else, so it
    never asks which carrier it drives.
    """

    #: Short human-readable peer name, used in every error message.
    peer: str = "?"
    #: The worker process behind this channel when one runs on this host
    #: (the queue pair's child, or a loopback agent the coordinator spawned
    #: itself); ``close`` reaps it.  None for a remote or in-process member.
    process: Any = None
    #: True when liveness was lost to heartbeat silence specifically
    #: (surfaced as the ``heartbeat_misses`` result counter).
    heartbeat_missed: bool = False

    def send(self, message: object) -> None:
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> object:
        raise NotImplementedError

    def is_alive(self) -> bool:
        raise NotImplementedError

    def liveness_error(self) -> str:
        """Why ``is_alive()`` is False (best effort; used in failure reports)."""
        return "peer %s is gone" % self.peer

    def close(self, timeout: float = 5.0) -> None:
        raise NotImplementedError


# -- helpers -----------------------------------------------------------------------------


def parse_address(address: str, default_host: str = "127.0.0.1"
                  ) -> Tuple[str, int]:
    """Parse ``"host:port"`` (or bare ``"port"``) into a (host, port) pair."""
    text = str(address).strip()
    if ":" in text:
        host, _, port_text = text.rpartition(":")
        host = host.strip("[]") or default_host
    else:
        host, port_text = default_host, text
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError("bad address %r (expected HOST:PORT)" % (address,)
                         ) from None
    if not 0 <= port <= 65535:
        raise ValueError("bad port %d in address %r" % (port, address))
    return host, port


def reap_process(process, timeout: float = 5.0) -> None:
    """Join a child process, escalating join -> terminate -> kill."""
    process.join(timeout=timeout if process.is_alive() else 1.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=timeout)
    if process.is_alive():
        process.kill()
        process.join(timeout=timeout)


# -- the in-host implementation ----------------------------------------------------------


class QueuePairTransport(Transport):
    """The original carrier: a worker process plus its mp-queue pair.

    Coordinator-side view: ``send`` puts on the command queue, ``recv`` gets
    from the reply queue, liveness is the OS's word on the child process,
    and ``close`` reaps the process (cooperative join, then terminate, then
    kill) and drains both queues so their feeder threads exit promptly.
    """

    def __init__(self, process, command_queue, reply_queue):
        self.process = process
        self.command_queue = command_queue
        self.reply_queue = reply_queue
        self.peer = "worker process %s" % (getattr(process, "name", "?"),)

    def send(self, message: object) -> None:
        try:
            self.command_queue.put(message)
        except (OSError, ValueError) as exc:
            raise TransportClosed(
                "command queue to %s is closed: %s" % (self.peer, exc)
            ) from exc

    def recv(self, timeout: Optional[float] = None) -> object:
        try:
            return self.reply_queue.get(timeout=timeout)
        except queue_module.Empty:
            raise ReceiveTimeout from None
        except (OSError, ValueError, EOFError) as exc:
            raise TransportClosed(
                "reply queue from %s is closed: %s" % (self.peer, exc)
            ) from exc

    def is_alive(self) -> bool:
        return self.process.is_alive()

    def liveness_error(self) -> str:
        return "died (exit code %r)" % (self.process.exitcode,)

    def close(self, timeout: float = 5.0) -> None:
        reap_process(self.process, timeout=timeout)
        for q in (self.command_queue, self.reply_queue):
            try:
                while True:
                    q.get_nowait()
            except (queue_module.Empty, OSError, ValueError, EOFError):
                pass
            q.close()


# -- the socket implementation -----------------------------------------------------------


class TcpTransport(Transport):
    """Framed messages over one socket, with per-peer fault containment.

    A receiver thread reassembles frames (:class:`FrameDecoder`), feeds
    every arrival into the heartbeat monitor, answers pings by updating it,
    and parks decoded messages on an inbox queue that :meth:`recv` serves.
    Any wire fault -- EOF, an oversized frame, a payload that does not
    decode -- is recorded as *this peer's* failure: ``recv`` raises a
    :class:`TransportError` naming the peer, the coordinator turns that into
    a single ``Failure`` event, and the run continues on the survivors.

    Used on both ends: the coordinator attaches a heartbeat monitor
    (``heartbeat=``); the agent leaves it None and detects a dead
    coordinator by EOF instead.
    """

    #: Socket read chunk size (frames are reassembled, so any value works).
    RECV_CHUNK = 65536

    #: Longest a single send may stall waiting for the peer to drain its
    #: receive buffer before the peer is declared dead.  Heartbeats bound
    #: how long a *silent* peer survives; this bounds a peer that stopped
    #: reading -- otherwise one stalled worker wedges the coordinator's
    #: broadcast loop (the send happens under ``_send_lock``).
    SEND_TIMEOUT = 30.0

    def __init__(self, sock: socket.socket, peer: str,
                 max_frame_size: int = DEFAULT_MAX_FRAME_SIZE,
                 heartbeat: Optional[HeartbeatMonitor] = None,
                 send_timeout: Optional[float] = None):
        self._sock = sock
        self.send_timeout = (self.SEND_TIMEOUT if send_timeout is None
                             else send_timeout)
        self.peer = peer
        self.max_frame_size = max_frame_size
        self.heartbeat = heartbeat
        self._send_lock = threading.Lock()
        self._inbox: "queue_module.Queue[object]" = queue_module.Queue()
        self._receiver: Optional[threading.Thread] = None
        #: Set once the receiver observed EOF or a wire fault (or close ran).
        self._done = threading.Event()
        self._error: Optional[str] = None
        self._closed = False

    # -- sending ------------------------------------------------------------------

    def _sendall(self, data: bytes) -> None:
        # Bounded hand-rolled sendall: wait for writability with a deadline
        # instead of calling sock.sendall(), which can block indefinitely
        # under _send_lock when the peer stops reading (kernel buffers full).
        # Each write uses MSG_DONTWAIT so a single send() can never block
        # either (a blocking unix-stream send waits for the *whole* buffer,
        # even after select reports writability); the socket's blocking mode
        # is left alone because the receiver thread shares the fd.
        deadline = time.monotonic() + self.send_timeout
        view = memoryview(data)
        try:
            with self._send_lock:
                while view:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TransportClosed(
                            "send to %s stalled for %.0fs (peer stopped "
                            "reading)" % (self.peer, self.send_timeout))
                    _, writable, _ = select.select(
                        [], [self._sock], [], min(remaining, 1.0))
                    if not writable:
                        continue
                    try:
                        sent = self._sock.send(view, socket.MSG_DONTWAIT)
                    except BlockingIOError:
                        continue  # lost the race for the buffer space
                    view = view[sent:]
        except OSError as exc:
            raise TransportClosed(
                "connection to %s is closed: %s" % (self.peer, exc)) from exc

    def send(self, message: object) -> None:
        if self._closed:
            raise TransportClosed("connection to %s already closed" % self.peer)
        try:
            frame = encode_message(message, max_frame_size=self.max_frame_size)
        except FrameError as exc:
            raise TransportError("cannot send to %s: %s" % (self.peer, exc)
                                 ) from exc
        self._sendall(frame)

    def send_ping(self) -> None:
        """Send one heartbeat ping (a zero-length frame)."""
        self._sendall(PING_FRAME)

    # -- receiving ----------------------------------------------------------------

    def start_receiver(self) -> "TcpTransport":
        """Start the frame-reassembly thread (idempotent)."""
        if self._receiver is None:
            self._receiver = threading.Thread(
                target=self._receive_loop,
                name="tcp-recv %s" % self.peer, daemon=True)
            self._receiver.start()
        return self

    def _receive_loop(self) -> None:
        decoder = FrameDecoder(max_frame_size=self.max_frame_size)
        try:
            while True:
                try:
                    data = self._sock.recv(self.RECV_CHUNK)
                except OSError:
                    if not self._closed:
                        self._error = "connection to %s lost" % self.peer
                    return
                if not data:  # orderly EOF
                    return
                for payload in decoder.feed(data):
                    if self.heartbeat is not None:
                        self.heartbeat.beat()
                    if not payload:  # heartbeat ping
                        continue
                    self._inbox.put(decode_message(payload))
        except FrameError as exc:
            self._error = "bad frame from %s: %s" % (self.peer, exc)
        finally:
            self._done.set()

    def recv(self, timeout: Optional[float] = None) -> object:
        """Next decoded message; drains the inbox even after the peer died.

        Raises :class:`ReceiveTimeout` when idle, :class:`TransportError`
        (naming the peer) once the inbox is dry and the channel is known
        broken.  ``timeout=None`` blocks until a message or channel death.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return self._inbox.get(timeout=0.2)
            except queue_module.Empty:
                pass
            if self._done.is_set() and self._inbox.empty():
                if self._error:
                    raise TransportError(self._error)
                raise TransportClosed(
                    "connection to %s closed by peer" % self.peer)
            if deadline is not None and time.monotonic() >= deadline:
                raise ReceiveTimeout

    # -- liveness -----------------------------------------------------------------

    def is_alive(self) -> bool:
        if self._closed or self._done.is_set():
            return False
        if self.heartbeat is not None and not self.heartbeat.is_alive():
            self.heartbeat_missed = True
            return False
        return True

    def liveness_error(self) -> str:
        if self._error:
            return self._error
        if self.heartbeat_missed and self.heartbeat is not None:
            return self.heartbeat.describe_miss()
        return "connection to %s closed" % self.peer

    # -- teardown -----------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Tear the channel down; waits up to ``timeout`` for a graceful EOF.

        The coordinator calls this after sending ``StopCommand``: the drain
        window lets a cooperative agent finish and hang up first, and a
        wedged one is simply disconnected when the window expires -- the
        socket-level analogue of the join -> terminate -> kill escalation.
        """
        if self._receiver is not None and timeout > 0:
            self._done.wait(timeout)
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        if self._receiver is not None:
            self._receiver.join(timeout=timeout)
        if self.process is not None:
            reap_process(self.process, timeout=timeout)
