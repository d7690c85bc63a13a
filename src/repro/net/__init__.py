"""Network transports for cross-machine clusters.

The paper evaluated Cloud9 on large EC2 clusters; :mod:`repro.distrib`
reproduces the coordinator/worker protocol but carried it on one host's
multiprocessing queues.  This package abstracts the carrier:

* :mod:`repro.net.framing` -- the TCP wire format: length-prefixed frames
  with size limits, each one registered message class as schema-checked
  JSON (:mod:`repro.cluster.plain`'s record codec; nothing a peer sends is
  unpickled).
* :mod:`repro.net.transport` -- the :class:`~repro.net.transport.Transport`
  interface plus both implementations: the in-host mp-queue pair
  (:class:`~repro.net.transport.QueuePairTransport`, unchanged behavior)
  and framed messages over a socket
  (:class:`~repro.net.transport.TcpTransport`), with the hello/welcome
  handshake messages and protocol version.
* :mod:`repro.net.heartbeat` -- ping-based liveness replacing
  ``Process.is_alive()`` across machines.
* :mod:`repro.net.server` -- the coordinator-side listener and
  pending-agent pool (:class:`~repro.net.server.AgentServer`).
* :mod:`repro.net.agent` -- the remote worker agent
  (``python -m repro.net.agent --connect HOST:PORT``).  Not imported here:
  it pulls in the worker stack, which would cycle back through
  :mod:`repro.distrib`.

The mp-queue pair is the carrier of
:class:`~repro.distrib.cluster.ProcessCloud9Cluster` (``backend="process"``
of :meth:`repro.testing.symbolic_test.SymbolicTest.run`); the socket
carrier and the agent server are
:class:`~repro.distrib.cluster.TcpCloud9Cluster`'s, configured by
:class:`~repro.distrib.cluster.TcpClusterConfig` (``backend="tcp"``).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.framing": ("DEFAULT_MAX_FRAME_SIZE", "FrameCorruptError",
                          "FrameDecoder", "FrameError", "FrameTooLarge",
                          "encode_frame"),
    "repro.net.heartbeat": ("HeartbeatMonitor", "HeartbeatSender"),
    "repro.net.server": ("AgentServer", "NoPendingAgent"),
    "repro.net.transport": ("PROTOCOL_VERSION", "HelloMessage",
                            "QueuePairTransport", "ReceiveTimeout",
                            "RejectMessage", "TcpTransport", "Transport",
                            "TransportClosed", "TransportError",
                            "WelcomeMessage"),
})

__all__ = [
    "DEFAULT_MAX_FRAME_SIZE", "FrameError", "FrameTooLarge",
    "FrameCorruptError", "FrameDecoder", "encode_frame",
    "HeartbeatMonitor", "HeartbeatSender",
    "AgentServer", "NoPendingAgent",
    "PROTOCOL_VERSION", "HelloMessage", "WelcomeMessage", "RejectMessage",
    "Transport", "QueuePairTransport", "TcpTransport",
    "TransportError", "TransportClosed", "ReceiveTimeout",
]
