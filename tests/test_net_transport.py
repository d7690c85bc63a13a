"""The socket transport in isolation (no cluster, no forked workers).

Covers the wire format (length-prefixed frames: partial reads, coalesced
frames, zero-length heartbeat pings, oversize and corrupt payloads), the
heartbeat liveness logic on a frozen clock, the :class:`TcpTransport`
send/recv/liveness surface over a socketpair, and the coordinator-side
handshake (version check, pending pool, admission).
"""

import pickle
import socket
import struct
import threading
import time

import pytest

from conftest import wait_until
from repro.cluster.jobs import Job, JobTree
from repro.distrib.messages import (
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ImportCommand,
    ImportReply,
    ReadyReply,
)
from repro.net.framing import (
    DEFAULT_MAX_FRAME_SIZE,
    PING_FRAME,
    FrameCorruptError,
    FrameDecoder,
    FrameTooLarge,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.net.heartbeat import HeartbeatMonitor, HeartbeatSender
from repro.net.server import AgentServer, NoPendingAgent
from repro.net.transport import (
    PROTOCOL_COMPAT_VERSION,
    PROTOCOL_VERSION,
    HelloMessage,
    ReceiveTimeout,
    RejectMessage,
    TcpTransport,
    TransportClosed,
    TransportError,
    WelcomeMessage,
    parse_address,
)


class _Clock:
    """A hand-cranked monotonic clock for deterministic liveness tests."""

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _text(details):
    """A real wire message whose size is the size of ``details``."""
    return ErrorReply(worker_id=1, details=details)


# -- framing -----------------------------------------------------------------------------


class TestFraming:
    def test_message_round_trip(self):
        message = ExploreCommand(budget=40)
        payloads = FrameDecoder().feed(encode_message(message))
        assert len(payloads) == 1
        assert decode_message(payloads[0]) == message

    def test_coalesced_frames_split_apart(self):
        messages = [_text("one"), ImportReply(worker_id=2, imported=2),
                    ExportCommand(count=3)]
        wire = b"".join(encode_message(m) for m in messages)
        payloads = FrameDecoder().feed(wire)  # one chunk, three frames
        assert [decode_message(p) for p in payloads] == messages

    def test_partial_reads_reassemble_byte_by_byte(self):
        message = ImportCommand(encoded_jobs=JobTree.from_jobs(
            Job((index,)) for index in range(50)).encode())
        wire = encode_message(message)
        decoder = FrameDecoder()
        payloads = []
        for i in range(len(wire)):  # worst-case fragmentation
            payloads.extend(decoder.feed(wire[i:i + 1]))
        assert len(payloads) == 1
        assert decode_message(payloads[0]) == message
        assert decoder.buffered_bytes == 0

    def test_buffered_bytes_tracks_incomplete_frames(self):
        wire = encode_message(_text("hello"))
        decoder = FrameDecoder()
        assert decoder.feed(wire[:3]) == []
        assert decoder.buffered_bytes == 3
        assert decoder.feed(wire[3:-1]) == []
        assert decoder.feed(wire[-1:]) != []
        assert decoder.buffered_bytes == 0

    def test_zero_length_payload_is_the_ping_frame(self):
        assert encode_frame(b"") == PING_FRAME
        decoder = FrameDecoder()
        # A ping sandwiched between real frames comes out as b"".
        wire = (encode_message(_text("a")) + PING_FRAME
                + encode_message(_text("b")))
        payloads = decoder.feed(wire)
        assert payloads[1] == b""
        assert decode_message(payloads[0]) == _text("a")
        assert decode_message(payloads[2]) == _text("b")

    def test_encode_rejects_oversized_payloads(self):
        with pytest.raises(FrameTooLarge, match="refusing to send"):
            encode_frame(b"x" * 2048, max_frame_size=1024)
        with pytest.raises(FrameTooLarge):
            encode_message(_text("y" * 2048), max_frame_size=1024)

    def test_decoder_rejects_oversized_declarations_before_allocating(self):
        header = struct.pack(">I", 1 << 30)  # declares a 1 GiB payload
        with pytest.raises(FrameTooLarge, match="peer declared"):
            FrameDecoder(max_frame_size=1024).feed(header)

    def test_corrupt_payload_raises_with_size(self):
        with pytest.raises(FrameCorruptError, match="corrupt frame"):
            decode_message(b"\x00not a pickle at all")

    def test_unpicklable_message_raises_on_encode(self):
        with pytest.raises(FrameCorruptError, match="does not encode"):
            encode_message(lambda: None)

    def test_a_pickle_is_refused_and_never_run(self, tmp_path):
        """Regression: a frame payload used to go to ``pickle.loads``, so a
        peer could run code on the coordinator before the handshake."""
        marker = tmp_path / "side-effect"

        class Exploit:
            def __reduce__(self):
                return (marker.mkdir, ())

        with pytest.raises(FrameCorruptError, match="corrupt frame"):
            decode_message(pickle.dumps(Exploit()))
        assert not marker.exists()


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("10.0.0.5:4850") == ("10.0.0.5", 4850)

    def test_bare_port_defaults_to_loopback(self):
        assert parse_address("4850") == ("127.0.0.1", 4850)

    def test_bad_port_rejected(self):
        with pytest.raises(ValueError, match="bad address"):
            parse_address("host:notaport")
        with pytest.raises(ValueError, match="bad port"):
            parse_address("host:70000")


# -- heartbeat liveness on a frozen clock ------------------------------------------------


class TestHeartbeatMonitor:
    def test_fresh_monitor_is_alive(self):
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=4,
                                   clock=_Clock())
        assert monitor.is_alive()
        assert monitor.misses() == 0

    def test_silence_accumulates_misses(self):
        clock = _Clock()
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=4, clock=clock)
        clock.advance(1.7)  # 3 whole intervals of silence
        assert monitor.misses() == 3
        assert monitor.is_alive()  # one miss short of the threshold
        clock.advance(0.5)
        assert monitor.misses() == 4
        assert not monitor.is_alive()

    def test_beat_resets_the_silence_window(self):
        clock = _Clock()
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=4, clock=clock)
        clock.advance(1.9)
        monitor.beat()
        assert monitor.silence() == 0.0
        clock.advance(1.9)  # still under 4 x 0.5s since the beat
        assert monitor.is_alive()

    def test_describe_miss_names_the_numbers(self):
        clock = _Clock()
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=2, clock=clock)
        clock.advance(3.0)
        text = monitor.describe_miss()
        assert "missed 6 heartbeats" in text
        assert "threshold 2" in text

    def test_validation(self):
        with pytest.raises(ValueError, match="interval"):
            HeartbeatMonitor(interval=0.0)
        with pytest.raises(ValueError, match="miss_threshold"):
            HeartbeatMonitor(miss_threshold=0)


class TestHeartbeatSender:
    def test_pings_flow_until_stopped(self):
        pings = []
        sender = HeartbeatSender(lambda: pings.append(1), interval=0.01)
        sender.start()
        wait_until(lambda: len(pings) >= 3, what="three pings")
        sender.stop()
        settled = len(pings)
        wait_until(lambda: not sender._thread.is_alive(),
                   what="sender thread exit")
        assert len(pings) <= settled + 1  # stopped means stopped, for good

    def test_failing_send_ends_the_thread(self):
        def boom():
            raise OSError("connection gone")

        sender = HeartbeatSender(boom, interval=0.01)
        sender.start()
        wait_until(lambda: not sender._thread.is_alive(),
                    what="sender thread exit")


# -- TcpTransport over a socketpair ------------------------------------------------------


def _transport_pair(max_frame_size=DEFAULT_MAX_FRAME_SIZE,
                    heartbeat_a=None, heartbeat_b=None):
    """Two connected transports, receivers running, like a live channel."""
    sock_a, sock_b = socket.socketpair()
    a = TcpTransport(sock_a, peer="peer-b", max_frame_size=max_frame_size,
                     heartbeat=heartbeat_a).start_receiver()
    b = TcpTransport(sock_b, peer="peer-a", max_frame_size=max_frame_size,
                     heartbeat=heartbeat_b).start_receiver()
    return a, b


def _transport_and_raw(max_frame_size=DEFAULT_MAX_FRAME_SIZE):
    """One transport plus the raw far-end socket, for wire-level mischief."""
    sock_a, sock_raw = socket.socketpair()
    transport = TcpTransport(sock_a, peer="agent 10.0.0.9:4850",
                             max_frame_size=max_frame_size).start_receiver()
    return transport, sock_raw


class TestTcpTransport:
    def test_send_recv_round_trip_both_directions(self):
        a, b = _transport_pair()
        try:
            a.send(ImportReply(worker_id=1, imported=1))
            b.send(ImportReply(worker_id=2, imported=2))
            assert b.recv(timeout=5.0) == ImportReply(worker_id=1, imported=1)
            assert a.recv(timeout=5.0) == ImportReply(worker_id=2, imported=2)
        finally:
            a.close(timeout=0)
            b.close(timeout=0)

    def test_recv_times_out_when_idle(self):
        a, b = _transport_pair()
        try:
            with pytest.raises(ReceiveTimeout):
                a.recv(timeout=0.05)
        finally:
            a.close(timeout=0)
            b.close(timeout=0)

    def test_pings_feed_the_heartbeat_but_not_the_inbox(self):
        clock = _Clock()
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=4, clock=clock)
        a, b = _transport_pair(heartbeat_a=monitor)
        try:
            clock.advance(1.9)  # nearly dead...
            b.send_ping()
            wait_until(lambda: monitor.silence() == 0.0, what="ping to land")
            assert a.is_alive()  # ...revived by the ping
            b.send(_text("real message"))
            assert a.recv(timeout=5.0) == _text("real message")  # ping not queued
        finally:
            a.close(timeout=0)
            b.close(timeout=0)

    def test_heartbeat_miss_kills_liveness_with_frozen_clock(self):
        clock = _Clock()
        monitor = HeartbeatMonitor(interval=0.5, miss_threshold=4, clock=clock)
        a, b = _transport_pair(heartbeat_a=monitor)
        try:
            assert a.is_alive()
            clock.advance(2.0)  # 4 intervals of silence = the threshold
            assert not a.is_alive()
            assert a.heartbeat_missed
            assert "missed" in a.liveness_error()
        finally:
            a.close(timeout=0)
            b.close(timeout=0)

    def test_peer_eof_raises_transport_closed(self):
        a, b = _transport_pair()
        b.close(timeout=0)
        try:
            with pytest.raises(TransportClosed, match="peer-b"):
                a.recv(timeout=5.0)
            assert not a.is_alive()
        finally:
            a.close(timeout=0)

    def test_inbox_drains_before_reporting_the_death(self):
        a, b = _transport_pair()
        b.send(_text("parting gift 1"))
        b.send(_text("parting gift 2"))
        # Wait for delivery before hanging up, then the inbox must still
        # serve both messages ahead of the closure error.
        wait_until(lambda: a._inbox.qsize() == 2, what="delivery")
        b.close(timeout=0)
        try:
            assert a.recv(timeout=5.0) == _text("parting gift 1")
            assert a.recv(timeout=5.0) == _text("parting gift 2")
            with pytest.raises(TransportClosed):
                a.recv(timeout=5.0)
        finally:
            a.close(timeout=0)

    def test_oversized_frame_fails_this_peer_by_name(self):
        transport, raw = _transport_and_raw(max_frame_size=1024)
        try:
            raw.sendall(struct.pack(">I", 1 << 20))  # declares 1 MiB
            with pytest.raises(TransportError,
                               match="bad frame from agent 10.0.0.9:4850"):
                transport.recv(timeout=5.0)
            assert not transport.is_alive()
            assert "bad frame" in transport.liveness_error()
        finally:
            transport.close(timeout=0)
            raw.close()

    def test_corrupt_frame_fails_this_peer_by_name(self):
        transport, raw = _transport_and_raw()
        try:
            raw.sendall(encode_frame(b"\x00these bytes do not unpickle"))
            with pytest.raises(TransportError,
                               match="bad frame from agent 10.0.0.9:4850"):
                transport.recv(timeout=5.0)
        finally:
            transport.close(timeout=0)
            raw.close()

    def test_oversize_send_is_refused_locally(self):
        a, b = _transport_pair(max_frame_size=1024)
        try:
            with pytest.raises(TransportError, match="cannot send to peer-b"):
                a.send(_text("x" * 4096))
        finally:
            a.close(timeout=0)
            b.close(timeout=0)

    def test_send_after_close_raises(self):
        a, b = _transport_pair()
        a.close(timeout=0)
        b.close(timeout=0)
        with pytest.raises(TransportClosed, match="already closed"):
            a.send(_text("too late"))

    def test_send_to_stalled_peer_fails_within_the_deadline(self):
        """Regression: a peer that stops *reading* must not wedge the sender.

        sock.sendall() under _send_lock blocks forever once the kernel
        buffers fill; the bounded send must give up after send_timeout and
        declare the peer dead instead.
        """
        sock_a, sock_stalled = socket.socketpair()
        # Tiny buffers so a few frames fill the pipe; the far end never reads.
        for sock in (sock_a, sock_stalled):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        transport = TcpTransport(sock_a, peer="stalled-agent",
                                 send_timeout=0.3)
        try:
            start = time.monotonic()
            with pytest.raises(TransportClosed, match="stalled"):
                for _ in range(1000):
                    transport.send(_text("x" * 8192))
            assert time.monotonic() - start < 5.0
        finally:
            transport.close(timeout=0)
            sock_stalled.close()

    def test_multi_chunk_send_completes_when_the_peer_reads(self):
        """The select-loop send must reassemble into identical frames even
        when one payload spans many partial send() calls."""
        sock_a, sock_b = socket.socketpair()
        for sock in (sock_a, sock_b):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        a = TcpTransport(sock_a, peer="peer-b")
        b = TcpTransport(sock_b, peer="peer-a").start_receiver()
        payload = _text("y" * (1 << 20))  # 1 MiB >> the 4 KiB socket buffers
        try:
            sender = threading.Thread(target=a.send, args=(payload,))
            sender.start()
            assert b.recv(timeout=10.0) == payload
            sender.join(timeout=10.0)
            assert not sender.is_alive()
        finally:
            a.close(timeout=0)
            b.close(timeout=0)


# -- coordinator-side fault containment --------------------------------------------------


class TestFaultContainment:
    def test_corrupt_frame_becomes_one_workers_failure(self):
        """The cluster receive loop turns a wire fault into a Failure event
        for that handle -- the per-peer error the ledger recovery consumes --
        instead of an exception that would abort the whole run."""
        from repro.distrib.cluster import (
            ProcessCloud9Cluster,
            ProcessClusterConfig,
        )
        from repro.distrib.protocol import Failure, Member

        cluster = ProcessCloud9Cluster(
            "printf", spec_params={"format_length": 2},
            config=ProcessClusterConfig(num_workers=2, reply_timeout=0.5))
        transport, raw = _transport_and_raw()
        handle = Member(worker_id=9, transport=transport)
        try:
            raw.sendall(encode_frame(b"garbage that will not unpickle"))
            failure = cluster._receive(handle)
            assert isinstance(failure, Failure)
            assert failure.member is handle
            assert "bad frame from agent 10.0.0.9:4850" in failure.reason
        finally:
            transport.close(timeout=0)
            raw.close()


# -- the handshake -----------------------------------------------------------------------


def _server(**kw):
    kw.setdefault("spec_params", {"format_length": 2})
    kw.setdefault("handshake_timeout", 2.0)
    return AgentServer("printf", **kw)


def _dial(server, max_frame_size=DEFAULT_MAX_FRAME_SIZE):
    host, port = server.address
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(None)
    return TcpTransport(sock, peer="coordinator",
                        max_frame_size=max_frame_size).start_receiver()


class TestHandshake:
    def test_hello_parks_and_admit_welcomes(self):
        server = _server()
        client = None
        admitted = None
        try:
            client = _dial(server)
            client.send(HelloMessage(protocol_version=PROTOCOL_VERSION,
                                     agent="testhost:1234"))
            wait_until(lambda: server.pending_count == 1, what="parking")
            admitted = server.admit(worker_id=7, timeout=5.0)
            assert "testhost:1234" in admitted.peer
            welcome = client.recv(timeout=5.0)
            assert isinstance(welcome, WelcomeMessage)
            assert welcome.worker_id == 7
            assert welcome.spec_name == "printf"
            assert welcome.spec_params == {"format_length": 2}
            assert welcome.protocol_version == PROTOCOL_VERSION
            assert welcome.heartbeat_interval == server.heartbeat_interval
            # Admission armed a live channel: commands flow both ways.
            admitted.send(ExploreCommand(budget=40))
            assert client.recv(timeout=5.0) == ExploreCommand(budget=40)
            client.send(ReadyReply(worker_id=7, line_count=112))
            assert admitted.recv(timeout=5.0) == ReadyReply(worker_id=7,
                                                            line_count=112)
            assert server.agents_admitted == 1
            assert server.pending_count == 0
        finally:
            if admitted is not None:
                admitted.close(timeout=0)
            if client is not None:
                client.close(timeout=0)
            server.close()

    def test_version_mismatch_is_rejected_with_reason(self):
        # Too new, and version 6: its agents send StatusReply.covered_lines.
        assert PROTOCOL_COMPAT_VERSION == PROTOCOL_VERSION == 7
        server = _server()
        clients = []
        try:
            for rejected, version in enumerate((PROTOCOL_VERSION + 1, 6), 1):
                clients.append(_dial(server))
                clients[-1].send(HelloMessage(protocol_version=version))
                reply = clients[-1].recv(timeout=5.0)
                assert isinstance(reply, RejectMessage)
                assert "version mismatch" in reply.reason
                assert "accepts 7..7, agent sent %d" % version in reply.reason
                wait_until(lambda expected=rejected:
                            server.handshakes_rejected == expected,
                            what="rejection count")
                assert server.pending_count == 0
        finally:
            for client in clients:
                client.close(timeout=0)
            server.close()

    def test_garbage_hello_is_dropped_and_server_survives(self):
        server = _server()
        client = None
        try:
            raw = socket.create_connection(server.address, timeout=5.0)
            raw.sendall(encode_frame(b"not a hello at all"))
            wait_until(lambda: server.handshakes_rejected == 1,
                        what="garbage rejection")
            raw.close()
            # The acceptor is still alive: a well-behaved agent parks fine.
            client = _dial(server)
            client.send(HelloMessage(protocol_version=PROTOCOL_VERSION))
            wait_until(lambda: server.pending_count == 1,
                        what="post-garbage parking")
        finally:
            if client is not None:
                client.close(timeout=0)
            server.close()

    def test_a_pickled_hello_is_dropped_and_the_next_agent_admitted(self):
        """A version-5 agent sends its hello as a pickle; the server drops
        that connection without unpickling it and keeps serving."""
        server = _server()
        client = admitted = None
        try:
            raw = socket.create_connection(server.address, timeout=5.0)
            raw.sendall(encode_frame(pickle.dumps(
                HelloMessage(protocol_version=5, agent="old:1"))))
            wait_until(lambda: server.handshakes_rejected == 1,
                       what="pickled hello rejection")
            raw.close()
            assert server.pending_count == 0
            client = _dial(server)
            client.send(HelloMessage(protocol_version=PROTOCOL_VERSION,
                                     agent="new:2"))
            admitted = server.admit(worker_id=1, timeout=5.0)
            assert "new:2" in admitted.peer
            assert isinstance(client.recv(timeout=5.0), WelcomeMessage)
        finally:
            if admitted is not None:
                admitted.close(timeout=0)
            if client is not None:
                client.close(timeout=0)
            server.close()

    def test_a_parameter_the_wire_cannot_carry_is_refused_up_front(self):
        """Not at every admission, where each agent would be dropped."""
        with pytest.raises(ValueError, match=r"spec 'printf'.*'when': "
                                             r"<object object .*> is not "
                                             r"plain data"):
            _server(spec_params={"format_length": 2, "when": object()})

    def test_admit_without_agents_names_the_dial_command(self):
        server = _server()
        try:
            with pytest.raises(NoPendingAgent,
                               match="python -m repro.net.agent"):
                server.admit(worker_id=1, timeout=0.2)
        finally:
            server.close()

    def test_close_drops_pending_connections(self):
        server = _server()
        client = _dial(server)
        try:
            client.send(HelloMessage(protocol_version=PROTOCOL_VERSION))
            wait_until(lambda: server.pending_count == 1, what="parking")
            server.close()
            # The parked channel was hung up on: the client sees EOF.
            with pytest.raises(TransportError):
                client.recv(timeout=5.0)
        finally:
            client.close(timeout=0)
            server.close()
