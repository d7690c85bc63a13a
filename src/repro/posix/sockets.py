"""TCP and UDP socket model over a single-IP network (paper §4.3, Fig. 6).

"Since no actual hardware is involved in the packet transmission, we can
collapse the entire networking stack into a simple scheme based on two
stream buffers. The network is modeled as a single-IP network with multiple
available ports -- this configuration is sufficient to connect multiple
processes to each other, in order to simulate and test distributed systems."

A TCP connection is a pair of :class:`StreamEndpoint` objects wired so that
one side's TX buffer is the other side's RX buffer.  UDP sockets own one
datagram queue each, addressed by port number.
"""

from __future__ import annotations

from typing import Tuple

from repro.engine.natives import Block, NativeContext
from repro.posix.buffers import StreamBuffer
from repro.posix.common import (
    ERR,
    current_pid,
    ensure_read_wlist,
    lookup_fd,
    notify_readers,
    read_cells_from_memory,
    copy_cells_to_memory,
)
from repro.posix.data import (
    DatagramSocket,
    FdKind,
    FileDescriptor,
    ListeningSocket,
    StreamEndpoint,
    posix_of,
)

# socket() type argument values (AF is ignored: the network has a single IP).
SOCK_STREAM = 1
SOCK_DGRAM = 2


def _connected_pair() -> Tuple[StreamEndpoint, StreamEndpoint]:
    """Two endpoints wired back-to-back (each TX feeds the peer's RX)."""
    a_to_b = StreamBuffer()
    b_to_a = StreamBuffer()
    side_a = StreamEndpoint(rx=b_to_a, tx=a_to_b)
    side_b = StreamEndpoint(rx=a_to_b, tx=b_to_a)
    return side_a, side_b


def posix_socket(ctx: NativeContext):
    """``socket(domain, type)``: create an unbound stream or datagram socket."""
    sock_type = ctx.concrete_arg(1, SOCK_STREAM)
    posix = posix_of(ctx.state)
    if sock_type == SOCK_DGRAM:
        descriptor = FileDescriptor(fd=-1, kind=FdKind.SOCKET_DGRAM,
                                    dgram=DatagramSocket())
    else:
        descriptor = FileDescriptor(fd=-1, kind=FdKind.SOCKET_STREAM,
                                    endpoint=None)
    return posix.allocate_fd(current_pid(ctx), descriptor)


def posix_bind(ctx: NativeContext):
    """``bind(fd, port)`` on the single-IP network."""
    fd = ctx.concrete_arg(0)
    port = ctx.concrete_arg(1)
    entry = lookup_fd(ctx, fd)
    if entry is None:
        return ERR
    posix = posix_of(ctx.state)
    if entry.kind == FdKind.SOCKET_DGRAM:
        if port in posix.udp_ports:
            return ERR  # EADDRINUSE
        posix.own(entry.dgram).port = port
        posix.own_table("udp_ports")[port] = entry.dgram
        return 0
    if entry.kind == FdKind.SOCKET_STREAM:
        if port in posix.listeners:
            return ERR
        # The port is remembered; listen() turns the descriptor passive.
        owned = posix.own_fd(current_pid(ctx), fd)
        owned.endpoint = None
        owned.offset = port  # stash the bound port until listen()
        return 0
    return ERR


def posix_listen(ctx: NativeContext):
    """``listen(fd, backlog)``: make a bound stream socket passive."""
    fd = ctx.concrete_arg(0)
    backlog = ctx.concrete_arg(1, 8)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.SOCKET_STREAM:
        return ERR
    posix = posix_of(ctx.state)
    port = entry.offset
    listener = ListeningSocket(port=port, backlog=backlog)
    posix.own_table("listeners")[port] = listener
    owned = posix.own_fd(current_pid(ctx), fd)
    owned.kind = FdKind.SOCKET_LISTEN
    owned.listener = listener
    return 0


def posix_accept(ctx: NativeContext):
    """``accept(fd)``: return a connected descriptor, blocking until one exists."""
    fd = ctx.concrete_arg(0)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.SOCKET_LISTEN:
        return ERR
    posix = posix_of(ctx.state)
    listener = posix.view(entry.listener)
    if not listener.pending:
        wlist = listener.accept_wlist
        if wlist is None:
            wlist = posix.own(entry.listener).accept_wlist = (
                ctx.state.create_wait_list())
        raise Block(wlist)
    endpoint = posix.own(entry.listener).pending.pop(0)
    descriptor = FileDescriptor(fd=-1, kind=FdKind.SOCKET_STREAM,
                                endpoint=endpoint)
    return posix.allocate_fd(current_pid(ctx), descriptor)


def posix_connect(ctx: NativeContext):
    """``connect(fd, port)``: establish a connection to a listening socket."""
    fd = ctx.concrete_arg(0)
    port = ctx.concrete_arg(1)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.SOCKET_STREAM:
        return ERR
    posix = posix_of(ctx.state)
    key = posix.listeners.get(port)
    if key is None:
        return ERR  # ECONNREFUSED
    listener = posix.view(key)
    if len(listener.pending) >= listener.backlog:
        return ERR
    client_side, server_side = _connected_pair()
    client_side.peer_port = port
    server_side.local_port = port
    posix.own_fd(current_pid(ctx), fd).endpoint = client_side
    posix.own(key).pending.append(server_side)
    if listener.accept_wlist is not None:
        ctx.state.notify(listener.accept_wlist, wake_all=True)
    if posix.select_wlist is not None:
        ctx.state.notify(posix.select_wlist, wake_all=True)
    return 0


def posix_socketpair(ctx: NativeContext):
    """``socketpair(buf)``: create a connected pair, storing the two fds.

    The two descriptor numbers are written as single bytes at ``buf[0]`` and
    ``buf[1]`` (descriptor numbers are small).  This mirrors the convenience
    with which symbolic tests wire a "client" and a "server" together without
    a full connect/accept handshake.
    """
    buf_addr = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    pid = current_pid(ctx)
    side_a, side_b = _connected_pair()
    fd_a = posix.allocate_fd(pid, FileDescriptor(fd=-1, kind=FdKind.SOCKET_STREAM,
                                                 endpoint=side_a))
    fd_b = posix.allocate_fd(pid, FileDescriptor(fd=-1, kind=FdKind.SOCKET_STREAM,
                                                 endpoint=side_b))
    copy_cells_to_memory(ctx.state, buf_addr, [fd_a & 0xFF, fd_b & 0xFF])
    return 0


def posix_shutdown(ctx: NativeContext):
    """``shutdown(fd, how)``: 0 = read side, 1 = write side, 2 = both."""
    fd = ctx.concrete_arg(0)
    how = ctx.concrete_arg(1, 2)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.endpoint is None:
        return ERR
    posix = posix_of(ctx.state)
    endpoint = posix.view(entry.endpoint)
    if how in (0, 2):
        posix.own(endpoint.rx).close_read()
    if how in (1, 2):
        posix.own(endpoint.tx).close_write()
        notify_readers(ctx.state, endpoint.tx)
    return 0


# -- UDP ----------------------------------------------------------------------------


def posix_sendto(ctx: NativeContext):
    """``sendto(fd, buf, n, port)``: deliver one datagram to a bound UDP port."""
    fd = ctx.concrete_arg(0)
    buf_addr = ctx.concrete_arg(1)
    n = ctx.concrete_arg(2)
    port = ctx.concrete_arg(3)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.SOCKET_DGRAM:
        return ERR
    posix = posix_of(ctx.state)
    target = posix.udp_ports.get(port)
    if target is None:
        return ERR
    cells = read_cells_from_memory(ctx.state, buf_addr, n)
    queue = posix.view(target).queue
    posix.own(queue).push_datagram(cells)
    notify_readers(ctx.state, queue)
    return n


def posix_recvfrom(ctx: NativeContext):
    """``recvfrom(fd, buf, n)``: receive one datagram (blocking)."""
    fd = ctx.concrete_arg(0)
    buf_addr = ctx.concrete_arg(1)
    n = ctx.concrete_arg(2)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.SOCKET_DGRAM:
        return ERR
    posix = posix_of(ctx.state)
    queue = posix.view(entry.dgram).queue
    if not posix.view(queue).has_datagram:
        raise Block(ensure_read_wlist(ctx.state, queue))
    cells = posix.own(queue).pop_datagram(max_bytes=n)
    copy_cells_to_memory(ctx.state, buf_addr, cells)
    return len(cells)


HANDLERS = {
    "socket": posix_socket,
    "bind": posix_bind,
    "listen": posix_listen,
    "accept": posix_accept,
    "connect": posix_connect,
    "socketpair": posix_socketpair,
    "shutdown": posix_shutdown,
    "sendto": posix_sendto,
    "recvfrom": posix_recvfrom,
}
