"""``select()``-style polling over modeled descriptors (paper §4.3).

"The Cloud9 POSIX model supports polling through the select() interface.
[...] The select() model relies on the event notification support offered by
the stream buffers that are used in the implementation of blocking I/O
objects (currently sockets and pipes)."

The native's calling convention is adapted to the reproduction's language
(no fd_set bit manipulation):

``select(read_fds, n_read, write_fds, n_write, timeout)`` where ``read_fds``
and ``write_fds`` are byte arrays of descriptor numbers.  The return value is
a bitmask: bit *i* is set when ``read_fds[i]`` is readable and bit *16+j*
when ``write_fds[j]`` is writable.  ``timeout == 0`` polls without blocking;
any other value blocks until at least one descriptor becomes ready.
"""

from __future__ import annotations

from typing import List

from repro.engine.natives import Block, NativeContext
from repro.engine.values import is_concrete
from repro.posix.common import ERR, ensure_select_wlist, lookup_fd
from repro.posix.data import FdKind, FileDescriptor, PosixState, posix_of


def _fd_readable(posix: PosixState, entry: FileDescriptor) -> bool:
    view = posix.view
    if entry.kind == FdKind.FILE:
        return True
    if entry.kind == FdKind.SOCKET_LISTEN:
        return bool(view(entry.listener).pending)
    if entry.kind == FdKind.SOCKET_DGRAM:
        return view(view(entry.dgram).queue).has_datagram
    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_READ):
        return (entry.endpoint is not None
                and view(view(entry.endpoint).rx).readable)
    if entry.kind == FdKind.CHAR_SOURCE:
        return False
    return False


def _fd_writable(posix: PosixState, entry: FileDescriptor) -> bool:
    if entry.kind in (FdKind.FILE, FdKind.CHAR_SINK):
        return True
    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_WRITE):
        return (entry.endpoint is not None
                and posix.view(posix.view(entry.endpoint).tx).writable)
    if entry.kind == FdKind.SOCKET_DGRAM:
        return True
    return False


def _read_fd_list(ctx: NativeContext, address: int, count: int) -> List[int]:
    if address == 0 or count == 0:
        return []
    fds: List[int] = []
    for i in range(count):
        cell = ctx.state.mem_read(address, i)
        fds.append(cell if is_concrete(cell) else ctx.concretize(cell))
    return fds


def posix_select(ctx: NativeContext):
    read_addr = ctx.concrete_arg(0)
    n_read = ctx.concrete_arg(1)
    write_addr = ctx.concrete_arg(2, 0)
    n_write = ctx.concrete_arg(3, 0)
    timeout = ctx.concrete_arg(4, 1)

    read_fds = _read_fd_list(ctx, read_addr, n_read)
    write_fds = _read_fd_list(ctx, write_addr, n_write)
    if not read_fds and not write_fds:
        return 0

    posix = posix_of(ctx.state)
    mask = 0
    any_symbolic_source = False
    for i, fd in enumerate(read_fds):
        entry = lookup_fd(ctx, fd)
        if entry is None:
            return ERR
        if entry.symbolic_source:
            any_symbolic_source = True
        if entry.symbolic_source or _fd_readable(posix, entry):
            mask |= 1 << i
    for j, fd in enumerate(write_fds):
        entry = lookup_fd(ctx, fd)
        if entry is None:
            return ERR
        if _fd_writable(posix, entry):
            mask |= 1 << (16 + j)

    if mask or timeout == 0 or any_symbolic_source:
        return mask
    # Nothing ready: block on the model-wide select wait list, which every
    # data-producing operation notifies.
    raise Block(ensure_select_wlist(ctx.state))


HANDLERS = {
    "select": posix_select,
}
