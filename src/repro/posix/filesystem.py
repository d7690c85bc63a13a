"""Files, descriptors and the generic ``read``/``write``/``close`` natives.

The file model follows KLEE/Cloud9 semantics (§4.3): a descriptor either
refers to a *symbolic file* backed by a block buffer, or to a *concrete file*
whose contents were preloaded from the host (external calls are restricted to
read-only accesses, so the model simply snapshots the data at setup time).

``read`` and ``write`` are the dispatch points for every descriptor kind
(files, sockets, pipes, character devices) and are where the Cloud9 testing
extensions hook in:

* ``SIO_SYMBOLIC``      -- reads return fresh symbolic bytes;
* ``SIO_PKT_FRAGMENT``  -- reads on stream sockets return a prefix of the
  available data, either following an explicit fragmentation pattern or
  forking over every possible fragment size (symbolic fragmentation);
* ``SIO_FAULT_INJ`` / ``cloud9_fi_enable`` -- operations may fail with -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.engine.natives import Block, ForkBranch, NativeContext, NativeFork
from repro.engine.state import ExecutionState
from repro.posix.buffers import BlockBuffer, Cell
from repro.posix.common import (
    ERR,
    copy_cells_to_memory,
    current_pid,
    ensure_read_wlist,
    fresh_symbolic_bytes,
    lookup_fd,
    notify_readers,
    read_cells_from_memory,
)
from repro.posix.data import FdKind, FileDescriptor, FileNode, posix_of
from repro.posix.fault import fault_injection_active, fork_with_fault
from repro.solver import expr as E

# open() flags (the subset the targets use).
O_RDONLY = 0x0
O_WRONLY = 0x1
O_RDWR = 0x2
O_CREAT = 0x40
O_TRUNC = 0x200

SEEK_SET = 0
SEEK_CUR = 1
SEEK_END = 2


# -- open / close / lseek / unlink ---------------------------------------------


def posix_open(ctx: NativeContext):
    """``open(path, flags)`` on the modeled file system."""
    path = ctx.read_c_string(ctx.concrete_arg(0))
    flags = ctx.concrete_arg(1, O_RDONLY)
    posix = posix_of(ctx.state)
    node = posix.filesystem.get(path)
    if node is None or not posix.view(node).exists:
        if not flags & O_CREAT:
            return ERR
        node = FileNode(path=path, data=BlockBuffer())
        posix.own_table("filesystem")[path] = node
    if flags & O_TRUNC:
        posix.own(posix.view(node).data).truncate(0)
    descriptor = FileDescriptor(fd=-1, kind=FdKind.FILE, file=node)
    return posix.allocate_fd(current_pid(ctx), descriptor)


def posix_close(ctx: NativeContext):
    fd = ctx.concrete_arg(0)
    entry = lookup_fd(ctx, fd)
    if entry is None:
        return ERR
    posix = posix_of(ctx.state)
    posix.own_fd(current_pid(ctx), fd).closed = True
    if entry.endpoint is not None:
        endpoint = posix.view(entry.endpoint)
        posix.own(endpoint.tx).close_write()
        posix.own(endpoint.rx).close_read()
        notify_readers(ctx.state, endpoint.tx)
    if entry.listener is not None:
        posix.own_table("listeners").pop(posix.view(entry.listener).port, None)
    port = posix.view(entry.dgram).port if entry.dgram is not None else None
    if port is not None:
        posix.own_table("udp_ports").pop(port, None)
    return 0


def posix_lseek(ctx: NativeContext):
    fd = ctx.concrete_arg(0)
    offset = ctx.concrete_arg(1)
    whence = ctx.concrete_arg(2, SEEK_SET)
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.FILE:
        return ERR
    posix = posix_of(ctx.state)
    if whence == SEEK_CUR:
        offset += entry.offset
    elif whence == SEEK_END:
        offset += posix.view(posix.view(entry.file).data).size
    elif whence != SEEK_SET:
        return ERR
    posix.own_fd(current_pid(ctx), fd).offset = offset
    return offset


def posix_unlink(ctx: NativeContext):
    path = ctx.read_c_string(ctx.concrete_arg(0))
    posix = posix_of(ctx.state)
    node = posix.filesystem.get(path)
    if node is None or not posix.view(node).exists:
        return ERR
    posix.own(node).exists = False
    return 0


def posix_file_size(ctx: NativeContext):
    """``c9_file_size(path)`` -- helper used by targets and tests."""
    path = ctx.read_c_string(ctx.concrete_arg(0))
    posix = posix_of(ctx.state)
    node = posix.view(posix.filesystem.get(path))
    if node is None or not node.exists:
        return ERR
    return posix.view(node.data).size


def posix_dup(ctx: NativeContext):
    fd = ctx.concrete_arg(0)
    entry = lookup_fd(ctx, fd)
    if entry is None:
        return ERR
    clone = FileDescriptor(
        fd=-1, kind=entry.kind, file=entry.file, offset=entry.offset,
        endpoint=entry.endpoint, listener=entry.listener, dgram=entry.dgram)
    return posix_of(ctx.state).allocate_fd(current_pid(ctx), clone)


# -- read -------------------------------------------------------------------------


@dataclass
class _ReadPlan:
    """What a read would return if executed now (computed without side effects)."""

    count: int
    is_stream: bool = False
    is_datagram: bool = False


def _plan_read(ctx: NativeContext, entry: FileDescriptor, n: int) -> _ReadPlan:
    """Determine how many bytes a read can return, blocking if none yet."""
    posix = posix_of(ctx.state)
    if entry.kind == FdKind.FILE:
        size = posix.view(posix.view(entry.file).data).size
        return _ReadPlan(count=min(n, max(size - entry.offset, 0)))
    if entry.kind == FdKind.CHAR_SOURCE:
        return _ReadPlan(count=0)
    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_READ):
        if entry.endpoint is None:
            return _ReadPlan(count=0)
        key = posix.view(entry.endpoint).rx
        stream = posix.view(key)
        if stream.is_empty and not stream.write_closed:
            raise Block(ensure_read_wlist(ctx.state, key))
        if stream.at_eof:
            return _ReadPlan(count=0, is_stream=True)
        return _ReadPlan(count=min(n, len(stream)), is_stream=True)
    if entry.kind == FdKind.SOCKET_DGRAM:
        key = posix.view(entry.dgram).queue
        queue = posix.view(key)
        if not queue.has_datagram:
            raise Block(ensure_read_wlist(ctx.state, key))
        size = queue.datagram_sizes[0]
        return _ReadPlan(count=min(n, size), is_datagram=True)
    return _ReadPlan(count=0)


def _commit_read(state: ExecutionState, fd: int, buf_addr: int, count: int,
                 consume_pattern: bool) -> None:
    """Perform the data movement of a read of ``count`` bytes on ``state``."""
    posix = posix_of(state)
    pid = state.current[0]
    entry = posix.lookup(pid, fd)
    if entry is None or count == 0:
        return
    if entry.kind == FdKind.FILE:
        cells = posix.view(posix.view(entry.file).data).read(entry.offset, count)
        posix.own_fd(pid, fd).offset = entry.offset + len(cells)
        copy_cells_to_memory(state, buf_addr, cells)
        return
    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_READ):
        cells = posix.own(posix.view(entry.endpoint).rx).pop(count)
        copy_cells_to_memory(state, buf_addr, cells)
        if consume_pattern and entry.fragment_pattern:
            posix.own_fd(pid, fd).fragment_pattern.pop(0)
        return
    if entry.kind == FdKind.SOCKET_DGRAM:
        queue = posix.own(posix.view(entry.dgram).queue)
        copy_cells_to_memory(state, buf_addr, queue.pop_datagram(max_bytes=count))
        return


def posix_read(ctx: NativeContext):
    """``read(fd, buf, n)`` with symbolic-source, fragmentation and faults."""
    fd = ctx.concrete_arg(0)
    buf_addr = ctx.concrete_arg(1)
    n = ctx.concrete_arg(2)
    entry = lookup_fd(ctx, fd)
    if entry is None:
        return ERR
    if entry.kind in (FdKind.CHAR_SINK, FdKind.SOCKET_LISTEN):
        return ERR
    if n <= 0:
        return 0
    state = ctx.state
    fault_active = fault_injection_active(ctx, entry, is_write=False)

    # Symbolic input source (SIO_SYMBOLIC): fresh symbolic bytes.
    if entry.symbolic_source:
        posix = posix_of(state)
        posix.symbolic_read_counter += 1
        label = "fd%d_read%d" % (fd, posix.symbolic_read_counter)
        cells = fresh_symbolic_bytes(state, label, n)

        def deliver(target: ExecutionState, data=cells, addr=buf_addr) -> None:
            copy_cells_to_memory(target, addr, data)

        if fault_active:
            return fork_with_fault(ctx, "read", n, deliver)
        deliver(state)
        return n

    plan = _plan_read(ctx, entry, n)
    if plan.count == 0:
        return 0

    count = plan.count
    pattern_used = False
    if plan.is_stream and entry.fragment_reads and entry.fragment_pattern:
        count = min(count, entry.fragment_pattern[0])
        pattern_used = True

    if fault_active:
        def success(target: ExecutionState, c=count, used=pattern_used) -> None:
            _commit_read(target, fd, buf_addr, c, used)

        return fork_with_fault(ctx, "read", count, success)

    if (plan.is_stream and entry.fragment_reads and not entry.fragment_pattern
            and count > 1):
        # Symbolic stream fragmentation: fork one successor per fragment size.
        # The fan-out per read can be bounded with the ``frag_choice_limit``
        # option (sizes 1..limit-1 plus "everything available"), which keeps
        # exhaustive fragmentation searches tractable for longer requests.
        limit = state.options.get("frag_choice_limit")
        sizes = list(range(1, count + 1))
        if limit is not None and count > int(limit):
            sizes = list(range(1, int(limit))) + [count]
        chooser = state.new_symbol("frag_fd%d" % fd)
        state.symbolic_inputs.setdefault("fragmentation", []).append(chooser)
        branches: List[ForkBranch] = []
        for size in sizes:
            def effect(target: ExecutionState, c=size) -> None:
                _commit_read(target, fd, buf_addr, c, False)

            branches.append(ForkBranch(
                condition=E.eq(chooser, E.bv_const(size, 8)),
                return_value=size, side_effect=effect,
                label="frag:%d" % size))
        return NativeFork(branches)

    _commit_read(state, fd, buf_addr, count, pattern_used)
    return count


# -- write -------------------------------------------------------------------------


def posix_write(ctx: NativeContext):
    """``write(fd, buf, n)`` with fault injection."""
    fd = ctx.concrete_arg(0)
    buf_addr = ctx.concrete_arg(1)
    n = ctx.concrete_arg(2)
    entry = lookup_fd(ctx, fd)
    if entry is None:
        return ERR
    if entry.kind in (FdKind.CHAR_SOURCE, FdKind.SOCKET_LISTEN):
        return ERR
    if n <= 0:
        return 0
    state = ctx.state
    cells = read_cells_from_memory(state, buf_addr, n)

    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_WRITE):
        posix = posix_of(state)
        peer = (posix.view(posix.view(entry.endpoint).tx)
                if entry.endpoint is not None else None)
        if peer is None or peer.read_closed or peer.write_closed:
            return ERR  # EPIPE

    data = list(cells)  # snapshot: `cells` may be a live view of state memory

    def success(target: ExecutionState) -> None:
        _commit_write(target, fd, data)

    if fault_injection_active(ctx, entry, is_write=True):
        return fork_with_fault(ctx, "write", n, success)
    success(state)
    return n


def _commit_write(state: ExecutionState, fd: int, cells: List[Cell]) -> None:
    posix = posix_of(state)
    pid = state.current[0]
    entry = posix.lookup(pid, fd)
    if entry is None:
        return
    if entry.kind == FdKind.FILE:
        posix.own(posix.view(entry.file).data).write(entry.offset, cells)
        posix.own_fd(pid, fd).offset = entry.offset + len(cells)
        return
    if entry.kind == FdKind.CHAR_SINK:
        return
    if entry.kind in (FdKind.SOCKET_STREAM, FdKind.PIPE_WRITE):
        stream = posix.view(entry.endpoint).tx
        posix.own(stream).push(cells)
        notify_readers(state, stream)
        return
    if entry.kind == FdKind.SOCKET_DGRAM:
        # write() on an unconnected datagram socket is not modeled.
        return


HANDLERS = {
    "open": posix_open,
    "close": posix_close,
    "lseek": posix_lseek,
    "unlink": posix_unlink,
    "dup": posix_dup,
    "read": posix_read,
    "write": posix_write,
    "recv": posix_read,
    "send": posix_write,
    "c9_file_size": posix_file_size,
}
