"""Cloud9's extended ioctl codes (Table 3) and the ``ioctl`` native.

* ``SIO_SYMBOLIC`` -- turn a file or socket into a source of symbolic input.
* ``SIO_PKT_FRAGMENT`` -- enable packet fragmentation on a stream socket.
* ``SIO_FAULT_INJ`` -- enable fault injection for operations on a descriptor.

The third ioctl argument selects the direction(s) using the ``RD``/``WR``
flags, as in the paper's use case: ``ioctl(ssock, SIO_FAULT_INJ, RD | WR)``.
"""

from __future__ import annotations

from repro.engine.natives import NativeContext
from repro.posix.data import posix_of

SIO_SYMBOLIC = 0x9001
SIO_PKT_FRAGMENT = 0x9002
SIO_FAULT_INJ = 0x9003

RD = 0x1
WR = 0x2


def posix_ioctl(ctx: NativeContext):
    """``ioctl(fd, code, arg)`` restricted to the Cloud9 testing extensions."""
    fd = ctx.concrete_arg(0)
    code = ctx.concrete_arg(1)
    arg = ctx.concrete_arg(2, RD | WR)
    posix = posix_of(ctx.state)
    pid = ctx.state.current[0]
    if posix.lookup(pid, fd) is None:
        return 0xFFFFFFFF  # -1: EBADF

    entry = posix.own_fd(pid, fd)
    if code == SIO_SYMBOLIC:
        entry.symbolic_source = bool(arg)
        return 0
    if code == SIO_PKT_FRAGMENT:
        entry.fragment_reads = True
        return 0
    if code == SIO_FAULT_INJ:
        entry.fault_inject_read = bool(arg & RD)
        entry.fault_inject_write = bool(arg & WR)
        return 0
    return 0xFFFFFFFF  # unsupported request


def c9_set_frag_pattern(ctx: NativeContext):
    """``c9_set_frag_pattern(fd, pattern_buf, count)``: explicit fragmentation.

    Enables read fragmentation on ``fd`` following an explicit pattern of
    chunk sizes (one byte per chunk size, read from ``pattern_buf``).  This
    is the programmatic face of the deterministic fragmentation patterns used
    in Table 6; passing ``count == 0`` keeps fragmentation fully symbolic
    (equivalent to plain ``SIO_PKT_FRAGMENT``).
    """
    fd = ctx.concrete_arg(0)
    pattern_addr = ctx.concrete_arg(1)
    count = ctx.concrete_arg(2, 0)
    posix = posix_of(ctx.state)
    pid = ctx.state.current[0]
    if posix.lookup(pid, fd) is None:
        return 0xFFFFFFFF
    entry = posix.own_fd(pid, fd)
    entry.fragment_reads = True
    if count > 0:
        sizes = []
        for i in range(count):
            cell = ctx.state.mem_read(pattern_addr, i)
            sizes.append(cell if isinstance(cell, int) else ctx.concretize(cell))
        entry.fragment_pattern = [max(1, s) for s in sizes]
    else:
        entry.fragment_pattern = None
    return 0


HANDLERS = {
    "ioctl": posix_ioctl,
    "c9_set_frag_pattern": c9_set_frag_pattern,
}
