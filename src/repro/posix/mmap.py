"""Memory-mapped files and anonymous mappings (paper §4.3 "mmap() calls").

The model supports the mapping modes the paper's targets rely on:

* ``MAP_ANONYMOUS | MAP_PRIVATE`` -- plain memory, private to the process;
* ``MAP_ANONYMOUS | MAP_SHARED``  -- memory placed in the CoW domain so it is
  visible to every process of the state (the substrate ``fork()``-heavy
  programs use for shared counters);
* file-backed ``MAP_PRIVATE``     -- a snapshot of the file contents at map
  time; later stores do not reach the file;
* file-backed ``MAP_SHARED``      -- stores are written back to the modeled
  file on ``msync`` and on ``munmap``.

Protection is enforced by the object behind a mapping: a store into one
without ``PROT_WRITE`` is a ``memory_error`` bug, and ``mprotect`` changes
it in place.  A shared mapping is one object for every process of the
state, so one process's ``mprotect`` applies to all (a kernel keeps
protection per process).

The mapping bookkeeping lives in :class:`~repro.posix.data.PosixState`, so it
forks together with the execution state.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.natives import NativeContext
from repro.posix.common import ERR, lookup_fd
from repro.posix.data import FdKind, MemoryMapping, posix_of

PROT_NONE = 0x0
PROT_READ = 0x1
PROT_WRITE = 0x2

MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_ANONYMOUS = 0x20

# POSIX returns MAP_FAILED ((void *) -1) on error.
MAP_FAILED = 0xFFFFFFFF


def _file_cells(ctx: NativeContext, fd: int, offset: int, length: int) -> Optional[List[object]]:
    """The ``length`` cells of the file behind ``fd`` starting at ``offset``."""
    entry = lookup_fd(ctx, fd)
    if entry is None or entry.kind != FdKind.FILE or entry.file is None:
        return None
    posix = posix_of(ctx.state)
    cells = posix.view(posix.view(entry.file).data).read(offset, length)
    if len(cells) < length:
        cells = list(cells) + [0] * (length - len(cells))
    return cells


def posix_mmap(ctx: NativeContext):
    """``mmap(addr, length, prot, flags, fd, offset)`` -> mapped address.

    ``addr`` is accepted for signature compatibility and ignored (the model
    always chooses the placement, like ``addr == NULL``).
    """
    length = ctx.concrete_arg(1)
    prot = ctx.concrete_arg(2, PROT_READ | PROT_WRITE)
    flags = ctx.concrete_arg(3, MAP_PRIVATE | MAP_ANONYMOUS)
    fd = ctx.concrete_arg(4, 0xFFFFFFFF)
    offset = ctx.concrete_arg(5, 0)
    if length <= 0:
        return MAP_FAILED

    state = ctx.state
    posix = posix_of(state)
    shared = bool(flags & MAP_SHARED)
    anonymous = bool(flags & MAP_ANONYMOUS)

    cells: Optional[List[object]] = None
    file_path = None
    if not anonymous:
        entry = lookup_fd(ctx, fd)
        if entry is None or entry.kind != FdKind.FILE or entry.file is None:
            return MAP_FAILED
        cells = _file_cells(ctx, fd, offset, length)
        file_path = posix.view(entry.file).path

    if shared:
        obj = state.allocate_shared(length, name="mmap")
    else:
        obj = state.allocate(length, name="mmap")
    if cells is not None:
        obj.cells = list(cells)
    obj.writable = bool(prot & PROT_WRITE)

    mapping = MemoryMapping(
        address=obj.address,
        length=length,
        shared=shared,
        file_path=file_path if shared or not anonymous else None,
        file_offset=offset,
        writable=obj.writable,
    )
    posix.own_table("mappings")[obj.address] = mapping
    return obj.address


def _write_back(ctx: NativeContext, mapping: MemoryMapping) -> int:
    """Flush a shared file-backed mapping to the modeled file."""
    if not mapping.shared or mapping.file_path is None:
        return 0
    posix = posix_of(ctx.state)
    node = posix.view(posix.filesystem.get(mapping.file_path))
    if node is None or not node.exists:
        return ERR
    cells = ctx.read_bytes(mapping.address, mapping.length)
    posix.own(node.data).write(mapping.file_offset, cells)
    return 0


def posix_msync(ctx: NativeContext):
    """``msync(addr, length, flags)``: write back a shared file mapping."""
    address = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    mapping = posix.view(posix.mappings.get(address))
    if mapping is None:
        return ERR
    return _write_back(ctx, mapping)


def posix_munmap(ctx: NativeContext):
    """``munmap(addr, length)``: flush (if shared file-backed) and unmap."""
    address = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    mapping = posix.view(posix.mappings.get(address))
    if mapping is None:
        return ERR
    status = _write_back(ctx, mapping)
    del posix.own_table("mappings")[address]
    state = ctx.state
    if mapping.shared:
        # Shared objects live in the CoW domain; drop the sharing record.
        obj = state.cow_domain.resolve(address)
        if obj is not None:
            state.cow_domain.unshare(obj[0].address)
    else:
        try:
            state.free(address)
        except Exception:
            return ERR
    return status


def posix_mprotect(ctx: NativeContext):
    """``mprotect(addr, length, prot)``: make the whole mapping writable or
    read-only (``length`` is not looked at)."""
    address = ctx.concrete_arg(0)
    prot = ctx.concrete_arg(2, PROT_READ | PROT_WRITE)
    state = ctx.state
    posix = posix_of(state)
    mapping = posix.mappings.get(address)
    if mapping is None:
        return ERR
    mapping = posix.own(mapping)
    # A state fork copies the CoW domain, not a private object: copy it now.
    obj = (state.cow_domain.objects[address] if mapping.shared
           else state.current_process.address_space.own(address))
    mapping.writable = obj.writable = bool(prot & PROT_WRITE)
    return 0


HANDLERS = {
    "mmap": posix_mmap,
    "munmap": posix_munmap,
    "msync": posix_msync,
    "mprotect": posix_mprotect,
}
