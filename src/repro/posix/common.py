"""Shared helpers for the POSIX model natives."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.engine.natives import NativeContext
from repro.engine.state import ExecutionState
from repro.posix.buffers import Cell, StreamBuffer
from repro.posix.data import FileDescriptor, posix_of

# POSIX-style error return value in the 32-bit unsigned world of the engine.
ERR = 0xFFFFFFFF


def current_pid(ctx: NativeContext) -> int:
    return ctx.state.current[0]


def lookup_fd(ctx: NativeContext, fd: int) -> Optional[FileDescriptor]:
    """The caller's open descriptor ``fd``, to read."""
    return posix_of(ctx.state).lookup(current_pid(ctx), fd)


def ensure_read_wlist(state: ExecutionState, stream: StreamBuffer) -> int:
    """The wait list of ``stream`` (a key), made on first use."""
    posix = posix_of(state)
    wlist = posix.view(stream).read_wlist
    if wlist is None:
        wlist = posix.own(stream).read_wlist = state.create_wait_list()
    return wlist


def ensure_select_wlist(state: ExecutionState) -> int:
    posix = posix_of(state)
    if posix.select_wlist is None:
        posix.select_wlist = state.create_wait_list()
    return posix.select_wlist


def ensure_process_exit_wlist(state: ExecutionState) -> int:
    posix = posix_of(state)
    if posix.process_exit_wlist is None:
        posix.process_exit_wlist = state.create_wait_list()
    return posix.process_exit_wlist


def notify_readers(state: ExecutionState, stream: StreamBuffer) -> None:
    """Wake everything that may be waiting for data on a stream (a key)."""
    posix = posix_of(state)
    wlist = posix.view(stream).read_wlist
    if wlist is not None:
        state.notify(wlist, wake_all=True)
    if posix.select_wlist is not None:
        state.notify(posix.select_wlist, wake_all=True)


def copy_cells_to_memory(state: ExecutionState, address: int,
                         cells: Sequence[Cell]) -> None:
    state.mem_write_bytes(address, list(cells))


def read_cells_from_memory(state: ExecutionState, address: int,
                           count: int) -> List[Cell]:
    return state.mem_read_bytes(address, count)


def fresh_symbolic_bytes(state: ExecutionState, label: str, count: int) -> List[Cell]:
    """Create ``count`` fresh symbolic bytes registered as test inputs."""
    symbols = [state.new_symbol(label) for _ in range(count)]
    state.symbolic_inputs.setdefault(label, []).extend(symbols)
    return list(symbols)
