"""Wiring of the POSIX model into the symbolic execution engine.

:func:`install_posix_model` is passed to the executor (or called on it) and

* registers every modeled native function (files, sockets, pipes, select,
  pthreads, processes, fault injection, ioctl, testing API), and
* installs a per-state initializer that creates the model's auxiliary state
  and the three standard descriptors.

This mirrors Fig. 4 of the paper: the program under test is linked against a
symbolic C library whose POSIX parts are the model, which in turn speaks to
the engine only through the symbolic system calls of Table 1.
"""

from __future__ import annotations

from typing import Dict

from repro.engine.executor import SymbolicExecutor
from repro.engine.natives import NativeHandler
from repro.engine.state import ExecutionState
from repro.posix import (
    api,
    env,
    fault,
    filesystem,
    ioctl,
    ipc,
    mmap,
    pipes,
    polling,
    processes,
    sockets,
    threads,
    time,
)
from repro.posix.data import FdKind, FileDescriptor, PosixState


def posix_handlers() -> Dict[str, NativeHandler]:
    """All native handlers contributed by the POSIX model."""
    handlers: Dict[str, NativeHandler] = {}
    for module in (filesystem, sockets, pipes, polling, threads, processes,
                   fault, ioctl, api, mmap, ipc, time, env):
        handlers.update(module.HANDLERS)
    return handlers


def initialize_posix_state(state: ExecutionState) -> None:
    """Create the model's bookkeeping and standard descriptors for a state."""
    posix = state.env = PosixState()
    main_pid = 1
    table = posix.own_fds(main_pid)
    table[0] = FileDescriptor(fd=0, kind=FdKind.CHAR_SOURCE)
    table[1] = FileDescriptor(fd=1, kind=FdKind.CHAR_SINK)
    table[2] = FileDescriptor(fd=2, kind=FdKind.CHAR_SINK)
    posix.own_table("next_fd")[main_pid] = 3


def install_posix_model(executor: SymbolicExecutor) -> None:
    """Register the POSIX model with an executor instance."""
    executor.natives.register_all(posix_handlers())
    executor.state_initializers.append(initialize_posix_state)
