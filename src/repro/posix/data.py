"""POSIX model state: descriptor tables and system-object records.

The engine keeps only minimal process/thread information (identifiers,
running status, parenthood); everything else mandated by POSIX -- open file
descriptors, flags, sockets, synchronization objects -- is stored by the
model in auxiliary structures held in the execution state's environment area
(``state.env['posix']``), mirroring §4.3 of the paper.

A fork copies this data on the first write after it (the state's
``env_for_write`` barrier), and :meth:`PosixState.__deepcopy__` copies it by
structure: each table once, each record once, aliases kept.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TypeVar

from repro.engine.state import ExecutionState
from repro.posix.buffers import BlockBuffer, StreamBuffer


class FdKind(enum.Enum):
    FILE = "file"
    SOCKET_STREAM = "socket_stream"
    SOCKET_DGRAM = "socket_dgram"
    SOCKET_LISTEN = "socket_listen"
    PIPE_READ = "pipe_read"
    PIPE_WRITE = "pipe_write"
    CHAR_SINK = "char_sink"       # stdout / stderr
    CHAR_SOURCE = "char_source"   # stdin


@dataclass
class FileNode:
    """An entry in the modeled file system."""

    path: bytes
    data: BlockBuffer = field(default_factory=BlockBuffer)
    symbolic: bool = False
    exists: bool = True


@dataclass
class StreamEndpoint:
    """One end of a full-duplex connection (Fig. 6: a TX and an RX buffer)."""

    rx: StreamBuffer
    tx: StreamBuffer
    peer_port: Optional[int] = None
    local_port: Optional[int] = None
    connected: bool = True


@dataclass
class ListeningSocket:
    """A passive TCP socket with its backlog of pending connections."""

    port: int
    backlog: int = 8
    pending: List[StreamEndpoint] = field(default_factory=list)
    accept_wlist: Optional[int] = None


@dataclass
class DatagramSocket:
    """A UDP socket: one receive queue with datagram boundaries."""

    port: Optional[int] = None
    queue: StreamBuffer = field(default_factory=StreamBuffer)


@dataclass
class MutexRecord:
    taken: bool = False
    owner: Optional[Tuple[int, int]] = None
    wlist: Optional[int] = None
    queued: int = 0


@dataclass
class CondVarRecord:
    wlist: Optional[int] = None


@dataclass
class SemaphoreRecord:
    value: int = 0
    wlist: Optional[int] = None


@dataclass
class SharedMemorySegment:
    """A System V style shared memory segment (``shmget``/``shmat``)."""

    key: int
    size: int
    address: Optional[int] = None      # address once attached (CoW domain)
    attach_count: int = 0
    marked_for_removal: bool = False


@dataclass
class MessageQueue:
    """A System V style message queue (``msgget``/``msgsnd``/``msgrcv``)."""

    key: int
    messages: List[Tuple[int, List[object]]] = field(default_factory=list)
    max_bytes: int = 2048
    read_wlist: Optional[int] = None
    write_wlist: Optional[int] = None

    @property
    def bytes_used(self) -> int:
        return sum(len(body) for _mtype, body in self.messages)


@dataclass
class MemoryMapping:
    """One ``mmap`` region: where it is, what backs it, and how it is shared."""

    address: int
    length: int
    shared: bool = False
    file_path: Optional[bytes] = None
    file_offset: int = 0
    writable: bool = True


@dataclass
class FileDescriptor:
    """A per-process descriptor with Cloud9's per-fd testing flags."""

    fd: int
    kind: FdKind
    file: Optional[FileNode] = None
    offset: int = 0
    endpoint: Optional[StreamEndpoint] = None
    listener: Optional[ListeningSocket] = None
    dgram: Optional[DatagramSocket] = None
    # Cloud9 ioctl extension flags (Table 3), split by direction where the
    # paper's API allows RD / WR selection.
    symbolic_source: bool = False
    fragment_reads: bool = False
    fragment_pattern: Optional[List[int]] = None
    fault_inject_read: bool = False
    fault_inject_write: bool = False
    closed: bool = False


_R = TypeVar("_R")


def _record(record: _R, memo: Dict[int, object]) -> _R:
    """The copy of one record: made once per copy, found in ``memo`` after.

    A shallow copy first (registered before its fields are filled, so a
    cycle back to it finds it), then ``_FILL`` replaces each mutable field.
    """
    new = memo.get(id(record))
    if new is None:
        new = object.__new__(type(record))
        new.__dict__.update(record.__dict__)
        memo[id(record)] = new
        fill = _FILL.get(type(record))
        if fill is not None:
            fill(new, memo)
    return new


def _fill_stream(new: StreamBuffer, memo: Dict[int, object]) -> None:
    new.cells = deque(new.cells)
    new.datagram_sizes = deque(new.datagram_sizes)


def _fill_block(new: BlockBuffer, memo: Dict[int, object]) -> None:
    new.cells = list(new.cells)


def _fill_file(new: FileNode, memo: Dict[int, object]) -> None:
    new.data = _record(new.data, memo)


def _fill_endpoint(new: StreamEndpoint, memo: Dict[int, object]) -> None:
    new.rx = _record(new.rx, memo)
    new.tx = _record(new.tx, memo)


def _fill_listener(new: ListeningSocket, memo: Dict[int, object]) -> None:
    new.pending = [_record(endpoint, memo) for endpoint in new.pending]


def _fill_dgram(new: DatagramSocket, memo: Dict[int, object]) -> None:
    new.queue = _record(new.queue, memo)


def _fill_queue(new: MessageQueue, memo: Dict[int, object]) -> None:
    new.messages = [(mtype, list(body)) for mtype, body in new.messages]


def _fill_descriptor(new: FileDescriptor, memo: Dict[int, object]) -> None:
    if new.file is not None:
        new.file = _record(new.file, memo)
    if new.endpoint is not None:
        new.endpoint = _record(new.endpoint, memo)
    if new.listener is not None:
        new.listener = _record(new.listener, memo)
    if new.dgram is not None:
        new.dgram = _record(new.dgram, memo)
    if new.fragment_pattern is not None:
        new.fragment_pattern = list(new.fragment_pattern)


#: How to fill the mutable fields of each record class's shallow copy; a
#: class that is absent here (the sync records, shm segments, mappings) has
#: immutable fields only.
_FILL = {
    StreamBuffer: _fill_stream,
    BlockBuffer: _fill_block,
    FileNode: _fill_file,
    StreamEndpoint: _fill_endpoint,
    ListeningSocket: _fill_listener,
    DatagramSocket: _fill_dgram,
    MessageQueue: _fill_queue,
    FileDescriptor: _fill_descriptor,
}

#: The ``PosixState`` tables that map a key to one record each.
_RECORD_TABLES = ("filesystem", "listeners", "udp_ports", "mutexes",
                  "condvars", "semaphores", "shm_segments", "message_queues",
                  "mappings")


class PosixState:
    """All POSIX-model bookkeeping for one execution state."""

    def __init__(self):
        self.fd_tables: Dict[int, Dict[int, FileDescriptor]] = {}
        self.next_fd: Dict[int, int] = {}
        self.filesystem: Dict[bytes, FileNode] = {}
        self.listeners: Dict[int, ListeningSocket] = {}
        self.udp_ports: Dict[int, DatagramSocket] = {}
        self.mutexes: Dict[int, MutexRecord] = {}
        self.condvars: Dict[int, CondVarRecord] = {}
        self.semaphores: Dict[int, SemaphoreRecord] = {}
        self.next_handle: int = 1
        self.fault_injection_enabled: bool = False
        self.fault_counter: int = 0
        self.select_wlist: Optional[int] = None
        self.process_exit_wlist: Optional[int] = None
        self.cond_wait_phase: Dict[Tuple[int, int], int] = {}
        self.symbolic_read_counter: int = 0
        # System V style IPC objects (§4.3 "IPC routines").
        self.shm_segments: Dict[int, SharedMemorySegment] = {}
        self.message_queues: Dict[int, MessageQueue] = {}
        # mmap regions, keyed by mapped base address (§4.3 "mmap() calls").
        self.mappings: Dict[int, MemoryMapping] = {}
        # Virtual clock (nanoseconds) for the time-related functions
        # (§4.3 "time-related functions"): deterministic and replay-safe.
        self.clock_ns: int = 1_000_000_000_000
        self.clock_step_ns: int = 1_000_000
        # Modeled process environment variables (name -> concrete bytes or
        # symbolic cells), shared by all processes of the state.
        self.env_vars: Dict[bytes, List[object]] = {}

    def __deepcopy__(self, memo: Dict[int, object]) -> "PosixState":
        """The copy a fork's write barrier takes: the same object graph as
        the generic ``copy.deepcopy``, built by structure.

        Tables are copied as dicts and lists, and each record once: ``memo``
        (the deepcopy memo, keyed by ``id``) keeps the aliases -- a socket
        pair's shared buffers, descriptors shared across pids by
        :meth:`duplicate_table`, a listener's pending endpoints and the
        descriptors that accept them, ``filesystem`` nodes and ``fd.file``.
        Cells, ints, ``Expr`` and tuples of them are immutable and stay
        shared.  A record that gains a mutable field must be filled in
        ``_FILL``; ``tests/test_posix_copy.py`` fails until it is.
        """
        new = object.__new__(PosixState)
        new.__dict__.update(self.__dict__)
        memo[id(self)] = new
        new.fd_tables = {
            pid: {fd: _record(entry, memo) for fd, entry in table.items()}
            for pid, table in self.fd_tables.items()}
        new.next_fd = dict(self.next_fd)
        new.cond_wait_phase = dict(self.cond_wait_phase)
        new.env_vars = {name: list(value)
                        for name, value in self.env_vars.items()}
        for name in _RECORD_TABLES:
            setattr(new, name, {key: _record(record, memo) for key, record
                                in getattr(self, name).items()})
        return new

    # -- descriptor management -------------------------------------------------------

    def table_for(self, pid: int) -> Dict[int, FileDescriptor]:
        return self.fd_tables.setdefault(pid, {})

    def allocate_fd(self, pid: int, descriptor: FileDescriptor) -> int:
        table = self.table_for(pid)
        fd = self.next_fd.get(pid, 3)
        while fd in table:
            fd += 1
        self.next_fd[pid] = fd + 1
        descriptor.fd = fd
        table[fd] = descriptor
        return fd

    def lookup(self, pid: int, fd: int) -> Optional[FileDescriptor]:
        entry = self.table_for(pid).get(fd)
        if entry is None or entry.closed:
            return None
        return entry

    def duplicate_table(self, parent_pid: int, child_pid: int) -> None:
        """Share the parent's descriptors with a forked child (POSIX fork)."""
        parent = self.table_for(parent_pid)
        self.fd_tables[child_pid] = dict(parent)
        self.next_fd[child_pid] = self.next_fd.get(parent_pid, 3)

    def new_handle(self) -> int:
        handle = self.next_handle
        self.next_handle += 1
        return handle


POSIX_ENV_KEY = "posix"


def posix_of(state: ExecutionState) -> PosixState:
    """The POSIX model data of a state (installed by ``install_posix_model``).

    Goes through the state's copy-on-write barrier: model data is freely
    mutated by every syscall handler, so the first access after a fork peels
    the state's private copy off the shared environment area.
    """
    posix = state.env_for_write().get(POSIX_ENV_KEY)
    if posix is None:
        raise RuntimeError(
            "POSIX model not installed for this state; "
            "construct the executor with install_posix_model")
    return posix
