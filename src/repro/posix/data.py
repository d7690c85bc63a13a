"""POSIX model state: descriptor tables and system-object records.

The engine keeps only minimal process/thread information (identifiers,
running status, parenthood); everything else mandated by POSIX -- open file
descriptors, flags, sockets, synchronization objects -- is stored by the
model in auxiliary structures held as the execution state's environment
model (``state.env``), mirroring §4.3 of the paper.

The model is copy-on-write per record, as KLEE shares ``ObjectState``s and
the engine shares memory objects (``AddressSpace.own``).  A state's fork
takes only a :class:`PosixState` shell (:meth:`PosixState.fork`) that
shares every table and every record.
A write copies the one record it touches (:meth:`PosixState.own`), and a
table is copied on its first insert or delete
(:meth:`PosixState.own_table`).  Tables and record fields keep holding the
record a fork shared -- its *key* -- and every read finds this state's copy
again through one per-state forwarding map (:meth:`PosixState.view`).  So
the aliases hold without being tracked: a socket pair's crosswise stream
buffers, descriptors shared across pids by ``duplicate_table``, ``fd.file``
and ``filesystem``, a listener's pending endpoints and the descriptors that
accept them, ``udp_ports`` and ``fd.dgram`` all name one key, and one copy.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, TypeVar

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


def _copy(record: _R) -> _R:
    """A record's private copy: a shallow copy whose own containers are
    copied too (``_FILL``).  The records it refers to are not copied: a
    field holds a record's *key*, which every read resolves through
    :meth:`PosixState.view`."""
    new = object.__new__(type(record))
    new.__dict__.update(record.__dict__)
    fill = _FILL.get(type(record))
    if fill is not None:
        fill(new)
    return new


def _fill_stream(new: StreamBuffer) -> None:
    new.cells = deque(new.cells)
    new.datagram_sizes = deque(new.datagram_sizes)


def _fill_block(new: BlockBuffer) -> None:
    new.cells = list(new.cells)


def _fill_listener(new: ListeningSocket) -> None:
    new.pending = list(new.pending)


def _fill_queue(new: MessageQueue) -> None:
    new.messages = [(mtype, list(body)) for mtype, body in new.messages]


def _fill_descriptor(new: FileDescriptor) -> None:
    if new.fragment_pattern is not None:
        new.fragment_pattern = list(new.fragment_pattern)


#: How to copy the mutable containers of each record class's shallow copy;
#: a class that is absent here holds immutable values and record keys only.
_FILL: Dict[type, Callable[[Any], None]] = {
    StreamBuffer: _fill_stream,
    BlockBuffer: _fill_block,
    ListeningSocket: _fill_listener,
    MessageQueue: _fill_queue,
    FileDescriptor: _fill_descriptor,
}

#: The ``PosixState`` tables (dicts) that a fork shares until a write.
_TABLES = ("fd_tables", "next_fd", "filesystem", "listeners", "udp_ports",
           "mutexes", "condvars", "semaphores", "cond_wait_phase",
           "shm_segments", "message_queues", "mappings", "env_vars", "_view")


class PosixState:
    """All POSIX-model bookkeeping for one execution state.

    Tables and records are shared with the states forked from this one
    until a write: read a record through :meth:`view`, write it through
    :meth:`own`, and write a table through :meth:`own_table` (or
    :meth:`own_fds` for one process's descriptors).
    """

    def __init__(self) -> None:
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
        # Copy-on-write bookkeeping.  ``_view`` maps a shared record's id to
        # (that record, this state's copy of it); holding the record keeps
        # its id from being reused while the entry lives.  ``_owned`` holds
        # what this state alone may write: table names, ``("fd", pid)`` for
        # a process's descriptor table, and the ids of its record copies.
        self._view: Dict[int, Tuple[Any, Any]] = {}
        self._owned: Set[object] = set(_TABLES)

    def fork(self) -> "PosixState":
        """The shell a state's fork takes: it shares every table and every
        record with this state, and neither side may write any of them in
        place any more."""
        shell = object.__new__(PosixState)
        shell.__dict__.update(self.__dict__)
        shell._owned = set()
        self._owned = set()
        return shell

    # -- copy on write ------------------------------------------------------------

    def view(self, record: _R) -> _R:
        """What this state reads for ``record`` (a key: a table value or a
        record's field): its own copy if it made one, else the record."""
        hit = self._view.get(id(record))
        return record if hit is None else hit[1]

    def own(self, record: _R) -> _R:
        """This state's writable ``record`` (a key, never a view): its own
        copy, made on the first write after a fork and found by
        :meth:`view` from then on."""
        hit = self._view.get(id(record))
        current: _R = record if hit is None else hit[1]
        owned = self._owned
        if id(current) in owned:
            return current
        copy = _copy(current)
        owned.add(id(copy))
        if "_view" not in owned:
            self._view = dict(self._view)
            owned.add("_view")
        self._view[id(record)] = (record, copy)
        return copy

    def own_table(self, name: str) -> Dict[Any, Any]:
        """The table ``name``, copied first if a fork still shares it."""
        table: Dict[Any, Any] = getattr(self, name)
        if name not in self._owned:
            if name == "env_vars":
                table = {key: list(value) for key, value in table.items()}
            else:
                table = dict(table)
            setattr(self, name, table)
            self._owned.add(name)
        return table

    def own_fds(self, pid: int) -> Dict[int, FileDescriptor]:
        """Process ``pid``'s descriptor table to write (made if missing)."""
        if ("fd", pid) in self._owned:
            return self.fd_tables[pid]
        table = dict(self.fd_tables.get(pid, {}))
        self.own_table("fd_tables")[pid] = table
        self._owned.add(("fd", pid))
        return table

    # -- descriptor management -------------------------------------------------------

    def allocate_fd(self, pid: int, descriptor: FileDescriptor) -> int:
        table = self.own_fds(pid)
        fd = self.next_fd.get(pid, 3)
        while fd in table:
            fd += 1
        self.own_table("next_fd")[pid] = fd + 1
        descriptor.fd = fd
        table[fd] = descriptor
        return fd

    def lookup(self, pid: int, fd: int) -> Optional[FileDescriptor]:
        """The open descriptor ``fd`` of process ``pid``, to read."""
        table = self.fd_tables.get(pid)
        entry = None if table is None else self.view(table.get(fd))
        if entry is None or entry.closed:
            return None
        return entry

    def own_fd(self, pid: int, fd: int) -> FileDescriptor:
        """The descriptor ``fd`` of process ``pid`` (it exists), to write."""
        return self.own(self.fd_tables[pid][fd])

    def duplicate_table(self, parent_pid: int, child_pid: int) -> None:
        """Share the parent's descriptors with a forked child (POSIX fork)."""
        self.own_table("fd_tables")[child_pid] = dict(
            self.fd_tables.get(parent_pid, {}))
        self._owned.add(("fd", child_pid))
        self.own_table("next_fd")[child_pid] = self.next_fd.get(parent_pid, 3)

    def new_handle(self) -> int:
        handle = self.next_handle
        self.next_handle += 1
        return handle


def posix_of(state: ExecutionState) -> PosixState:
    """The POSIX model data of a state (installed by ``install_posix_model``).

    After a fork it is the state's own :class:`PosixState` shell, whose
    tables and records are still shared (read them through ``view``, write
    them through ``own`` and ``own_table``).
    """
    posix = state.env
    if not isinstance(posix, PosixState):
        raise RuntimeError(
            "POSIX model not installed for this state; "
            "construct the executor with install_posix_model")
    return posix
