"""Execution states: program counters, threads, processes, memory, constraints.

An :class:`ExecutionState` is one node's worth of program state in the
symbolic execution tree: everything needed to continue executing a path.
States are cloned when execution forks at a symbolic branch, at a scheduling
decision (when schedule forking is enabled), or at a fault-injection point.

The path constraint is an immutable
:class:`~repro.solver.pathconstraint.PathConstraint`: a fork shares it with
its parent, and adding a branch condition replaces it with an extended value
that already carries the solver's view of the whole path (simplified
conjuncts, independent groups, cache keys).
"""

from __future__ import annotations

import enum
import itertools
from typing import Dict, List, Optional, Protocol, Sequence, Set, Tuple, Union

from repro.engine.memory import (
    AddressSpace,
    Cell,
    CowDomain,
    DeterministicAllocator,
    MemoryError_,
    MemoryObject,
    _DATA_SEGMENT_BASE,
    _SHARED_BASE,
)
from repro.lang.compiler import CompiledProgram
from repro.solver.expr import Expr, bv_symbol
from repro.solver.pathconstraint import PathConstraint

Value = Union[int, Expr]


class EnvModel(Protocol):
    """An environment model kept on a state (``repro.posix``'s
    ``PosixState``): a state's fork forks it."""

    def fork(self) -> "EnvModel": ...


class StateStatus(enum.Enum):
    RUNNING = "running"
    EXITED = "exited"
    ERROR = "error"


class ThreadStatus(enum.Enum):
    ENABLED = "enabled"
    SLEEPING = "sleeping"
    TERMINATED = "terminated"


# The members the step path tests on every instruction, as module constants:
# on CPython 3.11 ``StateStatus.RUNNING`` inside a function goes through the
# enum metaclass's attribute hook, about ten times a global load.
RUNNING = StateStatus.RUNNING
ENABLED = ThreadStatus.ENABLED


class Frame:
    """One activation record of a program function."""

    __slots__ = ("function", "pc", "locals", "return_dest")

    def __init__(self, function: str, pc: int, locals: Dict[str, Value],
                 return_dest: Optional[str] = None) -> None:
        self.function = function
        self.pc = pc
        self.locals = locals
        self.return_dest = return_dest

    def __repr__(self) -> str:
        return "Frame(%r, pc=%d, locals=%r, return_dest=%r)" % (
            self.function, self.pc, self.locals, self.return_dest)

    def copy(self) -> "Frame":
        return Frame(self.function, self.pc, dict(self.locals), self.return_dest)


class Thread:
    """A thread of execution inside one process."""

    __slots__ = ("tid", "pid", "stack", "status", "wait_list", "joiners",
                 "exit_value")

    def __init__(self, tid: int, pid: int) -> None:
        self.tid = tid
        self.pid = pid
        self.stack: List[Frame] = []
        self.status = ThreadStatus.ENABLED
        self.wait_list: Optional[int] = None
        self.joiners: List[Tuple[int, int]] = []
        self.exit_value: Value = 0

    @property
    def top(self) -> Frame:
        return self.stack[-1]

    def copy(self) -> "Thread":
        clone = Thread.__new__(Thread)
        clone.tid = self.tid
        clone.pid = self.pid
        clone.stack = [f.copy() for f in self.stack]
        clone.status = self.status
        clone.wait_list = self.wait_list
        clone.joiners = list(self.joiners)
        clone.exit_value = self.exit_value
        return clone


class Process:
    """A process: an address space plus a set of threads."""

    __slots__ = ("pid", "parent_pid", "address_space", "threads",
                 "next_tid", "exit_code", "alive")

    def __init__(self, pid: int, parent_pid: int = 0) -> None:
        self.pid = pid
        self.parent_pid = parent_pid
        self.address_space = AddressSpace()
        self.threads: Dict[int, Thread] = {}
        self.next_tid = 0
        self.exit_code: Optional[Value] = None
        self.alive = True

    def new_thread(self) -> Thread:
        tid = self.next_tid
        self.next_tid += 1
        thread = Thread(tid, self.pid)
        self.threads[tid] = thread
        return thread

    def copy(self) -> "Process":
        clone = Process.__new__(Process)
        clone.pid = self.pid
        clone.parent_pid = self.parent_pid
        clone.address_space = self.address_space.clone()
        clone.threads = {tid: t.copy() for tid, t in self.threads.items()}
        clone.next_tid = self.next_tid
        clone.exit_code = self.exit_code
        clone.alive = self.alive
        return clone


_state_id_counter = itertools.count(1)


class ExecutionState:
    """A complete symbolic execution state (one path prefix).

    Attributes of note:

    * ``path_constraints`` -- the conjunction of branch conditions taken,
      an immutable :class:`~repro.solver.pathconstraint.PathConstraint`.
      :meth:`add_constraint` replaces it: with the query that proved the
      condition feasible when the interpreter checked it first, else with
      its extension by the condition.
    * ``coverage`` -- line numbers executed along this path.
    * ``symbolic_inputs`` -- named byte-symbol lists created by
      ``make_symbolic`` calls; used for test-case generation.
    * ``fork_trace`` -- the child index chosen at every fork point; this is
      exactly the path encoding Cloud9 ships between workers in a job.
    """

    def __init__(self, program: CompiledProgram) -> None:
        self.state_id = next(_state_id_counter)
        self.program = program
        self.status = StateStatus.RUNNING
        self.exit_code: Value = 0
        self.error: Optional[object] = None  # BugReport, set by the interpreter

        # Memory.
        self.allocator = DeterministicAllocator()
        self.shared_allocator = DeterministicAllocator(base=_SHARED_BASE)
        self.cow_domain = CowDomain()
        self.data_segment: Dict[bytes, int] = {}

        # Processes / threads / scheduling.
        self.processes: Dict[int, Process] = {}
        self.next_pid = 1
        self.current: Optional[Tuple[int, int]] = None  # (pid, tid)
        self.wait_lists: Dict[int, List[Tuple[int, int]]] = {}
        self.next_wait_list = 1

        # Path bookkeeping.
        self.path_constraints = PathConstraint()
        self.coverage: Set[int] = set()
        self.fork_trace: List[int] = []
        self.instructions_executed = 0
        self.forks = 0

        # Symbolic inputs: name -> list of byte symbols (ordering matters).
        self.symbolic_inputs: Dict[str, List[Expr]] = {}
        self._symbol_counter = 0

        # The environment model (repro.posix keeps its PosixState here), or
        # None when none is installed.  Every fork forks it.
        self.env: Optional[EnvModel] = None

        # Testing-platform knobs (fault injection, scheduler policy, ...).
        self.options: Dict[str, object] = {}

    # -- construction -----------------------------------------------------------

    def create_main_process(self) -> Process:
        """Create the initial process/thread pair running the entry function."""
        process = Process(self.next_pid)
        self.next_pid += 1
        self.processes[process.pid] = process
        thread = process.new_thread()
        entry = self.program.function(self.program.entry)
        thread.stack.append(Frame(entry.name, 0, {p: 0 for p in entry.params}))
        self.current = (process.pid, thread.tid)
        self._bind_data_segment(process)
        return process

    def _bind_data_segment(self, process: Process) -> None:
        """Map the program's read-only string constants into a process.

        Layout is deterministic: blobs are placed consecutively in the order
        the compiler interned them, so replayed paths observe identical
        addresses (see §6 "Broken Replays").
        """
        next_address = _DATA_SEGMENT_BASE
        for blob in self.program.data:
            address = self.data_segment.setdefault(blob, next_address)
            next_address = max(next_address, address + len(blob) + 1)
            obj = MemoryObject(address, len(blob) + 1, name="rodata", writable=False)
            obj.cells = [*blob, 0]
            obj.writable = False
            process.address_space.bind(obj)

    # -- cloning -------------------------------------------------------------------

    def fork(self) -> "ExecutionState":
        """Clone this state, its environment model included (copy-on-write
        for memory and the model, deep for bookkeeping)."""
        clone = ExecutionState.__new__(ExecutionState)
        clone.state_id = next(_state_id_counter)
        clone.program = self.program
        clone.status = self.status
        clone.exit_code = self.exit_code
        clone.error = self.error

        clone.allocator = self.allocator.copy()
        clone.shared_allocator = self.shared_allocator.copy()
        clone.cow_domain = self.cow_domain.clone()
        clone.data_segment = dict(self.data_segment)

        clone.processes = {pid: p.copy() for pid, p in self.processes.items()}
        clone.next_pid = self.next_pid
        clone.current = self.current
        clone.wait_lists = {k: list(v) for k, v in self.wait_lists.items()}
        clone.next_wait_list = self.next_wait_list

        clone.path_constraints = self.path_constraints
        clone.coverage = set(self.coverage)
        clone.fork_trace = list(self.fork_trace)
        clone.instructions_executed = self.instructions_executed
        clone.forks = self.forks

        clone.symbolic_inputs = {k: list(v) for k, v in self.symbolic_inputs.items()}
        clone._symbol_counter = self._symbol_counter

        # The model forks itself: the POSIX model takes a shell that shares
        # every table and record until a write (repro.posix.data).
        clone.env = None if self.env is None else self.env.fork()
        # Option values must be flat (ints, bools, strings): a fork copies
        # the dict, not its values.
        clone.options = dict(self.options)
        return clone

    # -- processes / threads -------------------------------------------------------

    @property
    def current_process(self) -> Process:
        assert self.current is not None, "no thread is running"
        return self.processes[self.current[0]]

    @property
    def current_thread(self) -> Thread:
        assert self.current is not None, "no thread is running"
        pid, tid = self.current
        return self.processes[pid].threads[tid]

    def thread(self, pid: int, tid: int) -> Thread:
        return self.processes[pid].threads[tid]

    def all_threads(self) -> List[Thread]:
        return [t for p in self.processes.values() for t in p.threads.values()]

    def live_threads(self) -> List[Thread]:
        return [t for t in self.all_threads() if t.status != ThreadStatus.TERMINATED]

    def fork_process(self, parent: Process) -> Process:
        """Duplicate a process within this state (used by ``fork()``)."""
        child = Process(self.next_pid, parent_pid=parent.pid)
        self.next_pid += 1
        child.address_space = parent.address_space.clone()
        child.next_tid = parent.next_tid
        self.processes[child.pid] = child
        return child

    # -- wait lists -----------------------------------------------------------------

    def create_wait_list(self) -> int:
        wlist = self.next_wait_list
        self.next_wait_list += 1
        self.wait_lists[wlist] = []
        return wlist

    def sleep_on(self, wlist: int, thread: Thread) -> None:
        thread.status = ThreadStatus.SLEEPING
        thread.wait_list = wlist
        self.wait_lists.setdefault(wlist, []).append((thread.pid, thread.tid))

    def notify(self, wlist: int, wake_all: bool = False) -> List[Thread]:
        """Wake one (or all) threads sleeping on a wait list."""
        queue = self.wait_lists.get(wlist, [])
        woken: List[Thread] = []
        count = len(queue) if wake_all else min(1, len(queue))
        for _ in range(count):
            pid, tid = queue.pop(0)
            thread = self.processes[pid].threads[tid]
            thread.status = ThreadStatus.ENABLED
            thread.wait_list = None
            woken.append(thread)
        return woken

    # -- memory --------------------------------------------------------------------

    def allocate(self, size: int, name: str = "", fill: Cell = 0,
                 process: Optional[Process] = None) -> MemoryObject:
        """Allocate a fresh object in a process's address space."""
        target = process if process is not None else self.current_process
        address = self.allocator.allocate(size)
        obj = MemoryObject(address, size, name=name, fill=fill)
        target.address_space.bind(obj)
        return obj

    def allocate_shared(self, size: int, name: str = "", fill: Cell = 0) -> MemoryObject:
        """Allocate an object directly in the CoW (shared) domain."""
        address = self.shared_allocator.allocate(size)
        obj = MemoryObject(address, size, name=name, fill=fill, shared=True)
        self.cow_domain.share(obj)
        return obj

    def make_shared(self, address: int) -> MemoryObject:
        """Move an existing private object into the CoW domain (Table 1)."""
        space = self.current_process.address_space
        obj, offset = space.resolve(address)
        if offset != 0:
            raise MemoryError_("make_shared requires an object base address",
                               address=address)
        space.unbind(obj.address)
        self.cow_domain.share(obj)
        return obj

    def free(self, address: int) -> None:
        space = self.current_process.address_space
        obj, offset = space.resolve(address)
        if offset != 0:
            raise MemoryError_("free of an interior pointer 0x%x" % address,
                               address=address)
        space.unbind(obj.address)

    def resolve(self, address: int, process: Optional[Process] = None
                ) -> Tuple[MemoryObject, int, bool]:
        """Resolve an address to (object, offset, is_shared)."""
        shared = self.cow_domain.resolve(address)
        if shared is not None:
            return shared[0], shared[1], True
        target = process if process is not None else self.current_process
        obj, offset = target.address_space.resolve(address)
        return obj, offset, False

    def mem_read(self, address: int, offset: int = 0,
                 process: Optional[Process] = None) -> Cell:
        obj, base_off, _ = self.resolve(address, process)
        return obj.read_byte(base_off + offset)

    def mem_write(self, address: int, offset: int, value: Cell,
                  process: Optional[Process] = None) -> None:
        obj, base_off, is_shared = self.resolve(address, process)
        if not is_shared:
            target = process if process is not None else self.current_process
            obj = target.address_space.own(obj.address)
        obj.write_byte(base_off + offset, value)

    def mem_read_bytes(self, address: int, length: int,
                       process: Optional[Process] = None) -> List[Cell]:
        """``length`` cells from ``address`` on; the base resolves once."""
        if length <= 0:
            return []
        obj, base_off, _ = self.resolve(address, process)
        return [obj.read_byte(base_off + i) for i in range(length)]

    def mem_write_bytes(self, address: int, values: Sequence[Cell],
                        process: Optional[Process] = None) -> None:
        """Write ``values`` from ``address`` on; the base resolves once."""
        if not values:
            return
        obj, base_off, is_shared = self.resolve(address, process)
        if not is_shared:
            target = process if process is not None else self.current_process
            obj = target.address_space.own(obj.address)
        for i, value in enumerate(values):
            obj.write_byte(base_off + i, value)

    def string_address(self, blob: bytes) -> int:
        """Address of an interned read-only string constant."""
        return self.data_segment[blob]

    # -- symbolic data -----------------------------------------------------------------

    def new_symbol(self, label: str, width: int = 8) -> Expr:
        """Create a fresh symbol with a replay-deterministic name."""
        self._symbol_counter += 1
        return bv_symbol("%s!%d" % (label, self._symbol_counter), width)

    def make_symbolic_buffer(self, name: str, size: int) -> Tuple[MemoryObject, List[Expr]]:
        """Allocate a buffer of fresh symbolic bytes and register it as an input."""
        symbols = [self.new_symbol(name) for _ in range(size)]
        obj = self.allocate(size, name=name)
        obj.cells = list(symbols)
        self.symbolic_inputs.setdefault(name, []).extend(symbols)
        return obj, symbols

    def add_constraint(self, constraint: Expr,
                       checked: Optional[PathConstraint] = None) -> None:
        """Append a branch condition to the path constraint (deduplicated).

        Loops re-test the same conditions on every iteration; skipping exact
        duplicates keeps the constraint set (and thus solver queries) small
        on long loop-heavy paths such as the memcached UDP hang.

        ``checked`` is the query that proved ``constraint`` feasible on this
        path, ``self.path_constraints.extended(constraint)`` (what
        ``Interpreter._feasible`` returns): it is installed as it is rather
        than extended a second time.
        """
        if constraint not in self.path_constraints:
            self.path_constraints = (
                checked if checked is not None
                else self.path_constraints.extended(constraint))

    # -- termination ----------------------------------------------------------------------

    def terminate(self, exit_code: Value = 0) -> None:
        self.status = StateStatus.EXITED
        self.exit_code = exit_code

    def terminate_error(self, report: object) -> None:
        self.status = StateStatus.ERROR
        self.error = report

    @property
    def depth(self) -> int:
        """Instructions executed on this path (``instructions_executed``)."""
        return self.instructions_executed

    @property
    def is_running(self) -> bool:
        return self.status is RUNNING

    def __repr__(self) -> str:
        return "ExecutionState(id=%d, status=%s, depth=%d, pc=%s)" % (
            self.state_id, self.status.value, self.depth,
            self.current_thread.top.pc if self.is_running and self.current else "-")
