"""Native-function machinery: how modeled/POSIX code plugs into the engine.

Program code calls functions by name.  Names defined by the program execute
symbolically; every other name is looked up in the engine's *native registry*
-- the analogue of the boundary between the program and the symbolic C
library in Fig. 4 of the paper.

A native handler is a Python callable ``handler(ctx)`` receiving a
:class:`NativeContext`.  It can:

* return an ``int``/``Expr`` -- the call's return value;
* return ``None`` -- treated as returning 0;
* return a :class:`NativeFork` -- the engine forks the state, one successor
  per feasible branch (used for fault injection and symbolic read sizes);
* raise :class:`Block` -- the calling thread goes to sleep on a wait list and
  the call is re-executed when the thread is woken;
* raise :class:`NativeBug` -- the path terminates with a bug report;
* raise :class:`ExitProcess` / :class:`ExitState` -- terminate the current
  process or the whole state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.engine.errors import BugKind
from repro.engine.memory import MemoryObject
from repro.engine.state import ExecutionState, Process, Thread
from repro.engine.values import Value, is_concrete
from repro.solver.expr import Expr
from repro.solver.solver import Solver


class Block(Exception):
    """Thread must sleep; the native call re-executes when the thread wakes.

    With ``wait_list=None`` the thread sleeps without being queued anywhere
    and must be woken explicitly (used by ``pthread_join``, whose wake-up is
    driven by the joiners list of the target thread).
    """

    def __init__(self, wait_list: Optional[int]):
        super().__init__("blocked on wait list %r" % (wait_list,))
        self.wait_list = wait_list


class NativeBug(Exception):
    """The native function detected a bug along this path."""

    def __init__(self, kind: BugKind, message: str):
        super().__init__(message)
        self.kind = kind
        self.message = message


class ExitProcess(Exception):
    """Terminate the calling process (e.g. ``exit()``)."""

    def __init__(self, code: Value = 0):
        super().__init__("process exit")
        self.code = code


class ExitState(Exception):
    """Terminate the whole execution state (all processes)."""

    def __init__(self, code: Value = 0):
        super().__init__("state exit")
        self.code = code


@dataclass
class ForkBranch:
    """One alternative outcome of a native call."""

    condition: Optional[Expr]          # None means "no extra constraint"
    return_value: Value = 0
    side_effect: Optional[Callable[[ExecutionState], None]] = None
    label: str = ""


@dataclass
class NativeFork:
    """A set of alternative outcomes; the engine keeps the feasible ones."""

    branches: List[ForkBranch]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("NativeFork needs at least one branch")


NativeHandler = Callable[["NativeContext"], Union[None, Value, NativeFork]]


class NativeRegistry:
    """Name -> handler table, with late registration by environment models."""

    def __init__(self):
        self._handlers: Dict[str, NativeHandler] = {}

    def register(self, name: str, handler: NativeHandler) -> None:
        self._handlers[name] = handler

    def register_all(self, handlers: Dict[str, NativeHandler]) -> None:
        for name, handler in handlers.items():
            self.register(name, handler)

    def lookup(self, name: str) -> Optional[NativeHandler]:
        return self._handlers.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._handlers

    def names(self) -> List[str]:
        return sorted(self._handlers)


class NativeContext:
    """Everything a native handler may touch."""

    def __init__(self, executor, state: ExecutionState, args: Sequence[Value],
                 instruction) -> None:
        self.executor = executor
        self.state = state
        self.args = list(args)
        self.instruction = instruction

    # -- convenience accessors ------------------------------------------------

    @property
    def solver(self) -> Solver:
        return self.executor.solver

    @property
    def process(self) -> Process:
        return self.state.current_process

    @property
    def thread(self) -> Thread:
        return self.state.current_thread

    def arg(self, index: int, default: Value = 0) -> Value:
        if index < len(self.args):
            return self.args[index]
        return default

    def concrete_arg(self, index: int, default: int = 0) -> int:
        """Argument ``index`` as a concrete int, concretizing if symbolic."""
        return self.concretize(self.arg(index, default))

    # -- concretization ----------------------------------------------------------

    def concretize(self, value: Value, bind: bool = True) -> int:
        """Pick a concrete value consistent with the path constraint.

        When ``bind`` is true the binding is added to the path constraint so
        later execution cannot contradict the choice (KLEE-style
        concretization).
        """
        if is_concrete(value):
            return value
        from repro.solver import expr as E  # local import to avoid cycles at import time

        model = self.solver.get_model(self.state.path_constraints)
        concrete = int(model.evaluate(value)) if model is not None else 0
        if bind:
            width = value.width
            self.state.add_constraint(E.eq(value, E.bv_const(concrete, width)))
        return concrete

    # -- memory helpers ------------------------------------------------------------

    def read_bytes(self, address: int, length: int) -> List[Value]:
        return self.state.mem_read_bytes(address, length)

    def write_bytes(self, address: int, values: Sequence[Value]) -> None:
        self.state.mem_write_bytes(address, values)

    def read_c_string(self, address: int, max_length: int = 4096) -> bytes:
        """Read a NUL-terminated concrete string from memory.

        Symbolic bytes encountered before the terminator are concretized.
        The address resolves once; past its object's end a read goes
        through ``mem_read``, which raises the out-of-bounds error.
        """
        if max_length <= 0:
            return b""
        out = bytearray()
        obj, base_off, _ = self.state.resolve(address)
        cells, end = obj.cells, obj.size - base_off
        for offset in range(max_length):
            cell = (cells[base_off + offset] if offset < end
                    else self.state.mem_read(address, offset))
            value = cell if is_concrete(cell) else self.concretize(cell)
            if value == 0:
                break
            out.append(value & 0xFF)
        return bytes(out)

    def allocate(self, size: int, name: str = "") -> MemoryObject:
        return self.state.allocate(size, name=name)

    # -- errors ---------------------------------------------------------------------

    def bug(self, kind: BugKind, message: str) -> None:
        raise NativeBug(kind, message)
