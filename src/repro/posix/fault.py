"""Symbolic fault injection (paper §5.1, "Fault Injection").

Calls in a POSIX system can return an error code when they fail; Cloud9
simulates such failures whenever fault injection is turned on -- globally via
``cloud9_fi_enable``/``cloud9_fi_disable`` or per descriptor via
``ioctl(fd, SIO_FAULT_INJ, RD|WR)``.

A fault-injection point forks the state: the success branch performs the real
operation, the failure branch returns -1 and records the injected fault.  The
choice is driven by a fresh symbolic byte so that generated test cases show
which calls failed; states also count their injected faults so the
"fewest faults first" strategy (§7.3.3) can order exploration.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.natives import ForkBranch, NativeContext, NativeFork
from repro.engine.state import ExecutionState
from repro.engine.values import Value
from repro.posix.common import ERR
from repro.posix.data import FileDescriptor, posix_of
from repro.solver import expr as E


def fault_injection_active(ctx: NativeContext, entry: Optional[FileDescriptor],
                           is_write: bool) -> bool:
    """Whether this call site should consider injecting a failure."""
    posix = posix_of(ctx.state)
    if ctx.state.options.get("fault_injection_all", False):
        return True
    if posix.fault_injection_enabled:
        return True
    if entry is None:
        return False
    return entry.fault_inject_write if is_write else entry.fault_inject_read


def record_injected_fault(state: ExecutionState) -> None:
    """Count a fault on the state that takes a failure branch; the
    fewest-faults-first strategy reads the count."""
    state.options["faults_injected"] = int(state.options.get("faults_injected", 0)) + 1


def fork_with_fault(ctx: NativeContext, call_name: str,
                    success_value: Value,
                    success_effect: Optional[Callable[[ExecutionState], None]],
                    failure_value: Value = ERR) -> NativeFork:
    """Build the two-way fork for a fault-injection point.

    The caller supplies the return value of the successful operation and a
    side-effect callback that performs the operation on the successor state.
    """
    posix = posix_of(ctx.state)
    posix.fault_counter += 1
    label = "fault_%s_%d" % (call_name, posix.fault_counter)
    chooser = ctx.state.new_symbol(label)
    ctx.state.symbolic_inputs.setdefault("faults", []).append(chooser)
    zero = E.bv_const(0, 8)
    return NativeFork([
        ForkBranch(condition=E.eq(chooser, zero), return_value=success_value,
                   side_effect=success_effect, label="%s:ok" % call_name),
        ForkBranch(condition=E.ne(chooser, zero), return_value=failure_value,
                   side_effect=record_injected_fault, label="%s:fail" % call_name),
    ])


# -- Table 2 API ---------------------------------------------------------------


def cloud9_fi_enable(ctx: NativeContext):
    """Enable fault injection for every descriptor until disabled."""
    posix_of(ctx.state).fault_injection_enabled = True
    return 0


def cloud9_fi_disable(ctx: NativeContext):
    posix_of(ctx.state).fault_injection_enabled = False
    return 0


HANDLERS = {
    "cloud9_fi_enable": cloud9_fi_enable,
    "cloud9_fi_disable": cloud9_fi_disable,
}
