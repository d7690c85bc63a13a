"""Symbolic system calls (Table 1) and core built-in functions.

These are the minimal engine primitives the paper found necessary to support
a rich environment model: thread context switching, address-space isolation,
memory sharing and sleep operations.  The POSIX model (:mod:`repro.posix`)
is built exclusively on top of these plus ordinary memory accesses.

Naming follows the paper: ``cloud9_thread_create``, ``cloud9_thread_sleep``,
``cloud9_process_fork`` and so on.  A small set of libc-like helpers
(``malloc``, ``free``, ``memcpy``, ``strlen``, ``exit``, ...) that target
programs need is also provided here; richer POSIX functionality (files,
sockets, synchronization) lives in :mod:`repro.posix`.
"""

from __future__ import annotations

from repro.engine.errors import BugKind
from repro.engine.memory import MemoryError_
from repro.engine.natives import (
    ExitProcess,
    ExitState,
    NativeBug,
    NativeContext,
    NativeRegistry,
)
from repro.engine.state import Frame, Thread, ThreadStatus
from repro.engine.values import byte_value


# -- Table 1: Cloud9 primitives ------------------------------------------------


def cloud9_make_shared(ctx: NativeContext):
    """Share an object across the CoW domain (inter-process shared memory)."""
    address = ctx.concrete_arg(0)
    ctx.state.make_shared(address)
    return 0


def cloud9_thread_create(ctx: NativeContext):
    """Create a thread running function named by arg0, with arg1 as argument."""
    fn_name_addr = ctx.concrete_arg(0)
    argument = ctx.arg(1)
    fn_name = ctx.read_c_string(fn_name_addr).decode("latin-1")
    program = ctx.state.program
    if fn_name not in program.functions:
        raise NativeBug(BugKind.ABORT,
                        "thread_create: unknown function %r" % fn_name)
    process = ctx.process
    thread = process.new_thread()
    fn = program.function(fn_name)
    locals_ = {p: 0 for p in fn.params}
    if fn.params:
        locals_[fn.params[0]] = argument
    thread.stack.append(Frame(fn_name, 0, locals_))
    return thread.tid


def cloud9_thread_terminate(ctx: NativeContext):
    """Terminate the calling thread."""
    thread = ctx.thread
    thread.status = ThreadStatus.TERMINATED
    thread.exit_value = ctx.arg(0)
    for pid, tid in thread.joiners:
        joiner = ctx.state.processes[pid].threads.get(tid)
        if joiner is not None and joiner.status == ThreadStatus.SLEEPING:
            joiner.status = ThreadStatus.ENABLED
            joiner.wait_list = None
    thread.joiners = []
    return 0


def cloud9_process_fork(ctx: NativeContext):
    """Fork the current process inside the state (POSIX fork()).

    The parent receives the child's pid as the call's return value.  The
    child process gets a single thread that is a copy of the calling thread,
    already advanced past the fork call with a return value of 0.
    """
    state = ctx.state
    parent_proc = ctx.process
    calling_thread = ctx.thread
    child_proc = state.fork_process(parent_proc)

    child_thread = Thread(tid=0, pid=child_proc.pid)
    child_thread.stack = [f.copy() for f in calling_thread.stack]
    child_proc.threads[0] = child_thread
    child_proc.next_tid = 1

    # Make the fork "return 0" in the child: complete the CALL instruction
    # in the copied frame (advance the pc and bind the destination).
    frame = child_thread.top
    frame.pc += 1
    if ctx.instruction is not None and ctx.instruction.dest is not None:
        frame.locals[ctx.instruction.dest] = 0
    return child_proc.pid


def cloud9_process_terminate(ctx: NativeContext):
    """Terminate the calling process and all of its threads."""
    raise ExitProcess(ctx.arg(0))


def cloud9_get_context(ctx: NativeContext):
    """Return the current (pid, tid) packed as pid * 65536 + tid."""
    pid, tid = ctx.state.current
    return pid * 65536 + tid


def cloud9_get_pid(ctx: NativeContext):
    return ctx.state.current[0]


def cloud9_get_tid(ctx: NativeContext):
    return ctx.state.current[1]


def cloud9_thread_preempt(ctx: NativeContext):
    """Yield: force a scheduling decision before the next instruction."""
    ctx.state.options["force_reschedule"] = True
    return 0


def cloud9_thread_sleep(ctx: NativeContext):
    """Put the calling thread to sleep on a waiting queue.

    Unlike :class:`~repro.engine.natives.Block`, the call completes before
    the thread sleeps: when woken, execution continues *after* the sleep
    call, which is the semantics the POSIX model's synchronization code
    relies on (Fig. 5).
    """
    wlist = ctx.concrete_arg(0)
    ctx.state.sleep_on(wlist, ctx.thread)
    ctx.state.options["force_reschedule"] = True
    return 0


def cloud9_thread_notify(ctx: NativeContext):
    """Wake one thread (arg1 == 0) or all threads (arg1 != 0) from a queue."""
    wlist = ctx.concrete_arg(0)
    wake_all = bool(ctx.concrete_arg(1, 0))
    woken = ctx.state.notify(wlist, wake_all=wake_all)
    return len(woken)


def cloud9_get_wlist(ctx: NativeContext):
    """Create a new waiting queue and return its identifier."""
    return ctx.state.create_wait_list()


# -- libc-like built-ins ----------------------------------------------------------

#: Bytes a single ``malloc`` models at most (a larger request is clamped).
MAX_MALLOC = 4096


def _heap_allocate(ctx: NativeContext, size: int) -> int:
    limit = ctx.state.options.get("max_heap")
    if limit is not None:
        used = ctx.state.options.get("heap_used", 0)
        if used + size > int(limit):
            return 0  # NULL: out of (modeled) memory, cloud9_set_max_heap
        ctx.state.options["heap_used"] = used + size
    size = min(size, MAX_MALLOC)
    obj = ctx.allocate(size, name="heap")
    return obj.address


def native_malloc(ctx: NativeContext):
    return _heap_allocate(ctx, ctx.concrete_arg(0))


def native_calloc(ctx: NativeContext):
    # Modeled memory is zero-filled, so calloc is malloc of the product.
    return _heap_allocate(ctx, ctx.concrete_arg(0) * ctx.concrete_arg(1))


def native_free(ctx: NativeContext):
    address = ctx.concrete_arg(0)
    if address == 0:
        return 0
    try:
        ctx.state.free(address)
    except MemoryError_ as exc:
        raise NativeBug(BugKind.INVALID_FREE, str(exc)) from exc
    return 0


def native_memcpy(ctx: NativeContext):
    dst = ctx.concrete_arg(0)
    src = ctx.concrete_arg(1)
    length = ctx.concrete_arg(2)
    data = ctx.read_bytes(src, length)
    ctx.write_bytes(dst, data)
    return dst


def native_memset(ctx: NativeContext):
    dst = ctx.concrete_arg(0)
    value = ctx.arg(1)
    length = ctx.concrete_arg(2)
    ctx.write_bytes(dst, [byte_value(value)] * length)
    return dst


def native_strlen(ctx: NativeContext):
    address = ctx.concrete_arg(0)
    return len(ctx.read_c_string(address))


def native_strcpy(ctx: NativeContext):
    dst = ctx.concrete_arg(0)
    src = ctx.concrete_arg(1)
    data = ctx.read_c_string(src)
    ctx.write_bytes(dst, list(data) + [0])
    return dst


def native_strcmp(ctx: NativeContext):
    a = ctx.read_c_string(ctx.concrete_arg(0))
    b = ctx.read_c_string(ctx.concrete_arg(1))
    if a == b:
        return 0
    return 1 if a > b else 0xFFFFFFFF


def native_abort(ctx: NativeContext):
    raise NativeBug(BugKind.ABORT, "abort() called")


def native_exit(ctx: NativeContext):
    raise ExitProcess(ctx.arg(0))


def native_state_exit(ctx: NativeContext):
    raise ExitState(ctx.arg(0))


def native_assume(ctx: NativeContext):
    """Constrain the path with a condition (klee_assume analogue)."""
    from repro.engine.values import truth_condition

    condition = truth_condition(ctx.arg(0))
    ctx.state.add_constraint(condition)
    return 0


def native_print(ctx: NativeContext):
    """Debug printing is a no-op under symbolic execution."""
    return 0


def cloud9_make_symbolic(ctx: NativeContext):
    """Mark an existing memory region as symbolic (Table 2).

    ``cloud9_make_symbolic(addr, size, label)``: the ``size`` bytes at
    ``addr`` are replaced with fresh symbolic bytes registered under
    ``label`` (or under an auto-generated label if arg2 is 0/omitted).
    """
    address = ctx.concrete_arg(0)
    size = ctx.concrete_arg(1)
    label_addr = ctx.concrete_arg(2, 0)
    label = (ctx.read_c_string(label_addr).decode("latin-1")
             if label_addr else "sym_%x" % address)
    state = ctx.state
    symbols = [state.new_symbol(label) for _ in range(size)]
    state.mem_write_bytes(address, symbols)
    state.symbolic_inputs.setdefault(label, []).extend(symbols)
    return 0


def cloud9_symbolic_buffer(ctx: NativeContext):
    """Allocate a fresh buffer of symbolic bytes and return its address.

    ``cloud9_symbolic_buffer(size, label)`` -- convenience wrapper combining
    ``malloc`` and ``cloud9_make_symbolic``.
    """
    size = ctx.concrete_arg(0)
    label_addr = ctx.concrete_arg(1, 0)
    label = (ctx.read_c_string(label_addr).decode("latin-1")
             if label_addr else "buffer")
    obj, _symbols = ctx.state.make_symbolic_buffer(label, size)
    return obj.address


def cloud9_symbolic_int(ctx: NativeContext):
    """Return a fresh 32-bit symbolic integer registered under a label."""
    label_addr = ctx.concrete_arg(0, 0)
    label = (ctx.read_c_string(label_addr).decode("latin-1")
             if label_addr else "int")
    state = ctx.state
    symbols = [state.new_symbol(label) for _ in range(4)]
    state.symbolic_inputs.setdefault(label, []).extend(symbols)
    from repro.solver.expr import concat_bytes

    return concat_bytes(symbols)


def default_registry() -> NativeRegistry:
    """A registry pre-populated with Table 1 primitives and libc built-ins."""
    registry = NativeRegistry()
    registry.register_all({
        # Table 1 symbolic system calls.
        "cloud9_make_shared": cloud9_make_shared,
        "cloud9_thread_create": cloud9_thread_create,
        "cloud9_thread_terminate": cloud9_thread_terminate,
        "cloud9_process_fork": cloud9_process_fork,
        "cloud9_process_terminate": cloud9_process_terminate,
        "cloud9_get_context": cloud9_get_context,
        "cloud9_get_pid": cloud9_get_pid,
        "cloud9_get_tid": cloud9_get_tid,
        "cloud9_thread_preempt": cloud9_thread_preempt,
        "cloud9_thread_sleep": cloud9_thread_sleep,
        "cloud9_thread_notify": cloud9_thread_notify,
        "cloud9_get_wlist": cloud9_get_wlist,
        "cloud9_make_symbolic": cloud9_make_symbolic,
        "cloud9_symbolic_buffer": cloud9_symbolic_buffer,
        "cloud9_symbolic_int": cloud9_symbolic_int,
        # libc-like built-ins.
        "malloc": native_malloc,
        "calloc": native_calloc,
        "free": native_free,
        "memcpy": native_memcpy,
        "memset": native_memset,
        "strlen": native_strlen,
        "strcpy": native_strcpy,
        "strcmp": native_strcmp,
        "abort": native_abort,
        "exit": native_exit,
        "c9_exit_state": native_state_exit,
        "c9_assume": native_assume,
        "printf": native_print,
        "puts": native_print,
    })
    return registry
