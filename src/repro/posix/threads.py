"""POSIX threads model: create/join/exit, mutexes, condition variables,
semaphores and barriers.

The model follows §4.3 of the paper: "Modeling synchronization routines is
simplified by the cooperative scheduling policy: no locks are necessary, and
all synchronization can be done using the sleep/notify symbolic system calls,
together with reference counters."  The mutex implementation mirrors Fig. 5
(taken flag, owner, waiting queue); blocking is expressed with the engine's
sleep-and-retry convention so a woken thread re-checks the mutex before
taking it.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.engine.natives import Block, NativeContext
from repro.engine.state import ThreadStatus
from repro.engine.syscalls import cloud9_thread_create, cloud9_thread_terminate
from repro.posix.common import ERR
from repro.posix.data import (
    CondVarRecord,
    MutexRecord,
    SemaphoreRecord,
    posix_of,
)

# errno-style return values used by the model.
EPERM = 1
EBUSY = 16
EDEADLK = 35


def _me(ctx: NativeContext) -> Tuple[int, int]:
    return ctx.state.current


# -- thread lifecycle --------------------------------------------------------------


def pthread_create(ctx: NativeContext):
    """``pthread_create(function_name, argument)`` -> thread id.

    Uses the engine's ``cloud9_thread_create`` primitive, exactly as the
    paper's pthreads model does.
    """
    return cloud9_thread_create(ctx)


def pthread_exit(ctx: NativeContext):
    return cloud9_thread_terminate(ctx)


def pthread_self(ctx: NativeContext):
    return ctx.state.current[1]


def pthread_join(ctx: NativeContext):
    """``pthread_join(tid)`` -> the thread's exit value (blocking)."""
    tid = ctx.concrete_arg(0)
    pid = ctx.state.current[0]
    if tid == ctx.state.current[1]:
        return ERR  # EDEADLK: joining self
    process = ctx.state.processes.get(pid)
    target = process.threads.get(tid) if process is not None else None
    if target is None:
        return ERR  # ESRCH
    if target.status == ThreadStatus.TERMINATED:
        return target.exit_value
    me = _me(ctx)
    if me not in target.joiners:
        target.joiners.append(me)
    # Sleep without a queue; the terminating thread wakes its joiners
    # directly, after which this call re-executes and returns the value.
    raise Block(None)


def pthread_yield(ctx: NativeContext):
    ctx.state.options["force_reschedule"] = True
    return 0


# -- mutexes --------------------------------------------------------------------------


def pthread_mutex_init(ctx: NativeContext):
    """Create a mutex and return its handle."""
    posix = posix_of(ctx.state)
    handle = posix.new_handle()
    posix.own_table("mutexes")[handle] = MutexRecord()
    return handle


def _mutex(ctx: NativeContext, handle: int) -> Optional[MutexRecord]:
    """The mutex ``handle``, to write (every caller that finds one may)."""
    posix = posix_of(ctx.state)
    mutex = posix.mutexes.get(handle)
    return None if mutex is None else posix.own(mutex)


def pthread_mutex_lock(ctx: NativeContext):
    handle = ctx.concrete_arg(0)
    mutex = _mutex(ctx, handle)
    if mutex is None:
        return ERR
    if mutex.taken:
        if mutex.owner == _me(ctx):
            return EDEADLK
        if mutex.wlist is None:
            mutex.wlist = ctx.state.create_wait_list()
        mutex.queued += 1
        raise Block(mutex.wlist)
    if mutex.queued > 0:
        # This thread was woken from the queue and re-executes the call.
        mutex.queued -= 1
    mutex.taken = True
    mutex.owner = _me(ctx)
    return 0


def pthread_mutex_trylock(ctx: NativeContext):
    handle = ctx.concrete_arg(0)
    mutex = _mutex(ctx, handle)
    if mutex is None:
        return ERR
    if mutex.taken:
        return EBUSY
    mutex.taken = True
    mutex.owner = _me(ctx)
    return 0


def pthread_mutex_unlock(ctx: NativeContext):
    handle = ctx.concrete_arg(0)
    mutex = _mutex(ctx, handle)
    if mutex is None:
        return ERR
    if not mutex.taken or mutex.owner != _me(ctx):
        return EPERM
    mutex.taken = False
    mutex.owner = None
    if mutex.wlist is not None:
        ctx.state.notify(mutex.wlist, wake_all=False)
    return 0


def pthread_mutex_destroy(ctx: NativeContext):
    handle = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    mutex = posix.view(posix.mutexes.get(handle))
    if mutex is None:
        return ERR
    if mutex.taken:
        return EBUSY
    del posix.own_table("mutexes")[handle]
    return 0


# -- condition variables ---------------------------------------------------------------


def pthread_cond_init(ctx: NativeContext):
    posix = posix_of(ctx.state)
    handle = posix.new_handle()
    posix.own_table("condvars")[handle] = CondVarRecord()
    return handle


def pthread_cond_wait(ctx: NativeContext):
    """``pthread_cond_wait(cond, mutex)`` with the usual atomicity contract.

    The call is re-executed after each wake-up; a per-thread phase marker
    distinguishes the "release the mutex and sleep" phase from the
    "re-acquire the mutex and return" phase.
    """
    cond_handle = ctx.concrete_arg(0)
    mutex_handle = ctx.concrete_arg(1)
    posix = posix_of(ctx.state)
    cond = posix.condvars.get(cond_handle)
    mutex = posix.mutexes.get(mutex_handle)
    if cond is None or mutex is None:
        return ERR
    me = _me(ctx)
    mutex = posix.own(mutex)

    if posix.cond_wait_phase.get(me) != cond_handle:
        # Phase 1: the caller must hold the mutex; release it and sleep.
        if not mutex.taken or mutex.owner != me:
            return EPERM
        mutex.taken = False
        mutex.owner = None
        if mutex.wlist is not None:
            ctx.state.notify(mutex.wlist, wake_all=False)
        wlist = posix.view(cond).wlist
        if wlist is None:
            wlist = posix.own(cond).wlist = ctx.state.create_wait_list()
        posix.own_table("cond_wait_phase")[me] = cond_handle
        raise Block(wlist)

    # Phase 2: woken up; re-acquire the mutex (possibly blocking again).
    if mutex.taken:
        if mutex.wlist is None:
            mutex.wlist = ctx.state.create_wait_list()
        raise Block(mutex.wlist)
    mutex.taken = True
    mutex.owner = me
    del posix.own_table("cond_wait_phase")[me]
    return 0


def pthread_cond_signal(ctx: NativeContext):
    posix = posix_of(ctx.state)
    cond = posix.view(posix.condvars.get(ctx.concrete_arg(0)))
    if cond is None:
        return ERR
    if cond.wlist is not None:
        ctx.state.notify(cond.wlist, wake_all=False)
    return 0


def pthread_cond_broadcast(ctx: NativeContext):
    posix = posix_of(ctx.state)
    cond = posix.view(posix.condvars.get(ctx.concrete_arg(0)))
    if cond is None:
        return ERR
    if cond.wlist is not None:
        ctx.state.notify(cond.wlist, wake_all=True)
    return 0


def pthread_cond_destroy(ctx: NativeContext):
    posix = posix_of(ctx.state)
    handle = ctx.concrete_arg(0)
    if handle not in posix.condvars:
        return ERR
    del posix.own_table("condvars")[handle]
    return 0


# -- semaphores ---------------------------------------------------------------------------


def sem_init(ctx: NativeContext):
    """``sem_init(initial_value)`` -> handle."""
    posix = posix_of(ctx.state)
    handle = posix.new_handle()
    posix.own_table("semaphores")[handle] = SemaphoreRecord(
        value=ctx.concrete_arg(0, 0))
    return handle


def _semaphore(ctx: NativeContext) -> Optional[SemaphoreRecord]:
    """The semaphore named by the first argument, to write."""
    posix = posix_of(ctx.state)
    sem = posix.semaphores.get(ctx.concrete_arg(0))
    return None if sem is None else posix.own(sem)


def sem_wait(ctx: NativeContext):
    sem = _semaphore(ctx)
    if sem is None:
        return ERR
    if sem.value <= 0:
        if sem.wlist is None:
            sem.wlist = ctx.state.create_wait_list()
        raise Block(sem.wlist)
    sem.value -= 1
    return 0


def sem_trywait(ctx: NativeContext):
    sem = _semaphore(ctx)
    if sem is None:
        return ERR
    if sem.value <= 0:
        return EBUSY
    sem.value -= 1
    return 0


def sem_post(ctx: NativeContext):
    sem = _semaphore(ctx)
    if sem is None:
        return ERR
    sem.value += 1
    if sem.wlist is not None:
        ctx.state.notify(sem.wlist, wake_all=False)
    return 0


HANDLERS = {
    "pthread_create": pthread_create,
    "pthread_exit": pthread_exit,
    "pthread_self": pthread_self,
    "pthread_join": pthread_join,
    "pthread_yield": pthread_yield,
    "sched_yield": pthread_yield,
    "pthread_mutex_init": pthread_mutex_init,
    "pthread_mutex_lock": pthread_mutex_lock,
    "pthread_mutex_trylock": pthread_mutex_trylock,
    "pthread_mutex_unlock": pthread_mutex_unlock,
    "pthread_mutex_destroy": pthread_mutex_destroy,
    "pthread_cond_init": pthread_cond_init,
    "pthread_cond_wait": pthread_cond_wait,
    "pthread_cond_signal": pthread_cond_signal,
    "pthread_cond_broadcast": pthread_cond_broadcast,
    "pthread_cond_destroy": pthread_cond_destroy,
    "sem_init": sem_init,
    "sem_wait": sem_wait,
    "sem_trywait": sem_trywait,
    "sem_post": sem_post,
}
