"""System V style IPC: shared memory segments and message queues (§4.3).

The paper lists "IPC routines" among the components added to the POSIX model
to run the evaluation targets.  This module provides the two families the
targets use:

* **Shared memory** -- ``shmget``/``shmat``/``shmdt``/``shmctl``.  A segment
  is backed by one object in the engine's CoW domain, so (like the paper's
  ``cloud9_make_shared``) stores by any process are visible to every process
  of the execution state, while remaining private to that state.
* **Message queues** -- ``msgget``/``msgsnd``/``msgrcv``.  Queues are
  bounded; senders block when a queue is full and receivers block when it is
  empty, using the engine's sleep/notify symbolic system calls.

Handles returned to programs are the IPC *keys* themselves (the model has a
single namespace per state), which keeps the modeled API easy to drive from
the small target language.
"""

from __future__ import annotations

from typing import List, Optional

from repro.engine.natives import Block, NativeContext
from repro.posix.common import ERR, copy_cells_to_memory, read_cells_from_memory
from repro.posix.data import MessageQueue, SharedMemorySegment, posix_of

IPC_CREAT = 0x200
IPC_EXCL = 0x400
IPC_RMID = 0
IPC_NOWAIT = 0x800

# msgrcv() returns -1 with errno ENOMSG in non-blocking mode.
ENOMSG = 42


# -- shared memory ---------------------------------------------------------------


def posix_shmget(ctx: NativeContext):
    """``shmget(key, size, flags)`` -> shm id (the key itself)."""
    key = ctx.concrete_arg(0)
    size = ctx.concrete_arg(1)
    flags = ctx.concrete_arg(2, 0)
    posix = posix_of(ctx.state)
    segment = posix.view(posix.shm_segments.get(key))
    if segment is None:
        if not flags & IPC_CREAT:
            return ERR
        if size <= 0:
            return ERR
        posix.own_table("shm_segments")[key] = SharedMemorySegment(
            key=key, size=size)
        return key
    if flags & IPC_CREAT and flags & IPC_EXCL:
        return ERR  # EEXIST
    if size > segment.size:
        return ERR  # EINVAL
    return key


def posix_shmat(ctx: NativeContext):
    """``shmat(shmid)`` -> address of the segment in the CoW domain."""
    key = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    segment = posix.shm_segments.get(key)
    if segment is None:
        return ERR
    segment = posix.own(segment)
    if segment.address is None:
        obj = ctx.state.allocate_shared(segment.size, name="shm:%d" % key)
        segment.address = obj.address
    segment.attach_count += 1
    return segment.address


def posix_shmdt(ctx: NativeContext):
    """``shmdt(addr)``: detach; the segment is destroyed once unused and removed."""
    address = ctx.concrete_arg(0)
    posix = posix_of(ctx.state)
    for key in posix.shm_segments.values():
        segment = posix.view(key)
        if segment.address == address and segment.attach_count > 0:
            segment = posix.own(key)
            segment.attach_count -= 1
            if segment.marked_for_removal and segment.attach_count == 0:
                _destroy_segment(ctx, segment)
            return 0
    return ERR


def posix_shmctl(ctx: NativeContext):
    """``shmctl(shmid, cmd)`` supporting ``IPC_RMID``."""
    key = ctx.concrete_arg(0)
    cmd = ctx.concrete_arg(1, IPC_RMID)
    posix = posix_of(ctx.state)
    segment = posix.shm_segments.get(key)
    if segment is None:
        return ERR
    if cmd != IPC_RMID:
        return ERR
    segment = posix.own(segment)
    segment.marked_for_removal = True
    if segment.attach_count == 0:
        _destroy_segment(ctx, segment)
    return 0


def _destroy_segment(ctx: NativeContext, segment: SharedMemorySegment) -> None:
    if segment.address is not None:
        ctx.state.cow_domain.unshare(segment.address)
    posix_of(ctx.state).own_table("shm_segments").pop(segment.key, None)


# -- message queues ----------------------------------------------------------------


def posix_msgget(ctx: NativeContext):
    """``msgget(key, flags)`` -> queue id (the key itself)."""
    key = ctx.concrete_arg(0)
    flags = ctx.concrete_arg(1, 0)
    posix = posix_of(ctx.state)
    queue = posix.message_queues.get(key)
    if queue is None:
        if not flags & IPC_CREAT:
            return ERR
        posix.own_table("message_queues")[key] = MessageQueue(key=key)
        return key
    if flags & IPC_CREAT and flags & IPC_EXCL:
        return ERR
    return key


def _queue(ctx: NativeContext, key: int) -> Optional[MessageQueue]:
    """The message queue ``key``, to write (every caller that finds one may)."""
    posix = posix_of(ctx.state)
    queue = posix.message_queues.get(key)
    return None if queue is None else posix.own(queue)


def posix_msgsnd(ctx: NativeContext):
    """``msgsnd(qid, mtype, buf, n, flags)``: enqueue one message (may block)."""
    key = ctx.concrete_arg(0)
    mtype = ctx.concrete_arg(1, 1)
    buf_addr = ctx.concrete_arg(2)
    n = ctx.concrete_arg(3)
    flags = ctx.concrete_arg(4, 0)
    queue = _queue(ctx, key)
    if queue is None or n < 0:
        return ERR
    if queue.bytes_used + n > queue.max_bytes:
        if flags & IPC_NOWAIT:
            return ERR  # EAGAIN
        if queue.write_wlist is None:
            queue.write_wlist = ctx.state.create_wait_list()
        raise Block(queue.write_wlist)
    cells = read_cells_from_memory(ctx.state, buf_addr, n)
    queue.messages.append((mtype, list(cells)))
    if queue.read_wlist is not None:
        ctx.state.notify(queue.read_wlist, wake_all=True)
    return 0


def posix_msgrcv(ctx: NativeContext):
    """``msgrcv(qid, buf, n, mtype, flags)``: dequeue one message (may block).

    ``mtype == 0`` takes the first message of any type; a positive ``mtype``
    takes the first message of exactly that type.
    """
    key = ctx.concrete_arg(0)
    buf_addr = ctx.concrete_arg(1)
    n = ctx.concrete_arg(2)
    mtype = ctx.concrete_arg(3, 0)
    flags = ctx.concrete_arg(4, 0)
    queue = _queue(ctx, key)
    if queue is None:
        return ERR

    index = None
    for i, (message_type, _body) in enumerate(queue.messages):
        if mtype == 0 or message_type == mtype:
            index = i
            break
    if index is None:
        if flags & IPC_NOWAIT:
            return ERR  # ENOMSG
        if queue.read_wlist is None:
            queue.read_wlist = ctx.state.create_wait_list()
        raise Block(queue.read_wlist)

    _message_type, body = queue.messages.pop(index)
    delivered: List[object] = list(body[:n])
    copy_cells_to_memory(ctx.state, buf_addr, delivered)
    if queue.write_wlist is not None:
        ctx.state.notify(queue.write_wlist, wake_all=True)
    return len(delivered)


def posix_msgctl(ctx: NativeContext):
    """``msgctl(qid, cmd)`` supporting ``IPC_RMID``."""
    key = ctx.concrete_arg(0)
    cmd = ctx.concrete_arg(1, IPC_RMID)
    posix = posix_of(ctx.state)
    if key not in posix.message_queues or cmd != IPC_RMID:
        return ERR
    queue = posix.view(posix.own_table("message_queues").pop(key))
    # Wake anything still blocked so sleeping threads do not become a
    # spurious deadlock report.
    if queue.read_wlist is not None:
        ctx.state.notify(queue.read_wlist, wake_all=True)
    if queue.write_wlist is not None:
        ctx.state.notify(queue.write_wlist, wake_all=True)
    return 0


HANDLERS = {
    "shmget": posix_shmget,
    "shmat": posix_shmat,
    "shmdt": posix_shmdt,
    "shmctl": posix_shmctl,
    "msgget": posix_msgget,
    "msgsnd": posix_msgsnd,
    "msgrcv": posix_msgrcv,
    "msgctl": posix_msgctl,
}
