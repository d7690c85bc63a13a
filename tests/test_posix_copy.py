"""The POSIX model's fork copy: ``PosixState.__deepcopy__`` by structure.

A fork shares the environment area until a write (``env_for_write``), and
the copy it then takes is ``copy.deepcopy`` of the area, which hands the
POSIX model to ``PosixState.__deepcopy__``.  These tests hold that copy to
the generic stdlib deepcopy (same object graph, same aliases, nothing
mutable shared with the original), walking every record through ``vars()``
so that a record which gains a mutable field fails here until the copy
handles it; and they count copies on the lighttpd fragmentation target.
"""

import copy
import dataclasses
import enum
from collections import deque

from repro.distrib import specs
from repro.engine.interpreter import Interpreter
from repro.posix import data as posix_data
from repro.posix.buffers import BlockBuffer, StreamBuffer
from repro.posix.data import (
    CondVarRecord,
    DatagramSocket,
    FdKind,
    FileDescriptor,
    FileNode,
    ListeningSocket,
    MemoryMapping,
    MessageQueue,
    MutexRecord,
    PosixState,
    SemaphoreRecord,
    SharedMemorySegment,
    StreamEndpoint,
)
from repro.solver import expr as E
from repro.solver.expr import Expr

#: Values the copy may share with the original: they cannot be mutated.
ATOMS = (int, float, bool, str, bytes, type(None), enum.Enum, Expr)


def _pair():
    a_to_b, b_to_a = StreamBuffer(), StreamBuffer()
    return StreamEndpoint(rx=b_to_a, tx=a_to_b), StreamEndpoint(rx=a_to_b, tx=b_to_a)


def full_posix_state() -> PosixState:
    """A model state holding every record kind, with every alias the
    handlers create."""
    x = E.bv_symbol("x", 8)
    posix = PosixState()
    pid = 1
    table = posix.table_for(pid)
    table[0] = FileDescriptor(fd=0, kind=FdKind.CHAR_SOURCE)
    table[1] = FileDescriptor(fd=1, kind=FdKind.CHAR_SINK)
    posix.next_fd[pid] = 3

    # A socket pair: each side's TX is the other's RX.
    client, server = _pair()
    client.tx.push([ord("G"), x, ord("T")])
    client.tx.read_wlist = 4
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.SOCKET_STREAM, endpoint=client,
        fragment_pattern=[1, 2], fault_inject_read=True))
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.SOCKET_STREAM, endpoint=server, fragment_reads=True))

    # A listener with two pending connections; one was already accepted
    # (its server side is in the fd table and still in the backlog list).
    listener = ListeningSocket(port=80, backlog=4, accept_wlist=2)
    posix.listeners[80] = listener
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.SOCKET_LISTEN, listener=listener))
    for _ in range(2):
        connector, acceptor = _pair()
        listener.pending.append(acceptor)
        posix.allocate_fd(pid, FileDescriptor(
            fd=-1, kind=FdKind.SOCKET_STREAM, endpoint=connector))
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.SOCKET_STREAM, endpoint=listener.pending[0]))

    # UDP: a port with one datagram queued.
    dgram = DatagramSocket(port=53)
    dgram.queue.push_datagram([1, x, 3])
    posix.udp_ports[53] = dgram
    posix.allocate_fd(pid, FileDescriptor(fd=-1, kind=FdKind.SOCKET_DGRAM,
                                          dgram=dgram))

    # A file, in the file system and open.
    node = FileNode(path=b"/etc/conf", data=BlockBuffer())
    node.data.set_contents([ord("a"), x, ord("c")])
    posix.filesystem[node.path] = node
    posix.filesystem[b"/empty"] = FileNode(path=b"/empty", symbolic=True)
    posix.allocate_fd(pid, FileDescriptor(fd=-1, kind=FdKind.FILE, file=node,
                                          offset=1))

    # A pipe: a one-way channel and an unused, closed reverse buffer.
    channel, unused = StreamBuffer(capacity=16), StreamBuffer()
    unused.close_write()
    channel.push([7, 8])
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.PIPE_READ, endpoint=StreamEndpoint(rx=channel, tx=unused)))
    posix.allocate_fd(pid, FileDescriptor(
        fd=-1, kind=FdKind.PIPE_WRITE, endpoint=StreamEndpoint(rx=unused, tx=channel)))

    # Synchronisation records.
    posix.mutexes[posix.new_handle()] = MutexRecord(taken=True, owner=(1, 0),
                                                    wlist=5, queued=1)
    posix.condvars[posix.new_handle()] = CondVarRecord(wlist=6)
    posix.semaphores[posix.new_handle()] = SemaphoreRecord(value=2)
    posix.cond_wait_phase[(1, 1)] = 1

    # System V IPC and mmap.
    posix.shm_segments[9] = SharedMemorySegment(key=9, size=64, address=4096,
                                                attach_count=1)
    queue = MessageQueue(key=11)
    queue.messages.append((1, [4, x]))
    queue.messages.append((2, [5]))
    posix.message_queues[11] = queue
    posix.mappings[8192] = MemoryMapping(address=8192, length=3,
                                         file_path=node.path)

    posix.env_vars[b"HOME"] = list(b"/root")
    posix.env_vars[b"SYM"] = [x, 0]

    # A forked child process shares the parent's descriptors.
    posix.duplicate_table(pid, 2)
    return posix


def _children(obj):
    """The objects one step below ``obj`` in the graph, in a fixed order."""
    if isinstance(obj, dict):
        return [item for pair in obj.items() for item in pair]
    if isinstance(obj, (list, tuple, deque)):
        return list(obj)
    return list(vars(obj).values())


def _walk(root):
    """Every object reachable from ``root`` (atoms included), once each."""
    seen, order, todo = set(), [], [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        order.append(obj)
        if not isinstance(obj, ATOMS):
            todo.extend(_children(obj))
    return order


def _mutables(root):
    """The mutable objects reachable from ``root``.  A tuple is not one (a
    list inside a shared tuple is found on its own)."""
    return {id(obj): obj for obj in _walk(root)
            if not isinstance(obj, ATOMS + (tuple,))}


def assert_same_graph(ours, reference):
    """``ours`` and ``reference`` are one graph: a bijection of their
    mutable objects that keeps types, atoms and every edge."""
    forward, backward = {}, {}
    todo = [(ours, reference)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b)
        if isinstance(a, ATOMS):
            if isinstance(a, Expr):
                assert a is b
            else:
                assert a == b
            continue
        if id(a) in forward:
            assert forward[id(a)] is b, "an alias differs"
            continue
        assert id(b) not in backward, "an alias differs"
        forward[id(a)], backward[id(b)] = b, a
        kids_a, kids_b = _children(a), _children(b)
        assert len(kids_a) == len(kids_b)
        if not isinstance(a, (dict, list, tuple, deque)):
            assert list(vars(a)) == list(vars(b))
        todo.extend(zip(kids_a, kids_b))


class TestStructuralCopy:
    def test_the_copy_is_the_generic_deepcopy(self, monkeypatch):
        posix = full_posix_state()
        ours = copy.deepcopy(posix)
        monkeypatch.delattr(PosixState, "__deepcopy__")
        reference = copy.deepcopy(posix)
        assert type(ours) is PosixState
        assert_same_graph(ours, reference)

    def test_the_fixture_holds_every_record_kind(self):
        kinds = {type(obj) for obj in _walk(full_posix_state())}
        records = {StreamBuffer, BlockBuffer} | {
            obj for obj in vars(posix_data).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)}
        assert records <= kinds

    def test_the_copy_shares_no_mutable_object(self):
        posix = full_posix_state()
        original = _mutables(posix)
        clone = copy.deepcopy(posix)
        shared = [obj for key, obj in _mutables(clone).items() if key in original]
        assert not shared

    def test_aliases_survive_within_the_copy(self):
        clone = copy.deepcopy({"posix": full_posix_state()})["posix"]
        parent, child = clone.fd_tables[1], clone.fd_tables[2]
        client, server = parent[3], parent[4]
        # A socket pair shares its two buffers, crosswise.
        assert client.endpoint.tx is server.endpoint.rx
        assert client.endpoint.rx is server.endpoint.tx
        # duplicate_table shares descriptors across pids.
        assert all(child[fd] is entry for fd, entry in parent.items())
        # The listener's table entry, its port entry and the accepted fd.
        listener = clone.listeners[80]
        assert parent[5].listener is listener
        assert parent[8].endpoint is listener.pending[0]
        assert parent[6].endpoint.tx is listener.pending[0].rx
        assert clone.udp_ports[53] is parent[9].dgram
        assert clone.filesystem[b"/etc/conf"] is parent[10].file
        # The pipe's two ends share the channel and the unused buffer.
        assert parent[11].endpoint.rx is parent[12].endpoint.tx
        assert parent[11].endpoint.tx is parent[12].endpoint.rx


class TestForkCopyCount:
    """Copies are counted, never timed."""

    def test_an_n_way_fragment_fork_copies_the_model_n_minus_one_times(
            self, monkeypatch):
        copies = [0]
        deepcopy = PosixState.__deepcopy__

        def counting_copy(posix, memo):
            copies[0] += 1
            return deepcopy(posix, memo)

        fanouts = []
        apply_native_fork = Interpreter._apply_native_fork

        def counting_fork(interpreter, state, instr, fork):
            before = copies[0]
            successors = apply_native_fork(interpreter, state, instr, fork)
            fanouts.append((len(successors), copies[0] - before))
            return successors

        monkeypatch.setattr(PosixState, "__deepcopy__", counting_copy)
        monkeypatch.setattr(Interpreter, "_apply_native_fork", counting_fork)
        test = specs.resolve_test("lighttpd-frag-1.4.12")
        test.run(backend="single", strategy="dfs", max_instructions=20_000)

        three_way = [n for ways, n in fanouts if ways == 3]
        assert len(three_way) >= 20
        assert set(three_way) == {2}
        assert all(n == ways - 1 for ways, n in fanouts)
