"""The POSIX model's fork: a shell, and a copy per record written.

A state's fork takes only a ``PosixState`` shell (``PosixState.fork``)
that shares every table and record; a write copies the one record it
touches (``own``), and every read finds the copy again (``view``).  These tests
hold what a fork reads, with every record read through its view, to the
generic stdlib deepcopy (same object graph, same aliases); check that a
fork which owns everything shares no mutable object with the original,
walking every record through ``vars()`` so that a record which gains a
mutable field fails here until ``own`` copies it; and count the shells and
record copies of the lighttpd fragmentation target.
"""

import copy

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

from posix_reference import (
    ATOMS,
    RECORDS,
    assert_same_graph,
    children,
    materialise,
    own_everything,
    reads,
    tables,
)


def _pair():
    a_to_b, b_to_a = StreamBuffer(), StreamBuffer()
    return StreamEndpoint(rx=b_to_a, tx=a_to_b), StreamEndpoint(rx=a_to_b, tx=b_to_a)


def full_posix_state() -> PosixState:
    """A model state holding every record kind, with every alias the
    handlers create."""
    x = E.bv_symbol("x", 8)
    posix = PosixState()
    pid = 1
    table = posix.own_fds(pid)
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
            todo.extend(children(obj))
    return order


class TestStructuralCopy:
    def test_the_fork_reads_the_generic_deepcopy(self):
        """What a fork reads -- every record through its view -- is the
        generic deepcopy of the original, before and after the fork owns
        (copies) every table and record, and the original still reads it."""
        posix = full_posix_state()
        reference = tables(copy.deepcopy(posix))
        shell = posix.fork()
        assert type(shell) is PosixState
        assert_same_graph(materialise(shell), reference)
        own_everything(shell)
        assert_same_graph(materialise(shell), reference)
        assert_same_graph(materialise(posix), reference)

    def test_the_fixture_holds_every_record_kind(self):
        kinds = {type(obj) for obj in _walk(tables(full_posix_state()))}
        assert set(RECORDS) <= kinds

    def test_a_fork_that_owns_everything_shares_no_mutable_object(self):
        """Each ``own`` copies its record's containers: a record that gains
        a mutable field fails here until ``_FILL`` copies it."""
        posix = full_posix_state()
        original = reads(posix)
        shell = posix.fork()
        own_everything(shell)
        shared = [obj for key, obj in reads(shell).items() if key in original]
        assert not shared

    def test_aliases_survive_in_what_the_fork_reads(self):
        shell = full_posix_state().fork()
        own_everything(shell)
        clone = materialise(shell)
        parent, child = clone["fd_tables"][1], clone["fd_tables"][2]
        client, server = parent[3], parent[4]
        # A socket pair shares its two buffers, crosswise.
        assert client.endpoint.tx is server.endpoint.rx
        assert client.endpoint.rx is server.endpoint.tx
        # duplicate_table shares descriptors across pids.
        assert all(child[fd] is entry for fd, entry in parent.items())
        # The listener's table entry, its port entry and the accepted fd.
        listener = clone["listeners"][80]
        assert parent[5].listener is listener
        assert parent[8].endpoint is listener.pending[0]
        assert parent[6].endpoint.tx is listener.pending[0].rx
        assert clone["udp_ports"][53] is parent[9].dgram
        assert clone["filesystem"][b"/etc/conf"] is parent[10].file
        # The pipe's two ends share the channel and the unused buffer.
        assert parent[11].endpoint.rx is parent[12].endpoint.tx
        assert parent[11].endpoint.tx is parent[12].endpoint.rx

    def test_a_write_through_one_alias_is_read_through_the_other(self):
        posix = full_posix_state()
        shell = posix.fork()
        client = shell.lookup(1, 3)
        shell.own(shell.view(client.endpoint).tx).push([9])
        server = shell.lookup(2, 4)  # the child pid's alias of fd 4
        assert list(shell.view(shell.view(server.endpoint).rx).cells)[-1] == 9
        assert list(posix.view(posix.view(server.endpoint).rx).cells)[-1] == ord("T")


class TestForkCopyCount:
    """Shells and record copies are counted, never timed."""

    def test_an_n_way_fragment_fork_takes_n_minus_one_shells_and_copies_n_buffers(
            self, monkeypatch):
        shells, copied = [0], []
        fork, record_copy = PosixState.fork, posix_data._copy

        def counting_fork(posix):
            shells[0] += 1
            return fork(posix)

        def counting_copy(record):
            copied.append(type(record))
            return record_copy(record)

        fanouts = []
        apply_native_fork = Interpreter._apply_native_fork

        def counting_native_fork(interpreter, state, instr, native_fork):
            before = shells[0], len(copied)
            successors = apply_native_fork(interpreter, state, instr,
                                           native_fork)
            fanouts.append((len(successors), shells[0] - before[0],
                            copied[before[1]:]))
            return successors

        monkeypatch.setattr(PosixState, "fork", counting_fork)
        monkeypatch.setattr(posix_data, "_copy", counting_copy)
        monkeypatch.setattr(Interpreter, "_apply_native_fork",
                            counting_native_fork)
        test = specs.resolve_test("lighttpd-frag-1.4.12")
        test.run(backend="single", strategy="dfs", max_instructions=20_000)

        assert len([ways for ways, _, _ in fanouts if ways == 3]) >= 20
        for ways, forks, records in fanouts:
            assert forks == ways - 1
            assert records == [StreamBuffer] * ways
