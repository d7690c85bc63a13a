"""The copy-on-write POSIX model against the eager copy, sibling by sibling.

Each example builds two families of states from one set-up: in one, the
model is the copy-on-write ``PosixState`` (a fork takes a shell, a write
copies the one record it touches); in the other, it is ``EagerPosixState``,
which copies the whole model at a fork's first write, as the model did
before it shared records.  Every step runs one syscall handler on the same
sibling of both families -- files, descriptors, sockets, pipes, ``select``,
pthreads records, IPC, ``mmap``, process forks that share descriptor tables,
fragmentation and fault-injection forks -- or forks that sibling.  After
each step, both families must hold the same siblings with the same results,
and every sibling must read the same model under both: descriptors, buffers,
files, listeners, sync records and their aliases, each record read through
the sibling's view.  A handler that reads a record without ``view`` reads a
stale copy, and one that writes it without ``own`` leaks the write into the
siblings that share it: either shows here as a difference.

A random script draws each argument uniformly from a seed that hypothesis
picks, since hypothesis's own integer draws cluster on a few values; a few
hand-written scenarios cover paths a random script reaches rarely.
"""

import random

import pytest
from hypothesis import given, note, settings, strategies as st

from repro import lang as L
from repro.engine.natives import Block, NativeContext, NativeFork
from repro.posix.api import add_concrete_file
from repro.posix.data import FdKind
from repro.posix.ioctl import SIO_FAULT_INJ, SIO_PKT_FRAGMENT, SIO_SYMBOLIC
from repro.posix.ipc import IPC_CREAT, IPC_NOWAIT
from repro.posix.mmap import MAP_ANONYMOUS, MAP_PRIVATE, MAP_SHARED, PROT_READ, PROT_WRITE

from conftest import make_executor
from posix_reference import (
    EagerPosixState,
    assert_same_graph,
    fingerprint,
    materialise,
)

PROGRAM = L.program("p", L.func("main", [], L.ret(0)))

#: Where each family's scratch object keeps a path, data, a byte list
#: (descriptors for ``select``, a fragmentation pattern) and the two
#: descriptors ``socketpair``/``pipe`` store.
PATH, DATA, BYTES, PAIR, SCRATCH = 0, 32, 64, 96, 128
PATHS = [b"/f0", b"/f1", b"/dir/f2"]
PORTS = [53, 80, 81]
#: At most this many siblings, and processes in one of them.
MAX_STATES, MAX_PROCESSES = 8, 3


class Family:
    """States forked from one initial state, under one model."""

    def __init__(self, eager: bool):
        self.executor = make_executor(PROGRAM, posix=True)
        state = self.executor.make_initial_state()
        if eager:
            state.env = EagerPosixState.of(state.env)
        self.scratch = state.allocate(SCRATCH, name="scratch").address
        self.states = [state]

    def call(self, state, name, args):
        """Run handler ``name`` on ``state`` as the interpreter would: a
        native fork's successors are forked from the untouched state first,
        then each branch's effect runs on its own.  Returns the states the
        call leaves and what it returned."""
        context = NativeContext(self.executor, state, args, None)
        try:
            result = self.executor.natives.lookup(name)(context)
        except Block as block:
            return [state], ("block", block.wait_list)
        except Exception as error:  # noqa: BLE001 -- both models must agree
            return [state], ("raised", type(error).__name__)
        if not isinstance(result, NativeFork):
            return [state], ("value", result)
        successors = [state] + [state.fork() for _ in result.branches[1:]]
        for branch, successor in zip(result.branches, successors):
            if branch.side_effect is not None:
                branch.side_effect(successor)
        return successors, ("fork", [branch.return_value
                                     for branch in result.branches])

    def step(self, index, pid_choice, op, a, b, c):
        """One step on sibling ``index`` as one of its processes; returns
        what it did."""
        state = self.states[index % len(self.states)]
        if op == "state_fork":
            if len(self.states) < MAX_STATES:
                self.states.append(state.fork())
            return None
        pids = sorted(state.processes)
        state.current = (pids[pid_choice % len(pids)], 0)
        if op == "fork" and len(state.processes) >= MAX_PROCESSES:
            return None
        if op == "store":  # the program writes a mapping (msync reads it)
            address = _nth(_model(state).mappings, a)
            try:
                state.mem_write_bytes(address, [b])
            except Exception as error:  # noqa: BLE001 -- read-only or unmapped
                return ("raised", type(error).__name__)
            return None
        name, args = _ARGUMENTS[op](self, state, a, b, c)
        successors, outcome = self.call(state, name, args)
        room = MAX_STATES - len(self.states)
        self.states.extend(successors[1:1 + room])
        return outcome


# -- arguments of each step ------------------------------------------------------
#
# An argument that names an object picks one of the sibling's own (read
# through its view, the same under both models while they agree), so that
# most steps reach a live descriptor, file or record; ``a == 13`` names a
# descriptor that does not exist.


def _model(state):
    return state.env


def _nth(keys, a):
    keys = sorted(keys)
    return keys[a % len(keys)] if keys else 0


def _fd(state, a, *kinds):
    """The caller's ``a``-th open descriptor, of one of ``kinds`` when it
    has one."""
    if a == 13:
        return a
    posix = _model(state)
    table = posix.fd_tables.get(state.current[0], {})
    entries = {fd: posix.view(entry) for fd, entry in table.items()}
    fds = [fd for fd, entry in entries.items() if not entry.closed]
    typed = [fd for fd in fds if entries[fd].kind in kinds]
    return _nth(typed or fds, a)


def _string(family, state, value):
    state.mem_write_bytes(family.scratch + PATH, list(value) + [0])
    return family.scratch + PATH


def _path(family, state, a):
    return _string(family, state, _nth(set(_model(state).filesystem)
                                       | set(PATHS), a))


def _data(family, state, n, c):
    """``n`` bytes at DATA; with ``c == 3`` the first is a fresh symbol."""
    cells = [(c * 16 + i) & 0xFF for i in range(n)]
    if cells and c == 3:
        cells[0] = state.new_symbol("data")
    state.mem_write_bytes(family.scratch + DATA, cells)
    return family.scratch + DATA


def _bytes(family, state, values):
    state.mem_write_bytes(family.scratch + BYTES, list(values))
    return family.scratch + BYTES


def _shm_address(state, a):
    posix = _model(state)
    addresses = [posix.view(segment).address
                 for segment in posix.shm_segments.values()]
    return _nth([address for address in addresses if address is not None], a)


_RW = PROT_READ | PROT_WRITE
_STREAM = (FdKind.SOCKET_STREAM, FdKind.PIPE_READ, FdKind.PIPE_WRITE)
_ARGUMENTS = {
    "open": lambda f, s, a, b, c: (
        "open", [_path(f, s, a), (0, 0x40, 0x40 | 0x200)[c % 3]]),
    "read": lambda f, s, a, b, c: ("read", [_fd(s, a), f.scratch + DATA, b]),
    "write": lambda f, s, a, b, c: (
        "write", [_fd(s, a), _data(f, s, b, c), b]),
    "read_file": lambda f, s, a, b, c: (
        "read", [_fd(s, a, FdKind.FILE), f.scratch + DATA, b]),
    "write_file": lambda f, s, a, b, c: (
        "write", [_fd(s, a, FdKind.FILE), _data(f, s, b, c), b]),
    "close": lambda f, s, a, b, c: ("close", [_fd(s, a)]),
    "dup": lambda f, s, a, b, c: ("dup", [_fd(s, a)]),
    "lseek": lambda f, s, a, b, c: (
        "lseek", [_fd(s, a, FdKind.FILE), b, c % 3]),
    "unlink": lambda f, s, a, b, c: ("unlink", [_path(f, s, a)]),
    "file_size": lambda f, s, a, b, c: ("c9_file_size", [_path(f, s, a)]),
    "socket": lambda f, s, a, b, c: ("socket", [0, 1 + c % 2]),
    "bind": lambda f, s, a, b, c: (
        "bind", [_fd(s, a, FdKind.SOCKET_STREAM, FdKind.SOCKET_DGRAM),
                 PORTS[b % 3]]),
    "listen": lambda f, s, a, b, c: (
        "listen", [_fd(s, a, FdKind.SOCKET_STREAM), 1 + c]),
    "accept": lambda f, s, a, b, c: (
        "accept", [_fd(s, a, FdKind.SOCKET_LISTEN)]),
    "connect": lambda f, s, a, b, c: (
        "connect", [_fd(s, a, FdKind.SOCKET_STREAM), PORTS[b % 3]]),
    "socketpair": lambda f, s, a, b, c: ("socketpair", [f.scratch + PAIR]),
    "pipe": lambda f, s, a, b, c: ("pipe", [f.scratch + PAIR]),
    "shutdown": lambda f, s, a, b, c: (
        "shutdown", [_fd(s, a, *_STREAM), c % 3]),
    "sendto": lambda f, s, a, b, c: (
        "sendto", [_fd(s, a, FdKind.SOCKET_DGRAM), _data(f, s, b, c), b,
                   PORTS[c % 3]]),
    "recvfrom": lambda f, s, a, b, c: (
        "recvfrom", [_fd(s, a, FdKind.SOCKET_DGRAM), f.scratch + DATA, b]),
    "select": lambda f, s, a, b, c: (
        "select", [_bytes(f, s, [_fd(s, a), _fd(s, b), _fd(s, c)]), 3,
                   f.scratch + BYTES, 3, 0]),
    "ioctl": lambda f, s, a, b, c: (
        "ioctl", [_fd(s, a), (SIO_SYMBOLIC, SIO_PKT_FRAGMENT,
                              SIO_FAULT_INJ)[c % 3], b % 4]),
    "frag_pattern": lambda f, s, a, b, c: (
        "c9_set_frag_pattern", [_fd(s, a, *_STREAM), _bytes(f, s, [1, 2, 1]),
                                c]),
    "fault": lambda f, s, a, b, c: (
        "cloud9_fi_enable" if c == 3 else "cloud9_fi_disable", []),
    "fork": lambda f, s, a, b, c: ("fork", []),
    "mutex_init": lambda f, s, a, b, c: ("pthread_mutex_init", []),
    "mutex_lock": lambda f, s, a, b, c: (
        "pthread_mutex_lock", [_nth(_model(s).mutexes, a)]),
    "mutex_trylock": lambda f, s, a, b, c: (
        "pthread_mutex_trylock", [_nth(_model(s).mutexes, a)]),
    "mutex_unlock": lambda f, s, a, b, c: (
        "pthread_mutex_unlock", [_nth(_model(s).mutexes, a)]),
    "mutex_destroy": lambda f, s, a, b, c: (
        "pthread_mutex_destroy", [_nth(_model(s).mutexes, a)]),
    "cond_init": lambda f, s, a, b, c: ("pthread_cond_init", []),
    "cond_wait": lambda f, s, a, b, c: (
        "pthread_cond_wait", [_nth(_model(s).condvars, a),
                              _nth(_model(s).mutexes, b)]),
    "cond_signal": lambda f, s, a, b, c: (
        "pthread_cond_signal", [_nth(_model(s).condvars, a)]),
    "cond_destroy": lambda f, s, a, b, c: (
        "pthread_cond_destroy", [_nth(_model(s).condvars, a)]),
    "sem_init": lambda f, s, a, b, c: ("sem_init", [c]),
    "sem_wait": lambda f, s, a, b, c: (
        "sem_wait", [_nth(_model(s).semaphores, a)]),
    "sem_trywait": lambda f, s, a, b, c: (
        "sem_trywait", [_nth(_model(s).semaphores, a)]),
    "sem_post": lambda f, s, a, b, c: (
        "sem_post", [_nth(_model(s).semaphores, a)]),
    "msgget": lambda f, s, a, b, c: ("msgget", [11 + c % 2, IPC_CREAT]),
    "msgsnd": lambda f, s, a, b, c: (
        "msgsnd", [11 + c % 2, 1 + a % 2, _data(f, s, b, c), b, IPC_NOWAIT]),
    "msgrcv": lambda f, s, a, b, c: (
        "msgrcv", [11 + c % 2, f.scratch + DATA, b, a % 3, IPC_NOWAIT]),
    "msgctl": lambda f, s, a, b, c: ("msgctl", [11 + c % 2, 0]),
    "shmget": lambda f, s, a, b, c: ("shmget", [9 + c % 2, 16, IPC_CREAT]),
    "shmat": lambda f, s, a, b, c: ("shmat", [9 + c % 2]),
    "shmdt": lambda f, s, a, b, c: ("shmdt", [_shm_address(s, a)]),
    "shmctl": lambda f, s, a, b, c: ("shmctl", [9 + c % 2, 0]),
    "mmap": lambda f, s, a, b, c: (
        "mmap", [0, 1 + b, _RW,
                 (MAP_SHARED, MAP_PRIVATE, MAP_SHARED | MAP_ANONYMOUS,
                  MAP_PRIVATE | MAP_ANONYMOUS)[c], _fd(s, a, FdKind.FILE), 0]),
    "msync": lambda f, s, a, b, c: (
        "msync", [_nth(_model(s).mappings, a), 0, 0]),
    "munmap": lambda f, s, a, b, c: (
        "munmap", [_nth(_model(s).mappings, a), 0]),
    "mprotect": lambda f, s, a, b, c: (
        "mprotect", [_nth(_model(s).mappings, a), 0,
                     PROT_READ if c % 2 else _RW]),
    "setenv": lambda f, s, a, b, c: (
        "setenv", [_path(f, s, a), _data(f, s, b, 1), c % 2]),
    "unsetenv": lambda f, s, a, b, c: ("unsetenv", [_path(f, s, a)]),
    "time": lambda f, s, a, b, c: ("time", [0]),
    "clock_step": lambda f, s, a, b, c: ("c9_set_clock_step", [b]),
}

#: The descriptor and stream operations come up more often than the rest.
OPS = sorted(_ARGUMENTS) + ["store"] + ["read", "write", "state_fork"] * 3

def _set_up(family):
    """A model with one of everything, forked into three siblings that
    share all of it."""
    state, scratch = family.states[0], family.scratch

    def call(name, *args):
        family.call(state, name, list(args))

    add_concrete_file(state, PATHS[0], b"hi")
    call("socketpair", scratch + PAIR)  # 3 and 4
    call("write", 3, _data(family, state, 3, 3), 3)  # a request in flight
    call("ioctl", 4, SIO_PKT_FRAGMENT, 0)  # read in fragments
    call("socket", 0, 1)  # 5: a listener with one connection pending
    call("bind", 5, 80)
    call("listen", 5, 4)
    for client in (6, 7):
        call("socket", 0, 1)
        call("connect", client, 80)
    call("accept", 5)  # 8: the server side of 6
    call("socket", 0, 2)  # 9: a UDP port with a datagram
    call("bind", 9, 53)
    call("sendto", 9, _data(family, state, 2, 0), 2, 53)
    call("open", _string(family, state, PATHS[0]), 0)  # 10
    call("pipe", scratch + PAIR)  # 11 and 12, with data in it
    call("write", 12, _data(family, state, 2, 1), 2)
    call("pthread_mutex_init")
    call("sem_init", 1)
    call("pthread_cond_init")
    call("msgget", 11, IPC_CREAT)
    call("msgsnd", 11, 1, _data(family, state, 2, 2), 2, IPC_NOWAIT)
    call("setenv", _string(family, state, b"HOME"),
         _data(family, state, 2, 1), 1)
    call("mmap", 0, 2, _RW, MAP_SHARED, 10, 0)
    call("shmget", 9, 16, IPC_CREAT)
    call("shmat", 9)
    family.states += [state.fork(), state.fork()]


def _script(seed, length):
    """``length`` steps, each argument drawn uniformly (hypothesis draws the
    seed): ``(sibling, process, op, a, b, c)``."""
    rng = random.Random(seed)
    return [(rng.randrange(MAX_STATES), rng.randrange(MAX_PROCESSES),
             rng.choice(OPS), rng.randrange(14), rng.randrange(6),
             rng.randrange(4)) for _ in range(length)]


def _families():
    families = [Family(eager=False), Family(eager=True)]
    for family in families:
        _set_up(family)
    return families


def _assert_same_siblings(cow, eager):
    assert len(cow.states) == len(eager.states)
    seen = {}  # siblings that still share a model read it once

    def read(posix):
        if id(posix) not in seen:
            seen[id(posix)] = fingerprint(posix)
        return seen[id(posix)]

    for ours, reference in zip(cow.states, eager.states):
        ours, reference = ours.env, reference.env
        if read(ours) != read(reference):
            assert_same_graph(materialise(ours), materialise(reference))
            raise AssertionError("the fingerprints differ")


def test_the_set_up_builds_one_of_everything():
    cow, eager = _families()
    _assert_same_siblings(cow, eager)
    assert len(cow.states) == 3
    posix = cow.states[0].env
    assert sorted(posix.fd_tables[1]) == list(range(13))
    assert posix.listeners and posix.udp_ports and posix.mappings
    assert posix.mutexes and posix.semaphores and posix.condvars
    assert posix.message_queues and posix.shm_segments and posix.env_vars


#: Hand-written scripts for paths that a random script reaches rarely (an
#: argument that names an object picks it as in a random step: fd ``a`` is
#: the caller's ``a``-th open descriptor of the kind the op takes).
SCENARIOS = {
    # A write that grows a file, read back by its writer after a seek.
    "grow_then_read": [(0, 0, "write_file", 0, 3, 0),
                       (0, 0, "lseek", 0, 0, 0), (0, 0, "read_file", 0, 5, 0)],
    # ``O_TRUNC`` empties the file that another descriptor reads.
    "truncate_then_read": [(1, 0, "open", 1, 0, 2),  # /f0
                           (1, 0, "read_file", 0, 2, 0)],
    # A fragment fork, then the rest of the request on every branch.
    "fragments": [(0, 0, "read", 4, 5, 0)] + [
        (index, 0, "read", 4, 5, 0) for index in range(MAX_STATES)],
    # A fault fork on a socket write, then the reader on each side.
    "faulty_write": [(2, 0, "ioctl", 3, 3, 2), (2, 0, "write", 3, 2, 0),
                     (2, 0, "read", 4, 5, 0), (3, 0, "read", 4, 5, 0)],
    # A child process shares the descriptors; it closes one, the parent
    # reads the other end.
    "process_fork": [(0, 0, "fork", 0, 0, 0), (0, 1, "close", 3, 0, 0),
                     (0, 0, "read", 4, 5, 0), (1, 0, "write", 3, 1, 0)],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_sibling_reads_the_eager_model_in(name):
    _run(SCENARIOS[name])


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32 - 1), st.integers(8, 30))
def test_every_sibling_reads_the_eager_model(seed, length):
    script = _script(seed, length)
    note(repr(script))
    _run(script)


def _run(script):
    cow, eager = _families()
    for step in script:
        assert cow.step(*step) == eager.step(*step), step
        _assert_same_siblings(cow, eager)
