"""The POSIX model's copy before records were shared, and what a state reads.

The tests that hold the copy-on-write model (``repro.posix.data``) to a
reference import this module:

* :func:`eager_copy` is the fork copy the model took before it shared
  records: at a fork's first write, every table and every record copied by
  structure, each record once (``memo``), the aliases kept.
* :class:`EagerPosixState` forks by that copy and reads and writes in place,
  so the same handlers run on it and on the copy-on-write model.
* :func:`materialise` is what one state reads, as a plain graph: its tables
  with every record read through the state's ``view``, each once;
  :func:`fingerprint` is the same as nested tuples, to compare with ``==``.
"""

from __future__ import annotations

import dataclasses
import enum
from collections import deque
from typing import Any, Dict, List

from repro.posix import data as posix_data
from repro.posix.buffers import BlockBuffer, StreamBuffer
from repro.posix.data import (
    DatagramSocket,
    FileDescriptor,
    FileNode,
    ListeningSocket,
    MessageQueue,
    PosixState,
    StreamEndpoint,
)
from repro.solver.expr import Expr

#: Values a copy may share with the original: they cannot be mutated.
ATOMS = (int, float, bool, str, bytes, type(None), enum.Enum, Expr)

#: Every record class of the model.
RECORDS = tuple([StreamBuffer, BlockBuffer] + [
    obj for obj in vars(posix_data).values()
    if isinstance(obj, type) and dataclasses.is_dataclass(obj)])

#: The copy-on-write bookkeeping of a ``PosixState``: not model content.
BOOKKEEPING = ("_view", "_owned")


# -- the eager copy ------------------------------------------------------------


def _record(record, memo):
    """The copy of one record: made once per copy, found in ``memo`` after.

    A shallow copy first (registered before its fields are filled, so a
    cycle back to it finds it), then ``_FILL`` replaces each mutable field.
    """
    new = memo.get(id(record))
    if new is None:
        new = object.__new__(type(record))
        new.__dict__.update(record.__dict__)
        memo[id(record)] = new
        fill = _FILL.get(type(record))
        if fill is not None:
            fill(new, memo)
    return new


def _fill_stream(new, memo):
    new.cells = deque(new.cells)
    new.datagram_sizes = deque(new.datagram_sizes)


def _fill_block(new, memo):
    new.cells = list(new.cells)


def _fill_file(new, memo):
    new.data = _record(new.data, memo)


def _fill_endpoint(new, memo):
    new.rx = _record(new.rx, memo)
    new.tx = _record(new.tx, memo)


def _fill_listener(new, memo):
    new.pending = [_record(endpoint, memo) for endpoint in new.pending]


def _fill_dgram(new, memo):
    new.queue = _record(new.queue, memo)


def _fill_queue(new, memo):
    new.messages = [(mtype, list(body)) for mtype, body in new.messages]


def _fill_descriptor(new, memo):
    if new.file is not None:
        new.file = _record(new.file, memo)
    if new.endpoint is not None:
        new.endpoint = _record(new.endpoint, memo)
    if new.listener is not None:
        new.listener = _record(new.listener, memo)
    if new.dgram is not None:
        new.dgram = _record(new.dgram, memo)
    if new.fragment_pattern is not None:
        new.fragment_pattern = list(new.fragment_pattern)


_FILL = {
    StreamBuffer: _fill_stream,
    BlockBuffer: _fill_block,
    FileNode: _fill_file,
    StreamEndpoint: _fill_endpoint,
    ListeningSocket: _fill_listener,
    DatagramSocket: _fill_dgram,
    MessageQueue: _fill_queue,
    FileDescriptor: _fill_descriptor,
}

_RECORD_TABLES = ("filesystem", "listeners", "udp_ports", "mutexes",
                  "condvars", "semaphores", "shm_segments", "message_queues",
                  "mappings")


def eager_copy(posix: PosixState) -> PosixState:
    """The whole model copied by structure, of ``posix``'s own class."""
    memo: Dict[int, object] = {}
    new = object.__new__(type(posix))
    new.__dict__.update(posix.__dict__)
    new.fd_tables = {
        pid: {fd: _record(entry, memo) for fd, entry in table.items()}
        for pid, table in posix.fd_tables.items()}
    new.next_fd = dict(posix.next_fd)
    new.cond_wait_phase = dict(posix.cond_wait_phase)
    new.env_vars = {name: list(value)
                    for name, value in posix.env_vars.items()}
    for name in _RECORD_TABLES:
        setattr(new, name, {key: _record(record, memo) for key, record
                            in getattr(posix, name).items()})
    return new


class EagerPosixState(PosixState):
    """The model as it was before records were shared: a fork copies it all
    (:func:`eager_copy`), and every read and write is in place."""

    @classmethod
    def of(cls, posix: PosixState) -> "EagerPosixState":
        eager = object.__new__(cls)
        eager.__dict__.update(eager_copy(posix).__dict__)
        return eager

    def fork(self) -> "EagerPosixState":
        return eager_copy(self)

    def view(self, record):
        return record

    def own(self, record):
        return record

    def own_table(self, name):
        return getattr(self, name)

    def own_fds(self, pid):
        return self.fd_tables.setdefault(pid, {})


# -- what a state reads --------------------------------------------------------


def children(obj) -> List[Any]:
    """The objects one step below ``obj`` in the graph, in a fixed order."""
    if isinstance(obj, dict):
        return [item for pair in obj.items() for item in pair]
    if isinstance(obj, (list, tuple, deque)):
        return list(obj)
    return list(vars(obj).values())


def tables(posix: PosixState) -> Dict[str, Any]:
    """The model's content: every field but the copy-on-write bookkeeping."""
    return {name: value for name, value in vars(posix).items()
            if name not in BOOKKEEPING}


def materialise(posix: PosixState) -> Dict[str, Any]:
    """What ``posix`` reads, as a plain graph: :func:`tables` with every
    record read through ``posix.view``, each copied once, aliases kept."""
    memo: Dict[int, Any] = {}

    def copy(obj):
        if isinstance(obj, ATOMS):
            return obj
        if id(obj) in memo:
            return memo[id(obj)]
        source = posix.view(obj) if isinstance(obj, RECORDS) else obj
        if isinstance(source, tuple):
            return tuple(copy(item) for item in source)
        if isinstance(source, dict):
            new = memo[id(obj)] = {}
            for key, value in source.items():
                new[copy(key)] = copy(value)
        elif isinstance(source, (list, deque)):
            new = memo[id(obj)] = type(source)()
            new.extend(copy(item) for item in source)
        else:
            new = memo[id(obj)] = object.__new__(type(source))
            for name, value in vars(source).items():
                new.__dict__[name] = copy(value)
        return new

    return {name: copy(value) for name, value in tables(posix).items()}


def fingerprint(posix: PosixState) -> Any:
    """What ``posix`` reads as nested tuples, every record through its view
    and each alias as a back-reference: two models read the same graph if
    and only if their fingerprints are equal."""
    seen: Dict[int, int] = {}

    def plain(obj):
        if isinstance(obj, ATOMS):
            return obj
        if isinstance(obj, tuple):
            return ("tuple", tuple(map(plain, obj)))
        if id(obj) in seen:
            return ("alias", seen[id(obj)])
        seen[id(obj)] = len(seen)
        if isinstance(obj, RECORDS):
            obj = posix.view(obj)
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, deque)):
            items = enumerate(obj)
        else:
            items = vars(obj).items()
        return (type(obj).__name__, tuple(
            (key, value if isinstance(value, ATOMS) else plain(value))
            for key, value in items))

    return plain(tables(posix))


def reads(posix: PosixState) -> Dict[int, Any]:
    """The mutable objects ``posix`` reads (its tables, and every record
    through its view with the containers in it), by id.  A tuple is not one
    (a list inside a shared tuple is found on its own)."""
    found: Dict[int, Any] = {}
    seen, todo = set(), list(tables(posix).values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, RECORDS):
            obj = posix.view(obj)
        if not isinstance(obj, tuple):
            found[id(obj)] = obj
        todo.extend(children(obj))
    return found


def own_everything(posix: PosixState) -> None:
    """Make ``posix`` own every table and every record it reads."""
    for name, value in tables(posix).items():
        if isinstance(value, dict):
            posix.own_table(name)
    for pid in list(posix.fd_tables):
        posix.own_fds(pid)
    seen, todo = set(), list(tables(posix).values())
    while todo:
        obj = todo.pop()
        if isinstance(obj, ATOMS) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, RECORDS):
            obj = posix.own(obj)
        todo.extend(children(obj))


def assert_same_graph(ours, reference) -> None:
    """``ours`` and ``reference`` are one graph: a bijection of their
    mutable objects that keeps types, atoms and every edge."""
    forward, backward = {}, {}
    todo = [(ours, reference)]
    while todo:
        a, b = todo.pop()
        assert type(a) is type(b), (a, b)
        if isinstance(a, ATOMS):
            if isinstance(a, Expr):
                assert a is b
            else:
                assert a == b, (a, b)
            continue
        if id(a) in forward:
            assert forward[id(a)] is b, "an alias differs"
            continue
        assert id(b) not in backward, "an alias differs"
        forward[id(a)], backward[id(b)] = b, a
        kids_a, kids_b = children(a), children(b)
        assert len(kids_a) == len(kids_b), (a, b)
        if not isinstance(a, (dict, list, tuple, deque)):
            assert list(vars(a)) == list(vars(b))
        todo.extend(zip(kids_a, kids_b))
