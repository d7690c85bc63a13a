"""Each worker's pristine initial state stays pristine.

A worker is built with one initial state, never steps it, and only forks it:
the seed and every replay start from a fork.  A fork shares the memory
objects and the POSIX environment with its parent until one side writes, so
a write barrier that leaked into the shared original, or a seed that handed
out the original itself, would change where every later replay starts.
These runs go to exhaustion on a 3-worker loopback cluster, with replays,
and then hold every live worker's pristine state to a freshly built one.
"""

import enum
from collections import deque

import pytest

from repro.cluster import ClusterConfig
from repro.distrib import specs
from repro.solver.expr import Expr
from repro.solver.pathconstraint import PathConstraint
from repro.testing.symbolic_test import SymbolicTest

#: A packet-driven target and the POSIX-heaviest one (symbolic socket
#: fragmentation), both small enough to exhaust.
SPECS = [("memcached-packets", {"num_packets": 2, "packet_size": 4}),
         ("lighttpd-frag-1.4.12", {"frag_choice_limit": 2})]

ATOMS = (int, float, bool, str, bytes, type(None), enum.Enum, Expr)

#: Copy-on-write bookkeeping that a fork legitimately updates on the state it
#: forks from (who shares what), not the state's content.  ``_owned`` is the
#: POSIX model's: a fork of the model leaves neither side owning anything.
SHARING = {"_cow_shared", "_owned"}


def _plain(value, seen):
    """``value`` as nested tuples, aliases as back-references."""
    if isinstance(value, ATOMS):
        return value
    if isinstance(value, PathConstraint):
        return ("pc", tuple(value))
    if id(value) in seen:
        return ("alias", seen[id(value)])
    seen[id(value)] = len(seen)
    if isinstance(value, dict):
        return ("dict", tuple((_plain(k, seen), _plain(v, seen))
                              for k, v in value.items()))
    if isinstance(value, (list, tuple, deque)):
        return (type(value).__name__, tuple(_plain(v, seen) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", frozenset(_plain(v, seen) for v in value))
    names = [name for cls in type(value).__mro__
             for name in getattr(cls, "__slots__", ())]
    names += sorted(getattr(value, "__dict__", ()))
    return (type(value).__name__,
            tuple((name, _plain(getattr(value, name), seen))
                  for name in names
                  if name not in SHARING and hasattr(value, name)))


def snapshot(state):
    """Everything a replay starting from ``state`` depends on."""
    seen = {}
    return {
        "env": _plain(state.env, seen),
        "processes": _plain(state.processes, seen),  # threads, memory cells
        "cow_domain": _plain(state.cow_domain, seen),
        "allocators": (state.allocator.next_address,
                       state.shared_allocator.next_address),
        "symbols": (state._symbol_counter, _plain(state.symbolic_inputs, seen)),
        "path_constraint": tuple(state.path_constraints),
        "progress": (state.status, state.current, state.instructions_executed,
                     state.forks, state.depth, tuple(state.fork_trace),
                     frozenset(state.coverage)),
        "options": _plain(state.options, seen),
    }


@pytest.fixture(params=SPECS, ids=[name for name, _ in SPECS])
def exhausted(request, monkeypatch):
    """A test, its exhausted 3-worker cluster and how many initial states
    the run built."""
    spec_name, params = request.param
    built = []
    build = SymbolicTest.build_initial_state

    def counting_build(self, executor):
        built.append(executor)
        return build(self, executor)

    monkeypatch.setattr(SymbolicTest, "build_initial_state", counting_build)
    test = specs.resolve_test(spec_name, **params)
    cluster = test.build_cluster(
        ClusterConfig(num_workers=3, instructions_per_round=200))
    result = cluster.run(max_rounds=400)
    assert result.exhausted
    assert sum(w.stats.replays for w in cluster.workers) > 0, "tune: no replay"
    monkeypatch.undo()
    return test, cluster, built


def test_every_pristine_state_is_untouched(exhausted):
    test, cluster, _ = exhausted
    for worker in cluster.workers:
        fresh = test.build_initial_state(worker.executor)
        assert snapshot(worker.initial_state) == snapshot(fresh), worker.worker_id


def test_each_member_builds_its_initial_state_once(exhausted):
    _, cluster, built = exhausted
    assert len(built) == len(cluster.workers) == 3
    assert {id(e) for e in built} == {id(w.executor) for w in cluster.workers}


def test_the_snapshot_sees_a_stepped_state():
    """The comparison above is not vacuous: one step of a fork moves it."""
    test = specs.resolve_test("memcached-packets", num_packets=2, packet_size=4)
    executor = test.build_executor()
    pristine = test.build_initial_state(executor)
    fork = pristine.fork()
    before = snapshot(pristine)
    assert snapshot(fork) == before
    executor.step(fork)
    assert snapshot(fork) != before
    assert snapshot(pristine) == before
