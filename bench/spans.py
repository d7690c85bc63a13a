"""Per-layer spans, recorded from outside the program.

The harness owns the tracing: :func:`install` rebinds the program's public
names (``Solver.check``, ``simplify``, ``SearchStrategy.select``, ...) to
timing wrappers and :func:`uninstall` puts the originals back, so nothing
under ``src/`` knows it is being measured.  Spans are aggregated in memory
per name: calls, total time, and *self* time (the span minus the spans it
caused).  Because the wrappers nest exactly as the calls do, the self times of
one unit add up to the unit.

Worker processes are forked after :func:`install` and inherit the wrappers;
a wrapped ``worker_main`` starts each worker with an empty table and writes
the table to ``<dump_dir>/<pid>.json`` when the worker stops.
"""

from __future__ import annotations

import json
import os
import pickle
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

_now = time.perf_counter


class SpanTable:
    """Aggregated spans and counters of one process."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Seconds of every ``ExploreCommand`` a worker served, in order.
        self.explore_s: List[float] = []
        #: Messages the coordinator sent and received (for the micro-benchmarks).
        self.messages: List[object] = []
        self._starts: List[float] = []
        self._children: List[float] = [0.0]
        self._depth: Dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget everything, in place: the wrappers hold these containers."""
        for record in (self.calls, self.total_s, self.self_s, self.counts,
                       self.explore_s, self.messages, self._starts,
                       self._depth):
            record.clear()
        self._children[:] = [0.0]

    def hide(self, seconds: float) -> None:
        """Make ``seconds`` that just passed invisible to every open span
        (the sampler's kernel ran inside them)."""
        starts = self._starts
        for i in range(len(starts)):
            starts[i] += seconds

    def span(self, name: str, function: Callable) -> Callable:
        """Wrap ``function`` so every outermost call is a span called ``name``.
        A call made while a span of the same name is open (recursion, or one
        strategy delegating to another) belongs to that span."""
        starts, children, depth = self._starts, self._children, self._depth
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def wrapper(*args, **kwargs):
            if depth[name]:
                return function(*args, **kwargs)
            depth[name] = 1
            calls[name] += 1
            children.append(0.0)
            starts.append(_now())
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = _now() - starts.pop()
                inner = children.pop()
                children[-1] += elapsed
                total_s[name] += elapsed
                self_s[name] += elapsed - inner
                depth[name] = 0

        wrapper.__wrapped__ = function
        return wrapper

    def dump(self) -> Dict[str, object]:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "explore_s": self.explore_s}

    def merge(self, other: Dict[str, object]) -> None:
        """Add a worker's dumped table to this one."""
        for field in ("calls", "total_s", "self_s"):
            mine = getattr(self, field)
            for name, value in other[field].items():
                mine[name] += value
        for name, value in other["counts"].items():
            if name.endswith("_peak"):
                self.counts[name] = max(self.counts[name], value)
            else:
                self.counts[name] += value


_Patch = Tuple[object, str, object]


def _set(owner: object, attr: str, value: object, patches: List[_Patch]) -> None:
    patches.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, value)


def _rebind(original: object, replacement: object, patches: List[_Patch]) -> None:
    """Point every ``repro`` module-level name bound to ``original`` at
    ``replacement`` (``from x import f`` copies the binding per module)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                _set(module, attr, replacement, patches)


def install(table: SpanTable, dump_dir: str) -> List[_Patch]:
    """Wrap the layer boundaries; returns the patches for :func:`uninstall`."""
    from repro.cluster.replay import replay_path
    from repro.cluster.load_balancer import LoadBalancer
    from repro.cluster.worker import Worker
    from repro.distrib import worker as distrib_worker
    from repro.distrib.cluster import ProcessCloud9Cluster
    from repro.distrib.messages import ExploreCommand
    from repro.engine import strategies
    from repro.engine.executor import SymbolicExecutor
    from repro.engine.state import ExecutionState
    from repro.lang.compiler import compile_program
    from repro.net.transport import QueuePairTransport
    from repro.posix.model import install_posix_model
    from repro.solver import cache, expr, solver
    from repro.solver.independence import partition
    from repro.solver.simplify import simplify

    patches: List[_Patch] = []
    span = table.span
    counts = table.counts

    def method(cls: type, attr: str, name: str) -> None:
        _set(cls, attr, span(name, getattr(cls, attr)), patches)

    def function(original: Callable, name: str) -> None:
        _rebind(original, span(name, original), patches)

    # Solver stack.
    method(solver.Solver, "check", "solver.check")
    function(simplify, "solver.simplify")
    function(partition, "solver.partition")
    method(cache.ConstraintCache, "lookup", "solver.cache_lookup")
    method(cache.CounterexampleCache, "lookup", "solver.cache_lookup")

    expr_init = expr.Expr.__init__

    def counting_init(self, *args, **kwargs):
        counts["expr_allocs"] += 1
        expr_init(self, *args, **kwargs)

    _set(expr.Expr, "__init__", counting_init, patches)

    # Engine: selection, fork, step, the run loops.
    for cls in vars(strategies).values():
        if (isinstance(cls, type) and issubclass(cls, strategies.SearchStrategy)
                and "select" in vars(cls)
                and cls is not strategies.SearchStrategy):
            select = span("engine.select", cls.select)

            def counting_select(self, tree, candidates, _select=select):
                if len(candidates) > counts["frontier_peak"]:
                    counts["frontier_peak"] = len(candidates)
                return _select(self, tree, candidates)

            _set(cls, "select", counting_select, patches)
    method(ExecutionState, "fork", "engine.fork")
    method(SymbolicExecutor, "step", "engine.step")
    method(SymbolicExecutor, "run", "engine.loop")
    method(Worker, "explore", "engine.loop")

    # Set-up layers (also timed by the set-up probe).
    function(compile_program, "lang.compile")
    function(install_posix_model, "posix.install")

    # Cluster: replay, job export/import, balancing.
    function(replay_path, "cluster.import_replay")
    method(Worker, "import_jobs", "cluster.import_replay")
    method(Worker, "export_jobs", "cluster.export")
    method(LoadBalancer, "balance", "cluster.balance")

    # Distribution: the coordinator's round phases and its messages.
    method(ProcessCloud9Cluster, "_start_workers", "distrib.spawn")
    method(ProcessCloud9Cluster, "_explore_phase", "distrib.explore_phase")
    method(ProcessCloud9Cluster, "_status_phase", "distrib.status_phase")
    method(ProcessCloud9Cluster, "_dispatch_transfer", "distrib.transfer_phase")

    send, recv = QueuePairTransport.send, QueuePairTransport.recv

    def counting_send(self, message):
        table.messages.append(message)
        send(self, message)

    def counting_recv(self, timeout=None):
        message = recv(self, timeout=timeout)
        table.messages.append(message)
        return message

    _set(QueuePairTransport, "send", counting_send, patches)
    _set(QueuePairTransport, "recv", counting_recv, patches)

    # Worker side: one span per command, and the table dumped on the way out.
    handle = span("worker.handle", distrib_worker.DistribWorker.handle)

    def timed_handle(self, command):
        if not isinstance(command, ExploreCommand):
            return handle(self, command)
        started = _now()
        try:
            return handle(self, command)
        finally:
            table.explore_s.append(_now() - started)

    _set(distrib_worker.DistribWorker, "handle", timed_handle, patches)

    worker_main = distrib_worker.worker_main

    def dumping_worker_main(*args, **kwargs):
        # The fork copied the coordinator's table, open spans included.
        table.reset()
        try:
            worker_main(*args, **kwargs)
        finally:
            path = os.path.join(dump_dir, "%d.json" % os.getpid())
            with open(path, "w") as handle_:
                json.dump(table.dump(), handle_)

    _rebind(worker_main, dumping_worker_main, patches)
    return patches


def uninstall(patches: List[_Patch]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def load_worker_tables(dump_dir: str) -> List[Dict[str, object]]:
    tables = []
    for name in sorted(os.listdir(dump_dir)):
        with open(os.path.join(dump_dir, name)) as handle:
            tables.append(json.load(handle))
    return tables


def message_bytes(messages: List[object]) -> int:
    return sum(len(pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL))
               for m in messages)
