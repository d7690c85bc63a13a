"""Execution backends behind one uniform ``run`` surface.

The paper's central promise is that the *same* symbolic test scales
transparently from one KLEE engine to a cluster; this module is where the
reproduction keeps that promise at the API level.  A :class:`Runner` turns a
``SymbolicTest`` plus :class:`~repro.api.limits.ExplorationLimits` into a
:class:`~repro.api.result.RunResult`, and the registry maps backend names to
runners so callers write::

    result = test.run(backend="cluster", workers=8, max_rounds=100)

Built-in backends:

* ``"single"``   -- one in-process engine (plain KLEE / 1-worker Cloud9).
* ``"cluster"``  -- the Cloud9 cluster with dynamic load balancing, every
  member in this process (:class:`~repro.distrib.loopback.Cloud9Cluster`:
  the coordinator over the loopback carrier; deterministic, virtual time).
* ``"static"``   -- the §2 static-partitioning strawman: the same in-process
  cluster, partitioned once by a bootstrap and never balanced.
* ``"process"`` -- the same coordinator over mp queues
  (:class:`~repro.distrib.cluster.ProcessCloud9Cluster`): worker processes
  on real cores, jobs shipped as path-encoded trees and replayed at the
  destination.  Requires a test built from a registered spec
  (:func:`repro.distrib.specs.resolve_test`) or an explicit ``spec=`` option,
  because live tests do not pickle.
* ``"tcp"`` -- the same coordinator over the socket transport
  (:mod:`repro.net`): workers are *agents* that dial in over TCP
  (``python -m repro.net.agent --connect HOST:PORT``), possibly from other
  machines, with heartbeat-based liveness.  Pass ``listen="0.0.0.0:4850"``
  to accept remote agents, or ``spawn_local_agents=True`` for a
  self-contained loopback cluster.

New backends register through :func:`register_runner`.
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import (TYPE_CHECKING, Callable, Dict, Optional, Protocol, Tuple,
                    runtime_checkable)

from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig
from repro.distrib.coordinator import Coordinator

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle: testing imports repro.api
    from repro.testing.symbolic_test import SymbolicTest

__all__ = [
    "Runner",
    "SingleRunner",
    "ClusterRunner",
    "available_backends",
    "get_runner",
    "register_runner",
    "run_test",
]


@runtime_checkable
class Runner(Protocol):
    """What a backend must provide to join the registry."""

    #: Registry key, e.g. ``"cluster"``.
    name: str

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            **options: object) -> RunResult:
        """Execute ``test`` under ``limits``."""
        ...  # pragma: no cover


def _build_cluster_config(config_cls, workers: Optional[int],
                          options: Dict[str, object]):
    """Resolve a cluster config from either a ready config or loose kwargs."""
    config = options.pop("config", None)
    if config is not None:
        if workers is not None or options:
            extra = (["workers"] if workers is not None else []) + sorted(options)
            raise TypeError(
                "pass either a full config= or loose options, not both "
                "(got config plus %s)" % ", ".join(extra))
        if not isinstance(config, config_cls):
            raise TypeError("config must be a %s, got %r"
                            % (config_cls.__name__, type(config).__name__))
        return config
    kwargs: Dict[str, object] = dict(options)
    if workers is not None:
        kwargs["num_workers"] = workers
    return config_cls(**kwargs)


class SingleRunner:
    """Plain single-engine exploration ("1-worker Cloud9", i.e. KLEE)."""

    name = "single"

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            strategy: Optional[str] = None, **options: object) -> RunResult:
        if options:
            raise TypeError("unknown options for backend 'single': %s"
                            % ", ".join(sorted(options)))
        executor = test.build_executor()
        result = executor.run(
            initial_state=test.build_initial_state(executor),
            strategy=strategy or test.strategy,
            limits=limits,
        )
        result.test_name = test.name
        return result


class ClusterRunner:
    """A coordinator-backed backend.  The four built-in ones differ only in
    the config class their loose options build and in how a test plus that
    config become a cluster (``build``, which also receives the options
    named in ``build_options``)."""

    def __init__(self, name: str, config_cls: type,
                 build: Callable[..., Coordinator],
                 build_options: Tuple[str, ...] = (),
                 defaults: Optional[Dict[str, object]] = None):
        self.name = name
        self.config_cls = config_cls
        self.build = build
        self.build_options = build_options
        #: Config fields preset when the options are loose (a full
        #: ``config=`` must already carry them).
        self.defaults = defaults or {}

    def run(self, test: "SymbolicTest",
            limits: Optional[ExplorationLimits] = None,
            workers: Optional[int] = None,
            resume_from: Optional[object] = None,
            **options: object) -> RunResult:
        build_options = {name: options.pop(name)
                         for name in self.build_options if name in options}
        if "config" not in options:
            for name, value in self.defaults.items():
                options.setdefault(name, value)
        config = _build_cluster_config(self.config_cls, workers, options)
        cluster = self.build(test, config, **build_options)
        result = cluster.run(limits=limits, resume_from=resume_from)
        return RunResult.from_cluster(result, backend=self.name,
                                      test_name=test.name)


def _process_cluster(test: "SymbolicTest", config: ProcessClusterConfig,
                     spec: Optional[str] = None,
                     spec_params: Optional[Dict[str, object]] = None
                     ) -> ProcessCloud9Cluster:
    """Worker processes (or TCP agents) rebuild the test from its spec,
    because live tests do not pickle."""
    if spec is None and spec_params is None:
        # The test carries its own spec: workers rebuild this very
        # program, so its line count is authoritative.
        spec = test.spec_name
        spec_params = dict(test.spec_params)
        line_count: Optional[int] = test.program.line_count
    else:
        # Explicit spec= and/or spec_params= override: the spec may
        # build a different program; let the cluster resolve it to
        # measure the real line count.
        line_count = None
        if spec is None:
            spec = test.spec_name
    if spec is None:
        raise ValueError(
            "backend 'process' ships tests to worker processes by spec "
            "name, but %r carries none; build it with "
            "repro.distrib.specs.resolve_test(...) or pass spec=" % test.name)
    if config.strategy is None:
        config = _dc_replace(config, strategy=test.strategy)
    return ProcessCloud9Cluster(spec, spec_params=spec_params, config=config,
                                line_count=line_count)


# -- the registry ---------------------------------------------------------------------

_RUNNERS: Dict[str, Runner] = {}


def register_runner(runner: Runner, replace: bool = False) -> Runner:
    """Add a backend to the registry under ``runner.name``."""
    name = getattr(runner, "name", None)
    if not name or not isinstance(name, str):
        raise ValueError("runner must carry a non-empty string .name")
    if not replace and name in _RUNNERS:
        raise ValueError("backend %r is already registered "
                         "(pass replace=True to override)" % name)
    _RUNNERS[name] = runner
    return runner


def get_runner(backend: str) -> Runner:
    try:
        return _RUNNERS[backend]
    except KeyError:
        raise ValueError("unknown backend %r (available: %s)"
                         % (backend, ", ".join(available_backends()))) from None


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_RUNNERS))


def run_test(test: "SymbolicTest", backend: str = "single",
             limits: Optional[ExplorationLimits] = None,
             **options: object) -> RunResult:
    """Dispatch one test to a registered backend.

    Limit fields (``max_paths=...``, ``coverage_target=...``, ...) may be
    passed directly among ``options``; they are folded into ``limits``.
    That includes ``trace_path=`` -- every backend then writes the run's
    structured JSONL event trace there (render it with
    ``python -m repro.obs.report``).  Everything else is forwarded to the
    backend (``workers=``, ``strategy=``, ``config=``, or any cluster-config
    field -- e.g. ``autoscale=`` an
    :class:`~repro.cluster.autoscale.AutoscalePolicy` to run the cluster
    backends elastically, or ``status_listen="127.0.0.1:0"`` to serve live
    run status from the coordinator, :mod:`repro.obs.status`).
    """
    limits = ExplorationLimits.pop_from(options, base=limits)
    return get_runner(backend).run(test, limits=limits, **options)


for _runner in (
        SingleRunner(),
        ClusterRunner("cluster", ClusterConfig,
                      lambda test, config: test.build_cluster(config)),
        ClusterRunner("static", StaticPartitionConfig,
                      lambda test, config: test.build_static_cluster(config)),
        ClusterRunner("process", ProcessClusterConfig, _process_cluster,
                      build_options=("spec", "spec_params")),
        ClusterRunner("tcp", ProcessClusterConfig, _process_cluster,
                      build_options=("spec", "spec_params"),
                      defaults={"transport": "tcp"})):
    register_runner(_runner)
del _runner
