"""Execution backends behind one uniform ``run`` surface.

The paper's central promise is that the *same* symbolic test scales
transparently from one KLEE engine to a cluster; this module is where the
reproduction keeps that promise at the API level.  :func:`run_test` turns a
``SymbolicTest`` plus :class:`~repro.api.limits.ExplorationLimits` into a
:class:`~repro.api.result.RunResult` on the backend named by ``backend=``,
so callers write::

    result = test.run(backend="cluster", workers=8, max_rounds=100)

The backends (:func:`available_backends`):

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
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig

from repro.api.limits import ExplorationLimits
from repro.api.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle: testing imports repro.api
    from repro.testing.symbolic_test import SymbolicTest

__all__ = ["available_backends", "run_test"]

_BACKENDS = ("cluster", "process", "single", "static", "tcp")


def available_backends() -> Tuple[str, ...]:
    return _BACKENDS


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


def _process_cluster(test: "SymbolicTest", config: ProcessClusterConfig,
                     backend: str, spec: Optional[str] = None,
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
            "backend %r ships tests to worker processes by spec name, but "
            "%r carries none; build it with "
            "repro.distrib.specs.resolve_test(...) or pass spec="
            % (backend, test.name))
    if config.strategy is None:
        config = _dc_replace(config, strategy=test.strategy)
    return ProcessCloud9Cluster(spec, spec_params=spec_params, config=config,
                                line_count=line_count)


def run_test(test: "SymbolicTest", backend: str = "single",
             limits: Optional[ExplorationLimits] = None,
             **options: object) -> RunResult:
    """Run one test on ``backend``.

    Limit fields (``max_paths=...``, ``coverage_target=...``, ...) may be
    passed directly among ``options``; they are folded into ``limits``.
    That includes ``trace_path=`` -- every backend then writes the run's
    structured JSONL event trace there (render it with
    ``python -m repro.obs.report``).  Everything else goes to the backend:
    ``strategy=`` for ``"single"``; ``workers=``, ``resume_from=``,
    ``config=`` or any cluster-config field for the others -- e.g.
    ``status_listen="127.0.0.1:0"`` to serve live run status from the
    coordinator (:mod:`repro.obs.status`); ``spec=`` and
    ``spec_params=`` for ``"process"`` and ``"tcp"``.
    """
    limits = ExplorationLimits.pop_from(options, base=limits)
    if backend == "single":
        strategy = options.pop("strategy", None)
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
    if backend not in _BACKENDS:
        raise ValueError("unknown backend %r (available: %s)"
                         % (backend, ", ".join(available_backends())))
    workers = options.pop("workers", None)
    resume_from = options.pop("resume_from", None)
    if backend == "cluster":
        cluster = test.build_cluster(
            _build_cluster_config(ClusterConfig, workers, options))
    elif backend == "static":
        cluster = test.build_static_cluster(
            _build_cluster_config(StaticPartitionConfig, workers, options))
    else:
        spec = options.pop("spec", None)
        spec_params = options.pop("spec_params", None)
        if backend == "tcp" and "config" not in options:
            options.setdefault("transport", "tcp")
        config = _build_cluster_config(ProcessClusterConfig, workers, options)
        cluster = _process_cluster(test, config, backend, spec, spec_params)
    result = cluster.run(limits=limits, resume_from=resume_from)
    return RunResult.from_cluster(result, backend=backend, test_name=test.name)
