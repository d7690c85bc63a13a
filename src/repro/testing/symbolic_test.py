"""Symbolic test definitions, and the one runner every backend sits behind.

A symbolic test encompasses "many similar concrete test cases into a single
symbolic one" (§5): it names the program under test, how to set up its
environment (files, sockets, symbolic regions, fault injection, scheduling)
and the exploration limits.  The same test object runs unchanged on every
backend through :meth:`SymbolicTest.run`::

    test.run()                                        # one engine (KLEE)
    test.run(backend="cluster", workers=8)            # Cloud9 cluster
    test.run(backend="static", workers=8)             # §2 strawman baseline
    test.run(backend="process", workers=4)            # worker processes
                                                      # (spec-built tests)

The backends (:data:`BACKENDS`):

* ``"single"``  -- one in-process engine (plain KLEE / 1-worker Cloud9).
* ``"cluster"`` -- the Cloud9 cluster with dynamic load balancing, every
  member in this process (:class:`~repro.distrib.loopback.Cloud9Cluster`:
  the coordinator over the loopback carrier; deterministic, virtual time).
* ``"static"``  -- the §2 static-partitioning strawman: the same in-process
  cluster, partitioned once by a bootstrap and never balanced.
* ``"process"`` -- the same coordinator over mp queues
  (:class:`~repro.distrib.cluster.ProcessCloud9Cluster`): worker processes
  on real cores, jobs shipped as path-encoded trees and replayed at the
  destination.  Live tests do not pickle, so a run ships the test's
  ``(spec_name, spec_params)`` and each worker rebuilds it: the test must
  come from :func:`repro.distrib.specs.resolve_test`.
* ``"tcp"`` -- the same coordinator over the socket transport
  (:class:`~repro.distrib.cluster.TcpCloud9Cluster`, :mod:`repro.net`):
  workers are *agents* that dial in over TCP
  (``python -m repro.net.agent --connect HOST:PORT``), possibly from other
  machines, with heartbeat-based liveness.  Pass ``listen="0.0.0.0:4850"``
  to accept remote agents, or ``spawn_local_agents=True`` for a
  self-contained loopback cluster.

The backend name decides the shell and the config class it takes
(:data:`CONFIGS`), and with them the carrier, so ``result.backend`` names
what ran.  Every backend returns the same
:class:`~repro.engine.result.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import (TYPE_CHECKING, Any, Callable, Dict, Optional, Type,
                    TypeVar, Union, cast)

from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.distrib.cluster import (ProcessCloud9Cluster, ProcessClusterConfig,
                                   TcpCloud9Cluster, TcpClusterConfig)
from repro.distrib.coordinator import Coordinator
from repro.engine.executor import SymbolicExecutor
from repro.engine.limits import ExplorationLimits
from repro.engine.result import RunResult
from repro.engine.state import ExecutionState
from repro.lang.ast import Program
from repro.lang.compiler import CompiledProgram, compile_program
from repro.posix.model import install_posix_model
from repro.solver.solver import Solver, SolverConfig

if TYPE_CHECKING:  # the in-process shells are imported by the runs using them
    from repro.distrib.loopback import Cloud9Cluster, StaticPartitionCluster

#: Every name :meth:`SymbolicTest.run` accepts as ``backend=``.
BACKENDS = ("cluster", "process", "single", "static", "tcp")

#: The config class each cluster backend takes.
CONFIGS: Dict[str, Type[ClusterConfig]] = {
    "cluster": ClusterConfig, "process": ProcessClusterConfig,
    "static": StaticPartitionConfig, "tcp": TcpClusterConfig}

StateSetup = Callable[[ExecutionState], None]
_Config = TypeVar("_Config", bound=ClusterConfig)


def _cluster_config(backend: str, workers: Optional[int],
                    options: Dict[str, object]) -> Any:
    """Resolve ``backend``'s config from either a ready config or loose
    kwargs; it takes exactly its own :data:`CONFIGS` class."""
    config_cls = CONFIGS[backend]
    config = options.pop("config", None)
    if config is not None:
        if workers is not None or options:
            extra = (["workers"] if workers is not None else []) + sorted(options)
            raise TypeError(
                "pass either a full config= or loose options, not both "
                "(got config plus %s)" % ", ".join(extra))
        if type(config) is not config_cls:
            owner = [name for name, cls in CONFIGS.items() if type(config) is cls]
            raise TypeError("backend %r takes a %s, got a %s%s" % (
                backend, config_cls.__name__, type(config).__name__,
                " (backend %r takes that)" % owner[0] if owner else ""))
        return config
    accepted = {f.name for f in fields(config_cls)}
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise TypeError("unknown options for backend %r: %s" % (
            backend, "; ".join(_naming_owner(name) for name in unknown)))
    kwargs: Dict[str, Any] = dict(options)
    if workers is not None:
        kwargs["num_workers"] = workers
    return config_cls(**kwargs)


def _naming_owner(option: str) -> str:
    """``option``, and the backends whose config has it, if any."""
    owners = ["backend=%r (%s)" % (name, cls.__name__)
              for name, cls in CONFIGS.items()
              if option in {f.name for f in fields(cls)}]
    if not owners:
        return option
    return "%s, which belongs to %s" % (option, ", ".join(owners))


@dataclass
class SymbolicTest:
    """A reusable description of one symbolic test.

    Parameters
    ----------
    name:
        Human-readable identifier (shows up in reports).
    program:
        The program under test (AST or compiled form); it is compiled once
        and shared by every engine instance the test creates.
    setup:
        Optional callback run on every freshly created initial state; this is
        where tests pre-populate files, queue datagrams or tweak options
        (symbolic tests "programmatically orchestrate environment events").
    options:
        Initial ``state.options`` entries (e.g. ``fault_injection_all``,
        ``scheduler_policy``).  Two of them are the engine's only settings
        for their decision, and the testing API writes them mid-path:
        ``max_instructions``, the per-path instruction limit -- the
        hang/infinite-loop detector of §7.3.3 (the memcached UDP bug), which
        ends a path that reaches it with an ``infinite_loop`` bug report
        (``cloud9_set_max_instructions``); and ``fork_schedules``, forking
        the state once per runnable thread at every scheduling point (§4.2;
        ``cloud9_set_scheduler``).
    solver_config:
        Optional :class:`~repro.solver.solver.SolverConfig` applied to every
        engine instance the test creates (one private solver per worker).
        This is how the benchmarks toggle the solver stack -- independence
        partitioning and the constraint/counterexample caches -- per run.
    use_posix_model:
        Install the POSIX environment model (on by default; pure
        computational targets may turn it off for speed).
    spec_name / spec_params:
        Set by :func:`repro.distrib.specs.resolve_test`: the registered
        test-spec this instance was built from.  Live tests hold closures and
        compiled programs that do not pickle, so process-based backends ship
        ``(spec_name, spec_params)`` and rebuild the test in each worker
        process instead.
    """

    name: str
    program: Union[Program, CompiledProgram]
    setup: Optional[StateSetup] = None
    options: Dict[str, object] = field(default_factory=dict)
    solver_config: Optional[SolverConfig] = None
    use_posix_model: bool = True
    strategy: str = "interleaved"
    spec_name: Optional[str] = None
    spec_params: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.program, CompiledProgram):
            self.program = compile_program(self.program)

    # -- factories used by both execution modes ----------------------------------------

    def build_executor(self) -> SymbolicExecutor:
        installers = [install_posix_model] if self.use_posix_model else []
        solver = (Solver(replace(self.solver_config))
                  if self.solver_config is not None else None)
        return SymbolicExecutor(self.program, solver=solver,
                                environment_installers=installers)

    def build_initial_state(self, executor: SymbolicExecutor) -> ExecutionState:
        state = executor.make_initial_state(options=dict(self.options))
        if self.setup is not None:
            self.setup(state)
        return state

    # -- the unified entry point ---------------------------------------------------------

    def run(self, backend: str = "single",
            limits: Optional[ExplorationLimits] = None,
            **options: Any) -> RunResult:
        """Run this test on one of the :data:`BACKENDS`, returning a
        :class:`~repro.engine.result.RunResult`.

        Limit fields (``max_paths=...``, ``coverage_target=...``, ...) may be
        passed directly among ``options``; they are folded into ``limits``.
        That includes ``trace_path=`` -- every backend then writes the run's
        structured JSONL event trace there (render it with
        ``python -m repro.obs.report``).  Everything else goes to the backend:
        ``strategy=`` for ``"single"``; ``workers=``, ``config=`` or any
        cluster-config field for the others -- e.g.
        ``status_listen="127.0.0.1:0"`` to serve live run status from the
        coordinator (:mod:`repro.obs.status`); ``resume_from=`` a
        :class:`~repro.cluster.checkpoint.ClusterCheckpoint` or saved
        checkpoint path, paired with the ``checkpoint_every=`` /
        ``checkpoint_path=`` config fields that produce the checkpoints.
        """
        limits = ExplorationLimits.pop_from(options, base=limits)
        if backend == "single":
            strategy = options.pop("strategy", None)
            if options:
                raise TypeError("unknown options for backend 'single': %s"
                                % ", ".join(sorted(options)))
            executor = self.build_executor()
            result = executor.run(
                initial_state=self.build_initial_state(executor),
                strategy=strategy or self.strategy,
                limits=limits,
            )
            result.test_name = self.name
            return result
        if backend not in BACKENDS:
            raise ValueError("unknown backend %r (available: %s)"
                             % (backend, ", ".join(BACKENDS)))
        workers = options.pop("workers", None)
        resume_from = options.pop("resume_from", None)
        config = _cluster_config(backend, workers, options)
        cluster: Coordinator
        if backend == "cluster":
            cluster = self.build_cluster(config)
        elif backend == "static":
            cluster = self.build_static_cluster(config)
        else:
            cluster = self._process_cluster(backend, config)
        result = cluster.run(limits=limits, resume_from=resume_from)
        return RunResult.from_cluster(result, backend=backend, test_name=self.name)

    def _process_cluster(self, backend: str, config: ProcessClusterConfig
                         ) -> ProcessCloud9Cluster:
        """The ``"process"``/``"tcp"`` cluster: worker processes (or TCP
        agents) rebuild this test from its spec, because live tests do not
        pickle.  Every refusal comes before any process or socket exists."""
        if self.spec_name is None:
            raise ValueError(
                "backend %r ships tests to worker processes by spec name, but "
                "%r carries none; build it with "
                "repro.distrib.specs.resolve_test(...)" % (backend, self.name))
        shell = TcpCloud9Cluster if backend == "tcp" else ProcessCloud9Cluster
        return shell(self.spec_name, spec_params=dict(self.spec_params),
                     config=self._own_strategy(config),
                     line_count=self.line_count)

    # -- cluster execution -----------------------------------------------------------------

    def _own_strategy(self, config: _Config) -> _Config:
        """``config``, or a copy naming this test's strategy when it names
        none -- a copy rather than a mutation, because the caller's config
        may be reused across tests with different strategies."""
        if config.strategy is None:
            return replace(config, strategy=self.strategy)
        return config

    def build_cluster(self, config: Optional[ClusterConfig] = None,
                      cluster_class: Optional[Type[Cloud9Cluster]] = None
                      ) -> Cloud9Cluster:
        from repro.distrib.loopback import Cloud9Cluster
        return (cluster_class or Cloud9Cluster)(
            executor_factory=self.build_executor,
            state_factory=self.build_initial_state,
            config=self._own_strategy(config or ClusterConfig()),
        )

    def build_static_cluster(self, config: Optional[StaticPartitionConfig] = None
                             ) -> StaticPartitionCluster:
        """The §2 static-partitioning baseline (for the ablation benchmarks)."""
        from repro.distrib.loopback import StaticPartitionCluster
        return StaticPartitionCluster(
            executor_factory=self.build_executor,
            state_factory=self.build_initial_state,
            config=self._own_strategy(config or StaticPartitionConfig()),
        )

    # -- convenience ---------------------------------------------------------------------------

    @property
    def line_count(self) -> int:
        # __post_init__ compiled the program.
        return cast(CompiledProgram, self.program).line_count
