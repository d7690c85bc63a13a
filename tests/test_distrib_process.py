"""Tests for repro.distrib: spec registry, worker protocol, process cluster."""

import dataclasses
import multiprocessing
import pickle
import sys

import pytest

from repro.api import ExplorationLimits
from repro.cluster.jobs import JobTree
from repro.cluster.stats import WorkerStats
from repro.distrib import DistribWorker, ProcessClusterConfig, specs
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    TcpClusterConfig,
    WorkerProcessError,
)
from repro.distrib import messages
from repro.obs.trace import load_trace
from repro.engine.coverage import CoverageBitVector
from repro.distrib.messages import (
    REPLY_OF,
    ErrorReply,
    ExploreCommand,
    ExportCommand,
    ImportCommand,
    ReadyReply,
    ReportCommand,
    SeedCommand,
    StatusReply,
    StopCommand,
)
from repro.testing.symbolic_test import SymbolicTest

from conftest import BUILTIN_SPECS, branchy_program

LIMITS = ExplorationLimits(max_rounds=300)


def _branchy_spec_test(buffer_size=2):
    return SymbolicTest(name="branchy-spec",
                        program=branchy_program(buffer_size),
                        use_posix_model=False)


# Registered at import time: "fork" children inherit it, which is what the
# process-backend tests below rely on.
specs.register_spec("test-branchy", _branchy_spec_test, replace=True)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="runtime-registered specs reach child processes only under fork")


class TestSpecRegistry:
    def test_builtin_targets_are_registered(self):
        names = specs.available_specs()
        for expected in ("printf", "testcmd", "memcached-packets", "ghttpd",
                         "coreutils-echo", "lighttpd-frag-1.4.13"):
            assert expected in names

    def test_resolve_test_stamps_spec_reference(self):
        test = specs.resolve_test("printf", format_length=2)
        assert test.spec_name == "printf"
        assert test.spec_params == {"format_length": 2}
        assert test.name == "printf-symbolic-format"

    def test_unknown_spec_raises_with_suggestions(self):
        with pytest.raises(ValueError, match="unknown test spec"):
            specs.resolve_test("no-such-spec")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            specs.register_spec("test-branchy", _branchy_spec_test)

    @pytest.mark.parametrize("name", ["printf", "coreutils-echo"])
    def test_a_stock_name_is_refused_before_and_after_its_lookup(
            self, name, monkeypatch):
        """Registering over a stock spec used to replace it silently before
        its first lookup and raise after it."""
        monkeypatch.setattr(specs, "_REGISTRY", {})
        for looked_up in (False, True):
            with pytest.raises(ValueError, match="already registered"):
                specs.register_spec(name, _branchy_spec_test)
            assert (name in specs._REGISTRY) is looked_up
            assert specs.get_spec(name) is not _branchy_spec_test
        specs._REGISTRY.clear()
        specs.register_spec(name, _branchy_spec_test, replace=True)
        assert specs.get_spec(name) is _branchy_spec_test

    def test_with_options_drops_spec_reference(self):
        test = specs.resolve_test("printf", format_length=2)
        derived = test.with_options(max_instructions=10)
        assert derived.spec_name is None

    def test_failed_first_load_is_retried_not_remembered(self, monkeypatch):
        """A target module that fails to import must fail every lookup the
        same way until it is fixed, not leave an empty registry behind."""
        import repro.targets
        monkeypatch.setattr(specs, "_REGISTRY", {})
        with monkeypatch.context() as broken:
            broken.delattr(repro.targets, "rsync")
            broken.setitem(sys.modules, "repro.targets.rsync", None)
            for _ in range(2):
                with pytest.raises(ModuleNotFoundError):
                    specs.available_specs()
        assert specs.available_specs() == BUILTIN_SPECS


class TestDistribWorker:
    """The worker protocol driven in-process (no forking)."""

    def _worker(self, worker_id=1):
        return DistribWorker.from_test(worker_id, _branchy_spec_test())

    def test_seed_then_explore_to_exhaustion(self):
        worker = self._worker()
        status = worker.handle(SeedCommand())
        assert isinstance(status, StatusReply)
        assert status.queue_length == 1
        while status.queue_length:
            status = worker.handle(ExploreCommand(budget=1000))
        assert status.stats.paths_completed == 9
        assert status.stats.useful_instructions > 0
        assert status.coverage_bits > 0

    def test_export_import_round_trip_completes_the_tree(self):
        source = self._worker(1)
        status = source.handle(SeedCommand())
        while status.queue_length and status.queue_length < 3:
            status = source.handle(ExploreCommand(budget=5))
        assert status.queue_length >= 3, "need a frontier to export from"
        export = source.handle(ExportCommand(count=2))
        assert export.job_count == 2
        assert export.encoded_jobs is not None
        # The payload is the JobTree wire format, decodable stand-alone.
        assert len(JobTree.decode(export.encoded_jobs)) == 2

        destination = self._worker(2)
        imported = destination.handle(ImportCommand(encoded_jobs=export.encoded_jobs))
        assert imported.imported == 2

        for worker in (source, destination):
            while worker.handle(ExploreCommand(budget=1000)).queue_length:
                pass
        src_final = source.handle(ReportCommand())
        dst_final = destination.handle(ReportCommand())
        assert (src_final.stats.paths_completed
                + dst_final.stats.paths_completed) == 9
        assert dst_final.stats.replay_instructions > 0
        assert dst_final.stats.jobs_imported == 2
        assert src_final.stats.transfer_encoded_nodes > 0
        assert src_final.cache_counters["constraint_cache_misses"] > 0

    def test_bogus_job_is_reported_not_fatal(self):
        """A shipped path that cannot be replayed (divergence) must not kill
        the worker: the job is dropped, counted, and exploration continues."""
        worker = self._worker()
        worker.handle(SeedCommand())
        # Index 7 can never match a fork of the 2/3-way branchy program.
        bogus = JobTree.from_jobs([])
        bogus.insert((7, 7, 7))
        worker.handle(ImportCommand(encoded_jobs=bogus.encode()))
        status = worker.status()
        assert status.queue_length == 2  # root + the virtual bogus node
        while status.queue_length:
            status = worker.handle(ExploreCommand(budget=1000))
        assert status.stats.broken_replays == 1
        assert status.stats.paths_completed == 9  # the real work still finished

    def test_premature_termination_job_is_reported_not_fatal(self):
        worker = self._worker()
        worker.handle(SeedCommand())
        # Deeper than any real path: replay terminates with forks left over.
        bogus = JobTree.from_jobs([])
        bogus.insert((0,) * 40)
        worker.handle(ImportCommand(encoded_jobs=bogus.encode()))
        status = worker.status()
        while status.queue_length:
            status = worker.handle(ExploreCommand(budget=1000))
        assert status.stats.broken_replays == 1
        assert status.stats.paths_completed == 9


class TestEveryCommandHasItsReply:
    """``REPLY_OF`` is the protocol's one statement of which reply answers
    which command; the coordinator expects exactly that class, so the member
    must send it.  A command added to ``messages`` without a row in the
    table, a sample here, or an arm in ``DistribWorker.handle`` fails."""

    SAMPLES = (SeedCommand(), ExploreCommand(budget=5), ReportCommand(),
               ExportCommand(count=1),
               ImportCommand(encoded_jobs=JobTree().encode()))

    def test_table_and_samples_cover_every_command_but_stop(self):
        commands = {getattr(messages, name) for name in messages.__all__
                    if name.endswith("Command")} - {StopCommand}
        assert set(REPLY_OF) == commands
        assert {type(sample) for sample in self.SAMPLES} == commands

    def test_handle_answers_each_command_with_the_reply_the_table_names(self):
        worker = DistribWorker.from_test(1, _branchy_spec_test())
        for command in self.SAMPLES:
            reply = worker.handle(command)
            assert type(reply) is REPLY_OF[type(command)], command
            assert reply.worker_id == 1

    def test_the_vocabulary_is_eleven_classes_and_all_of_it_pickles(self):
        """Six commands, five replies: a member files one kind of report."""
        vocabulary = [getattr(messages, name) for name in messages.__all__
                      if name != "REPLY_OF"]
        assert len(vocabulary) == 11
        worker = DistribWorker.from_test(1, _branchy_spec_test())
        instances = list(self.SAMPLES) + [StopCommand()]
        instances += [worker.handle(command) for command in self.SAMPLES]
        instances += [ReadyReply(worker_id=1, line_count=worker.line_count),
                      ErrorReply(worker_id=1, details="Traceback ...")]
        assert {type(instance) for instance in instances} == set(vocabulary)
        for instance in instances:
            copy = pickle.loads(pickle.dumps(instance))
            if isinstance(copy, StatusReply) and copy.latency is not None:
                # A Histogram compares by identity; its numbers must survive.
                assert copy.latency.summary() == instance.latency.summary()
                copy = dataclasses.replace(copy, latency=instance.latency)
            assert copy == instance

    def test_a_status_counts_nothing_worker_stats_already_counts(self):
        own = {field.name for field in dataclasses.fields(StatusReply)}
        assert own.isdisjoint(
            field.name for field in dataclasses.fields(WorkerStats)
            if field.name != "worker_id")

    def test_a_full_report_adds_the_results_and_nothing_else_changes(self):
        worker = DistribWorker.from_test(1, _branchy_spec_test())
        worker.handle(SeedCommand())
        brief = worker.handle(ExploreCommand(budget=1000))
        full = worker.handle(ReportCommand())
        assert (brief.frontier, brief.bugs, brief.test_cases,
                brief.latency) == (None,) * 4
        assert dataclasses.replace(
            full, frontier=None, bugs=None, test_cases=None,
            latency=None) == brief
        assert full.coverage_bits == CoverageBitVector.from_lines(
            worker.line_count, worker.worker.covered_lines).as_int() != 0
        assert len(full.test_cases) == full.stats.paths_completed
        assert full.latency is worker.worker.executor.solver.query_seconds
        # The report is a copy: the worker keeps counting on its own.
        worker.worker.stats.replays += 1
        assert full.stats.replays == brief.stats.replays == 0

    def test_stop_is_not_a_command_handle_answers(self):
        worker = DistribWorker.from_test(1, _branchy_spec_test())
        with pytest.raises(TypeError):
            worker.handle(StopCommand())


class TestWorkerMainOrphanExit:
    """worker_main's command wait is bounded: an orphaned worker (parent
    gone, no StopCommand ever coming) must return instead of blocking on
    queue.get() forever.  Driven in-process with plain queues and an
    injected liveness probe."""

    def _run_worker_main(self, parent_alive, preloaded_commands=()):
        import queue

        from repro.distrib import worker as worker_module

        command_queue: "queue.Queue[object]" = queue.Queue()
        reply_queue: "queue.Queue[object]" = queue.Queue()
        for command in preloaded_commands:
            command_queue.put(command)
        worker_module.worker_main(
            7, "test-branchy", {}, None, (), command_queue, reply_queue,
            parent_alive=parent_alive)
        return reply_queue

    def test_orphaned_worker_exits_after_one_poll(self, monkeypatch):
        from repro.distrib import worker as worker_module
        monkeypatch.setattr(worker_module, "COMMAND_POLL_INTERVAL", 0.05)
        replies = self._run_worker_main(parent_alive=lambda: False)
        assert isinstance(replies.get_nowait(), ReadyReply)
        assert replies.empty()  # returned without serving anything

    def test_live_parent_keeps_the_worker_serving(self, monkeypatch):
        from repro.distrib import worker as worker_module
        monkeypatch.setattr(worker_module, "COMMAND_POLL_INTERVAL", 0.05)
        polls = []

        def parent_alive():
            polls.append(True)
            return True

        replies = self._run_worker_main(
            parent_alive=parent_alive,
            preloaded_commands=(SeedCommand(), StopCommand()))
        assert isinstance(replies.get_nowait(), ReadyReply)
        assert isinstance(replies.get_nowait(), StatusReply)
        # StopCommand ended the loop; liveness may or may not have been
        # polled depending on timing, but it never caused an exit.


@needs_fork
class TestProcessCluster:
    def test_exhaustive_run_matches_single_engine(self):
        test = specs.resolve_test("test-branchy")
        single = test.run(backend="single", limits=LIMITS)
        assert single.exhausted

        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=50)
        assert result.backend == "process"
        assert result.exhausted
        assert result.num_workers == 2
        assert result.paths_completed == single.paths_completed
        assert result.covered_lines == single.covered_lines
        # Per-round timeline and per-worker stats come back across processes.
        assert result.rounds_executed and result.rounds_executed > 0
        assert len(result.timeline) == result.rounds_executed
        assert set(result.worker_stats) == {1, 2}
        assert result.cache_stats["constraint_cache_misses"] > 0

    def test_four_worker_coverage_at_least_single(self):
        """Acceptance criterion: 4-worker process coverage >= single-backend
        coverage under the same ExplorationLimits."""
        test = specs.resolve_test("printf", format_length=2)
        single = test.run(backend="single", limits=LIMITS)
        result = test.run(backend="process", workers=4, limits=LIMITS,
                          instructions_per_round=300)
        assert result.coverage_percent >= single.coverage_percent
        assert result.paths_completed == single.paths_completed

    def test_transfers_use_job_tree_encoding(self):
        test = specs.resolve_test("printf", format_length=2)
        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=300)
        assert result.states_transferred > 0
        cost = result.transfer_cost
        assert cost.jobs >= result.states_transferred
        assert 0 < cost.encoded_nodes <= cost.naive_nodes
        assert 0.0 <= cost.savings_ratio < 1.0
        # The receiving process replayed the shipped paths.
        assert result.replay_instructions > 0

    def test_max_rounds_budget_respected(self):
        test = specs.resolve_test("test-branchy", buffer_size=3)
        result = test.run(backend="process", workers=2,
                          limits=ExplorationLimits(max_rounds=2),
                          instructions_per_round=5)
        assert result.rounds_executed <= 2
        assert not result.exhausted

    def test_crashing_spec_surfaces_worker_traceback(self):
        config = ProcessClusterConfig(num_workers=1, reply_timeout=30.0)
        cluster = ProcessCloud9Cluster("test-crash", config=config, line_count=1)
        with pytest.raises(WorkerProcessError, match="boom"):
            cluster.run(limits=ExplorationLimits(max_rounds=1))


def _crashing_spec():
    raise RuntimeError("boom")


specs.register_spec("test-crash", _crashing_spec, replace=True)


class TestProcessRunnerValidation:
    def test_specless_test_is_rejected_helpfully(self):
        test = _branchy_spec_test()
        assert test.spec_name is None
        with pytest.raises(ValueError, match="backend 'process' ships.*resolve_test"):
            test.run(backend="process", workers=2)

    def test_specless_refusal_names_the_backend_asked_for(self, monkeypatch):
        """The tcp refusal names 'tcp', and comes before the cluster (and
        with it any socket) is built."""
        _forbid_clusters(monkeypatch)
        test = SymbolicTest("t", branchy_program(2), use_posix_model=False)
        with pytest.raises(ValueError, match="backend 'tcp' ships"):
            test.run(backend="tcp")

    def test_unknown_spec_fails_in_parent(self):
        with pytest.raises(ValueError, match="unknown test spec"):
            ProcessCloud9Cluster("no-such-spec")


class TestBackendNamesTheCarrier:
    """``backend=`` decides the carrier: ``"process"`` runs over mp queues
    and ``"tcp"`` over sockets, so ``result.backend`` names what ran."""

    @pytest.mark.parametrize("backend, options", [
        ("process", {}),
        ("tcp", {"spawn_local_agents": True}),
    ])
    def test_result_backend_is_the_traced_one(self, backend, options,
                                              tmp_path):
        trace = str(tmp_path / "run.jsonl")
        test = specs.resolve_test("printf", format_length=2)
        result = test.run(backend=backend, workers=2, trace_path=trace,
                          **options)
        started = load_trace(trace)[0]
        assert started["event"] == "run_started"
        assert result.backend == started["backend"] == backend
        assert result.exhausted and result.paths_completed == 30

    @pytest.mark.parametrize("backend, options", [
        ("process", {"config": TcpClusterConfig(spawn_local_agents=True)}),
        ("tcp", {"config": ProcessClusterConfig(num_workers=2)}),
    ])
    def test_contradicting_carrier_is_refused_first(self, backend, options,
                                                     monkeypatch):
        """A config of the other carrier's class is refused, naming the
        backend asked for and the one that takes that config, before any
        cluster or socket exists."""
        _forbid_clusters(monkeypatch)
        test = specs.resolve_test("printf", format_length=2)
        with pytest.raises(TypeError, match="takes a") as refused:
            test.run(backend=backend, **options)
        assert "'process'" in str(refused.value)
        assert "'tcp'" in str(refused.value)

    @pytest.mark.parametrize("backend, option, value", [
        ("process", "transport", "tcp"),
        ("process", "listen", "0.0.0.0:9"),
        ("process", "heartbeat_interval", 99.0),
        ("process", "heartbeat_miss_threshold", 3),
        ("process", "max_frame_size", 4096),
        ("process", "agent_wait_timeout", 5.0),
        ("process", "spawn_local_agents", True),
        ("tcp", "transport", "mp"),
    ])
    def test_an_option_no_carrier_setting_honours_is_refused_by_name(
            self, backend, option, value, monkeypatch):
        """``transport`` is no option, and the socket settings are
        ``TcpClusterConfig``'s alone: ``"process"`` used to run over mp
        queues with ``listen``, the heartbeat settings, ``max_frame_size``
        and ``agent_wait_timeout`` set, ignoring them."""
        _forbid_clusters(monkeypatch)
        test = specs.resolve_test("printf", format_length=2)
        with pytest.raises(TypeError, match=option):
            test.run(backend=backend, **{option: value})

    @pytest.mark.parametrize("backend", ["process", "cluster", "static"])
    def test_a_tcp_setting_names_the_backend_it_belongs_to(
            self, backend, monkeypatch):
        """Not the config constructor's "unexpected keyword argument": the
        error says which backend takes the setting."""
        _forbid_clusters(monkeypatch)
        test = specs.resolve_test("printf", format_length=2)
        with pytest.raises(TypeError) as refused:
            test.run(backend=backend, spawn_local_agents=True)
        message = str(refused.value)
        assert "backend %r" % backend in message
        assert "spawn_local_agents" in message
        assert "backend='tcp' (TcpClusterConfig)" in message
        assert "unexpected keyword" not in message


def _forbid_clusters(monkeypatch):
    """Make building either process shell, or any socket, fail the test."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the refusal must come first")

    for shell in ("ProcessCloud9Cluster", "TcpCloud9Cluster"):
        monkeypatch.setattr("repro.testing.symbolic_test." + shell, forbidden)
    monkeypatch.setattr("socket.socket", forbidden)
