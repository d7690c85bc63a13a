"""End-to-end observability: one trace per run on every backend, trace
integrity through faults, member removal, and dead-worker cache counters."""

import multiprocessing
import os
import signal

import pytest

from repro.lang import builder as L
from repro.engine.limits import ExplorationLimits
from repro.distrib import specs
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    ProcessClusterConfig,
    TcpCloud9Cluster,
    TcpClusterConfig,
)
from repro.distrib.messages import (
    ExploreCommand,
    ReportCommand,
    SeedCommand,
)
from repro.distrib.worker import DistribWorker
from repro.engine.coverage import CoverageBitVector
from repro.obs.report import analyze_trace
from repro.obs.trace import load_trace
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program, wait_until
from triggers import Trigger

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="process-backed tests need the fork start method")

#: Every backend stamps round_completed with exactly these payload keys.
ROUND_KEYS = {"round", "elapsed", "coverage_percent", "covered_lines",
              "paths_completed", "bugs_found", "total_candidates",
              "num_workers", "useful_instructions", "replay_instructions",
              "states_transferred", "queue_lengths", "workers_detail",
              "load_balancing_enabled"}
ENVELOPE_KEYS = {"seq", "ts", "event", "run"}


def _branchy_test():
    return SymbolicTest(name="obs-branchy", program=branchy_program(3),
                        use_posix_model=False)


def _assert_trace_shape(events, backend):
    names = [e["event"] for e in events]
    assert names.count("run_started") == 1, backend
    assert names.count("run_finished") == 1, backend
    assert names[0] == "run_started", backend
    assert names[-1] == "run_finished", backend
    rounds = [e for e in events if e["event"] == "round_completed"]
    assert rounds, backend
    for event in rounds:
        assert set(event) - ENVELOPE_KEYS == ROUND_KEYS, backend
    # Satellite: round indices strictly increase, seq strictly increases.
    indices = [e["round"] for e in rounds]
    assert indices == sorted(set(indices)), backend
    seqs = [e["seq"] for e in events]
    assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), backend
    assert events[0]["backend"] == backend


class TestTracePerBackend:
    @pytest.mark.parametrize("backend", ["single", "cluster"])
    def test_in_process_backends_trace(self, backend, tmp_path):
        path = tmp_path / f"{backend}.jsonl"
        options = {} if backend == "single" else {"workers": 2}
        result = _branchy_test().run(backend=backend, max_rounds=200,
                                     trace_path=str(path), **options)
        assert result.paths_completed > 0
        events = load_trace(str(path))
        _assert_trace_shape(events, backend)
        # The report reduces any backend's trace to the paper views.
        analysis = analyze_trace(events)
        assert analysis["coverage_over_time"]
        assert analysis["worker_utilization"]
        useful = sum(u["useful"]
                     for u in analysis["worker_utilization"].values())
        assert useful == result.useful_instructions

    @needs_fork
    @pytest.mark.parametrize("transport", ["mp", "tcp"])
    def test_process_backends_trace(self, transport, tmp_path):
        path = tmp_path / f"{transport}.jsonl"
        if transport == "tcp":
            shell, config = TcpCloud9Cluster, TcpClusterConfig(
                num_workers=2, instructions_per_round=400,
                spawn_local_agents=True)
        else:
            shell, config = ProcessCloud9Cluster, ProcessClusterConfig(
                num_workers=2, instructions_per_round=400)
        cluster = shell("printf", {"format_length": 2}, config=config)
        result = cluster.run(limits=ExplorationLimits(
            max_rounds=30, trace_path=str(path)))
        assert result.paths_completed > 0
        events = load_trace(str(path))
        _assert_trace_shape(events,
                            "tcp" if transport == "tcp" else "process")
        # Worker-side explore spans were forwarded and re-stamped.
        spans = [e for e in events if e["event"] == "span"]
        assert spans and all("wts" in e and "duration" in e for e in spans)

    def test_static_backend_trace(self, tmp_path):
        path = tmp_path / "static.jsonl"
        result = _branchy_test().run(backend="static", workers=2,
                                     trace_path=str(path))
        assert result.exhausted
        _assert_trace_shape(load_trace(str(path)), "static")

    def test_run_finished_is_one_summary(self, tmp_path):
        """Both ``run_finished`` sites write ``RunResult.summary()``: the
        keys differ only where the backends do (rounds vs. steps, and the
        round wall-time percentiles of a cluster)."""
        keys = {}
        for backend, options in (("single", {}), ("cluster", {"workers": 2})):
            path = tmp_path / f"{backend}.jsonl"
            result = _branchy_test().run(backend=backend,
                                         trace_path=str(path), **options)
            finished = load_trace(str(path))[-1]
            assert finished["event"] == "run_finished"
            keys[backend] = set(finished) - ENVELOPE_KEYS
            summary = {k: v for k, v in result.summary().items()
                       if v is not None}
            assert summary.items() <= finished.items(), backend
        assert keys["single"] - keys["cluster"] == {"steps"}
        assert keys["cluster"] - keys["single"] == {
            "rounds", "round_time_p50", "round_time_p99"}
        assert "instructions" not in keys["single"]

    @pytest.mark.parametrize("backend", ["single", "cluster"])
    def test_round_records_count_reports_the_result_counts_defects(
            self, backend, tmp_path):
        """Both paths of this program fail its one assert: the last round
        record's ``bugs_found`` counts the two bug reports, while
        ``run_finished`` and the result count the one defect."""
        program = L.program("one-assert", L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", 1,
                                 L.strconst("input"))),
            L.decl("x", 0),
            L.if_(L.eq(L.index(L.var("buf"), 0), ord("!")),
                  [L.assign("x", 1)], [L.assign("x", 2)]),
            L.assert_(L.eq(L.var("x"), 0)),
            L.ret(0)))
        path = tmp_path / f"{backend}.jsonl"
        options = {} if backend == "single" else {"workers": 2}
        result = SymbolicTest("one-assert", program, use_posix_model=False).run(
            backend=backend, trace_path=str(path), **options)
        events = load_trace(str(path))
        rounds = [e for e in events if e["event"] == "round_completed"]
        assert result.paths_completed == 2
        assert rounds[-1]["bugs_found"] == 2
        assert events[-1]["event"] == "run_finished"
        assert events[-1]["bugs"] == 1
        assert len(result.bugs) == 1

    def test_report_reads_a_real_cluster_trace(self, tmp_path):
        """``analyze_trace`` reads the keys the coordinator writes: a stale
        key name would render zeros here, not fail."""
        path = tmp_path / "cluster.jsonl"
        result = _branchy_test().run(backend="cluster", workers=2,
                                     instructions_per_round=20,
                                     max_rounds=6, trace_path=str(path))
        assert not result.exhausted  # the last point is mid-run
        last = analyze_trace(load_trace(str(path)))["coverage_over_time"][-1]
        assert last["round"] == result.rounds_executed - 1
        assert last["paths"] == result.paths_completed > 0
        assert last["candidates"] == result.states_remaining > 0
        assert last["workers"] == result.num_workers == 2

    def test_no_trace_file_without_trace_path(self, tmp_path):
        result = _branchy_test().run(backend="cluster", workers=2,
                                     max_rounds=50)
        assert result.paths_completed > 0
        assert list(tmp_path.iterdir()) == []


class TestElapsedTimeline:
    """Satellite: RoundSnapshot.elapsed on both cluster backends."""

    def test_in_process_cluster_elapsed(self):
        result = _branchy_test().run(backend="cluster", workers=2,
                                     max_rounds=50)
        series = [snap.elapsed for snap in result.timeline.snapshots]
        assert len(series) == result.rounds_executed
        assert all(b > a for a, b in zip(series, series[1:]))
        assert all(s.elapsed > 0.0 for s in result.timeline.snapshots)

    @needs_fork
    def test_process_cluster_elapsed(self):
        config = ProcessClusterConfig(num_workers=2,
                                      instructions_per_round=400)
        cluster = ProcessCloud9Cluster("printf", {"format_length": 2},
                                       config=config)
        result = cluster.run(limits=ExplorationLimits(max_rounds=20))
        series = [snap.elapsed for snap in result.timeline.snapshots]
        assert series and all(b > a for a, b in zip(series, series[1:]))


class TestRemoval:
    """A leaving member files its full report without exploring, and its
    removal is on the trace."""

    def test_worker_files_a_full_report_without_exploring(self):
        test = specs.resolve_test("printf", format_length=2)
        worker = DistribWorker.from_test(1, test)
        worker.handle(SeedCommand())
        worker.handle(ExploreCommand(budget=200))
        before = worker.worker.stats.useful_instructions
        reply = worker.handle(ReportCommand())
        assert worker.worker.stats.useful_instructions == before
        assert reply.queue_length == worker.worker.queue_length
        assert reply.frontier is not None
        assert reply.coverage_bits == CoverageBitVector.from_lines(
            worker.line_count, worker.worker.covered_lines).as_int() != 0

    @needs_fork
    def test_removal_is_traced(self, tmp_path):
        path = tmp_path / "removal.jsonl"
        config = ProcessClusterConfig(num_workers=3,
                                      instructions_per_round=300)
        cluster = ProcessCloud9Cluster("printf", {"format_length": 2},
                                       config=config)

        def all_three_reported(cl):
            reported = len(cl.handles) == 3 and all(
                h.status is not None for h in cl.handles)
            return cl.handles[-1] if reported else None

        hook = cluster.round_hook = Trigger(
            all_three_reported,
            lambda cl, last: cl.remove_worker(last.worker_id))
        result = cluster.run(limits=ExplorationLimits(
            max_rounds=60, trace_path=str(path)))
        assert hook.fired and hook.subject.worker_id == 3
        assert result.workers_removed == 1
        events = load_trace(str(path))
        left = [e for e in events if e["event"] == "worker_left"]
        assert [(e["worker"], e["workers"]) for e in left] == [(3, 2)]
        assert not [e for e in events if e["event"] == "worker_died"]


class TestFaultTracing:
    """Satellites: worker_died/worker_respawned pairing in the trace, and
    dead workers' cache counters surviving into the aggregate."""

    @needs_fork
    def test_sigkill_traced_and_cache_counters_aggregated(self, tmp_path):
        path = tmp_path / "kill.jsonl"
        config = ProcessClusterConfig(num_workers=2,
                                      instructions_per_round=200,
                                      respawn=True, reply_timeout=2.0)
        cluster = ProcessCloud9Cluster("printf", {"format_length": 2},
                                       config=config)

        def queried_and_holds_work(cl):
            # Solver queries to aggregate, and territory to recover.
            first = cl.handles[0]
            return first if (first.status is not None and first.queue_length
                             and first.status.cache_counters[
                                 "solver_queries"]) else None

        killing = cluster.round_hook = Trigger(
            queried_and_holds_work, lambda cl, victim: os.kill(
                victim.transport.process.pid, signal.SIGKILL))
        result = cluster.run(limits=ExplorationLimits(
            max_rounds=60, trace_path=str(path)))
        assert killing.fired
        assert result.worker_failures == 1 and result.respawns == 1
        account = killing.subject
        victim = account.worker_id

        events = load_trace(str(path))
        died = [e for e in events if e["event"] == "worker_died"]
        respawned = [e for e in events if e["event"] == "worker_respawned"]
        recovered = [e for e in events if e["event"] == "jobs_recovered"]
        assert [e["worker"] for e in died] == [victim]
        # Every death under respawn=True pairs with a respawn AND recovery.
        assert len(respawned) == len(died) == 1
        assert recovered and all(e["jobs"] >= 1 for e in recovered)
        # The respawn and recovery happen after the death in trace order.
        assert respawned[0]["seq"] > died[0]["seq"]
        assert all(e["seq"] > died[0]["seq"] for e in recovered)

        # Dead-worker cache counters: the victim filed no end-of-run
        # report, yet its piggybacked counters are in the aggregate.
        assert victim not in result.worker_stats
        assert account.dead
        assert account.status.frontier is None
        failed = account.status.cache_counters
        assert failed["solver_queries"] > 0
        assert result.cache_stats["solver_queries"] >= (
            failed["solver_queries"] + 1)


def _run_traced_cluster(trace_path):  # pragma: no cover - child process body
    test = SymbolicTest(name="obs-crash", program=branchy_program(4),
                        use_posix_model=False)
    test.run(backend="cluster", workers=2, max_rounds=100_000,
             instructions_per_round=20, trace_path=trace_path)


class TestCoordinatorCrash:
    """Satellite: the trace stays parseable after a coordinator SIGKILL."""

    @needs_fork
    def test_trace_parseable_after_sigkill(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_run_traced_cluster, args=(str(path),))
        child.start()
        try:
            wait_until(lambda: path.exists() and path.stat().st_size > 2000,
                       timeout=30.0, what="the trace to grow (cluster start)")
            os.kill(child.pid, signal.SIGKILL)
        finally:
            child.join(timeout=10.0)
        # Simulate the torn final write a mid-line kill can leave.
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99999, "event": "round_comp')
        events = load_trace(str(path))
        assert events and events[0]["event"] == "run_started"
        assert any(e["event"] == "round_completed" for e in events)
        assert "run_finished" not in {e["event"] for e in events}


class TestStatusServerLive:
    @needs_fork
    def test_status_readable_mid_run(self):
        from repro.obs.status import read_status

        config = ProcessClusterConfig(num_workers=2,
                                      instructions_per_round=300,
                                      status_listen="127.0.0.1:0")
        cluster = ProcessCloud9Cluster("printf", {"format_length": 2},
                                       config=config)
        seen = {}

        def hook(round_index, cl):
            if round_index == 2 and not seen:
                seen.update(read_status(cl.status_address) or {})

        cluster.round_hook = hook
        cluster.run(limits=ExplorationLimits(max_rounds=10))
        assert seen["backend"] == "process"
        assert seen["round"] >= 0 and seen["num_workers"] == 2
        assert cluster.status_address is None  # torn down with the run
