"""Cross-backend parity: one coordinator, two carriers, same answers.

``cluster`` (loopback) and ``process`` (mp queues) are the same
:class:`~repro.distrib.coordinator.Coordinator` over different carriers, so
the same spec run under identical limits must agree on far more than
paths, coverage and bugs: the exact work counters -- rounds, states
transferred, useful and replayed instructions -- and the per-round queue
lengths are equal too, and the traces speak one event vocabulary.  Before
the in-process cluster ran the message protocol it delivered a transfer one
round late and none of the counters could be compared.

The single engine and the coordinator also fill one result type, so what
``exhausted``, ``goal_reached`` and ``bugs`` mean is pinned across
``single``, ``cluster``, ``static`` and ``process`` at the end of the file.
"""

import multiprocessing

import pytest

from repro.engine.limits import ExplorationLimits
from repro.cluster.core import ClusterConfig
from repro.distrib import specs
from repro.distrib.cluster import ProcessCloud9Cluster, ProcessClusterConfig
from repro.obs.schema import ENVELOPE_KEYS, schema_for
from repro.obs.trace import load_trace

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="process-backed tests need the fork start method")

#: (spec name, spec params): a frontier-heavy target and a packet-driven one.
SPECS = [("printf", {"format_length": 2}),
         ("memcached-packets", {"num_packets": 2, "packet_size": 4})]
NUM_WORKERS = 2
INSTRUCTIONS_PER_ROUND = 300
LIMITS_KWARGS = dict(max_rounds=80)

#: Worker-local events (explore spans, forwarded engine events) ride along
#: on status replies; they are not part of the coordinator protocol whose
#: vocabulary the parity tests pin.
WORKER_LOCAL_EVENTS = {"span", "worker_event"}


def _run_backend(backend, spec_name, spec_params, trace_path):
    limits = ExplorationLimits(trace_path=str(trace_path), **LIMITS_KWARGS)
    if backend == "process":
        config = ProcessClusterConfig(
            num_workers=NUM_WORKERS,
            instructions_per_round=INSTRUCTIONS_PER_ROUND)
        cluster = ProcessCloud9Cluster(spec_name, spec_params, config=config)
        return cluster.run(limits=limits)
    test = specs.resolve_test(spec_name, **spec_params)
    config = ClusterConfig(num_workers=NUM_WORKERS,
                           instructions_per_round=INSTRUCTIONS_PER_ROUND)
    return test.build_cluster(config).run(limits=limits)


@pytest.fixture(scope="module", params=SPECS, ids=[name for name, _ in SPECS])
def backend_runs(request, tmp_path_factory):
    """Run every backend once per spec; the assertions below slice the results."""
    spec_name, spec_params = request.param
    runs = {}
    base = tmp_path_factory.mktemp("parity")
    backends = ["cluster"]
    if fork_available:
        backends.append("process")
    for backend in backends:
        trace_path = base / ("%s.jsonl" % backend)
        result = _run_backend(backend, spec_name, spec_params, trace_path)
        runs[backend] = (result, load_trace(str(trace_path)))
    return runs


def _broken_replays(result):
    """Summed over the members (``single`` has none)."""
    return sum(s.broken_replays for s in (result.worker_stats or {}).values())


def _pairs(runs):
    names = sorted(runs)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


class TestResultParity:
    def test_every_backend_exhausts(self, backend_runs):
        for backend, (result, _) in backend_runs.items():
            assert result.exhausted, backend

    def test_paths_identical(self, backend_runs):
        for a, b in _pairs(backend_runs):
            assert (backend_runs[a][0].paths_completed
                    == backend_runs[b][0].paths_completed), (a, b)

    def test_worker_stats_hold_the_real_path_counts(self, backend_runs):
        """A live worker's ``WorkerStats.paths_completed`` is its path
        counter, not a second number nobody bumps."""
        for backend, (result, _) in backend_runs.items():
            assert (sum(s.paths_completed for s in result.worker_stats.values())
                    == result.paths_completed > 0), backend

    def test_no_replay_broke(self, backend_runs):
        """Fault-free, every moved job replays: one started from a wrong
        state would break and silently drop the node's paths."""
        for backend, (result, _) in backend_runs.items():
            assert sum(s.replays for s in result.worker_stats.values()) > 0, \
                backend
            assert _broken_replays(result) == 0, backend

    def test_coverage_identical(self, backend_runs):
        for a, b in _pairs(backend_runs):
            assert (backend_runs[a][0].covered_lines
                    == backend_runs[b][0].covered_lines), (a, b)

    def test_bugs_identical(self, backend_runs):
        for a, b in _pairs(backend_runs):
            assert (backend_runs[a][0].bug_summaries()
                    == backend_runs[b][0].bug_summaries()), (a, b)


@needs_fork
class TestExactCounterParity:
    """One coordinator means one accounting: every work counter and the
    whole per-round queue series match between carriers."""

    COUNTERS = ("rounds_executed", "states_transferred",
                "transfer_commands", "useful_instructions",
                "replay_instructions", "messages_sent")

    def test_counters_identical(self, backend_runs):
        cluster, _ = backend_runs["cluster"]
        process, _ = backend_runs["process"]
        for counter in self.COUNTERS:
            assert getattr(cluster, counter) == getattr(process, counter), counter
        assert cluster.states_transferred > 0, "tune: nothing moved"

    def test_queue_length_series_identical(self, backend_runs):
        cluster, _ = backend_runs["cluster"]
        process, _ = backend_runs["process"]
        series = [[snap.queue_lengths for snap in result.timeline.snapshots]
                  for result in (cluster, process)]
        assert series[0] == series[1]

    def test_per_round_work_identical(self, backend_runs):
        cluster, _ = backend_runs["cluster"]
        process, _ = backend_runs["process"]
        for field in ("useful_instructions", "replay_instructions",
                      "states_transferred", "paths_completed", "bugs_found"):
            assert ([getattr(s, field) for s in cluster.timeline.snapshots]
                    == [getattr(s, field) for s in process.timeline.snapshots]
                    ), field

    def test_per_worker_stats_identical(self, backend_runs):
        cluster, _ = backend_runs["cluster"]
        process, _ = backend_runs["process"]
        assert ({w: s.as_dict() for w, s in cluster.worker_stats.items()}
                == {w: s.as_dict() for w, s in process.worker_stats.items()})


class TestTraceVocabularyParity:
    def test_backend_stamp(self, backend_runs):
        for backend, (_, events) in backend_runs.items():
            assert events[0]["event"] == "run_started", backend
            assert events[0]["backend"] == backend

    def test_event_vocabulary_identical(self, backend_runs):
        vocabularies = {
            backend: {e["event"] for e in events} - WORKER_LOCAL_EVENTS
            for backend, (_, events) in backend_runs.items()}
        for a, b in _pairs(backend_runs):
            assert vocabularies[a] == vocabularies[b], (a, b)

    def test_round_completed_keys_identical(self, backend_runs):
        envelope = {"seq", "ts", "event", "run"}
        key_sets = {}
        for backend, (_, events) in backend_runs.items():
            rounds = [e for e in events if e["event"] == "round_completed"]
            assert rounds, backend
            key_sets[backend] = frozenset(
                frozenset(set(e) - envelope) for e in rounds)
        for a, b in _pairs(backend_runs):
            assert key_sets[a] == key_sets[b], (a, b)

    def test_run_finished_reports_round_time_percentiles(self, backend_runs):
        for backend, (_, events) in backend_runs.items():
            finished = events[-1]
            assert finished["event"] == "run_finished", backend
            assert finished["round_time_p50"] >= 0.0, backend
            assert finished["round_time_p99"] >= finished["round_time_p50"], backend

    def test_solver_query_reports_latency_percentiles(self, backend_runs):
        """Worker solvers ship their latency histograms home on every
        carrier (FinalReply.latency), so the final solver_query event
        always has p50/p99."""
        for backend, (_, events) in backend_runs.items():
            queries = [e for e in events if e["event"] == "solver_query"]
            assert queries, backend
            final = queries[-1]
            assert final["latency_count"] > 0, backend
            assert final["latency_p99"] >= final["latency_p50"] >= 0.0, backend

    def test_solver_query_speaks_one_vocabulary(self, tmp_path):
        """Single engine included: the event is the non-zero integer
        counters of ``result.cache_stats`` under their own names plus the
        latency percentiles, so two backends' key sets differ only where a
        counter is zero on one of them.  (The single engine used to report
        ``queries``/``search_steps``/... and no latency.)"""
        latency = {"latency_count", "latency_p50", "latency_p99"}
        declared = schema_for("solver_query").allowed()
        for backend, options in ALL_BACKENDS:
            trace_path = str(tmp_path / ("%s.jsonl" % backend))
            test = specs.resolve_test("printf", format_length=2)
            result = test.run(backend=backend, trace_path=trace_path, **options)
            (event,) = [e for e in load_trace(trace_path)
                        if e["event"] == "solver_query"]
            counters = {key: value for key, value in result.cache_stats.items()
                        if isinstance(value, int) and value}
            assert counters["solver_queries"] > 0, backend
            assert set(event) - ENVELOPE_KEYS == set(counters) | latency, backend
            assert set(event) - ENVELOPE_KEYS <= declared, backend
            assert {key: event[key] for key in counters} == counters, backend


@needs_fork
class TestProcessSmoke:
    """The CI coordinator-parity job's entry point: the process backend
    agrees with the in-process reference run."""

    def test_process_matches_cluster(self, backend_runs):
        assert "process" in backend_runs
        reference, _ = backend_runs["cluster"]
        process, _ = backend_runs["process"]
        assert process.paths_completed == reference.paths_completed
        assert process.covered_lines == reference.covered_lines
        assert process.bug_summaries() == reference.bug_summaries()


# -- one definition of stopping and of ``bugs``, single engine included --------------------

ALL_BACKENDS = [("single", {})] + [
    (backend, {"workers": NUM_WORKERS, "instructions_per_round": 2000})
    for backend in ("cluster", "static") + (("process",) if fork_available else ())]


class TestStoppingParity:
    def test_goal_met_by_the_last_path(self):
        """``max_paths`` equal to the exhaustive path count: the goal is met
        *and* the frontier is empty, on every backend (the coordinator used
        to report the goal and stop looking) -- and no backend loses a
        covered line against ``single``."""
        exhaustive = specs.resolve_test("printf", format_length=3).run()
        assert exhaustive.exhausted and not exhaustive.goal_reached
        for backend, options in ALL_BACKENDS:
            test = specs.resolve_test("printf", format_length=3)
            result = test.run(backend=backend,
                              max_paths=exhaustive.paths_completed, **options)
            assert result.paths_completed == exhaustive.paths_completed, backend
            assert result.covered_lines == exhaustive.covered_lines, backend
            assert (result.exhausted, result.goal_reached) == (True, True), backend
            assert result.states_remaining == 0, backend
            assert _broken_replays(result) == 0, backend


class TestBugCountParity:
    @pytest.mark.parametrize("spec_name", ["ghttpd", "curl-glob"])
    def test_bugs_are_distinct_defects_on_every_backend(self, spec_name, tmp_path):
        """Many paths reach the same defect; ``result.bugs`` (and the
        ``run_finished`` event) count it once everywhere, while each error
        path's inputs stay in ``test_cases``."""
        counts = {}
        for backend, options in ALL_BACKENDS:
            trace_path = str(tmp_path / ("%s.jsonl" % backend))
            test = specs.resolve_test(spec_name)
            result = test.run(backend=backend, trace_path=trace_path, **options)
            assert result.exhausted, backend
            assert len(result.bugs) == len(result.bug_summaries()), backend
            assert load_trace(trace_path)[-1]["bugs"] == len(result.bugs), backend
            error_paths = sum(1 for case in result.test_cases if case.is_error)
            assert error_paths > len(result.bugs), backend
            assert _broken_replays(result) == 0, backend
            counts[backend] = (len(result.bugs), error_paths)
        assert len(set(counts.values())) == 1, counts
