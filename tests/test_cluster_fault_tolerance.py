"""Fault tolerance, elastic membership and checkpoint/resume (§2.3).

Covers the frontier ledger, worker-death recovery in the process cluster
(SIGKILL mid-run, respawn, failure budgets), clean teardown of stuck and
killed workers, elastic add/remove on both cluster backends, and
checkpoint/resume equivalence with uninterrupted runs.
"""

import json
import multiprocessing
import os
import re
import signal
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import builder as L
from repro.engine.limits import ExplorationLimits
from repro.cluster.checkpoint import CHECKPOINT_FORMAT, ClusterCheckpoint
from repro.cluster.core import ClusterConfig
from repro.cluster.jobs import Job, JobTree
from repro.cluster.ledger import FrontierLedger, RecoveryJob
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.worker import Worker
from repro.distrib import specs
from repro.distrib.cluster import (
    ProcessCloud9Cluster,
    ProcessClusterConfig,
    WorkerProcessError,
)
from repro.distrib.messages import ExploreCommand, SeedCommand
from repro.distrib.worker import DistribWorker
from repro.engine.errors import BugKind, BugReport
from repro.engine.test_case import TestCase
from repro.obs.trace import load_trace
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program, make_executor, wait_until
from triggers import Trigger, kill_the_last_member

LIMITS = ExplorationLimits(max_rounds=500)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="runtime-registered specs reach child processes only under fork")


def _buggy_program(buffer_size=3):
    """branchy plus a deterministic assertion bug on the all-'A' paths."""
    return L.program(
        "ft-buggy",
        L.func(
            "main", [],
            L.decl("buf", L.call("cloud9_symbolic_buffer", buffer_size,
                                 L.strconst("input"))),
            L.decl("i", 0),
            L.decl("acc", 0),
            L.while_(L.lt(L.var("i"), buffer_size),
                L.decl("c", L.index(L.var("buf"), L.var("i"))),
                L.if_(L.eq(L.var("c"), ord("A")),
                      [L.assign("acc", L.add(L.var("acc"), 1))],
                      [L.if_(L.eq(L.var("c"), ord("B")),
                             [L.assign("acc", L.add(L.var("acc"), 3))])]),
                L.assign("i", L.add(L.var("i"), 1)),
            ),
            L.assert_(L.ne(L.var("acc"), buffer_size), "all-A input"),
            L.ret(L.var("acc")),
        ),
    )


def _buggy_spec_test(buffer_size=3):
    return SymbolicTest(name="ft-buggy", program=_buggy_program(buffer_size),
                        use_posix_model=False)


def _spin_program():
    """A concrete infinite loop: a worker exploring it never yields."""
    return L.program(
        "spin",
        L.func(
            "main", [],
            L.decl("x", 0),
            L.while_(L.lt(0, 1), L.assign("x", L.add(L.var("x"), 1))),
            L.ret(0),
        ),
    )


def _spin_spec_test():
    return SymbolicTest(name="spin", program=_spin_program(),
                        use_posix_model=False)


# Registered at import time: "fork" children inherit the registry.
specs.register_spec("test-ft-buggy", _buggy_spec_test, replace=True)
specs.register_spec("test-ft-spin", _spin_spec_test, replace=True)


# -- frontier ledger -------------------------------------------------------------------


class TestFrontierLedger:
    def test_seed_then_transfer_tracks_territory(self):
        ledger = FrontierLedger()
        ledger.acquire(1, ())
        ledger.cede(1, (0,))
        ledger.acquire(2, (0,))
        assert ledger.recovery_jobs(1) == [RecoveryJob((), fences=((0,),))]
        assert ledger.recovery_jobs(2) == [RecoveryJob((0,))]

    def test_bounced_job_restores_territory(self):
        ledger = FrontierLedger()
        ledger.acquire(1, ())
        ledger.cede(1, (0, 1))
        ledger.acquire(1, (0, 1))  # the job came back
        assert ledger.recovery_jobs(1) == [RecoveryJob(())]

    def test_nested_cede_inside_reacquired_subtree(self):
        ledger = FrontierLedger()
        ledger.acquire(1, ())
        ledger.cede(1, (0,))
        ledger.acquire(1, (0, 1))  # re-imported a piece of the ceded subtree
        jobs = ledger.recovery_jobs(1)
        assert RecoveryJob((), fences=((0,),)) in jobs
        assert RecoveryJob((0, 1)) in jobs

    def test_recovered_root_above_own_territory_keeps_its_holes(self):
        """A survivor that takes over a dead worker's root keeps what it
        ceded from inside its own, now subsumed, territory: that subtree is
        a third worker's, not part of the recovered root."""
        ledger = FrontierLedger()
        ledger.acquire(2, (1, 0))      # the survivor's own job...
        ledger.cede(2, (1, 0, 1))      # ...a piece of which went to worker 3
        ledger.acquire(2, ())          # the dead seed owner's root
        assert ledger.recovery_jobs(2) == [
            RecoveryJob((), fences=((1, 0, 1),))]
        assert ledger.covers(2, (1, 0, 0)) and not ledger.covers(2, (1, 0, 1, 0))

    def test_recovery_keeps_a_survivors_root_inside_a_foreign_fence(self):
        """A job handed back into the dead worker's hole, then on to the
        survivor, stays the survivor's when the survivor takes over the
        dead worker's root: before, acquiring the root subsumed it and
        ceding the foreign fence around it cut it out again."""
        fence = (1,) * 8
        nested = fence + (0, 0)
        ledger = FrontierLedger()
        ledger.acquire(1, ())          # member 1 seeds
        ledger.cede(1, fence)          # and hands F to member 3,
        ledger.acquire(3, fence)
        ledger.cede(3, nested)         # which hands N back to member 1;
        ledger.acquire(1, nested)
        ledger.cede(1, nested)         # member 1 is removed: N goes to 2,
        ledger.acquire(2, nested)
        ledger.cede(2, nested + (1,))  # which passes a piece on to 3,
        ledger.acquire(3, nested + (1,))
        [job] = ledger.recovery_jobs(1)  # and member 1 dies at its report.
        assert job == RecoveryJob((), fences=(fence,))
        ledger.forget(1)
        ledger.acquire(2, job.root)
        assert ledger.covers(2, nested) and not ledger.covers(3, nested)
        assert ledger.covers(2, (0,)) and not ledger.covers(2, fence)
        assert ledger.covers(3, fence + (0,))
        assert ledger.covers(3, nested + (1,))
        assert not ledger.covers(2, nested + (1,))

    def test_export_of_whole_owned_root_clears_it(self):
        ledger = FrontierLedger()
        ledger.acquire(1, (2,))
        ledger.cede(1, (2,))
        assert ledger.recovery_jobs(1) == []

    def test_forget_drops_worker(self):
        ledger = FrontierLedger()
        ledger.acquire(3, ())
        ledger.forget(3)
        assert ledger.recovery_jobs(3) == []
        # The dead member owns no path.
        assert not ledger.covers(3, ()) and not ledger.covers(3, (0, 1))
        assert ledger.owned_roots(3) == set()


# -- checkpoint serialization ----------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_checkpoint() -> ClusterCheckpoint:
    """What ``tests/golden/checkpoint_v<CHECKPOINT_FORMAT>.json`` holds: a
    bug with its test case, a test case, bytes/tuple/dict parameters, a
    coverage vector wider than 64 bits and a float wall time."""
    case = TestCase(state_id=9, inputs={"input": b"GET /", "env": b""},
                    path_length=31, fork_trace=[1, 0, 2], exit_code=3)
    bug = BugReport(kind=BugKind.ASSERTION_FAILURE, message="boom",
                    state_id=7, line=12, function="main",
                    test_case=TestCase(state_id=7, inputs={"input": b"AB"},
                                       path_length=12, fork_trace=[0, 1],
                                       is_error=True, error_summary="boom"))
    return ClusterCheckpoint(
        round_index=6, frontier_paths=[(0, 1), (2,)],
        coverage_bits=1 << 70 | 0b1011, line_count=71, paths_completed=4,
        useful_instructions=100, replay_instructions=20, wall_time=12.25,
        bug_reports=[bug], test_cases=[case], spec_name="curl-glob",
        spec_params={"prefix": b"http://{", "pair": (1, "a", (b"",)),
                     "nested": {"k": [b"x", None, 2.5]}, "count": 3},
        backend="process")


def _read_golden_checkpoint(version: int) -> str:
    path = GOLDEN / ("checkpoint_v%d.json" % version)
    if not path.exists():
        pytest.fail("no golden checkpoint for format %d: commit %s holding:\n%s"
                    % (version, path.relative_to(GOLDEN.parent.parent),
                       _golden_checkpoint().to_json()))
    return path.read_text(encoding="ascii")


class TestClusterCheckpoint:
    def _checkpoint(self):
        return ClusterCheckpoint(
            round_index=6,
            frontier_paths=[(0, 1), (2,)],
            coverage_bits=0b1011,
            line_count=10,
            paths_completed=4,
            useful_instructions=100,
            replay_instructions=20,
            spec_name="test-ft-buggy",
        )

    def test_the_tree_writes_and_reads_the_golden_checkpoint(self):
        """A checkpoint layout changed without a ``CHECKPOINT_FORMAT`` bump
        fails here; a bump without a new golden file fails in
        ``_read_golden_checkpoint``, which prints the file to commit."""
        golden = _read_golden_checkpoint(CHECKPOINT_FORMAT)
        assert _golden_checkpoint().to_json() + "\n" == golden, (
            "the checkpoint layout changed at format %d: bump "
            "CHECKPOINT_FORMAT and commit the new golden file (the test "
            "prints it)" % CHECKPOINT_FORMAT)
        assert ClusterCheckpoint.from_json(golden) == _golden_checkpoint()

    def test_a_missing_golden_checkpoint_fails_printing_its_content(self):
        with pytest.raises(pytest.fail.Exception) as failed:
            _read_golden_checkpoint(CHECKPOINT_FORMAT + 1)
        assert _golden_checkpoint().to_json() in str(failed.value)

    def test_json_round_trip(self):
        checkpoint = self._checkpoint()
        restored = ClusterCheckpoint.from_json(checkpoint.to_json())
        assert restored == checkpoint
        assert restored.frontier_paths == [(0, 1), (2,)]

    def test_bytes_tuple_and_dict_parameters_survive_save_and_load(self,
                                                                    tmp_path):
        """A curl-glob checkpoint carries ``prefix=b"..."``: every plain
        parameter comes back as the type it was saved as."""
        params = {"prefix": b"http://{", "pair": (1, "a", (b"",)),
                  "nested": {"k": [b"x", None, 2.5]}, "flag": True,
                  "count": 3, "name": "n", "list": [1, [2]], "empty": {}}
        checkpoint = self._checkpoint()
        checkpoint.spec_params = params
        path = str(tmp_path / "checkpoint.json")
        checkpoint.save(path)
        restored = ClusterCheckpoint.load(path)
        assert restored == checkpoint
        assert restored.spec_params == params
        for key, value in params.items():
            assert type(restored.spec_params[key]) is type(value), key
        assert type(restored.spec_params["pair"][2]) is tuple
        assert type(restored.spec_params["nested"]["k"][0]) is bytes

    def test_a_parameter_that_is_not_plain_data_is_named_on_save(self):
        checkpoint = self._checkpoint()
        checkpoint.spec_params = {"when": object()}
        with pytest.raises(TypeError, match=r"spec_params: 'when': "
                                            r"<object object .*> is not plain"):
            checkpoint.to_json()

    def test_a_checkpoint_in_another_format_is_refused_by_name(self):
        """A checkpoint from an older tree, with keys this one dropped, is a
        ValueError naming both formats and those keys, not a constructor
        TypeError."""
        older = json.loads(self._checkpoint().to_json())
        del older["format"]
        older["worker_stats"] = {}
        older["strategy_seeds"] = {}
        with pytest.raises(ValueError, match=(
                r"format None, this tree reads format %d \(unknown keys: "
                r"strategy_seeds, worker_stats\)" % CHECKPOINT_FORMAT)):
            ClusterCheckpoint.from_json(json.dumps(older))
        older["format"] = 2  # the layout before bugs became records
        with pytest.raises(ValueError, match=r"format 2, this tree reads "
                                             r"format %d " % CHECKPOINT_FORMAT):
            ClusterCheckpoint.from_json(json.dumps(older))
        newer = json.loads(self._checkpoint().to_json())
        newer["format"] = CHECKPOINT_FORMAT + 1
        with pytest.raises(ValueError, match=(
                r"format %d, this tree reads format %d \(unknown keys: none\)"
                % (CHECKPOINT_FORMAT + 1, CHECKPOINT_FORMAT))):
            ClusterCheckpoint.from_json(json.dumps(newer))

    def test_an_unknown_key_is_refused_by_name(self):
        grown = json.loads(self._checkpoint().to_json())
        grown["queue_lengths"] = [3, 1]
        with pytest.raises(ValueError, match=r"unknown keys: queue_lengths"):
            ClusterCheckpoint.from_json(json.dumps(grown))

    @pytest.mark.parametrize("text, says", [
        ("[]", "it is a JSON list, not an object"),
        ('"x"', "it is a JSON str, not an object"),
        ("{", "not JSON"),
        ('{"format": %d}' % CHECKPOINT_FORMAT,
         "missing 4 required positional arguments: 'round_index', "
         "'frontier_paths', 'coverage_bits', and 'line_count'"),
    ])
    def test_a_malformed_checkpoint_is_a_value_error_saying_why(self, text,
                                                                 says):
        with pytest.raises(ValueError, match=re.escape(says)):
            ClusterCheckpoint.from_json(text)

    @pytest.mark.parametrize("key, value, says", [
        ("round_index", "6", "round_index: expected int, got str"),
        ("line_count", True, "line_count: expected int, got bool"),
        ("coverage_bits", "xyz",
         "coverage_bits: expected a hex integer, got 'xyz'"),
        ("frontier_paths", [[0, "1"]],
         "frontier_paths[0][1]: expected int, got str"),
        ("test_cases", [7], "test_cases[0]: expected a TestCase record, got int"),
        ("spec_name", 3, "spec_name: expected str or NoneType, got int"),
        ("bug_reports", [[]], "bug_reports[0]: BugReport.__init__() missing 3 "
                              "required positional arguments: 'kind'"),
        ("bug_reports", [["no_such_kind", "m", 1]],
         "bug_reports[0].kind: 'no_such_kind' is not a BugKind"),
        ("test_cases", [[1, {"in": "zz"}, 3]],
         "test_cases[0].inputs: expected hex bytes, got 'zz'"),
        ("spec_params", {"p": {"a": 1}}, "spec_params: untagged object {'a': 1}"),
        ("spec_params", {"p": {"bytes": "q"}},
         "spec_params: expected hex bytes, got 'q'"),
    ])
    def test_a_field_of_the_wrong_kind_is_named(self, key, value, says):
        payload = json.loads(self._checkpoint().to_json())
        payload[key] = value
        with pytest.raises(ValueError, match=re.escape(says)):
            ClusterCheckpoint.from_json(json.dumps(payload))

    @pytest.mark.parametrize("key, index, value, says", [
        ("bug_reports", 3, "twelve",
         "bug_reports[0].line: expected int or NoneType, got str"),
        ("bug_reports", 4, 3,
         "bug_reports[0].function: expected str or NoneType, got int"),
        ("bug_reports", 1, ["x"], "bug_reports[0].message: expected str, got list"),
        ("test_cases", 5, "no", "test_cases[0].is_error: expected bool, got str"),
        ("test_cases", 4, "abc",
         "test_cases[0].exit_code: expected int or NoneType, got str"),
    ])
    def test_a_nested_field_of_the_wrong_kind_is_named_by_its_path(
            self, key, index, value, says):
        """A bug or test case is kind-checked field by field, as a frame is:
        a bad ``line`` fails the load, not a later ``summary()``."""
        payload = json.loads(_golden_checkpoint().to_json())
        payload[key][0][index] = value
        with pytest.raises(ValueError, match=re.escape(says)):
            ClusterCheckpoint.from_json(json.dumps(payload))


    _JSON = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats()
        | st.text(max_size=6),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=12), inner, max_size=3),
        max_leaves=8)

    @settings(max_examples=300)
    @given(st.data())
    def test_fuzzed_checkpoints_fail_only_with_value_error(self, data):
        """Text, or a good checkpoint with one key or record field dropped
        or replaced (the fields of a bug, of its test case and of a test
        case included): from_json either reads it or raises ValueError."""
        payload = json.loads(_golden_checkpoint().to_json())
        (bug,), (case,) = payload["bug_reports"], payload["test_cases"]
        target = data.draw(st.sampled_from([payload, bug, bug[5], case]))
        key = data.draw(st.sampled_from(
            sorted(target) if type(target) is dict else range(len(target))))
        if data.draw(st.booleans()):
            del target[key]
        else:
            target[key] = data.draw(self._JSON)
        text = data.draw(st.sampled_from(
            [json.dumps(payload), json.dumps(payload)[:-3]])
            | st.text(max_size=40))
        try:
            ClusterCheckpoint.from_json(text)
        except ValueError:
            pass

    def test_save_load_and_coerce(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        checkpoint = self._checkpoint()
        checkpoint.save(path)
        assert ClusterCheckpoint.load(path) == checkpoint
        assert ClusterCheckpoint.coerce(path) == checkpoint
        assert ClusterCheckpoint.coerce(checkpoint) is checkpoint
        with pytest.raises(TypeError, match="resume_from"):
            ClusterCheckpoint.coerce(42)

    def test_coverage_helpers(self):
        checkpoint = self._checkpoint()
        assert checkpoint.covered_lines() == {0, 1, 3}
        assert checkpoint.coverage_percent == 30.0


# -- load balancer transfer cancellation ------------------------------------------------


class TestCancelTransfer:
    def test_cancel_rolls_back_estimates(self):
        lb = LoadBalancer(line_count=10)
        lb.receive_status(1, queue_length=10, useful_instructions=0,
                          coverage_bits=0)
        lb.receive_status(2, queue_length=0, useful_instructions=0,
                          coverage_bits=0)
        commands = lb.balance()
        assert len(commands) == 1
        command = commands[0]
        assert lb.reports[1].queue_length == 10 - command.job_count
        lb.cancel_transfer(command)
        assert lb.reports[1].queue_length == 10
        assert lb.reports[2].queue_length == 0

    def test_cancel_tolerates_departed_workers(self):
        lb = LoadBalancer(line_count=10)
        lb.receive_status(1, queue_length=4, useful_instructions=0,
                          coverage_bits=0)
        lb.cancel_transfer(TransferCommand(source=9, destination=1, job_count=2))
        assert lb.reports[1].queue_length == 2


# -- fence-aware import (worker side of recovery) ---------------------------------------


class TestRecoveredImport:
    def test_fences_exclude_live_workers_subtrees(self):
        executor = make_executor(branchy_program(2))
        worker = Worker(1, executor, executor.make_initial_state())
        tree = JobTree.from_jobs([Job(())])
        imported = worker.import_jobs(tree, fence_paths=[(0,)], recovered=True)
        assert imported == 1
        assert worker.stats.jobs_recovered == 1
        while worker.has_work:
            worker.explore(1000)
        # branchy(2) has 9 paths; the fenced first-byte=='A' subtree holds 3.
        assert worker.paths_completed == 6

    def test_a_replay_through_a_recovered_fence_keeps_it_fenced(self):
        """The survivor holds N inside fence F of the root it recovers.
        Replaying N passes through F; F must stay a fence, or stepping the
        recovered root later revives it and re-explores F's line."""
        fence, nested = (0,), (0, 0)

        def explored(*imports):
            executor = make_executor(branchy_program(2))
            worker = Worker(1, executor, executor.make_initial_state())
            for job, fences in imports:
                worker.import_jobs(JobTree.from_jobs([Job(job)]),
                                   fence_paths=fences,
                                   recovered=fences is not None)
            while worker.has_work:
                worker.explore(1)
            return worker

        own = explored((nested, None))
        recovered = explored(((), [fence]))
        both = explored((nested, None), ((), [fence]))
        assert both.tree.node_at(list(fence)).is_fence
        assert both.paths_completed == own.paths_completed + recovered.paths_completed == 7
        assert (both.stats.useful_instructions
                == own.stats.useful_instructions
                + recovered.stats.useful_instructions)

    def test_recovered_root_import_replays_the_seed(self):
        executor = make_executor(branchy_program(2))
        worker = Worker(1, executor, executor.make_initial_state())
        worker.import_jobs(JobTree.from_jobs([Job(())]), recovered=True)
        while worker.has_work:
            worker.explore(1000)
        assert worker.paths_completed == 9

    def test_recovery_into_entangled_tree_counts_each_path_once(self):
        """Regression for the deep-spine recovery bugs: the survivor's tree
        holds replay fence shells *inside* the dead worker's territory (for
        jobs the dead worker once ceded back) plus its own explored work at
        the fence paths.  Recovery must re-explore exactly the non-fenced
        part -- the old code either skipped the fence shells (losing the
        dead worker's completed paths) or revived the survivor's completed
        subtrees (counting them twice)."""
        from repro.targets import printf
        test = printf.make_symbolic_test(format_length=2)
        single = test.run(backend="single").paths_completed

        def mkworker(worker_id):
            executor = test.build_executor()
            return Worker(worker_id, executor,
                          test.build_initial_state(executor))

        w1, w2 = mkworker(1), mkworker(2)
        w1.seed()
        # Grow a deep candidate D and hand its whole subtree to w2.
        deep = None
        while w1.has_work and deep is None:
            w1.explore(40)
            candidates = [p for p in w1.frontier_paths() if len(p) >= 8]
            if candidates:
                deep = sorted(candidates)[-1]
        assert deep is not None
        node = next(n for n in w1.frontier
                    if tuple(n.path_from_root()) == deep)
        node.mark_fence()
        w1.frontier.discard(node)
        w2.import_jobs(JobTree.from_jobs([Job(deep)]))
        # w2 explores partway down the spine, ceding deep jobs back to w1;
        # w1 replays them (leaving fence shells on the spine) and finishes.
        for _ in range(4):
            if w2.has_work:
                w2.explore(30)
        ceded_back = w2.export_jobs(3)
        fence_paths = [job.path for job in ceded_back.jobs()]
        assert fence_paths, "w2 had nothing to cede; tune the budgets"
        w1.import_jobs(ceded_back)
        while w1.has_work:
            w1.explore(2000)
        # w2 dies; its territory (root D, minus what it ceded) is requeued.
        w1.import_jobs(JobTree.from_jobs([Job(deep)]),
                       fence_paths=fence_paths, recovered=True)
        while w1.has_work:
            w1.explore(2000)
        assert w1.paths_completed == single
        assert w1.stats.jobs_recovered == 1


# -- process-backend fault tolerance ----------------------------------------------------


def _pconfig(**kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("instructions_per_round", 40)
    kw.setdefault("reply_timeout", 1.0)
    kw.setdefault("shutdown_timeout", 2.0)
    return ProcessClusterConfig(**kw)


@needs_fork
class TestProcessFaultTolerance:
    @pytest.fixture(scope="class")
    def baseline(self):
        test = specs.resolve_test("test-ft-buggy")
        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=40, reply_timeout=1.0)
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.found_bug
        return result

    def test_sigkill_between_rounds_recovers_and_matches_baseline(self, baseline):
        cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        hook = kill_the_last_member()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.fired, "the victim never owned work; tune the target"
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert result.exhausted
        # Deterministic target: recovery re-explores the dead worker's
        # territory, so the killed run converges to the crash-free outcome.
        assert result.paths_completed == baseline.paths_completed
        assert (sorted(b.summary() for b in result.bugs)
                == sorted(b.summary() for b in baseline.bugs))
        assert result.covered_lines == baseline.covered_lines
        # The dead worker's last-known counters are kept, separate from totals.
        assert set(result.failed_worker_stats) == {2}

    def test_sigkill_mid_explore_recovers(self, baseline):
        # Big per-round budget: round 0 lasts long enough for the timer to
        # land while the explore replies are still outstanding.
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy", config=_pconfig(instructions_per_round=2000))
        killed = {}
        timers = []

        def kill(pid):
            try:
                os.kill(pid, signal.SIGKILL)
                killed["pid"] = pid
            except ProcessLookupError:  # pragma: no cover - run won the race
                pass

        def start_the_timer(cl, victim):
            timer = threading.Timer(0.003, kill,
                                    (victim.transport.process.pid,))
            timer.start()
            timers.append(timer)

        # At the first explore: the seed job is all there is to recover.
        cluster.round_hook = Trigger(
            lambda cl: len(cl.handles) == 2 and cl.handles[-1],
            start_the_timer)
        result = cluster.run(limits=LIMITS)
        for timer in timers:
            timer.join()
        assert killed, "the kill landed after the run already finished"
        assert result.worker_failures == 1
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed

    def test_respawn_replaces_the_dead_worker(self, baseline):
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy",
            config=_pconfig(respawn=True, max_worker_failures=3))
        hook = kill_the_last_member()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.fired
        assert result.worker_failures == 1
        assert result.respawns == 1
        assert result.num_workers == 2  # back at configured size
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed
        # The replacement got a fresh id and reported its own final stats.
        assert 3 in result.worker_stats

    def test_late_kill_on_deep_tree_matches_baseline(self):
        """End-to-end variant of the deep-spine regression: printf's tree
        produces long transfer spines; a late kill (after real territory has
        bounced both ways) must still converge to the crash-free outcome."""
        config = _pconfig(instructions_per_round=100)
        baseline = ProcessCloud9Cluster(
            "printf", spec_params={"format_length": 2},
            config=config).run(limits=LIMITS)
        assert baseline.exhausted

        cluster = ProcessCloud9Cluster(
            "printf", spec_params={"format_length": 2},
            config=_pconfig(instructions_per_round=100))
        hook = kill_the_last_member(bounced=True)
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.fired
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert result.exhausted
        assert result.paths_completed == baseline.paths_completed
        assert result.covered_lines == baseline.covered_lines

    def test_failure_budget_zero_restores_old_behavior(self):
        cluster = ProcessCloud9Cluster(
            "test-ft-buggy", config=_pconfig(max_worker_failures=0))
        hook = kill_the_last_member()
        cluster.round_hook = hook
        with pytest.raises(WorkerProcessError, match="failure budget"):
            cluster.run(limits=LIMITS)

    def test_no_orphan_processes_after_recovered_run(self):
        cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        pids = []
        hook = kill_the_last_member()

        def wrapper(round_index, cl):
            for handle in cl.handles:
                if handle.transport.process.pid not in pids:
                    pids.append(handle.transport.process.pid)
            hook(round_index, cl)

        cluster.round_hook = wrapper
        cluster.run(limits=LIMITS)
        assert hook.fired
        assert cluster.handles == []
        assert len(pids) >= 2
        wait_until(lambda: not any(_pid_alive(pid) for pid in pids),
                   what="worker processes %r to exit" % pids)

    def test_wedged_worker_teardown_escalates(self, monkeypatch):
        """A worker stuck in an unbounded explore never reads StopCommand;
        teardown must terminate (or kill) it without leaking processes."""
        exploring = multiprocessing.get_context("fork").Event()
        explore = DistribWorker._explore

        def signalling_explore(self, command):
            exploring.set()
            return explore(self, command)

        # Patched before the fork, so the worker process inherits it.
        monkeypatch.setattr(DistribWorker, "_explore", signalling_explore)
        config = _pconfig(num_workers=1, shutdown_timeout=0.5)
        cluster = ProcessCloud9Cluster("test-ft-spin", config=config)
        cluster._start_workers()
        handle = cluster.handles[0]
        cluster._send(handle, SeedCommand())
        cluster._receive(handle)
        # An effectively unbounded budget on a concrete infinite loop.
        cluster._send(handle, ExploreCommand(budget=10 ** 9))
        assert exploring.wait(timeout=5.0), "the worker never began exploring"
        pid = handle.transport.process.pid
        assert _pid_alive(pid)
        cluster._shutdown_workers()
        assert cluster.handles == []
        wait_until(lambda: not _pid_alive(pid), what="the wedged worker to exit")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - different uid
        return True
    # Still a zombie or running: try to reap our own children.
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        pass
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


# -- checkpoint / resume ----------------------------------------------------------------


@needs_fork
class TestProcessCheckpointResume:
    def test_resume_reaches_same_final_coverage(self, tmp_path):
        test = specs.resolve_test("test-ft-buggy")
        full = test.run(backend="process", workers=2, limits=LIMITS,
                        instructions_per_round=40, reply_timeout=1.0)
        assert full.exhausted

        path = str(tmp_path / "ckpt.json")
        trace_path = str(tmp_path / "trace.jsonl")
        partial = test.run(backend="process", workers=2,
                           limits=ExplorationLimits(max_rounds=2,
                                                    trace_path=trace_path),
                           instructions_per_round=40, reply_timeout=1.0,
                           checkpoint_every=1, checkpoint_path=path)
        assert not partial.exhausted  # killed mid-way (by budget)
        assert os.path.exists(path)
        written = [e for e in load_trace(trace_path)
                   if e["event"] == "checkpoint_written"]
        assert [e["path"] for e in written] == [path, path]

        resumed = test.run(backend="process", workers=2, limits=LIMITS,
                           instructions_per_round=40, reply_timeout=1.0,
                           resume_from=path)
        assert resumed.exhausted
        assert resumed.resumed_from_round == 2
        assert resumed.coverage_percent == full.coverage_percent
        assert resumed.covered_lines == full.covered_lines
        assert resumed.paths_completed == full.paths_completed

    def test_checkpoint_carries_identity_and_seeds(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        test = specs.resolve_test("test-ft-buggy")
        test.run(backend="process", workers=2,
                 limits=ExplorationLimits(max_rounds=2),
                 instructions_per_round=40, reply_timeout=1.0,
                 checkpoint_every=1, checkpoint_path=path)
        checkpoint = ClusterCheckpoint.load(path)
        assert checkpoint.spec_name == "test-ft-buggy"
        assert checkpoint.backend == "process"
        assert checkpoint.frontier_paths  # mid-run: work outstanding
        assert checkpoint.line_count == test.program.line_count


class TestInProcessCheckpointResume:
    def test_resume_matches_uninterrupted_run(self):
        test = _buggy_spec_test()
        config = ClusterConfig(num_workers=2, instructions_per_round=30)
        full = test.build_cluster(config).run(limits=LIMITS)
        assert full.exhausted

        interrupted = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30,
                          checkpoint_every=2))
        partial = interrupted.run(limits=ExplorationLimits(max_rounds=4))
        checkpoint = interrupted.last_checkpoint
        assert checkpoint is not None and checkpoint.round_index == 4
        assert not partial.exhausted

        resumed_cluster = test.build_cluster(config)
        resumed = resumed_cluster.run(limits=LIMITS, resume_from=checkpoint)
        assert resumed.exhausted
        assert resumed.resumed_from_round == 4
        assert resumed.coverage_percent == full.coverage_percent
        assert resumed.paths_completed == full.paths_completed

    def test_resumed_timeline_counts_checkpointed_paths(self):
        """Regression: the in-process round loop used to count only live
        workers' paths, ignoring the resumed-from base, so max_paths goals
        and timeline snapshots undercounted after a resume."""
        test = _buggy_spec_test()
        interrupted = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=100,
                          checkpoint_every=2))
        interrupted.run(limits=ExplorationLimits(max_rounds=6))
        checkpoint = interrupted.last_checkpoint
        assert checkpoint is not None and checkpoint.paths_completed > 0

        resumed = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=100))
        result = resumed.run(limits=ExplorationLimits(max_rounds=1),
                             resume_from=checkpoint)
        assert (result.timeline.snapshots[0].paths_completed
                >= checkpoint.paths_completed)

    def test_resume_via_api_runner(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        test = _buggy_spec_test()
        partial = test.run(backend="cluster", workers=2,
                           instructions_per_round=30,
                           checkpoint_every=1, checkpoint_path=path,
                           limits=ExplorationLimits(max_rounds=3))
        assert not partial.exhausted
        resumed = test.run(backend="cluster", workers=2,
                           instructions_per_round=30,
                           limits=LIMITS, resume_from=path)
        assert resumed.exhausted
        assert resumed.resumed_from_round == 3
        full = test.run(backend="cluster", workers=2,
                        instructions_per_round=30, limits=LIMITS)
        assert resumed.coverage_percent == full.coverage_percent
        assert resumed.paths_completed == full.paths_completed


class TestRunResultPlumbing:
    def test_run_result_carries_recovery_counters(self):
        from repro.api.result import RunResult

        cluster_result = RunResult(backend="process", test_name="",
                                   num_workers=2, worker_failures=1,
                                   jobs_recovered=3, respawns=1,
                                   resumed_from_round=5)
        run_result = RunResult.from_cluster(cluster_result, backend="process",
                                            test_name="x")
        assert run_result.test_name == "x"
        assert run_result.worker_failures == 1
        assert run_result.jobs_recovered == 3
        assert run_result.respawns == 1
        assert run_result.resumed_from_round == 5


# -- elastic membership ------------------------------------------------------------------


class TestInProcessElasticity:
    def _single_baseline(self):
        test = _buggy_spec_test()
        return test.run(backend="single", limits=ExplorationLimits())

    def test_add_worker_between_runs(self):
        test = _buggy_spec_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=2, instructions_per_round=30))
        cluster.run(limits=ExplorationLimits(max_rounds=3))
        new_id = cluster.add_worker()
        assert new_id == 3
        result = cluster.run(limits=LIMITS)
        assert result.exhausted
        assert result.num_workers == 3
        assert set(result.worker_stats) == {1, 2, 3}
        assert result.paths_completed == self._single_baseline().paths_completed

    def test_remove_worker_mid_run_keeps_its_results(self):
        test = _buggy_spec_test()
        cluster = test.build_cluster(
            ClusterConfig(num_workers=3, instructions_per_round=30))

        def the_last_has_finished_a_path(cl):
            last = cl.workers[-1]
            return last if last.paths_completed else None

        removed = cluster.round_hook = Trigger(
            the_last_has_finished_a_path,
            lambda cl, last: cl.remove_worker(last.worker_id))
        result = cluster.run(limits=LIMITS)
        assert removed.fired
        assert result.exhausted
        assert result.num_workers == 2
        # The departed worker's stats and paths still count.
        assert removed.subject.worker_id in result.worker_stats
        assert result.worker_stats[removed.subject.worker_id].paths_completed
        assert result.paths_completed == self._single_baseline().paths_completed

    def test_remove_worker_guards(self):
        test = _buggy_spec_test()
        cluster = test.build_cluster(ClusterConfig(num_workers=1))
        with pytest.raises(ValueError, match="last worker"):
            cluster.remove_worker(1)
        with pytest.raises(ValueError, match="no live worker"):
            cluster.remove_worker(99)


@needs_fork
class TestProcessElasticity:
    def test_add_then_remove_mid_run(self):
        cluster = ProcessCloud9Cluster("test-ft-buggy", config=_pconfig())
        events = []

        def add(cl, _):
            events.append("added")
            events.append(cl.add_worker())

        def the_guest_holds_work(cl):
            return next((h for h in cl.handles if len(events) > 1
                         and h.worker_id == events[1] and h.queue_length),
                        None)

        def remove(cl, guest):
            events.append("removed")
            cl.remove_worker(guest.worker_id)

        # Joins once the first round's statuses are in; leaves once it
        # has taken work (the balancer fed it).
        join = Trigger(lambda cl: all(h.status for h in cl.handles), add)
        leave = Trigger(the_guest_holds_work, remove)

        def hook(round_index, cl):
            leave(round_index, cl)  # first: never on the join's boundary
            join(round_index, cl)

        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert events and events[0] == "added" and "removed" in events
        assert join.fired_at < leave.fired_at
        assert result.exhausted
        assert result.worker_failures == 0
        # The guest worker's contributions are merged into the result.
        assert events[1] in result.worker_stats
        test = specs.resolve_test("test-ft-buggy")
        single = test.run(backend="single", limits=ExplorationLimits())
        assert result.paths_completed == single.paths_completed
