"""End-to-end loopback TCP clusters (the ``"tcp"`` backend, :mod:`repro.net`).

The socket transport must be invisible to the protocol: a 2-worker TCP
cluster on 127.0.0.1 explores exactly what the mp-queue backend explores
(paths, coverage, bugs), a SIGKILLed agent flows through the same frontier
ledger recovery as a killed local process, and elastic growth admits agents
from the pending-connections pool instead of forking.
"""

import multiprocessing
import time

import pytest

from conftest import wait_until
from triggers import Trigger, kill_the_last_member
from repro.lang import builder as L
from repro.engine.limits import ExplorationLimits
from repro.distrib import specs
from repro.distrib.cluster import (
    TcpCloud9Cluster,
    TcpClusterConfig,
    WorkerProcessError,
)
from repro.net.agent import _local_agent_main, main as agent_main
from repro.net.framing import DEFAULT_MAX_FRAME_SIZE
from repro.testing.symbolic_test import SymbolicTest

LIMITS = ExplorationLimits(max_rounds=500)

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available,
    reason="runtime-registered specs reach child processes only under fork")


def _buggy_program(buffer_size=3):
    """branchy plus a deterministic assertion bug on the all-'A' paths."""
    return L.program(
        "net-buggy",
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
    return SymbolicTest(name="net-buggy", program=_buggy_program(buffer_size),
                        use_posix_model=False)


# Registered at import time: "fork" children inherit the registry.
specs.register_spec("test-net-buggy", _buggy_spec_test, replace=True)


def _tcp_config(**kw):
    kw.setdefault("num_workers", 2)
    kw.setdefault("instructions_per_round", 40)
    kw.setdefault("reply_timeout", 1.0)
    kw.setdefault("shutdown_timeout", 2.0)
    kw.setdefault("agent_wait_timeout", 20.0)
    return TcpClusterConfig(**kw)


def _dial_agents(cluster, count):
    """Start external agent processes pointed at the cluster's listener."""
    host, port = cluster.listen_address
    ctx = multiprocessing.get_context("fork")
    agents = []
    for _ in range(count):
        process = ctx.Process(
            target=_local_agent_main,
            args=("%s:%d" % (host, port), (), DEFAULT_MAX_FRAME_SIZE),
            daemon=True)
        process.start()
        agents.append(process)
    return agents


def _reap_agents(agents):
    for process in agents:
        process.join(timeout=5.0)
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


def _assert_matches(result, baseline):
    """The §4 determinism bar: identical exploration outcome."""
    assert result.paths_completed == baseline.paths_completed
    assert result.covered_lines == baseline.covered_lines
    assert (sorted(b.summary() for b in result.bugs)
            == sorted(b.summary() for b in baseline.bugs))


@needs_fork
class TestTcpEquivalence:
    @pytest.fixture(scope="class")
    def mp_baseline(self):
        test = specs.resolve_test("test-net-buggy")
        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=40, reply_timeout=1.0)
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.found_bug
        return result

    def test_spawned_loopback_agents_match_mp_backend(self, mp_baseline):
        """The CI clean smoke: self-contained TCP cluster, zero failures,
        byte-identical exploration outcome vs the mp-queue transport."""
        cluster = TcpCloud9Cluster(
            "test-net-buggy", config=_tcp_config(spawn_local_agents=True))
        result = cluster.run(limits=LIMITS)
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.heartbeat_misses == 0
        _assert_matches(result, mp_baseline)

    def test_external_agents_match_mp_backend(self, mp_baseline):
        """Same run, but the agents dial in as separate processes -- the
        cross-machine topology, folded onto 127.0.0.1."""
        cluster = TcpCloud9Cluster("test-net-buggy", config=_tcp_config())
        agents = _dial_agents(cluster, 2)
        try:
            result = cluster.run(limits=LIMITS)
        finally:
            _reap_agents(agents)
        assert result.exhausted
        assert result.worker_failures == 0
        _assert_matches(result, mp_baseline)

    @pytest.mark.parametrize("spec_name,spec_params,options", [
        ("printf", {"format_length": 2}, {}),
        ("testcmd", {}, {"instructions_per_round": 500, "max_rounds": 60}),
    ])
    def test_paper_workloads_match_mp_backend(self, spec_name, spec_params,
                                              options):
        """The §5 workloads explore identically over both carriers."""
        options = dict(options)
        limits = ExplorationLimits(
            max_rounds=options.pop("max_rounds", LIMITS.max_rounds))
        test = specs.resolve_test(spec_name, **spec_params)
        baseline = test.run(backend="process", workers=2, limits=limits,
                            reply_timeout=1.0, **options)
        result = test.run(backend="tcp", workers=2, limits=limits,
                          spawn_local_agents=True, reply_timeout=1.0,
                          shutdown_timeout=2.0, **options)
        assert baseline.exhausted and result.exhausted
        assert result.worker_failures == 0
        _assert_matches(result, baseline)


@needs_fork
class TestTcpFaultTolerance:
    @pytest.fixture(scope="class")
    def mp_baseline(self):
        test = specs.resolve_test("test-net-buggy")
        result = test.run(backend="process", workers=2, limits=LIMITS,
                          instructions_per_round=40, reply_timeout=1.0)
        assert result.exhausted
        return result

    def test_sigkill_agent_recovers_and_matches_baseline(self, mp_baseline):
        """The CI kill smoke: a SIGKILLed agent is detected at the transport
        (EOF or heartbeat silence -- there is no Process.is_alive() across a
        socket), its territory is requeued via the frontier ledger, and the
        run converges to the crash-free outcome."""
        cluster = TcpCloud9Cluster(
            "test-net-buggy", config=_tcp_config(spawn_local_agents=True))
        hook = kill_the_last_member()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.fired, "the victim never owned work; tune the target"
        assert result.worker_failures == 1
        assert result.jobs_recovered > 0
        assert result.exhausted
        _assert_matches(result, mp_baseline)

    def test_respawn_admits_a_replacement_agent(self, mp_baseline):
        cluster = TcpCloud9Cluster(
            "test-net-buggy",
            config=_tcp_config(spawn_local_agents=True, respawn=True,
                               max_worker_failures=3))
        hook = kill_the_last_member()
        cluster.round_hook = hook
        result = cluster.run(limits=LIMITS)
        assert hook.fired
        assert result.worker_failures == 1
        assert result.respawns == 1
        # The replacement dialed in.
        assert result.workers_added + result.respawns == 1
        assert result.num_workers == 2  # back at configured size
        assert result.exhausted
        _assert_matches(result, mp_baseline)

    def test_no_agent_dials_in_fails_fast_with_dial_hint(self):
        cluster = TcpCloud9Cluster(
            "test-net-buggy", config=_tcp_config(agent_wait_timeout=0.5))
        started = time.monotonic()
        with pytest.raises(WorkerProcessError,
                           match="python -m repro.net.agent"):
            cluster.run(limits=LIMITS)
        assert time.monotonic() - started < 15.0


@needs_fork
class TestTcpElasticity:
    def test_add_worker_admits_a_pending_agent(self):
        """Scale-up on TCP is an *admission*: the third agent waits in the
        pending pool until the round hook asks for it."""
        cluster = TcpCloud9Cluster("test-net-buggy", config=_tcp_config())
        agents = _dial_agents(cluster, 3)

        def admit(cl, _):
            # The third agent dials in on its own schedule; under load it
            # may not have yet, and add_worker refuses an empty pool.
            wait_until(lambda: cl.server.pending_count >= 1, timeout=30.0,
                       what="the third agent to dial in")
            return cl.add_worker()

        # Once a member holds work to share with a newcomer.
        added = cluster.round_hook = Trigger(
            lambda cl: any(h.queue_length for h in cl.handles), admit)
        try:
            result = cluster.run(limits=LIMITS)
        finally:
            _reap_agents(agents)
        assert added.fired
        assert result.workers_added == 1
        assert result.workers_added + result.respawns == 1
        assert result.peak_workers == 3
        assert result.exhausted
        assert result.worker_failures == 0

    def test_add_worker_with_empty_pool_fails_fast(self):
        """Mid-run growth must not stall the round for agent_wait_timeout
        when nobody has dialed in -- it refuses immediately."""
        cluster = TcpCloud9Cluster("test-net-buggy", config=_tcp_config())
        agents = _dial_agents(cluster, 2)
        refusal = {}

        def try_to_grow(cl, _):
            started = time.monotonic()
            try:
                cl.add_worker()
            except WorkerProcessError as exc:
                refusal["message"] = str(exc)
                refusal["elapsed"] = time.monotonic() - started

        cluster.round_hook = Trigger(
            lambda cl: any(h.queue_length for h in cl.handles), try_to_grow)
        try:
            result = cluster.run(limits=LIMITS)
        finally:
            _reap_agents(agents)
        assert "no pending agent" in refusal["message"]
        assert refusal["elapsed"] < 5.0
        assert result.exhausted
        assert result.worker_failures == 0
        assert result.workers_added == 0


@needs_fork
class TestTcpApiAndLifecycle:
    def test_backend_tcp_through_symbolic_test_run(self):
        test = specs.resolve_test("test-net-buggy")
        result = test.run(backend="tcp", workers=2, limits=LIMITS,
                          spawn_local_agents=True, instructions_per_round=40,
                          reply_timeout=1.0, shutdown_timeout=2.0)
        assert result.backend == "tcp"
        assert result.exhausted
        assert result.found_bug
        assert result.worker_failures == 0

    def test_a_bytes_spec_parameter_reaches_the_agents(self):
        """curl-glob's ``prefix`` is bytes: the welcome carries it as such,
        and the agents explore what forked workers explore."""
        test = specs.resolve_test("curl-glob", prefix=b"http://a{b,c}")
        baseline = test.run(backend="process", workers=2, limits=LIMITS,
                            reply_timeout=1.0)
        result = test.run(backend="tcp", workers=2, limits=LIMITS,
                          spawn_local_agents=True, reply_timeout=1.0,
                          shutdown_timeout=2.0)
        assert baseline.exhausted and result.exhausted
        assert result.worker_failures == 0
        assert result.found_bug
        _assert_matches(result, baseline)

    def test_graceful_shutdown_leaves_no_orphan_agents(self):
        cluster = TcpCloud9Cluster(
            "test-net-buggy", config=_tcp_config(spawn_local_agents=True))
        result = cluster.run(limits=LIMITS)
        assert result.exhausted
        assert cluster.server is None  # listener closed with the run
        wait_until(lambda: not [p for p in multiprocessing.active_children()
                                if p.name == "cloud9-agent"],
                   what="the agent processes to exit with the run")

    def test_agent_cli_reports_unreachable_coordinator(self):
        # Port 1 on loopback: nothing listens there, connect is refused.
        assert agent_main(["--connect", "127.0.0.1:1"]) == 1
