"""The coordinator-side live status endpoint."""

import json
import socket

import pytest

from repro.cluster.core import ClusterConfig, StaticPartitionConfig
from repro.distrib.cluster import TcpCloud9Cluster, TcpClusterConfig
from repro.net.transport import parse_address
from repro.obs.status import StatusServer, read_status
from repro.obs.trace import NULL_TRACER, load_trace
from repro.testing.symbolic_test import SymbolicTest

from conftest import branchy_program


class TestParseAddress:
    """``status_listen`` values go through the one address parser."""

    def test_host_port(self):
        assert parse_address("0.0.0.0:4850") == ("0.0.0.0", 4850)

    def test_bare_port_defaults_loopback(self):
        assert parse_address("4850") == ("127.0.0.1", 4850)
        assert parse_address(":0") == ("127.0.0.1", 0)

    def test_bad_port_raises(self):
        with pytest.raises(ValueError):
            parse_address("host:notaport")


class TestStatusServer:
    def test_serves_latest_snapshot(self):
        server = StatusServer(("127.0.0.1", 0))
        try:
            server.update({"round": 1, "coverage_percent": 10.0})
            server.update({"round": 2, "coverage_percent": 25.0})
            status = read_status(server.address)
            assert status["round"] == 2
            assert status["coverage_percent"] == 25.0
            assert status["updated"] >= 0.0  # staleness age rides along
        finally:
            server.close()

    def test_one_json_line_per_connection(self):
        """The wire protocol is healthz-style: connect, read one line, EOF."""
        server = StatusServer(("127.0.0.1", 0))
        try:
            server.update({"round": 7})
            with socket.create_connection(server.address, timeout=2.0) as sock:
                data = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    data += chunk
            text = data.decode("utf-8")
            assert text.endswith("\n") and text.count("\n") == 1
            assert json.loads(text)["round"] == 7
        finally:
            server.close()

    def test_empty_snapshot_before_first_update(self):
        server = StatusServer(("127.0.0.1", 0))
        try:
            status = read_status(server.address)
            assert "updated" in status
        finally:
            server.close()

    def test_read_after_close_returns_none(self):
        server = StatusServer(("127.0.0.1", 0))
        address = server.address
        server.close()
        assert read_status(address, timeout=0.5) is None


class TestInProcessBackendsServeStatus:
    """``status_listen=`` works on every backend through the one
    coordinator (it used to be a process-backend-only feature)."""

    def _build(self, static=False):
        test = SymbolicTest("branchy", branchy_program(3))
        kwargs = dict(num_workers=2, instructions_per_round=40,
                      status_listen="127.0.0.1:0")
        if static:
            return test.build_static_cluster(StaticPartitionConfig(**kwargs))
        return test.build_cluster(ClusterConfig(**kwargs))

    def _run_and_snapshot(self, cluster):
        seen = {}

        def hook(round_index, cl):
            if round_index == 2 and not seen:
                seen.update(read_status(cl.status_address) or {})

        cluster.round_hook = hook
        cluster.run(max_rounds=10)
        return seen

    def test_cluster_backend_serves_live_status(self):
        cluster = self._build()
        seen = self._run_and_snapshot(cluster)
        assert seen["backend"] == "cluster"
        assert seen["round"] >= 0
        assert seen["num_workers"] == 2  # an int count, as on process
        assert isinstance(seen["queue_lengths"], dict)
        # Torn down with the run, exactly like the tracer.
        assert cluster.status_address is None

    def test_static_backend_serves_live_status(self):
        """The §2 strawman is the same coordinator with balancing off, so
        it honours ``status_listen`` too."""
        cluster = self._build(static=True)
        seen = self._run_and_snapshot(cluster)
        assert seen["backend"] == "static"
        assert seen["num_workers"] == 2
        assert cluster.status_address is None

    def test_status_document_is_the_round_record(self, tmp_path):
        """The live status is the last ``round_completed`` payload plus the
        backend and the snapshot's age -- one record, not a third rendering
        of the round."""
        path = tmp_path / "t.jsonl"
        cluster = self._build()
        seen = {}

        def hook(round_index, cl):
            if round_index == 2:
                seen.update(read_status(cl.status_address))

        cluster.round_hook = hook
        cluster.run(max_rounds=10, trace_path=str(path))
        assert seen["round"] == 1  # the round that closed before the hook
        payload = next(e for e in load_trace(str(path))
                       if e["event"] == "round_completed" and e["round"] == 1)
        for envelope in ("seq", "ts", "event", "run"):
            del payload[envelope]
        assert seen == dict(payload, backend="cluster",
                            updated=seen["updated"])

    def test_no_listener_without_status_listen(self):
        test = SymbolicTest("branchy", branchy_program(2))
        cluster = test.build_cluster(ClusterConfig(num_workers=2))
        assert cluster.status_address is None
        cluster.run(max_rounds=5)
        assert cluster.status_address is None


class TestBadStatusListen:
    """A ``status_listen`` that does not parse fails the run before any
    round, and whatever the run had opened is closed again."""

    @pytest.mark.parametrize("address", ["nonsense", "127.0.0.1:99999"])
    @pytest.mark.parametrize("backend", ["cluster", "tcp"])
    def test_run_leaves_nothing_open(self, backend, address, tmp_path):
        if backend == "tcp":
            cluster = TcpCloud9Cluster(
                "printf", {"format_length": 2},
                config=TcpClusterConfig(num_workers=2,
                                        spawn_local_agents=True,
                                        status_listen=address))
            assert cluster.listen_address is not None
        else:
            test = SymbolicTest("branchy", branchy_program(2))
            cluster = test.build_cluster(
                ClusterConfig(num_workers=2, status_listen=address))
        with pytest.raises(ValueError, match="bad"):
            cluster.run(max_rounds=3, trace_path=str(tmp_path / "t.jsonl"))
        assert cluster.tracer is NULL_TRACER
        assert cluster.status_address is None
        if backend == "tcp":
            assert cluster.listen_address is None
