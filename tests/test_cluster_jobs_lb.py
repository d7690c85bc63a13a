"""Unit tests for job encoding, the load balancer and overlays."""

import pytest

from repro.cluster.jobs import Job, JobTree
from repro.cluster.load_balancer import LoadBalancer, TransferCommand
from repro.cluster.overlay import CoverageOverlay
from repro.engine.strategies import CoverageOptimizedStrategy

from hypothesis import given, settings, strategies as st


class TestJobTree:
    def test_roundtrip(self):
        jobs = [Job((0, 1, 0)), Job((0, 1, 1)), Job((1,))]
        tree = JobTree.from_jobs(jobs)
        assert sorted(j.path for j in tree.jobs()) == sorted(j.path for j in jobs)

    def test_encode_decode(self):
        jobs = [Job((0, 0)), Job((0, 1)), Job((2, 0, 1))]
        tree = JobTree.from_jobs(jobs)
        decoded = JobTree.decode(tree.encode())
        assert decoded.jobs() == tree.jobs()

    def test_prefix_sharing_reduces_size(self):
        jobs = [Job((0, 1, 2, 3, i)) for i in range(8)]
        tree = JobTree.from_jobs(jobs)
        assert tree.encoded_size() < JobTree.naive_size(jobs)

    def test_empty_tree(self):
        tree = JobTree()
        assert len(tree) == 0
        assert tree.jobs() == []

    def test_len_counts_terminals(self):
        tree = JobTree.from_jobs([Job((0,)), Job((0, 1))])
        assert len(tree) == 2

    @settings(max_examples=50)
    @given(paths=st.lists(st.lists(st.integers(min_value=0, max_value=3),
                                   min_size=1, max_size=6),
                          min_size=1, max_size=10))
    def test_roundtrip_property(self, paths):
        jobs = [Job(tuple(p)) for p in paths]
        tree = JobTree.from_jobs(jobs)
        assert {j.path for j in JobTree.decode(tree.encode()).jobs()} == \
            {j.path for j in jobs}


class TestLoadBalancer:
    def _lb_with_queues(self, queues, delta=1.0):
        lb = LoadBalancer(line_count=10, delta=delta)
        for worker_id, length in queues.items():
            lb.register_worker(worker_id)
            lb.receive_status(worker_id, length, 0, 0)
        return lb

    def test_classification(self):
        lb = self._lb_with_queues({1: 100, 2: 0, 3: 50, 4: 55})
        underloaded, ok, overloaded = lb.classify()
        assert 2 in underloaded
        assert 1 in overloaded

    def test_balance_pairs_extremes(self):
        lb = self._lb_with_queues({1: 100, 2: 0, 3: 50, 4: 52})
        commands = lb.balance()
        assert commands
        command = commands[0]
        assert command.source == 1 and command.destination == 2
        assert command.job_count == 50

    def test_balance_idle_worker_without_statistical_overload(self):
        # With two workers sigma is large: the paper's formula alone never
        # classifies the loaded worker as overloaded, but an idle worker must
        # still receive work.
        lb = self._lb_with_queues({1: 40, 2: 0})
        commands = lb.balance()
        assert len(commands) == 1
        assert commands[0] == TransferCommand(source=1, destination=2, job_count=20)

    def test_no_balance_when_even(self):
        lb = self._lb_with_queues({1: 10, 2: 10, 3: 10})
        assert lb.balance() == []

    def test_no_balance_for_single_worker(self):
        lb = self._lb_with_queues({1: 50})
        assert lb.balance() == []

    def test_balance_respects_min_transfer(self):
        lb = self._lb_with_queues({1: 1, 2: 0})
        assert lb.balance() == []

    def test_transfer_log_records_rounds(self):
        lb = self._lb_with_queues({1: 100, 2: 0})
        lb.balance(round_index=7)
        assert lb.transfer_log[0][0] == 7

    def test_total_queue_length(self):
        lb = self._lb_with_queues({1: 5, 2: 9})
        assert lb.total_queue_length() == 14

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            LoadBalancer(line_count=10, delta=0)

    def test_double_balance_does_not_reissue_transfers(self):
        # balance() must adjust its cached queue lengths by the issued job
        # counts: calling it again before fresh status reports arrive used to
        # re-issue the identical transfer and double-drain the source.
        lb = self._lb_with_queues({1: 40, 2: 0})
        first = lb.balance()
        assert first == [TransferCommand(source=1, destination=2, job_count=20)]
        assert lb.reports[1].queue_length == 20
        assert lb.reports[2].queue_length == 20
        assert lb.balance() == []

    def test_balance_estimates_overwritten_by_fresh_status(self):
        lb = self._lb_with_queues({1: 40, 2: 0})
        lb.balance()
        # The source worker reports again (it gave jobs away but also forked
        # new states); ground truth replaces the in-flight estimate.
        lb.receive_status(1, 35, 0, 0)
        lb.receive_status(2, 0, 0, 0)
        commands = lb.balance()
        assert commands == [TransferCommand(source=1, destination=2,
                                            job_count=17)]

    def test_double_balance_many_workers_conserves_total(self):
        lb = self._lb_with_queues({1: 90, 2: 0, 3: 45, 4: 0})
        total_before = lb.total_queue_length()
        for _ in range(3):
            lb.balance()
        assert lb.total_queue_length() == total_before
        assert all(r.queue_length >= 0 for r in lb.reports.values())

    def test_coverage_merging_through_status(self):
        lb = LoadBalancer(line_count=8)
        lb.register_worker(1)
        lb.register_worker(2)
        merged = lb.receive_status(1, 3, 0, 0b0011)
        assert merged == 0b0011
        merged = lb.receive_status(2, 3, 0, 0b1100)
        assert merged == 0b1111
        assert lb.overlay.covered_count == 4


class TestCoverageOverlay:
    def test_global_merge(self):
        overlay = CoverageOverlay(line_count=8)
        overlay.merge_from_worker(0b0011)
        merged = overlay.merge_from_worker(0b0100)
        assert merged == 0b0111
        assert overlay.covered_count == 3
        assert overlay.covered_lines() == {0, 1, 2}

    def test_known_lines_leave_a_strategy_unchanged(self):
        """A member tells its strategy the whole merged vector every round;
        lines it knows already, its own included, must change nothing."""
        strategy = CoverageOptimizedStrategy()
        strategy.notify_covered({0, 1})
        strategy._weights[("main", 0)] = 16
        strategy.notify_covered({0, 1})
        assert strategy._weights == {("main", 0): 16}
        strategy.notify_covered({0, 1, 2})
        assert strategy._weights == {}

    def test_merge_is_monotone(self):
        overlay = CoverageOverlay(line_count=8)
        overlay.merge_from_worker(0b1)
        before = overlay.covered_count
        overlay.merge_from_worker(0b1)
        assert overlay.covered_count == before
