"""``Histogram`` (the one shared metrics primitive) and the stats classes
whose counters are plain dataclass fields."""

import dataclasses
import pickle

import pytest

from repro.cluster.jobs import JobTree
from repro.cluster.stats import WorkerStats
from repro.distrib.messages import StatusReply
from repro.net.framing import FrameDecoder, decode_message, encode_message
from repro.obs.metrics import Histogram
from repro.solver.cache import CacheStats
from repro.solver.solver import SolverStats


class TestPrimitives:
    def test_histogram(self):
        h = Histogram("lat")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_empty_histogram_summary(self):
        assert Histogram("e").summary() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}

    def test_merge_past_the_sample_limit_stays_bounded_and_exact(self):
        n = Histogram.SAMPLE_LIMIT * 3
        low, high = Histogram("low"), Histogram("high")
        for i in range(n):
            low.observe(float(i))
            high.observe(float(n + i))
        low.merge_from(high)
        assert len(low._samples) <= Histogram.SAMPLE_LIMIT
        assert low.count == 2 * n
        assert low.total == float(sum(range(2 * n)))
        assert (low.min, low.max) == (0.0, float(2 * n - 1))
        assert 0.0 <= low.percentile(50.0) <= low.percentile(99.0) <= low.max


class TestStatsViews:
    def test_solver_stats_equality_and_kwargs(self):
        s = SolverStats(queries=3, cache_hits=1)
        assert s.queries == 3 and s.cache_hits == 1
        assert s.snapshot()["queries"] == 3
        assert s == SolverStats(queries=3, cache_hits=1)
        with pytest.raises(TypeError):
            SolverStats(bogus=1)

    def test_cache_stats_shapes(self):
        s = CacheStats(hits=2, misses=3)
        assert s.lookups == 5
        assert s.hit_rate == pytest.approx(0.4)
        assert s == CacheStats(hits=2, misses=3)

    def test_worker_stats_pickles_and_compares(self):
        stats = WorkerStats(worker_id=7)
        stats.useful_instructions += 10
        stats.transfers = 2
        clone = pickle.loads(pickle.dumps(stats))
        assert clone == stats
        assert clone.worker_id == 7
        assert clone.useful_instructions == 10
        clone.replays += 1  # the copy is still mutable
        assert clone != stats
        with pytest.raises(TypeError):
            WorkerStats(worker_id=1, bogus=1)

        # The real wire: inside a full StatusReply, through the frame codec.
        latency = Histogram("solver_query_seconds")
        latency.observe(0.25)
        reply = StatusReply(worker_id=7, queue_length=0, coverage_bits=0b101,
                            bugs_found=0, stats=stats, cache_counters={},
                            frontier=JobTree().encode(), bugs=(), test_cases=(),
                            latency=latency)
        (payload,) = FrameDecoder().feed(encode_message(reply))
        decoded = decode_message(payload)
        assert decoded.stats == stats
        assert decoded.stats.as_dict() == stats.as_dict()
        assert decoded.latency.summary() == latency.summary()
        assert dataclasses.replace(decoded, latency=latency) == reply
