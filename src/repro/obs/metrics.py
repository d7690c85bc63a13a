"""The one shared metrics primitive: a bounded :class:`Histogram`.

Counters are plain ``int`` fields on the object that bumps them
(``SolverStats``, ``CacheStats``, ``WorkerStats``, the executor's
``total_instructions``/``paths_completed``); cross-cutting views read them
off :class:`~repro.engine.result.RunResult` and the trace.  What those
fields cannot hold is a distribution, and that is all this module keeps:
:class:`Histogram` records count/total/min/max plus a small bounded,
deterministically-decimated sample reservoir, so percentile queries
(p50/p99 for solver latency and round wall time) cost O(1) memory, and
per-worker histograms merge into one run-level distribution
(``StatusReply.latency``, on a full report).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["Histogram"]


@dataclass(eq=False)
class Histogram:
    """Bounded distribution summary: count, total, min, max, percentiles.

    Exact count/total/min/max plus a sample reservoir capped at
    :attr:`SAMPLE_LIMIT`: when full it is decimated by dropping every
    other retained sample and doubling the keep-stride, so long runs keep
    a deterministic, evenly-spaced subsample (no RNG -- replay-safe) at
    O(1) memory.  Percentiles are computed from the reservoir; with up to
    ``SAMPLE_LIMIT`` samples they are exact, beyond that approximate.
    """

    SAMPLE_LIMIT = 512

    name: str
    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    #: The reservoir, and how many observations each retained sample stands
    #: for.  Fields like the rest, so a histogram crosses the wire by field.
    _samples: List[float] = field(default_factory=list)
    _stride: int = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > self.SAMPLE_LIMIT:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (0..100) from the retained samples.

        Linear interpolation between closest ranks; ``None`` when nothing
        has been observed yet.
        """
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (max(0.0, min(100.0, q)) / 100.0) * (len(ordered) - 1)
        lower = int(rank)
        upper = min(lower + 1, len(ordered) - 1)
        fraction = rank - lower
        return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Used by the in-process coordinator to aggregate per-worker solver
        latency into one run-level distribution.
        """
        if other.count == 0:
            return
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        self._samples.extend(other._samples)
        while len(self._samples) > self.SAMPLE_LIMIT:
            self._samples = self._samples[::2]
            self._stride *= 2

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name} n={self.count} mean={self.mean:.3g})"
