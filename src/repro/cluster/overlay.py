"""Execution-tree overlays; concretely, the global coverage bit vector.

Section 3.3: "Global strategies are implemented in Cloud9 using its interface
for building overlays on the execution tree structure. [...] coverage is
represented as a bit vector, with one bit for every line of code [...] The
current version of the bit vector is piggybacked on the status updates sent
to the load balancer.  The LB maintains the current global coverage vector
and, when it receives an updated coverage bit vector, ORs it into the current
global coverage.  The result is then sent back to the worker, which in turn
ORs this global bit vector into its own."
"""

from __future__ import annotations

from typing import Iterable, Set

from repro.engine.coverage import CoverageBitVector


class CoverageOverlay:
    """The load-balancer side of the coverage overlay."""

    def __init__(self, line_count: int):
        self.line_count = line_count
        self.global_vector = CoverageBitVector(line_count)

    def merge_from_worker(self, worker_bits: int) -> int:
        """OR a worker's vector into the global one; return the merged bits."""
        incoming = CoverageBitVector(self.line_count, worker_bits)
        self.global_vector.or_with(incoming)
        return self.global_vector.as_int()

    @property
    def covered_count(self) -> int:
        return self.global_vector.count()

    @property
    def coverage_percent(self) -> float:
        return self.global_vector.percent()

    def covered_lines(self) -> Set[int]:
        return self.global_vector.covered_lines()


class WorkerCoverageView:
    """The worker side: local coverage plus the last global vector received."""

    def __init__(self, line_count: int):
        self.line_count = line_count
        self.local = CoverageBitVector(line_count)
        self.global_view = CoverageBitVector(line_count)

    def cover(self, lines: Iterable[int]) -> None:
        for line in lines:
            self.local.set(line)

    def snapshot_bits(self) -> int:
        """Bits to piggyback on the next status update."""
        return self.local.as_int()

    def merge_global(self, bits: int) -> Set[int]:
        """OR the LB's merged vector into the local view; return new lines.

        "New" means new *to this worker*: lines the load balancer learned
        from other workers that are neither in our local vector nor in any
        global vector received before.  (An earlier version ORed ``local``
        into ``global_view`` before comparing counts, so purely local growth
        was misreported as LB-driven change while the returned line set --
        computed against ``local`` only -- could simultaneously be empty.)
        """
        incoming = CoverageBitVector(self.line_count, bits)
        known = self.global_view.union(self.local)
        new_lines = incoming.difference(known).covered_lines()
        self.global_view.or_with(incoming)
        return new_lines

    def known_covered(self) -> Set[int]:
        return self.global_view.union(self.local).covered_lines()
