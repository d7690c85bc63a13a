"""Execution-tree overlays; concretely, the global coverage bit vector.

Section 3.3: "Global strategies are implemented in Cloud9 using its interface
for building overlays on the execution tree structure. [...] coverage is
represented as a bit vector, with one bit for every line of code [...] The
current version of the bit vector is piggybacked on the status updates sent
to the load balancer.  The LB maintains the current global coverage vector
and, when it receives an updated coverage bit vector, ORs it into the current
global coverage.  The result is then sent back to the worker, which in turn
ORs this global bit vector into its own."

One book per level: a member reports its explorer's ``covered_lines`` and
hands the merged vector to its strategy's ``notify_covered``; the
:class:`CoverageOverlay` is the run's coverage, which the round record, the
coverage goal, the checkpoint and the final result all read.
"""

from __future__ import annotations

from typing import Set

from repro.engine.coverage import CoverageBitVector


class CoverageOverlay:
    """The load-balancer side of the coverage overlay: the run's coverage."""

    def __init__(self, line_count: int) -> None:
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
