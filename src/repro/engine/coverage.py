"""Line-coverage bit vectors.

Coverage in Cloud9 is represented as a bit vector with one bit per line of
code (§3.3).  Workers OR their local vector into the global one held by the
load balancer, which sends the merged vector back.  The same representation
is used by the coverage-optimized search strategy and by the evaluation
harness (Table 5, Figures 8 and 11).
"""

from __future__ import annotations

from typing import Annotated, Iterable, Set

#: A vector's bits packed into an int (:meth:`CoverageBitVector.as_int`), as
#: messages and checkpoints carry it.  Marked so serializers write it as hex:
#: one bit per line outgrows a decimal JSON integer.
CoverageBits = Annotated[int, "hex"]


class CoverageBitVector:
    """A fixed-size bit vector over program line numbers."""

    __slots__ = ("size", "_bits")

    def __init__(self, size: int, bits: int = 0):
        if size < 0:
            raise ValueError("coverage vector size must be non-negative")
        self.size = size
        self._bits = bits & ((1 << size) - 1) if size else 0

    @classmethod
    def from_lines(cls, size: int, lines: Iterable[int]) -> "CoverageBitVector":
        vector = cls(size)
        for line in lines:
            vector.set(line)
        return vector

    def set(self, line: int) -> None:
        if 0 <= line < self.size:
            self._bits |= 1 << line

    def or_with(self, other: "CoverageBitVector") -> "CoverageBitVector":
        """In-place OR (the LB-side merge); returns self for chaining."""
        if other.size != self.size:
            raise ValueError("coverage vector size mismatch: %d vs %d"
                             % (self.size, other.size))
        self._bits |= other._bits
        return self

    def count(self) -> int:
        return bin(self._bits).count("1")

    def percent(self) -> float:
        """Covered fraction of the program, in percent."""
        return 100.0 * self.count() / self.size if self.size else 0.0

    def covered_lines(self) -> Set[int]:
        return {i for i in range(self.size) if self._bits >> i & 1}

    def as_int(self) -> int:
        """The raw bits, e.g. for piggybacking on a status-update message."""
        return self._bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageBitVector):
            return NotImplemented
        return self.size == other.size and self._bits == other._bits

    def __repr__(self) -> str:
        return "CoverageBitVector(%d/%d lines)" % (self.count(), self.size)
