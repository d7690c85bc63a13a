"""Bug reports produced by the engine.

Cloud9 inherits KLEE's detectors (memory errors, failed assertions) and adds
two hang detectors (§7.3.6): a deadlock check (all symbolic threads asleep)
and a per-path instruction threshold for infinite loops / livelocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.engine.test_case import TestCase


class BugKind(enum.Enum):
    ASSERTION_FAILURE = "assertion_failure"
    MEMORY_ERROR = "memory_error"
    DIVISION_BY_ZERO = "division_by_zero"
    DEADLOCK = "deadlock"
    INFINITE_LOOP = "infinite_loop"
    ABORT = "abort"
    INVALID_FREE = "invalid_free"
    STACK_OVERFLOW = "stack_overflow"


@dataclass
class BugReport:
    """A bug found along one execution path."""

    kind: BugKind
    message: str
    state_id: int
    line: Optional[int] = None
    function: Optional[str] = None
    test_case: Optional[TestCase] = None

    def summary(self) -> str:
        location = ""
        if self.function is not None:
            location = " in %s" % self.function
            if self.line is not None:
                location += " (line %d)" % self.line
        return "[%s]%s: %s" % (self.kind.value, location, self.message)

    def __str__(self) -> str:
        return self.summary()
