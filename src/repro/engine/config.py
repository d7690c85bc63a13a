"""Engine configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass
class EngineConfig:
    """Limits and policies for a single symbolic execution engine instance.

    The defaults mirror what the paper's experiments rely on:

    * ``max_instructions_per_path`` implements the hang/infinite-loop
      detector of §7.3.3 (memcached UDP bug): a path that exceeds the limit
      is terminated with an ``infinite_loop`` bug report.
    * ``fork_on_schedule`` enables forking the state for every possible next
      thread at scheduling points (§4.2), useful for concurrency bugs but a
      significant source of path explosion, hence off by default.

    What bounds an exploration (steps, paths, instructions, wall time) is a
    per-run :class:`~repro.engine.limits.ExplorationLimits`, not a knob here.
    """

    max_instructions_per_path: Optional[int] = None
    max_call_depth: int = 256
    fork_on_schedule: bool = False
    detect_deadlocks: bool = True

    def copy(self) -> "EngineConfig":
        return replace(self)
