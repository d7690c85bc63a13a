"""Uniform exploration limits shared by every execution backend.

Switching a test between the single engine and a cluster must not mean
re-plumbing every knob, so :class:`ExplorationLimits` is the single bag of
budgets and goals accepted by
:meth:`repro.engine.executor.SymbolicExecutor.run`,
:meth:`repro.distrib.coordinator.Coordinator.run` (under every cluster
backend) and :meth:`repro.testing.symbolic_test.SymbolicTest.run` on every
backend.  Each of them takes a
``limits=`` bundle plus loose limit fields as keyword arguments, merged in
one place: :meth:`ExplorationLimits.pop_from` (a loose field wins).

A backend applies every limit that is meaningful for it and ignores the
rest (``max_steps`` only bounds single-engine scheduling steps; ``max_rounds``
only bounds cluster virtual-time rounds).  ``None`` always means "unlimited".

The module lives under :mod:`repro.engine` (dependency-free, importable by
every layer).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

__all__ = ["ExplorationLimits", "UNLIMITED"]


@dataclass(frozen=True)
class ExplorationLimits:
    """Budgets and goals of one exploration run.

    Budgets (stop when exceeded):

    * ``max_steps`` -- scheduling/instruction steps of the single engine.
    * ``max_rounds`` -- virtual-time rounds of a cluster run.
    * ``max_instructions`` -- total instructions executed (useful + replay
      on clusters).
    * ``max_wall_time`` -- wall-clock seconds.

    Goals (stop when reached, marking the run successful):

    * ``max_paths`` -- complete this many paths.
    * ``coverage_target`` -- reach this line-coverage percentage.
    * ``stop_on_first_bug`` -- stop as soon as any bug is reported.

    Run settings (neither budget nor goal):

    * ``trace_path`` -- write a structured JSONL event trace of the run to
      this file (:mod:`repro.obs.trace`); ``None`` disables tracing
      entirely (the no-op tracer, zero overhead).
    """

    max_steps: Optional[int] = None
    max_paths: Optional[int] = None
    max_instructions: Optional[int] = None
    max_rounds: Optional[int] = None
    max_wall_time: Optional[float] = None
    coverage_target: Optional[float] = None
    stop_on_first_bug: bool = False
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_paths", "max_instructions", "max_rounds"):
            value = getattr(self, name)
            if value is not None and int(value) < 0:
                raise ValueError("%s must be non-negative, got %r" % (name, value))
        if self.max_wall_time is not None and self.max_wall_time < 0:
            raise ValueError("max_wall_time must be non-negative")
        if self.coverage_target is not None and not (0.0 <= self.coverage_target <= 100.0):
            raise ValueError("coverage_target must be a percentage in [0, 100]")

    # -- construction helpers ---------------------------------------------------------

    @classmethod
    def field_names(cls) -> tuple:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def pop_from(cls, options: Dict[str, object],
                 base: Optional["ExplorationLimits"] = None,
                 strict: bool = False) -> "ExplorationLimits":
        """Extract limit fields from a kwargs dict, merging over ``base``.

        Mutates ``options`` (pops the recognized keys) so the caller can pass
        the remainder to the backend as backend-specific options; an entry
        point with nothing to forward to passes ``strict``, which takes
        every key and so makes an unrecognized one a ``TypeError`` naming it.
        """
        names = list(options) if strict else [
            name for name in cls.field_names() if name in options]
        return (base or UNLIMITED).merged(
            **{name: options.pop(name) for name in names})

    def merged(self, **overrides: Any) -> "ExplorationLimits":
        """A copy with the given fields replaced."""
        unknown = set(overrides) - set(self.field_names())
        if unknown:
            raise TypeError("unknown limit field(s): %s" % ", ".join(sorted(unknown)))
        return replace(self, **overrides)

    # -- introspection ----------------------------------------------------------------

    @property
    def unbounded(self) -> bool:
        """True when no budget or goal is set (pure exhaustive exploration).

        ``trace_path`` is a run setting, not a budget: a traced run with no
        limits is still unbounded."""
        return all(getattr(self, f.name) in (None, False) for f in fields(self)
                   if f.name != "trace_path")

    def satisfied_by(self, paths_completed: int, coverage_percent: float,
                     bug_count: int) -> bool:
        """Whether any *goal* (not budget) is met by the given outcome."""
        if self.max_paths is not None and paths_completed >= self.max_paths:
            return True
        if self.coverage_target is not None and coverage_percent >= self.coverage_target:
            return True
        if self.stop_on_first_bug and bug_count > 0:
            return True
        return False

    def as_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __repr__(self) -> str:
        set_fields = ", ".join(
            "%s=%r" % (f.name, getattr(self, f.name))
            for f in fields(self) if getattr(self, f.name) not in (None, False))
        return "ExplorationLimits(%s)" % (set_fields or "unbounded")


#: Shared "no limits at all" instance (the dataclass is frozen, so safe).
UNLIMITED = ExplorationLimits()
