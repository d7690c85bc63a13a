"""Path replay: materializing virtual nodes received in jobs.

Section 3.2: when a strategy selects a virtual node, "the corresponding path
in the job tree is replayed (i.e., the symbolic execution engine executes
that path); at the end of this replay, all nodes along the path are dead,
except the leaf node, which has converted from virtual to materialized [...]
while exploring the chosen job path, each branch produces child program
states; any such state that is not part of the path is marked as a fence
node, because it represents a node that is being explored elsewhere".

:func:`replay_path` is that re-execution and nothing more: it steps the state
it is handed -- a worker passes a fork of its pristine initial state (see
:meth:`Worker._materialize <repro.cluster.worker.Worker._materialize>`) --
along the path and reports what it found.  Between two forks the path is a
straight line, and one :meth:`SymbolicExecutor.step
<repro.engine.executor.SymbolicExecutor.step>` runs it; ``MAX_REPLAY_STEPS``
still counts one step per instruction or scheduling decision, so a broken
replay breaks on the step it broke on one instruction at a time.  Whatever
the steps produced is replay work, not results: the caller books it from
the executor's instruction and solver counters.

Section 6 ("Broken Replays"): a replay is *broken* when the destination
cannot reconstruct the state -- the path diverges or terminates prematurely.
The per-state deterministic allocator and deterministic symbol naming make
this rare, but the code still detects and reports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.engine.executor import SymbolicExecutor
from repro.engine.state import ExecutionState

#: A replay that takes more steps than this is broken (a path that loops
#: without ever reaching its next fork).
MAX_REPLAY_STEPS = 1_000_000


@dataclass
class ReplayOutcome:
    """Result of replaying one job path."""

    state: Optional[ExecutionState]
    instructions: int = 0
    broken: bool = False
    reason: str = ""
    # Off-path sibling states discovered during replay, as (path, state); they
    # correspond to subtrees being explored elsewhere and become fence nodes.
    fence_states: List[Tuple[Tuple[int, ...], ExecutionState]] = field(default_factory=list)

    def fail(self, reason: str) -> "ReplayOutcome":
        self.broken = True
        self.reason = reason
        return self


def replay_path(executor: SymbolicExecutor, state: ExecutionState,
                path: Sequence[int]) -> ReplayOutcome:
    """Re-execute ``path`` from ``state`` (which it steps, so hand it a
    fork) and return the materialized state."""
    outcome = ReplayOutcome(state=None)
    remaining = list(path)
    prefix: List[int] = []
    steps = 0

    while remaining:
        if not state.is_running:
            return outcome.fail("path terminated prematurely with %d fork "
                                "points left" % len(remaining))
        if steps >= MAX_REPLAY_STEPS:
            return outcome.fail("replay exceeded %d steps" % MAX_REPLAY_STEPS)

        result = executor.step(state, MAX_REPLAY_STEPS - steps)
        steps += result.instructions or 1
        outcome.instructions += result.instructions

        children = result.children
        if not children:
            return outcome.fail("state vanished during replay")
        if len(children) == 1:
            state = children[0]
            continue

        index = remaining.pop(0)
        if index >= len(children):
            return outcome.fail("divergence: fork produced %d children, path "
                                "wants %d" % (len(children), index))
        for sibling_index, sibling in enumerate(children):
            if sibling_index == index:
                continue
            if sibling.is_running:
                outcome.fence_states.append(
                    (tuple(prefix + [sibling_index]), sibling))
        prefix.append(index)
        state = children[index]

    outcome.state = state
    if not state.is_running:
        # The final node of the path exists but its state already terminated;
        # nothing is left to explore there.
        return outcome.fail("replayed state is terminal")
    return outcome
