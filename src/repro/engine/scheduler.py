"""Cooperative thread/process scheduling inside one execution state.

Section 4.2: "Cloud9 implements a cooperative scheduler: an enabled thread
runs uninterrupted (atomically), until either (a) the thread goes to sleep;
(b) the thread is explicitly preempted ...; or (c) the thread is terminated."
Scheduling decisions can either be deterministic (a policy picks the next
thread) or fork the execution state once per runnable thread, which is how
the testing platform explores thread interleavings (§5.1 "Symbolic
Scheduler").

Schedule forking is one state option, ``state.options["fork_schedules"]``:
a test sets it in its ``options``, and ``cloud9_set_scheduler`` writes it
mid-path.  It finds concurrency bugs but is a large source of path
explosion, hence off by default.

If no thread can be scheduled when the current thread goes to sleep, a hang
(deadlock) is detected and the state is terminated with a bug report.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.engine.errors import BugKind, BugReport
from repro.engine.state import ExecutionState, Thread, ThreadStatus

# Scheduling policies selectable through cloud9_set_scheduler (Table 2).
POLICY_ROUND_ROBIN = "round_robin"
POLICY_FORK_ALL = "fork_all"                  # exhaustive interleaving exploration
POLICY_CONTEXT_BOUNDED = "context_bounded"    # iterative context bounding variant


class ScheduleDecision:
    """The outcome of a scheduling point.

    ``choices`` lists the (pid, tid) pairs that may run next.  With a
    deterministic policy it has exactly one element; with schedule forking it
    has one element per runnable thread and the interpreter forks the state
    accordingly.  ``deadlock`` is set when nothing can run but live threads
    remain asleep.
    """

    __slots__ = ("choices", "deadlock", "all_exited")

    def __init__(self, choices: List[Tuple[int, int]], deadlock: bool = False,
                 all_exited: bool = False):
        self.choices = choices
        self.deadlock = deadlock
        self.all_exited = all_exited


class CooperativeScheduler:
    """Chooses the next thread to run within a state."""

    def runnable(self, state: ExecutionState) -> List[Thread]:
        return [t for t in state.all_threads() if t.status == ThreadStatus.ENABLED]

    def decide(self, state: ExecutionState) -> ScheduleDecision:
        """Compute the set of possible next threads for a state."""
        runnable = self.runnable(state)
        if not runnable:
            live = state.live_threads()
            if live:
                return ScheduleDecision([], deadlock=True)
            return ScheduleDecision([], all_exited=True)

        policy = state.options.get("scheduler_policy", POLICY_ROUND_ROBIN)
        fork = state.options.get("fork_schedules", False)
        ordered = self._order(state, runnable, policy)
        if fork and len(ordered) > 1:
            bound = state.options.get("context_bound")
            if policy == POLICY_CONTEXT_BOUNDED and bound is not None:
                used = state.options.get("preemptions_used", 0)
                if used >= int(bound):
                    # Out of preemption budget: stick with the first choice.
                    return ScheduleDecision([(ordered[0].pid, ordered[0].tid)])
            return ScheduleDecision([(t.pid, t.tid) for t in ordered])
        return ScheduleDecision([(ordered[0].pid, ordered[0].tid)])

    def _order(self, state: ExecutionState, runnable: List[Thread],
               policy: str) -> List[Thread]:
        """Deterministic ordering of runnable threads for a policy."""
        by_id = sorted(runnable, key=lambda t: (t.pid, t.tid))
        if policy in (POLICY_ROUND_ROBIN, POLICY_CONTEXT_BOUNDED):
            current = state.current
            if current is not None:
                # Round robin: start from the thread after the current one.
                later = [t for t in by_id if (t.pid, t.tid) > current]
                earlier = [t for t in by_id if (t.pid, t.tid) <= current]
                return later + earlier
        return by_id

    def apply(self, state: ExecutionState, choice: Tuple[int, int]) -> None:
        """Switch the state's current thread to ``choice``."""
        previous = state.current
        state.current = choice
        if previous is not None and previous != choice:
            state.options["preemptions_used"] = (
                int(state.options.get("preemptions_used", 0)) + 1)

    def deadlock_report(self, state: ExecutionState) -> BugReport:
        sleeping = [(t.pid, t.tid) for t in state.live_threads()]
        return BugReport(
            kind=BugKind.DEADLOCK,
            message="hang detected: no runnable thread, sleeping threads: %s"
                    % (sleeping,),
            state_id=state.state_id,
        )
