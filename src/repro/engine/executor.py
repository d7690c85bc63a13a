"""The single-node symbolic execution engine (KLEE analogue).

:class:`SymbolicExecutor` ties together the interpreter, the cooperative
scheduler, the native-function registry and the execution tree.  It exposes
two levels of API:

* :meth:`SymbolicExecutor.step` -- execute one scheduling decision, or up to
  ``budget`` instructions of one state's straight line (one by default),
  returning all resulting states and, on the :class:`StepResult`,
  everything the step produced (the executed lines and, when a path ended,
  the terminated states, bugs and test cases).
  Exploration steps through
  :meth:`repro.engine.explorer.Explorer.step_node`; replay and the static
  bootstrap call it directly.
* :meth:`SymbolicExecutor.run` -- a complete single-node exploration with a
  search strategy and limits; this is what "1-worker Cloud9" (i.e. plain
  KLEE) uses in the evaluation.  It is limits and tracing around one
  :class:`~repro.engine.explorer.Explorer` -- the same tree, frontier, step
  and result counting a cluster worker (:mod:`repro.cluster.worker`) uses.

A step costs the same however long the path behind it is, and the executor
keeps no coverage: the lines a step ran are on its :class:`StepResult`, and
:attr:`Explorer.covered_lines
<repro.engine.explorer.Explorer.covered_lines>` is the one book of them.

A step is one pass.  ``step`` tests the state's status, its instruction
limit and its thread once, hands the thread to
:meth:`Interpreter.run_line <repro.engine.interpreter.Interpreter.run_line>`
-- the one loop that executes instructions, for every budget, one included
-- and books a child only when the child ended.  :meth:`Explorer.step_node
<repro.engine.explorer.Explorer.step_node>` handles the common result, the
node's own state still running, by telling the frontier that the state
moved.  Only forks and terminations reach ``Explorer._graft``.  ``run``
decides before its loop which limits are set; an unset one is never
checked.  Enum members are read from module constants (``RUNNING``,
``ENABLED``): on CPython 3.11 ``StateStatus.RUNNING`` inside a function
costs about ten global loads.

A step may run a straight line.  Under a sticky strategy (DFS, BFS: see
:attr:`SearchStrategy.sticky <repro.engine.strategies.SearchStrategy.sticky>`)
the node just stepped would be selected again after every instruction until
it forks or ends, so ``run`` hands ``step`` the largest budget that still
stops every limit on the step it stops on one instruction at a time, and
the select, the ``StepResult`` and the bookkeeping are paid once per line.
``steps`` still counts instructions.  Every other strategy, and a run with
a coverage target, steps one instruction at a time through the same code.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Union

from repro.engine.config import EngineConfig
from repro.engine.errors import BugKind, BugReport
from repro.engine.explorer import Explorer
from repro.engine.interpreter import Interpreter
from repro.engine.limits import ExplorationLimits
from repro.engine.natives import NativeRegistry
from repro.engine.result import RunResult, dedupe_bugs
from repro.engine.scheduler import CooperativeScheduler
from repro.engine.state import ENABLED, RUNNING, ExecutionState
from repro.engine.strategies import SearchStrategy, make_strategy
from repro.engine.syscalls import default_registry
from repro.engine.test_case import TestCase, generate_test_case
from repro.lang.ast import Program
from repro.lang.compiler import CompiledProgram, compile_program
from repro.obs import schema as trace_schema
from repro.obs.schema import RoundSnapshot
from repro.obs.trace import NULL_TRACER, Tracer, emit_solver_query
from repro.solver.cache import aggregate_cache_counters
from repro.solver.solver import Solver


#: The budget of a straight-line step that no limit caps.
_UNBOUNDED = 1 << 62


class StepResult:
    """Outcome of one step of one state.

    ``children`` is the ordered list of all resulting states (running or
    terminated); its order defines the fork indices used in job paths.
    ``line`` is the line of the last instruction the step executed, ``None``
    for a pure scheduling step, and ``instructions`` how many it executed.
    ``lines`` is ``None`` for a step that executed at most one instruction;
    a step that ran on holds every line it executed.
    ``terminated``/``bugs``/``test_cases`` are empty and shared until a path
    ends in this step.
    """

    __slots__ = ("children", "line", "lines", "instructions", "terminated",
                 "bugs", "test_cases")

    def __init__(self, children: List[ExecutionState],
                 line: Optional[int] = None) -> None:
        self.children = children
        self.line = line
        self.lines: Optional[Set[int]] = None
        self.instructions = 0 if line is None else 1
        self.terminated: Sequence[ExecutionState] = ()
        self.bugs: Sequence[BugReport] = ()
        self.test_cases: Sequence[TestCase] = ()

    @property
    def running(self) -> List[ExecutionState]:
        return [s for s in self.children if s.is_running]


class SymbolicExecutor:
    """A single-node symbolic execution engine for one compiled program."""

    def __init__(self, program: Union[Program, CompiledProgram],
                 config: Optional[EngineConfig] = None,
                 solver: Optional[Solver] = None,
                 natives: Optional[NativeRegistry] = None,
                 environment_installers: Sequence[Callable[["SymbolicExecutor"], None]] = ()):
        self.program = (program if isinstance(program, CompiledProgram)
                        else compile_program(program))
        self.config = config or EngineConfig()
        self.solver = solver or Solver()
        self.natives = natives or default_registry()
        self.scheduler = CooperativeScheduler(
            fork_schedules=self.config.fork_on_schedule)
        self.interpreter = Interpreter(self.solver, self.natives, self.config)
        self.interpreter.executor = self

        # Cumulative over every step this executor ever took (explorations,
        # replays, a bootstrap): worker status and the instruction accounting
        # read it.  What a run or a step found is on its ``RunResult`` or
        # ``StepResult``, never here.
        self.total_instructions = 0

        # Environment models (e.g. the POSIX model) register natives and
        # per-state initialization hooks through installers.
        self.state_initializers: List[Callable[[ExecutionState], None]] = []
        for installer in environment_installers:
            installer(self)

    # -- state construction -----------------------------------------------------------

    def make_initial_state(self, options: Optional[Dict[str, object]] = None
                           ) -> ExecutionState:
        """Create the initial state: main process + thread at the entry point."""
        state = ExecutionState(self.program)
        if options:
            state.options.update(options)
        state.create_main_process()
        for initializer in self.state_initializers:
            initializer(state)
        return state

    # -- stepping ---------------------------------------------------------------------

    def step(self, state: ExecutionState, budget: int = 1) -> StepResult:
        """Advance a state by one scheduling decision, or by up to ``budget``
        instructions of its current thread.

        A scheduling decision is always a step of its own.  Otherwise the
        step is one call of :meth:`Interpreter.run_line
        <repro.engine.interpreter.Interpreter.run_line>`: after the first
        instruction it runs on only while each one leaves the state its own
        only child, still running, and stops at the first of: a fork or
        termination; another current thread, or this one no longer enabled;
        ``force_reschedule`` set; the path's instruction limit reached (it
        is re-read after every instruction that may have changed it: a
        native may set it); ``budget`` instructions.  Each of those is where
        a one-instruction step would have done something else next.
        """
        if state.status is not RUNNING:
            return StepResult([])
        options = state.options

        # Per-path instruction limit: the infinite-loop/hang detector.
        default_limit = self.config.max_instructions_per_path
        limit = options.get("max_instructions", default_limit)
        if limit is not None and state.instructions_executed >= int(limit):
            return self._hung(state, int(limit))

        current = state.current
        if current is None or ("force_reschedule" in options
                               and options.pop("force_reschedule")):
            return self._schedule(state)
        thread = state.processes[current[0]].threads[current[1]]
        if thread.status is not ENABLED:
            return self._schedule(state)

        line, children, instructions, lines = self.interpreter.run_line(
            state, thread, budget, default_limit)
        result = StepResult(children, line)
        self.total_instructions += instructions
        if lines is not None:
            result.instructions = instructions
            result.lines = lines
        for child in children:
            if child.status is not RUNNING:
                self._finish_state(child, result)
        return result

    def _hung(self, state: ExecutionState, limit: int) -> StepResult:
        """End ``state``, which reached its instruction limit, as a hang.

        The current thread may have just returned from its bottom frame (a
        thread other than main, waiting for the scheduler): then the report
        names no function, as :meth:`Interpreter._terminate_error
        <repro.engine.interpreter.Interpreter._terminate_error>` does.
        """
        function = None
        if state.current and state.current_thread.stack:
            function = state.current_thread.top.function
        state.terminate_error(BugReport(
            kind=BugKind.INFINITE_LOOP,
            message="path exceeded %d instructions (possible hang)" % limit,
            state_id=state.state_id,
            function=function,
        ))
        return self._finished(state)

    def _finished(self, state: ExecutionState) -> StepResult:
        """The result of a step that ended ``state`` without executing."""
        result = StepResult([state])
        self._finish_state(state, result)
        return result

    def _schedule(self, state: ExecutionState) -> StepResult:
        decision = self.scheduler.decide(state)
        if decision.all_exited:
            exit_code = 0
            main_process = state.processes.get(1)
            if main_process is not None and main_process.exit_code is not None:
                exit_code = main_process.exit_code
            state.terminate(exit_code)
            return self._finished(state)
        if decision.deadlock:
            if self.config.detect_deadlocks:
                state.terminate_error(self.scheduler.deadlock_report(state))
            else:
                state.terminate(0)
            return self._finished(state)

        choices = decision.choices
        if len(choices) == 1:
            self.scheduler.apply(state, choices[0])
            return StepResult([state])

        # Schedule fork: one successor per runnable thread.  All clones are
        # taken from the unmodified state before any choice is applied.
        state.forks += 1
        children: List[ExecutionState] = [
            state if index == 0 else state.fork()
            for index in range(len(choices))
        ]
        for index, (choice, succ) in enumerate(zip(choices, children)):
            succ.fork_trace.append(index)
            self.scheduler.apply(succ, choice)
        return StepResult(children)

    def _finish_state(self, state: ExecutionState, result: StepResult) -> None:
        """Bookkeeping when a state reaches a terminal status."""
        if not result.terminated:
            result.terminated, result.bugs, result.test_cases = [], [], []
        result.terminated.append(state)
        error = state.error
        summary = error.summary() if error is not None else None
        test_case = generate_test_case(state, self.solver, error_summary=summary)
        if test_case is not None:
            result.test_cases.append(test_case)
            if error is not None:
                error.test_case = test_case
        if error is not None:
            result.bugs.append(error)

    # -- complete exploration -------------------------------------------------------------

    def run(self,
            initial_state: Optional[ExecutionState] = None,
            strategy: Optional[Union[str, SearchStrategy]] = None,
            limits: Optional[ExplorationLimits] = None,
            **limit_fields: object) -> RunResult:
        """Explore ``initial_state`` (``None``: the program's plain initial
        state) until exhaustion or until a limit/goal is reached.

        Limits come as an :class:`~repro.engine.limits.ExplorationLimits`
        bundle, as loose limit fields (``max_paths=...``), or both (a loose
        field wins); ``max_rounds`` has no meaning on a single engine and is
        ignored.
        """
        lim = ExplorationLimits.pop_from(limit_fields, base=limits, strict=True)
        tracer = Tracer(lim.trace_path) if lim.trace_path else NULL_TRACER
        try:
            return self._run(initial_state, strategy, lim, tracer)
        finally:
            tracer.close()

    def _run(self, initial_state: Optional[ExecutionState],
             strategy: Optional[Union[str, SearchStrategy]],
             lim: ExplorationLimits, tracer) -> RunResult:
        max_steps, max_paths = lim.max_steps, lim.max_paths
        max_instructions, max_wall_time = lim.max_instructions, lim.max_wall_time
        coverage_target, stop_on_first_bug = lim.coverage_target, lim.stop_on_first_bug
        state = (self.make_initial_state() if initial_state is None
                 else initial_state)

        if strategy is None:
            strategy = make_strategy("interleaved", program=self.program)
        elif isinstance(strategy, str):
            strategy = make_strategy(strategy, program=self.program)

        explorer = Explorer(self, strategy)
        explorer.seed_state(state)
        frontier = explorer.frontier
        bugs = explorer.bugs

        result = RunResult(backend="single", test_name=self.program.name,
                           line_count=self.program.line_count, steps=0)
        start = time.monotonic()
        instructions_at_start = self.total_instructions
        counters_at_start = self.solver.cache_counters()

        tracer.emit(trace_schema.RUN_STARTED, backend="single", workers=1,
                    test=self.program.name, line_count=result.line_count)
        # The single engine has no rounds; every ``trace_round`` steps it
        # emits a pseudo round so coverage-over-time still renders.
        trace_round = 256
        traced_rounds = 0
        traced_bugs = 0
        traced_prev_useful = 0

        # Decided once, here: a limit this run leaves unset is never checked.
        instruction_stop = (None if max_instructions is None
                            else instructions_at_start + max_instructions)
        line_count = result.line_count
        if not line_count:
            coverage_target = None
        other_limits = (max_steps is not None or stop_on_first_bug
                        or max_paths is not None or max_wall_time is not None
                        or coverage_target is not None)
        traced = tracer.enabled
        tree = explorer.tree
        steps = 0
        # A sticky strategy would pick the stepped node again until it forks
        # or ends, so a step may run its straight line -- as far as every
        # limit still stops on the step it stops on one instruction at a time.
        # A coverage target may be met on any line, so its run steps one
        # instruction at a time.
        sticky = strategy.sticky and coverage_target is None
        budget = 1

        while frontier:
            if instruction_stop is not None and (
                    self.total_instructions >= instruction_stop):
                break
            if other_limits and (
                    (max_steps is not None and steps >= max_steps)
                    or (stop_on_first_bug and bugs)
                    or (max_paths is not None
                        and explorer.paths_completed >= max_paths)
                    or (max_wall_time is not None
                        and time.monotonic() - start > max_wall_time)
                    or (coverage_target is not None
                        and 100.0 * len(explorer.covered_lines) / line_count
                        >= coverage_target)):
                break

            if sticky:
                budget = _UNBOUNDED
                if instruction_stop is not None:
                    budget = instruction_stop - self.total_instructions
                if max_steps is not None:
                    budget = min(budget, max_steps - steps)
                if traced:
                    budget = min(budget, trace_round - steps % trace_round)
                if max_wall_time is not None:
                    budget = min(budget, trace_round)
            steps += explorer.step_node(strategy.select(tree, frontier),
                                        budget).instructions or 1

            if traced:
                while len(bugs) > traced_bugs:
                    bug = bugs[traced_bugs]
                    traced_bugs += 1
                    tracer.emit(trace_schema.BUG_FOUND, kind=bug.kind.name,
                                message=bug.message)
                if steps % trace_round == 0:
                    traced_prev_useful = self._trace_round(
                        tracer, traced_rounds, start, result,
                        instructions_at_start, explorer, traced_prev_useful)
                    traced_rounds += 1

        result.steps = steps
        result.exhausted = not frontier
        result.paths_completed = explorer.paths_completed
        result.bugs = dedupe_bugs(bugs)
        result.test_cases = explorer.test_cases
        result.covered_lines = set(explorer.covered_lines)
        result.goal_reached = lim.satisfied_by(
            result.paths_completed, result.coverage_percent, len(bugs))
        result.useful_instructions = self.total_instructions - instructions_at_start
        result.states_remaining = len(frontier)
        result.wall_time = time.monotonic() - start
        result.cache_stats = aggregate_cache_counters([{
            key: value - counters_at_start[key]
            for key, value in self.solver.cache_counters().items()}])
        if tracer.enabled:
            self._trace_round(tracer, traced_rounds, start, result,
                              instructions_at_start, explorer,
                              traced_prev_useful)
            emit_solver_query(tracer, result.cache_stats,
                              self.solver.query_seconds)
            tracer.emit(trace_schema.RUN_FINISHED, **result.summary())
        return result

    def _trace_round(self, tracer, round_index: int, start: float,
                     result: RunResult, instructions_at_start: int,
                     explorer: Explorer, prev_useful: int) -> int:
        """One pseudo ``round_completed`` event (single-engine time series):
        the round record of a one-worker cluster (worker 0, no balancing).
        Returns the cumulative useful-instruction count for the next
        round's increment.
        """
        covered = len(explorer.covered_lines)
        candidates = len(explorer.frontier)
        total_useful = self.total_instructions - instructions_at_start
        useful = total_useful - prev_useful
        tracer.emit(trace_schema.ROUND_COMPLETED, **RoundSnapshot(
            round_index=round_index,
            elapsed=time.monotonic() - start,
            coverage_percent=(100.0 * covered / result.line_count
                              if result.line_count else 0.0),
            covered_lines=covered,
            paths_completed=explorer.paths_completed,
            bugs_found=len(explorer.bugs),
            total_candidates=candidates,
            num_workers=1,
            useful_instructions=useful,
            replay_instructions=0,
            states_transferred=0,
            queue_lengths={0: candidates},
            workers_detail={0: {"useful": useful, "replay": 0}},
            load_balancing_enabled=False,
        ).as_record())
        return total_useful
