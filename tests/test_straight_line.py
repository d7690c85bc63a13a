"""Differential oracle: a straight-line step explores what one-instruction
steps explore.

A sticky strategy (DFS, BFS) picks the node it just stepped again until the
node forks or ends, so the loops let one ``SymbolicExecutor.step(state,
budget)`` run that node's whole straight line.  The reference is the same
strategy with ``sticky = False`` (the test-local subclasses below), which
steps one instruction at a time.  Every run here is made both ways and must
agree on what it produced and on every work counter, and every limit must
stop on the same step.
"""

import pytest

from repro.lang import builder as L
from repro.cluster import worker as worker_module
from repro.distrib import specs
from repro.engine.errors import BugKind
from repro.engine.executor import SymbolicExecutor
from repro.engine.limits import ExplorationLimits
from repro.engine.state import ThreadStatus
from repro.engine.strategies import BfsStrategy, DfsStrategy
from repro.obs.trace import load_trace

from conftest import BUILTIN_SPECS, make_executor
from test_determinism import CLOCK_FIELDS


class OneStepDfs(DfsStrategy):
    sticky = False


class OneStepBfs(BfsStrategy):
    sticky = False


#: name -> (the strategy, its one-instruction reference)
STRATEGIES = {"dfs": (DfsStrategy, OneStepDfs), "bfs": (BfsStrategy, OneStepBfs)}

#: Instructions per spec in the sweep.
SWEEP_INSTRUCTIONS = 1500
#: Spec parameters for the sweep: two utilities at a size whose solver
#: queries take milliseconds, and a hang limit that ends paths inside it.
PARAMS = {
    "coreutils-rev": dict(input_size=2),
    "coreutils-sort": dict(input_size=2),
    "memcached-udp-hang": dict(max_instructions=300),
}


@pytest.fixture
def step_calls(monkeypatch):
    """Count ``SymbolicExecutor.step`` calls, per kind of run."""
    calls = {"block": 0, "one": 0, "kind": "block"}
    step = SymbolicExecutor.step

    def counting_step(self, state, budget=1):
        calls[calls["kind"]] += 1
        return step(self, state, budget)

    monkeypatch.setattr(SymbolicExecutor, "step", counting_step)
    return calls


def outcome(result):
    """Everything a run produced and every work counter it kept."""
    return dict(
        paths=result.paths_completed,
        covered=sorted(result.covered_lines),
        bugs=[bug.summary() for bug in result.bugs],
        test_cases=[(tuple(case.fork_trace), sorted(case.inputs.items()))
                    for case in result.test_cases],
        useful=result.useful_instructions,
        replay=result.replay_instructions,
        steps=result.steps,
        solver=result.cache_stats,
        exhausted=result.exhausted,
        goal_reached=result.goal_reached,
        remaining=result.states_remaining,
        rounds=result.rounds_executed,
        transferred=result.states_transferred,
    )


def run_both(spec, strategy, calls=None, params=None, **limits):
    """Run ``spec`` with straight-line steps, then one instruction at a
    time; both must produce the same.  Returns the first result."""
    results = []
    for kind, cls in zip(("block", "one"), STRATEGIES[strategy]):
        if calls is not None:
            calls["kind"] = kind
        test = specs.resolve_test(spec, **(params or PARAMS.get(spec, {})))
        results.append(test.run(backend="single", strategy=cls(),
                                limits=ExplorationLimits(**limits)))
    block, one = results
    assert outcome(block) == outcome(one)
    return block


# -- every registered spec -----------------------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_every_spec_explores_the_same(step_calls, spec, strategy):
    result = run_both(spec, strategy, step_calls,
                      max_instructions=SWEEP_INSTRUCTIONS)
    assert result.steps == step_calls["one"]
    assert step_calls["block"] < step_calls["one"]


def test_the_hang_limit_ends_a_block_where_it_ended_a_path():
    result = run_both("memcached-udp-hang", "dfs", max_instructions=2000)
    assert BugKind.INFINITE_LOOP.name in {bug.kind.name for bug in result.bugs}


@pytest.mark.parametrize("spec", ["pbzip", "prodcons"])
def test_threads_schedule_between_blocks(step_calls, spec):
    result = run_both(spec, "dfs", step_calls)
    assert result.exhausted
    # Scheduling decisions are steps that execute nothing.
    assert result.steps > result.useful_instructions
    assert step_calls["block"] < step_calls["one"]


def test_a_native_that_lowers_the_hang_limit_ends_the_block():
    """``cloud9_set_max_instructions`` changes the limit mid-path: the block
    must stop on the new limit, not the one it started with."""
    program = L.program("lowered", L.func(
        "main", [],
        L.expr_stmt(L.call("cloud9_set_max_instructions", 40)),
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), 1000), L.assign("i", L.add(L.var("i"), 1))),
        L.ret(0),
    ))
    outcomes = []
    for cls in STRATEGIES["dfs"]:
        executor = make_executor(program, posix=True)
        result = executor.run(strategy=cls())
        outcomes.append(outcome(result))
        assert [bug.kind for bug in result.bugs] == [BugKind.INFINITE_LOOP]
        assert result.useful_instructions == 40
    assert outcomes[0] == outcomes[1]


def _stop_without_yield(ctx):
    """On its fourth call, put the calling thread to sleep and, unlike
    every stock native that does, leave ``force_reschedule`` unset."""
    if ctx.concrete_arg(0) == 3:
        ctx.thread.status = ThreadStatus.SLEEPING
    return 0


@pytest.mark.parametrize("native", ["cloud9_thread_preempt", "stop_without_yield"])
def test_a_yield_or_a_stopped_thread_ends_the_block(native):
    program = L.program("yielding", L.func(
        "main", [],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), 5),
                 L.expr_stmt(L.call(native, L.var("i"))),
                 L.assign("i", L.add(L.var("i"), 1))),
        L.ret(0),
    ))
    outcomes = []
    for cls in STRATEGIES["dfs"]:
        executor = make_executor(program)
        executor.natives.register("stop_without_yield", _stop_without_yield)
        result = executor.run(strategy=cls())
        # A scheduling decision follows the call: a step with no instruction.
        assert result.steps > result.useful_instructions
        outcomes.append(outcome(result))
    assert outcomes[0] == outcomes[1]


# -- every limit stops on the same step ----------------------------------------------


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_max_steps_stops_inside_a_straight_line(strategy):
    result = run_both("lighttpd-frag-1.4.12", strategy, max_steps=777)
    assert result.steps == 777 and not result.exhausted


def test_max_paths_stops_on_the_same_step():
    result = run_both("printf", "dfs", params=dict(format_length=3),
                      max_paths=5)
    assert result.paths_completed == 5 and result.goal_reached


def test_stop_on_first_bug_stops_on_the_same_step():
    result = run_both("memcached-udp-hang", "dfs", stop_on_first_bug=True)
    assert len(result.bugs) == 1 and result.goal_reached


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_coverage_target_stops_on_the_same_step(strategy):
    result = run_both("printf", strategy, params=dict(format_length=3),
                      coverage_target=40.0)
    assert result.goal_reached and not result.exhausted
    assert 40.0 <= result.coverage_percent < 41.0


# -- tracing --------------------------------------------------------------------------


def test_a_traced_run_emits_the_same_events(tmp_path):
    traces = []
    for kind, cls in zip(("block", "one"), STRATEGIES["dfs"]):
        path = str(tmp_path / ("%s.jsonl" % kind))
        test = specs.resolve_test("memcached-udp-hang")
        test.run(backend="single", strategy=cls(),
                 limits=ExplorationLimits(max_instructions=6000,
                                          trace_path=path))
        traces.append([{key: value for key, value in record.items()
                        if key not in CLOCK_FIELDS}
                       for record in load_trace(path)])
    events = [record["event"] for record in traces[0]]
    assert events.count("round_completed") > 20 and "bug_found" in events
    assert traces[0] == traces[1]


# -- a cluster -----------------------------------------------------------------------


def test_a_dfs_cluster_makes_the_same_rounds_and_transfers(monkeypatch):
    def run(strategy_cls):
        def strategy_for(name, seed=0, program=None):
            assert name == "dfs"
            return strategy_cls()

        monkeypatch.setattr(worker_module, "make_strategy", strategy_for)
        test = specs.resolve_test("printf", format_length=2)
        return test.run(backend="cluster", workers=2, strategy="dfs",
                        instructions_per_round=100)

    block, one = (run(cls) for cls in STRATEGIES["dfs"])
    assert block.exhausted and block.states_transferred > 0
    assert block.replay_instructions > 0
    assert outcome(block) == outcome(one)


# -- the step itself -----------------------------------------------------------------


def _counting_loop(iterations):
    return L.program("loop", L.func(
        "main", [],
        L.decl("i", 0),
        L.while_(L.lt(L.var("i"), iterations),
                 L.assign("i", L.add(L.var("i"), 1))),
        L.ret(L.var("i")),
    ))


def test_a_one_instruction_step_keeps_no_line_set():
    executor = make_executor(_counting_loop(10))
    state = executor.make_initial_state()
    result = executor.step(state)
    assert result.instructions == 1 and result.lines is None
    assert state.coverage == {result.line}


def test_a_step_runs_its_budget_and_no_further():
    executor = make_executor(_counting_loop(100))
    state = executor.make_initial_state()
    result = executor.step(state, 25)
    assert result.instructions == 25 and result.children == [state]
    assert result.lines == state.coverage
    assert executor.total_instructions == 25
    assert state.instructions_executed == 25


def test_a_step_ends_at_a_fork():
    test = specs.resolve_test("printf", format_length=1)
    executor = test.build_executor()
    state = test.build_initial_state(executor)
    while True:
        result = executor.step(state, 10**6)
        if len(result.children) > 1:
            break
        (state,) = result.children
        assert state.is_running
    assert result.instructions >= 1
