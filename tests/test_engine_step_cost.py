"""What one step costs, counted rather than timed.

These guards count events that repeat exactly from run to run, so they hold
on a noisy runner: the Python-level calls one instruction takes (32.1 with
the tree-walking interpreter, 16.15 decoded, 15.14 once a straight-line step
no longer reaches ``Explorer._graft``, 8.16 under DFS once one step runs a
whole straight line -- one select, one ``StepResult`` and one pass through
the loops per line -- while a step of one instruction stays at 15.14; 4.19
under DFS and 12.16 one instruction at a time once the straight-line loop
moved into ``Interpreter.run_line`` and a concrete ``ASSIGN`` or ``BRANCH``
became one generated function; 2.77 under DFS and 10.61 one instruction at
a time, from 3.43 and 11.27, once ``run_line`` booked a straight line's
instructions and lines once -- before a handler that can read them, and at
the line's end -- and a concrete byte at a direct pointer loaded in one
call; 1.71 under DFS, from 2.60, once a loop head's region ran whole passes
of its loop in one call; 1.76 under DFS and 10.54 one instruction at a
time, from 1.71 and 10.44, once every generated instruction became a
region of one, written when its function is decoded, and a non-``int`` or
out-of-range local went to the closure), the calls one random-path select makes (35.1 when every level
built a list, 17.0 walking two-way forks without one, 1.01 once a two-way draw was written out as ``getrandbits``
loops, which are C calls), the C calls one random-path select makes from
its own code (83.1 on printf, 34.1 of them ``dict.get`` and 17.0 ``len``,
to 32.0, every one a ``getrandbits`` draw, once each node kept its two-way
child pair), and the set elements the coverage books copy or
scan per step, which must not grow with the length of the path.  Regions,
the one kind of generated code, are compiled once per process: a second
executor of the same program compiles nothing.

Under interleaved search, the default, memcached-packets 3 x 4 took 110.3
calls per instruction and built 11 632 ``Expr`` nodes for 195 distinct
structures; 68.7 and 312 once recently built nodes stayed alive in the
intern table's nursery, a checked branch side kept its query and the
coverage searcher memoised the weight of a position; 40.0 once interned
nodes, sorts and operators hashed and compared by identity (no call into
``Enum.__hash__``, ``WeakValueDictionary.get`` or an ``Expr`` ``__hash__``
or ``__eq__`` is left), a path-constraint group remembered its
constraint-cache entry, a branch value kept its two conditions on its
node and widths and masks were read off the sort.
"""

import enum
import os
import sys
import weakref
from collections import Counter

from repro import lang as L
from repro.distrib import specs
from repro.engine import interpreter
from repro.engine.explorer import Explorer
from repro.engine.limits import ExplorationLimits
from repro.engine.strategies import (
    DfsStrategy,
    RandomPathStrategy,
    make_strategy,
)
from repro.lang.ast import BinaryOp, BinExpr, Const, Index, UnExpr, Var
from repro.lang.compiler import Opcode
from repro.solver import expr as E
from repro.solver.expr import Expr

from conftest import make_executor, python_calls


class OneStepDfs(DfsStrategy):
    """DFS stepped one instruction at a time: the path every non-sticky
    strategy takes."""

    sticky = False


def _calls_per_instruction(strategy) -> float:
    test = specs.resolve_test("lighttpd-frag-1.4.12")
    with python_calls() as calls:
        result = test.run(backend="single", strategy=strategy,
                          limits=ExplorationLimits(max_instructions=20_000))
    assert result.useful_instructions == 20_000
    return sum(calls.values()) / result.useful_instructions


def test_python_calls_per_instruction_stay_under_the_straight_line_budget():
    assert _calls_per_instruction(make_strategy("dfs")) <= 1.8


def test_python_calls_per_instruction_stay_under_the_decoded_budget():
    assert _calls_per_instruction(OneStepDfs()) <= 13


def test_a_second_executor_of_the_same_spec_compiles_no_handler(monkeypatch):
    """Nor a region: the loops of ``scan_terminator`` and
    ``parse_request_line`` have theirs."""
    compiled = []

    def counting_compile(source, *args, **kwargs):
        compiled.append(source)
        return compile(source, *args, **kwargs)

    monkeypatch.setattr(interpreter, "compile", counting_compile,
                        raising=False)
    test = specs.resolve_test("lighttpd-frag-1.4.12")
    executors = []
    for _ in range(2):
        executor = test.build_executor()
        executor.run(test.build_initial_state(executor), strategy="dfs",
                     max_instructions=20_000)
        executors.append((executor, len(compiled)))
    (_, first), (second, both) = executors
    assert both == first
    # One generator: every covered instruction's entry holds a region, and
    # nothing else is generated.
    assert all(code.co_filename == "<generated region>"
               for code in interpreter._code_cache.values())
    regions = []
    for function, code in second.interpreter._code.items():
        instructions = second.program.function(function).instructions
        for instr, (_, _, region) in zip(instructions, code):
            if instr.opcode in (Opcode.ASSIGN, Opcode.BRANCH):
                assert (region is not None) == _covered(instr.expr), instr
            else:
                assert (region is not None) == (instr.opcode == Opcode.JUMP)
            if region is not None:
                assert region.__code__.co_filename == "<generated region>"
                regions.append((function, region))
    assert len(regions) > 50
    loops = [function for function, region in regions
             if region.__globals__["_longest"] > 1]
    assert loops.count("scan_terminator") == 1
    assert loops.count("parse_request_line") == 1


def _covered(expr) -> bool:
    """Whether the generator lowers ``expr``: variables, constants, loads,
    unary operators and binary ones but ``/`` and ``%``."""
    if isinstance(expr, (Const, Var)):
        return True
    if isinstance(expr, UnExpr):
        return _covered(expr.operand)
    if isinstance(expr, BinExpr):
        return (expr.op not in (BinaryOp.DIV, BinaryOp.MOD)
                and _covered(expr.left) and _covered(expr.right))
    if isinstance(expr, Index):
        return _covered(expr.base) and _covered(expr.offset)
    return False


def test_python_calls_per_random_path_select_stay_under_the_walk_budget():
    """Calls in the strategy and in ``random`` only: the walk itself and
    one ``_randbelow`` per level (the frontier's ``in`` check is not
    counted)."""
    test = specs.resolve_test("printf", format_length=4)
    strategy = make_strategy("random_path", program=test.program)
    with python_calls() as calls:
        result = test.run(backend="single", strategy=strategy,
                          limits=ExplorationLimits(max_instructions=15_000))
    assert result.steps == 15_000
    walk = sum(count for path, count in calls.items()
               if path.endswith((os.path.join("engine", "strategies.py"),
                                 os.sep + "random.py")))
    assert walk / result.steps <= 1.1


def test_a_random_path_select_makes_no_c_call_but_its_draws():
    """Every fork of printf is two-way: the walk reads each level's child
    pair and calls nothing but ``getrandbits`` (no ``dict.get``, ``len`` or
    ``sorted``).  The draws themselves are the plain walk's, select by
    select (``tests/test_frontier_differential.py``)."""
    walk = RandomPathStrategy.select.__code__
    made: Counter = Counter()
    selects = 0

    def on_event(frame, event, arg):
        nonlocal selects
        if frame.f_code is walk:
            if event == "call":
                selects += 1
            elif event == "c_call":
                made[arg.__name__] += 1

    test = specs.resolve_test("printf", format_length=4)
    strategy = make_strategy("random_path", program=test.program)
    previous = sys.getprofile()
    sys.setprofile(on_event)
    try:
        result = test.run(backend="single", strategy=strategy,
                          limits=ExplorationLimits(max_instructions=15_000))
    finally:
        sys.setprofile(previous)
    assert result.steps == selects == 15_000
    assert set(made) == {"getrandbits"}
    assert round(made["getrandbits"] / selects, 1) == 32.0


def _memcached_interleaved():
    return specs.resolve_test("memcached-packets", num_packets=3,
                              packet_size=4)


def test_python_calls_per_instruction_stay_under_the_interleaved_budget():
    with python_calls(by_code=True) as calls:
        result = _memcached_interleaved().run(backend="single")
    assert result.exhausted and result.useful_instructions == 13_635
    assert sum(calls.values()) / result.useful_instructions <= 42
    # Interned nodes, their sorts and operators hash and compare in C, and
    # a hit in the intern table never enters ``WeakValueDictionary.get``.
    in_python = [code for code in calls
                 if code is enum.Enum.__hash__.__code__
                 or code is weakref.WeakValueDictionary.get.__code__
                 or (code.co_filename == E.__file__
                     and code.co_name in ("__hash__", "__eq__"))]
    assert in_python == []


def test_a_cold_interleaved_run_builds_few_expressions(monkeypatch):
    """An upper bound: nodes left alive by earlier tests only lower it."""
    built = []
    real_init = Expr.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Expr, "__init__", counting_init)
    result = _memcached_interleaved().run(backend="single")
    assert result.exhausted and result.cache_stats["solver_queries"] == 4885
    assert len(built) <= 400


class CountingSet(set):
    """A set that tallies the sizes of the operands of its bulk operations."""

    touched = 0

    def update(self, *others):
        CountingSet.touched += sum(len(other) for other in others)
        super().update(*others)

    def __sub__(self, other):
        CountingSet.touched += len(self) + len(other)
        return super().__sub__(other)

    def __rsub__(self, other):
        CountingSet.touched += len(self) + len(other)
        return super().__rsub__(other)


def test_coverage_books_do_not_grow_with_the_path():
    distinct_lines, iterations = 40, 3000
    body = [L.assign("x", L.add(L.var("x"), k)) for k in range(distinct_lines - 1)]
    program = L.program("p", L.func(
        "main", [],
        L.decl("i", 0),
        L.decl("x", 0),
        L.while_(L.lt(L.var("i"), iterations),
                 L.assign("i", L.add(L.var("i"), 1)),
                 *body),
        L.ret(L.var("x")),
    ))
    executor = make_executor(program)
    strategy = make_strategy("dfs", program=executor.program)
    explorer = Explorer(executor, strategy)
    CountingSet.touched = 0
    explorer.covered_lines = CountingSet()
    explorer.seed_state(executor.make_initial_state(
        options={"max_instructions": 10 * distinct_lines * iterations}))

    steps = 0
    while explorer.frontier:
        explorer.step_node(strategy.select(explorer.tree, explorer.frontier))
        steps += 1

    lines = executor.program.line_count
    assert explorer.paths_completed == 1 and not explorer.bugs
    assert steps > distinct_lines * iterations
    assert distinct_lines <= len(explorer.covered_lines) <= lines
    # The root's first step touches the whole line set once; nothing is
    # touched per step.
    assert CountingSet.touched <= 8 * lines
