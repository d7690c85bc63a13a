"""Static analyses over compiled programs.

These are small helpers used by the coverage machinery and the benchmark
harness (e.g. the Coreutils coverage experiment needs program sizes in lines).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.lang.compiler import CompiledProgram, Opcode


def program_line_count(compiled: CompiledProgram) -> int:
    """Number of coverable source lines in a compiled program."""
    return compiled.line_count


def program_function_names(compiled: CompiledProgram) -> List[str]:
    return sorted(compiled.functions)


def lines_of_function(compiled: CompiledProgram, name: str) -> Set[int]:
    """The set of line numbers belonging to one function."""
    return {instr.line for instr in compiled.function(name).instructions}


def call_graph(compiled: CompiledProgram) -> Dict[str, Set[str]]:
    """Map each function to the set of function names it may call.

    Native (modeled/POSIX) functions appear as callees even though they are
    not defined in the program; callers can filter by membership in
    ``compiled.functions``.
    """
    graph: Dict[str, Set[str]] = {}
    for name, fn in compiled.functions.items():
        callees: Set[str] = set()
        for instr in fn.instructions:
            if instr.opcode == Opcode.CALL and instr.name is not None:
                callees.add(instr.name)
        graph[name] = callees
    return graph


def reachable_functions(compiled: CompiledProgram, root: str = None) -> Set[str]:
    """Program functions reachable from ``root`` (defaults to the entry point)."""
    graph = call_graph(compiled)
    start = root if root is not None else compiled.entry
    if start not in compiled.functions:
        return set()
    seen: Set[str] = set()
    stack = [start]
    while stack:
        name = stack.pop()
        if name in seen or name not in compiled.functions:
            continue
        seen.add(name)
        stack.extend(graph.get(name, ()))
    return seen


def branch_count(compiled: CompiledProgram) -> int:
    """Number of BRANCH instructions (an upper bound on forking points)."""
    return sum(
        1
        for fn in compiled.functions.values()
        for instr in fn.instructions
        if instr.opcode == Opcode.BRANCH
    )
