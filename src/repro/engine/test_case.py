"""Concrete test cases generated from symbolic paths.

When a path terminates (normally or with a bug), solving its path constraint
yields concrete values for every symbolic input; together with the recorded
thread schedule and fault-injection decisions these "take the program to the
bug" (§3.2) and constitute a regular, replayable test case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.engine.state import ExecutionState
from repro.solver.model import Model
from repro.solver.solver import Solver


@dataclass
class TestCase:
    """Concrete inputs reproducing one explored path."""

    # Not a pytest test class, despite the name (silences collection warning).
    __test__ = False

    state_id: int
    inputs: Dict[str, bytes]
    path_length: int
    fork_trace: List[int] = field(default_factory=list)
    exit_code: Optional[int] = None
    is_error: bool = False
    error_summary: Optional[str] = None

    def input_bytes(self, name: str) -> bytes:
        return self.inputs.get(name, b"")

    def __repr__(self) -> str:
        kind = "error" if self.is_error else "normal"
        return "TestCase(state=%d, %s, inputs=%s)" % (
            self.state_id, kind,
            {k: v.hex() for k, v in self.inputs.items()})


def generate_test_case(state: ExecutionState, solver: Solver,
                       error_summary: Optional[str] = None) -> Optional[TestCase]:
    """Solve a state's path constraint and concretize its symbolic inputs.

    A symbolic exit code is evaluated under the model that concretises the
    inputs, so the test case records the code those inputs exit with.

    Returns None when the path constraint is (or has become) unsatisfiable,
    which only happens if the solver previously returned "unknown" for a
    branch that was in fact infeasible.
    """
    model = solver.get_model(state.path_constraints)
    if model is None:
        if state.path_constraints:
            return None
        model = Model({})
    inputs = {
        name: model.as_bytes(symbols)
        for name, symbols in state.symbolic_inputs.items()
    }
    exit_code = state.exit_code
    if not isinstance(exit_code, int):
        exit_code = int(model.evaluate(exit_code))
    return TestCase(
        state_id=state.state_id,
        inputs=inputs,
        path_length=state.instructions_executed,
        fork_trace=list(state.fork_trace),
        exit_code=exit_code,
        is_error=error_summary is not None,
        error_summary=error_summary,
    )
