"""The Cloud9 symbolic-testing API (paper §5.1, Table 2).

Besides ``cloud9_make_symbolic`` (provided by the engine) and the fault
injection toggles (in :mod:`repro.posix.fault`), the testing API lets
symbolic tests control global behaviour:

* ``cloud9_set_max_heap(bytes)`` -- simulate low-memory conditions: once the
  modeled heap usage exceeds the limit, ``malloc`` returns NULL.
* ``cloud9_set_scheduler(policy)`` -- select the scheduling policy for the
  current region of code (0 = round robin, 1 = exhaustive schedule forking,
  2 = iterative-context-bounded forking).

This module also provides setup helpers used by the Python-side testing
platform (:mod:`repro.testing`) to pre-populate the modeled environment:
symbolic files and concrete files.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.engine.natives import NativeContext
from repro.engine.scheduler import (
    POLICY_CONTEXT_BOUNDED,
    POLICY_FORK_ALL,
    POLICY_ROUND_ROBIN,
)
from repro.engine.state import ExecutionState
from repro.posix.buffers import BlockBuffer
from repro.posix.data import FileNode, posix_of

SCHEDULER_POLICIES = {
    0: POLICY_ROUND_ROBIN,
    1: POLICY_FORK_ALL,
    2: POLICY_CONTEXT_BOUNDED,
}


def cloud9_set_max_heap(ctx: NativeContext):
    """Set the maximum modeled heap size for symbolic malloc (Table 2)."""
    ctx.state.options["max_heap"] = ctx.concrete_arg(0)
    return 0


def cloud9_set_scheduler(ctx: NativeContext):
    """Select the scheduler policy (Table 2): 0=RR, 1=fork-all, 2=context-bounded."""
    policy_code = ctx.concrete_arg(0)
    policy = SCHEDULER_POLICIES.get(policy_code)
    if policy is None:
        return 0xFFFFFFFF
    ctx.state.options["scheduler_policy"] = policy
    ctx.state.options["fork_schedules"] = policy in (POLICY_FORK_ALL,
                                                     POLICY_CONTEXT_BOUNDED)
    if policy == POLICY_CONTEXT_BOUNDED:
        ctx.state.options.setdefault("context_bound", 2)
    return 0


def cloud9_set_max_instructions(ctx: NativeContext):
    """Per-path instruction budget (the hang detector of §7.3.3)."""
    ctx.state.options["max_instructions"] = ctx.concrete_arg(0)
    return 0


HANDLERS = {
    "cloud9_set_max_heap": cloud9_set_max_heap,
    "cloud9_set_scheduler": cloud9_set_scheduler,
    "cloud9_set_max_instructions": cloud9_set_max_instructions,
}


# -- Python-side environment setup helpers (used by repro.testing) -----------------


def add_concrete_file(state: ExecutionState, path: Union[str, bytes],
                      contents: bytes) -> None:
    """Create a file with concrete contents in the modeled file system."""
    if isinstance(path, str):
        path = path.encode("latin-1")
    node = FileNode(path=path, data=BlockBuffer())
    node.data.set_contents(list(contents))
    posix_of(state).own_table("filesystem")[path] = node


def add_symbolic_file(state: ExecutionState, path: Union[str, bytes],
                      size: int, label: Optional[str] = None) -> None:
    """Create a file whose contents are fresh symbolic bytes."""
    if isinstance(path, str):
        path = path.encode("latin-1")
    label = label or "file_%s" % path.decode("latin-1").strip("/").replace("/", "_")
    cells = [state.new_symbol(label) for _ in range(size)]
    state.symbolic_inputs.setdefault(label, []).extend(cells)
    node = FileNode(path=path, data=BlockBuffer(), symbolic=True)
    node.data.set_contents(cells)
    posix_of(state).own_table("filesystem")[path] = node
