"""Process environment variables, including symbolic ones.

Environment variables are a classic source of under-tested program inputs
(the paper's Coreutils experiments exercise utilities whose behaviour depends
on ``POSIXLY_CORRECT``-style variables).  The model keeps one environment per
execution state, shared by all processes, and lets symbolic tests either
pre-populate concrete values or mark a variable's value fully symbolic.

Program-facing natives:

* ``getenv(name)``   -> address of a NUL-terminated copy of the value, or 0;
* ``setenv(name, value, overwrite)`` / ``unsetenv(name)``;
* ``c9_env_symbolic(name, size)`` -- make the variable's value ``size``
  fresh symbolic bytes (the per-variable analogue of ``SIO_SYMBOLIC``).

Test-harness helpers (Python side): :func:`add_env_var`,
:func:`add_symbolic_env_var`.
"""

from __future__ import annotations

from typing import List, Union

from repro.engine.natives import NativeContext
from repro.engine.state import ExecutionState
from repro.posix.buffers import Cell
from repro.posix.data import posix_of


def _env_value_address(ctx: NativeContext, cells: List[Cell]) -> int:
    """Copy an environment value into fresh memory and return its address."""
    obj = ctx.allocate(len(cells) + 1, name="env")
    obj.cells = list(cells) + [0]
    return obj.address


def posix_getenv(ctx: NativeContext):
    """``getenv(name)`` -> address of the value (NUL-terminated), or NULL."""
    name = ctx.read_c_string(ctx.concrete_arg(0))
    cells = posix_of(ctx.state).env_vars.get(name)
    if cells is None:
        return 0
    return _env_value_address(ctx, list(cells))


def posix_setenv(ctx: NativeContext):
    """``setenv(name, value, overwrite)``."""
    name = ctx.read_c_string(ctx.concrete_arg(0))
    value = ctx.read_c_string(ctx.concrete_arg(1))
    overwrite = ctx.concrete_arg(2, 1)
    posix = posix_of(ctx.state)
    if name in posix.env_vars and not overwrite:
        return 0
    posix.own_table("env_vars")[name] = list(value)
    return 0


def posix_unsetenv(ctx: NativeContext):
    """``unsetenv(name)``."""
    name = ctx.read_c_string(ctx.concrete_arg(0))
    posix_of(ctx.state).own_table("env_vars").pop(name, None)
    return 0


def c9_env_symbolic(ctx: NativeContext):
    """``c9_env_symbolic(name, size)``: make a variable's value symbolic."""
    name = ctx.read_c_string(ctx.concrete_arg(0))
    size = ctx.concrete_arg(1)
    state = ctx.state
    label = "env_%s" % name.decode("latin-1")
    symbols = [state.new_symbol(label) for _ in range(size)]
    state.symbolic_inputs.setdefault(label, []).extend(symbols)
    posix_of(state).own_table("env_vars")[name] = list(symbols)
    return 0


HANDLERS = {
    "getenv": posix_getenv,
    "setenv": posix_setenv,
    "unsetenv": posix_unsetenv,
    "c9_env_symbolic": c9_env_symbolic,
}


# -- Python-side setup helpers (used by repro.testing) ---------------------------


def add_env_var(state: ExecutionState, name: Union[str, bytes],
                value: Union[str, bytes]) -> None:
    """Pre-populate one concrete environment variable for a test."""
    if isinstance(name, str):
        name = name.encode("latin-1")
    if isinstance(value, str):
        value = value.encode("latin-1")
    posix_of(state).own_table("env_vars")[name] = list(value)


def add_symbolic_env_var(state: ExecutionState, name: Union[str, bytes],
                         size: int, label: str = None) -> None:
    """Pre-populate one environment variable with fresh symbolic bytes."""
    if isinstance(name, str):
        name = name.encode("latin-1")
    label = label or "env_%s" % name.decode("latin-1")
    symbols = [state.new_symbol(label) for _ in range(size)]
    state.symbolic_inputs.setdefault(label, []).extend(symbols)
    posix_of(state).own_table("env_vars")[name] = list(symbols)
